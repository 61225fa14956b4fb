"""The package's one fork path: a stream of items made in a forked child.

:func:`streamed` runs a generator in a child process beside the caller and
hands the caller an iterator over what it yields.  The battery's descent
(:func:`~hardsum.verify.run_battery`) streams one item, its report;
:func:`~hardsum.optim.svrc_run` streams every step's draw counts.  Where a
fork cannot help, the same iterator runs in the calling process.
"""
from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager

#: what a message of the child's stream holds: an item, the exception that
#: ended the stream, or its end
_ITEM, _RAISED, _END = "item", "raised", "end"


def fork_helps() -> bool:
    """Whether :func:`streamed` may fork: ``os.fork`` exists, at least two
    CPUs are usable, and the process runs one Python thread (a child copies
    only the thread that forks, so a lock another thread held would stay
    held in it)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (hasattr(os, "fork") and affinity is not None
            and len(affinity(0)) >= 2 and threading.active_count() == 1)


@contextmanager
def streamed(items, pays: bool):
    """Yield an iterator over ``items()``, an iterable made beside the block.

    Where ``pays`` and :func:`fork_helps`, ``items()`` starts at once in a
    forked child, which pickles each item into a pipe as soon as it is
    made, so the pipe's buffer bounds how far the child runs ahead of the
    caller.  It sends the exception that ends ``items()`` the same way,
    with the warnings it caught, and leaves by ``os._exit``: it flushes no
    inherited stdio and runs no atexit hook.  The yielded iterator reads the
    pipe, warns those warnings again and raises that exception again; it
    reaps the child when the stream ends, and a child that stops sending
    raises RuntimeError naming its exit status.  A block left before the
    stream's end kills and reaps the child.  Elsewhere the yielded iterator
    is ``iter(items())``, in the calling process.
    """
    if not (pays and fork_helps()):
        yield iter(items())
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _send(items, write_fd)
    os.close(write_fd)
    reaped = False

    def received():
        nonlocal reaped
        with open(read_fd, "rb", closefd=False) as pipe:
            while True:
                try:
                    kind, value, caught = pickle.load(pipe)
                except EOFError:
                    kind = None
                if kind != _ITEM:
                    status = os.waitpid(pid, 0)[1]
                    reaped = True
                if kind is None:
                    raise RuntimeError(
                        "the child process sent no result (exit status "
                        f"{os.waitstatus_to_exitcode(status)})")
                for message, category, filename, lineno in caught:
                    warnings.warn_explicit(message, category, filename,
                                           lineno)
                if kind == _RAISED:
                    raise value
                if kind == _END:
                    return
                yield value

    stream = received()
    try:
        yield stream
    finally:
        stream.close()
        os.close(read_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(items, fd: int):
    """The forked child's side of :func:`streamed`; never returns.

    The objects the child inherits are frozen out of the cyclic collector,
    so no finalizer of the parent's garbage runs in the child.  An item or
    exception that does not pickle ends the stream as RuntimeError("Type:
    message").
    """
    code = 1
    try:
        gc.freeze()
        with warnings.catch_warnings(record=True) as caught, \
                open(fd, "wb") as pipe:
            sent = 0

            def put(kind, value):
                nonlocal sent
                new = [(w.message, w.category, w.filename, w.lineno)
                       for w in caught[sent:]]
                try:
                    payload = pickle.dumps((kind, value, new))
                except Exception:     # a value that does not pickle
                    payload = pickle.dumps((_RAISED, RuntimeError(
                        f"{type(value).__name__}: {value}"), new))
                    kind = _RAISED
                sent = len(caught)
                pipe.write(payload)
                pipe.flush()
                return kind != _RAISED

            try:
                for item in items():
                    if not put(_ITEM, item):
                        break
                else:
                    put(_END, None)
            except Exception as exc:
                put(_RAISED, exc)
        code = 0
    finally:
        os._exit(code)
