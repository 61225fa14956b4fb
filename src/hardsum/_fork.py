"""The package's one fork path: streams of items made in a forked helper.

:func:`streamed` runs a generator function in a helper process beside the
caller and hands the caller an iterator over what it yields.  The battery's
descent (:func:`~hardsum.verify.run_battery`) streams one item, its report;
:func:`~hardsum.optim.svrc_run` streams every step's draw counts.

A process has at most one helper.  The first stream that can use one forks
it, and it serves every later stream of the process, one at a time, so a
stream pays neither a fork nor the copy-on-write faults that follow one.
The helper is a copy of the caller as it was when it was forked: it runs
the functions, and holds the file descriptors, the caller had then.  It
outlives the call that forked it, but no process outlives the caller: the
helper is killed and reaped when a stream is left before its end, when a
stream finds it gone and when the caller exits (an ``atexit`` hook), and
it leaves by itself when its request pipe ends, as it does when the
caller dies without running that hook.  A process forked from the caller
drops the caller's helper, and forks its own if it streams.  Where a fork
cannot help, a stream runs in the calling process.
"""
from __future__ import annotations

import atexit
import gc
import os
import pickle
import signal
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

#: what a message of the helper's stream holds: an item, the exception that
#: ended the stream, or its end
_ITEM, _RAISED, _END = "item", "raised", "end"


@dataclass
class _Helper:
    """A forked helper: its process id, the write end of the pipe that
    takes its requests and the read end of the pipe that gives its
    replies; ``busy`` while a stream of it is open."""

    pid: int
    requests: int
    replies: int
    busy: bool = False


#: this process's helper, or None before the first stream that forks one
_helper: _Helper | None = None


def fork_helps() -> bool:
    """Whether :func:`streamed` may use a helper: ``os.fork`` exists, at
    least two CPUs are usable, and the process runs one Python thread (a
    child copies only the thread that forks, so a lock another thread held
    would stay held in it)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return (hasattr(os, "fork") and affinity is not None
            and len(affinity(0)) >= 2 and threading.active_count() == 1)


@contextmanager
def streamed(func, args: tuple, pays: bool):
    """Yield an iterator over ``func(*args)``, an iterable made beside the
    block; ``func`` is a module-level function and ``args`` pickle.

    Where ``pays`` and :func:`fork_helps`, and no other stream of the
    helper is open, the helper runs ``func(*args)`` as soon as the request
    reaches it, and pickles each item into a pipe as soon as it is made, so
    the pipe's buffer bounds how far it runs ahead of the caller.  It sends
    the exception that ends the stream the same way, with the warnings it
    caught, then waits for the next request.  The yielded iterator reads
    the pipe, warns those warnings again and raises that exception again;
    a helper that stops sending, or sends part of a message, is reaped and
    named, with its exit status, by RuntimeError.  A block left before the
    stream's end kills and reaps the helper; the next stream forks a new
    one.  Elsewhere, and where a fork fails (a full process table, no
    memory) or the helper is gone, the yielded iterator is
    ``iter(func(*args))``, in the calling process.
    """
    helper = _idle_helper(pays)
    if helper is not None:
        # sent as pickled bytes, so that a request the helper cannot load
        # (a function it does not have) ends that stream alone
        request = pickle.dumps((func, args))
        try:
            with open(helper.requests, "wb", closefd=False) as pipe:
                pickle.dump(request, pipe)
        except OSError:         # the helper is gone
            _stop()
            helper = None
    if helper is None:
        yield iter(func(*args))
        return
    helper.busy, ended = True, False

    def received():
        nonlocal ended
        with open(helper.replies, "rb", closefd=False) as pipe:
            while True:
                try:
                    kind, value, caught = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    kind = None
                ended = kind != _ITEM
                if kind is None:
                    status = _stop()
                    raise RuntimeError(
                        "the helper process sent no result (exit status "
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
        if not ended:
            _stop()
        elif helper is _helper:
            helper.busy = False


def _idle_helper(pays: bool) -> _Helper | None:
    """This process's helper, forked if there is none, where ``pays`` and
    :func:`fork_helps`; None where a stream of it is open or it cannot be
    forked."""
    global _helper
    if not (pays and fork_helps()):
        return None
    if _helper is None:
        _helper = _start()
    return None if _helper is None or _helper.busy else _helper


def _start() -> _Helper | None:
    """A new helper, or None where ``os.fork`` fails, its pipes closed."""
    requests, served = os.pipe()
    replies, sent = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (requests, served, replies, sent):
            os.close(fd)
        return None
    if pid == 0:
        os.close(served)
        os.close(replies)
        _serve(requests, sent)
    os.close(requests)
    os.close(sent)
    return _Helper(pid, served, replies)


def _forget() -> _Helper | None:
    """Drop this process's helper, if it has one, and close its pipes;
    returns it.  Run in every forked child, so that the parent's helper
    sees its requests end when the parent's end."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        os.close(helper.requests)
        os.close(helper.replies)
    return helper


os.register_at_fork(after_in_child=_forget)


def _stop() -> int:
    """Kill this process's helper, close its pipes and reap it; returns
    its wait status."""
    helper = _forget()
    os.kill(helper.pid, signal.SIGKILL)
    return os.waitpid(helper.pid, 0)[1]


@atexit.register
def _shutdown():
    """Stop this process's helper, if it has one."""
    if _helper is not None:
        _stop()


def _serve(requests: int, replies: int):
    """The helper's side of :func:`streamed`; never returns.

    The objects the helper inherits are frozen out of the cyclic collector,
    so no finalizer of the parent's garbage runs in it.  It serves each
    request (:func:`_send`) until the request pipe ends, then leaves by
    ``os._exit``: it flushes no inherited stdio and runs no atexit hook.
    """
    code = 1
    try:
        gc.freeze()
        with open(requests, "rb") as asked, open(replies, "wb") as pipe:
            while True:
                try:
                    request = pickle.load(asked)
                except EOFError:
                    break
                _send(request, pipe)
        code = 0
    finally:
        os._exit(code)


def _send(request: bytes, pipe):
    """Run one pickled request, ``(func, args)``, into the reply pipe: each
    item of ``func(*args)``, then the end or the exception that ended the
    stream, each message with the warnings caught since the last.  An item
    or exception that does not pickle ends the stream as RuntimeError("Type:
    message")."""
    with warnings.catch_warnings(record=True) as caught:
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
            func, args = pickle.loads(request)
            for item in func(*args):
                if not put(_ITEM, item):
                    break
            else:
                put(_END, None)
        except Exception as exc:
            put(_RAISED, exc)
