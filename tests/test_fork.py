"""hardsum._fork.streamed: a forked helper's items reach the caller in order,
with its warnings, and an item that does not pickle ends the stream.  One
helper serves every stream of a process; a stream left early, the caller's
exit or death, and a fork of the caller each end or drop it, and a fork
that fails or a helper that is gone leaves the stream inline."""
import dataclasses
import os
import pickle
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import hardsum.optim
from conftest import counted_forks, no_child_left
from hardsum import _fork
from hardsum._fork import streamed
from hardsum.oracle import OracleLedger, quadratic_cosine_sum
from hardsum.optim import SvrcParams, svrc_run
from hardsum.verify import run_battery

ROOT = Path(__file__).resolve().parent.parent

#: n = 16 components; every step draws fresh batches
SMALL = SvrcParams(M=5.0, b_g=5, b_h=7, S=3, T=3, eps=1e-3, Delta=1.0,
                   L2=1.0)
#: a battery of the hard-instance checks alone, with a short descent
HARD_ONLY = dict(num_points=0, zero_chain_samples=0, pairs=0, trials=0,
                 starts=3)


def _items():
    yield 1
    warnings.warn("after the first item", UserWarning)
    yield 2
    yield lambda: 3       # does not pickle
    yield 4


def _pids(count):
    """``count`` times the id of the process that runs the stream."""
    for _ in range(count):
        yield os.getpid()


def _helper_pid() -> int:
    """The id of the process that runs a one-item stream."""
    with streamed(_pids, (1,), True) as stream:
        (pid,) = stream
    return pid


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has ended: no such process, or a zombie that
    a reaper other than this process has yet to reap."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _ends(pid: int, seconds: float = 30.0) -> bool:
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_an_item_that_does_not_pickle_ends_the_stream(monkeypatch):
    calls = counted_forks(monkeypatch)
    got = []
    with pytest.warns(UserWarning, match="^after the first item$"), \
            pytest.raises(RuntimeError, match="^function: <function "):
        with streamed(_items, (), True) as stream:
            got.extend(stream)
    assert len(calls) == 1 and got == [1, 2]
    no_child_left()


def test_inline_the_stream_is_the_generator(monkeypatch):
    calls = counted_forks(monkeypatch, cpus=1)
    with pytest.warns(UserWarning), streamed(_items, (), True) as stream:
        got = list(stream)
    assert calls == [] and got[:2] == [1, 2] and got[3] == 4


def _svrc_bits(seed):
    F = quadratic_cosine_sum(16, 5, seed=1)
    ledger = OracleLedger(n=F.n)
    x_out, traj = svrc_run(F, dataclasses.replace(SMALL, seed=seed),
                           ledger=ledger)
    return x_out.tobytes(), [dataclasses.astuple(r) for r in traj], \
        ledger.counters()


def _battery():
    with pytest.warns(UserWarning):
        return [dataclasses.astuple(c) for c in run_battery(**HARD_ONLY)]


def test_ten_svrc_runs_and_two_batteries_fork_once(monkeypatch):
    monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
    inline = [_svrc_bits(seed) for seed in range(10)]
    calls = counted_forks(monkeypatch, cpus=1)
    inline_battery = _battery()
    assert calls == []
    calls = counted_forks(monkeypatch)
    monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
    pid = _helper_pid()
    assert [_svrc_bits(seed) for seed in range(10)] == inline
    assert [_battery(), _battery()] == [inline_battery] * 2
    assert calls == [os.getpid()] and _helper_pid() == pid != os.getpid()
    no_child_left()


def test_a_stream_left_early_kills_the_helper(monkeypatch):
    calls = counted_forks(monkeypatch)
    with streamed(_pids, (10 ** 9,), True) as stream:
        pid = next(stream)
    assert _gone(pid) and _fork._helper is None
    fresh = _helper_pid()
    assert fresh not in (pid, os.getpid()) and len(calls) == 2
    no_child_left()


def test_an_exception_in_the_block_kills_the_helper(monkeypatch):
    counted_forks(monkeypatch)
    pid = _helper_pid()
    with pytest.raises(KeyError):
        with streamed(_pids, (1,), True):
            raise KeyError("the caller broke")
    assert _gone(pid) and _fork._helper is None
    no_child_left()


def test_a_helper_that_is_gone_is_reaped_and_the_stream_runs_inline(
        monkeypatch):
    calls = counted_forks(monkeypatch)
    pid = _helper_pid()
    os.kill(pid, signal.SIGKILL)
    assert _ends(pid)
    assert _helper_pid() == os.getpid() and len(calls) == 1
    assert _fork._helper is None
    assert _helper_pid() not in (pid, os.getpid()) and len(calls) == 2
    no_child_left()


def test_a_stream_opened_in_another_runs_inline(monkeypatch):
    calls = counted_forks(monkeypatch)
    with streamed(_pids, (2,), True) as outer:
        helper = next(outer)
        with streamed(_pids, (1,), True) as inner:
            assert list(inner) == [os.getpid()]
        assert list(outer) == [helper]
    assert helper != os.getpid() and _helper_pid() == helper
    assert len(calls) == 1
    no_child_left()


def test_a_forked_child_does_not_use_its_parents_helper(monkeypatch):
    calls = counted_forks(monkeypatch)
    helper = _helper_pid()
    read_fd, write_fd = os.pipe()
    child = os.fork()
    if child == 0:
        code = 1
        try:
            os.close(read_fd)
            got = (_fork._helper is None, _helper_pid())
            with open(write_fd, "wb") as pipe:
                pickle.dump(got, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        dropped, grandchild = pickle.load(pipe)
    assert os.waitpid(child, 0)[1] == 0
    # the child forked its own helper, which ended with it, and this
    # process's helper still serves it
    assert dropped and grandchild not in (helper, child, os.getpid())
    assert _ends(grandchild)
    assert _helper_pid() == helper and calls == [os.getpid()] * 2
    no_child_left()


def test_a_failed_fork_leaves_the_stream_inline(monkeypatch):
    monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: False)
    inline = _svrc_bits(3)
    calls = counted_forks(monkeypatch, cpus=1)
    inline_battery = _battery()
    calls = counted_forks(monkeypatch)

    def full():
        calls.append(os.getpid())
        raise BlockingIOError("a full process table")

    monkeypatch.setattr(os, "fork", full)
    monkeypatch.setattr(hardsum.optim, "_fork_pays", lambda *args: True)
    open_fds = len(os.listdir("/proc/self/fd"))
    assert _svrc_bits(3) == inline and _battery() == inline_battery
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert len(calls) == 2 and _fork._helper is None
    no_child_left()


def test_a_helper_that_dies_mid_message_is_named_by_its_status(
        monkeypatch):
    counted_forks(monkeypatch)
    parent = os.getpid()

    def half(request, pipe):
        assert os.getpid() != parent    # never end the test process
        message = pickle.dumps(("item", np.arange(1000), []))
        pipe.write(message[:len(message) // 2])
        pipe.flush()
        os._exit(3)

    monkeypatch.setattr(_fork, "_send", half)
    with pytest.raises(RuntimeError,
                       match=r"sent no result \(exit status 3\)"):
        with streamed(_pids, (1,), True) as stream:
            list(stream)
    assert _fork._helper is None
    no_child_left()


#: a caller that streams once, prints its helper's id, then exits or, with
#: an argument, waits to be killed; a hook registered before the package
#: loads runs after the package's own and exits 3 if a child is left
CALLER = """\
import atexit, os, sys, time

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    os._exit(3)

atexit.register(no_child_left)
os.sched_getaffinity = lambda pid: {0, 1}
from hardsum._fork import streamed

def pids():
    yield os.getpid()

with streamed(pids, (), True) as stream:
    (pid,) = stream
assert pid != os.getpid()
print(pid, flush=True)
if len(sys.argv) > 1:
    time.sleep(60)
"""


def _caller(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen([sys.executable, "-c", CALLER, *args],
                            stdout=subprocess.PIPE, text=True, env=env)


def test_a_caller_that_exits_leaves_no_helper():
    proc = _caller()
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    pid = int(out)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_a_caller_that_is_killed_leaves_no_helper():
    proc = _caller("wait")
    try:
        pid = int(proc.stdout.readline())
        assert not _gone(pid)
    finally:
        proc.kill()
        proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGKILL
    assert _ends(pid)


#: a ``sitecustomize`` that records in the file named by HARDSUM_FORKED the
#: id of every process that ``os.fork`` makes in an interpreter that loads it
FORK_LOG = """\
import os

fork = os.fork

def logged():
    pid = fork()
    if pid:
        with open(os.environ["HARDSUM_FORKED"], "a") as log:
            log.write(f"{pid}\\n")
    return pid

os.fork = logged
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity",
                                lambda pid: ())(0)) < 2,
                    reason="the benchmark forks only with two CPUs")
def test_no_process_is_left_after_a_benchmark_run(tmp_path):
    # the run and each of its two fresh set-up interpreters fork a helper
    (tmp_path / "sitecustomize.py").write_text(FORK_LOG, encoding="utf-8")
    forked = tmp_path / "forked"
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         "svrc-synthetic", "--seed", "3", "--seconds", "0.01"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(tmp_path),
                 HARDSUM_FORKED=str(forked)))
    assert run.returncode == 0, run.stderr
    pids = [int(line) for line in forked.read_text().split()]
    assert len(pids) == 3
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
