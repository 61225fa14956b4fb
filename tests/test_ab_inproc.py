"""tools/ab_inproc.py: its ops are the benchmark's, a tree against itself
reads the same outputs, a changed output exits 1, a change that holds more
memory shows in the traced peaks, and a package that imports itself by its
absolute name is refused."""
import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardsum

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inproc.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _load(path: Path, name: str):
    """The module at ``path``, loaded by path under ``name``; the process
    environment is restored after it, since the tool pins BLAS threads in
    it when it loads."""
    environ = dict(os.environ)
    try:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
    return module


@pytest.mark.parametrize("workload", ["svrc-synthetic", "adversary-cubic",
                                      "verify-battery"])
def test_its_ops_are_the_benchmarks_ops(workload, tmp_path):
    # op 0 at seed 3 of the tool's copy and of the benchmark's own
    # workload give the same outputs, so the two cannot drift apart
    tool = _load(TOOL, "ab_inproc")
    bench = _load(WORKLOADS, "bench_workloads").WORKLOADS[workload]
    (tmp_path / "tool").mkdir()
    (tmp_path / "bench").mkdir()
    ours = tool.WORKLOADS[workload](hardsum, 3, tmp_path / "tool")
    theirs = bench(3, tmp_path / "bench")
    got = theirs.op(0)
    if workload == "svrc-synthetic":
        (counters, x_out, trajectory), (want_c, want_x, want_t) = got, ours
        assert counters == want_c
        assert x_out.tobytes() == want_x.tobytes()
        assert tool.canonical(trajectory) == tool.canonical(want_t)
    elif workload == "adversary-cubic":
        assert (got, theirs.out.read_bytes()) == ours
    else:
        assert (tool.canonical([c.to_dict() for c in got])
                == tool.canonical([c.to_dict() for c in ours]))
    # and the benchmark's gate passes them
    assert not theirs.check(0, got)[0]


def _ab(parent: Path, change: Path, ops: int = 2,
        workload: str = "svrc-synthetic", preexec_fn=None):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", workload, "--ops", str(ops)],
        capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn)


def _usable_cpus() -> int:
    return len(getattr(os, "sched_getaffinity", lambda pid: ())(0))


def _copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "hardsum", dest / "src" / "hardsum",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_a_tree_against_itself_reads_the_same():
    run = _ab(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[-1] for line in lines[2:4]] == ["same", "same"]
    assert re.fullmatch(r"minor page faults per op: parent median "
                        r"\d+\.\d, change median \d+\.\d", lines[-6])
    # an SVRC op draws its batches in a forked child where two CPUs are
    # usable, and in this process alone elsewhere
    children = _cpu_seconds(lines[-5])["children"]
    if _usable_cpus() >= 2:
        assert min(children) > 0
    else:
        assert children == (0.0, 0.0)
    assert re.fullmatch(r"traced peak of op 0: parent \d+\.\d\d MB, "
                        r"change \d+\.\d\d MB", lines[-4])
    seconds = _op_seconds(lines[-3])
    assert set(seconds) == {"parent", "change"}
    for side, (median, q1, q3) in seconds.items():
        times = [float(line.split()[1 if side == "parent" else 2])
                 for line in lines[2:4]]
        # the per-op lines and this one are each rounded to the microsecond
        assert min(times) - 1e-6 <= q1 <= median <= q3 <= max(times) + 1e-6
        assert abs(median - sum(times) / 2) <= 1e-6
    assert lines[-2].startswith("paired ratio change/parent: median ")
    assert lines[-2].endswith(" of 2 ops")
    assert lines[-1] == "outputs: 2 of 2 ops the same"


def _op_seconds(line: str) -> dict[str, tuple[float, float, float]]:
    """Each side's (median, first quartile, third quartile) op seconds from
    the tool's op seconds line."""
    number = r"(\d+\.\d{6})"
    side = rf"(parent|change) median {number} \(quartiles {number}, {number}\)"
    match = re.fullmatch(rf"op seconds: {side}, {side}", line)
    assert match, line
    fields = match.groups()
    return {fields[i]: tuple(map(float, fields[i + 1:i + 4]))
            for i in (0, 4)}


def _cpu_seconds(line: str) -> dict[str, tuple[float, float]]:
    """(parent, change) median CPU seconds per op, of the process ("self")
    and of its children, from the tool's CPU seconds line."""
    number = r"(\d+\.\d{6})"
    side = rf"(?:parent|change) median {number} self, {number} children"
    match = re.fullmatch(rf"CPU seconds per op: {side}, {side}", line)
    assert match, line
    got = tuple(map(float, match.groups()))
    return {"self": got[0::2], "children": got[1::2]}


@pytest.mark.skipif(_usable_cpus() < 2,
                    reason="the battery forks only with two CPUs")
def test_a_battery_op_shows_its_childs_cpu_seconds():
    # the battery's descent runs in a forked child, whose CPU seconds the
    # CPU line counts beside the process's own
    run = _ab(ROOT, ROOT, ops=1, workload="verify-battery")
    assert run.returncode == 0, run.stderr
    (line,) = [line for line in run.stdout.splitlines()
               if line.startswith("CPU seconds per op: ")]
    cpu = _cpu_seconds(line)
    assert min(cpu["self"]) > 0 and min(cpu["children"]) > 0


def _traced_peaks(stdout: str) -> tuple[float, float]:
    (line,) = [line for line in stdout.splitlines()
               if line.startswith("traced peak of op 0: ")]
    return tuple(map(float, re.findall(r"(\d+\.\d+) MB", line)))


def _one_cpu():
    """Pin the calling process to one of its CPUs (a ``preexec_fn``: it
    runs in the tool's process alone)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the draws run in the traced process only when "
                           "it is pinned to one CPU")
def test_a_change_that_holds_its_batches_shows_in_the_traced_peaks(tmp_path):
    # a chunk above b_h = 741,185 draws each Hessian batch at once, its raw
    # words and their products 8.9 MB together, with the outputs unchanged;
    # on one CPU the draws run inline, where tracemalloc sees them
    change = _copy_tree(tmp_path / "change")
    optim = change / "src" / "hardsum" / "optim.py"
    text = optim.read_text(encoding="utf-8")
    assert text.count("_DRAW_CHUNK = 1 << 15\n") == 1
    optim.write_text(text.replace("_DRAW_CHUNK = 1 << 15\n",
                                  "_DRAW_CHUNK = 1 << 20\n"),
                     encoding="utf-8")
    run = _ab(ROOT, change, ops=1, preexec_fn=_one_cpu)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "outputs: 1 of 1 ops the same"
    parent, held = _traced_peaks(run.stdout)
    assert held > max(parent + 2.0, 8 * 741_185 / 1e6)


def test_a_changed_output_exits_1(tmp_path):
    # the synthetic sum's linear terms scaled by 0.31 instead of 0.3
    change = _copy_tree(tmp_path / "change")
    oracle = change / "src" / "hardsum" / "oracle.py"
    text = oracle.read_text(encoding="utf-8")
    assert text.count("r *= 0.3\n") == 1
    oracle.write_text(text.replace("r *= 0.3\n", "r *= 0.31\n"),
                      encoding="utf-8")
    run = _ab(ROOT, change, ops=1)
    assert run.returncode == 1, run.stderr
    assert run.stdout.splitlines()[2].endswith("DIFF")
    assert run.stdout.splitlines()[-1] == "outputs: 0 of 1 ops the same"


def test_an_absolute_self_import_is_refused(tmp_path):
    change = _copy_tree(tmp_path / "change")
    with open(change / "src" / "hardsum" / "optim.py", "a",
              encoding="utf-8") as fh:
        fh.write("\nfrom hardsum.linalg import as_rng  # noqa\n")
    run = _ab(ROOT, change)
    assert run.returncode == 2
    assert "imports hardsum by its absolute name (optim.py:" in run.stderr
    assert run.stdout == ""
