"""Time one benchmark workload's op on two hardsum source trees, paired, in
one process.

    python tools/ab_inproc.py PARENT CHANGE --workload W --ops N [--seed S]

PARENT and CHANGE are checkouts of the repository (each with a
``src/hardsum``).  Each tree's package is copied into a temporary directory
under its own name (``hardsum_parent``, ``hardsum_change``) and both are
imported side by side; a package that imports itself by its absolute name
(``import hardsum...`` or ``from hardsum...``) is refused, because its copy
would run whichever ``hardsum`` the path holds.

Op i of each side is the workload's op with the inputs ``bench/workloads.py``
gives op i of a run with seed S (default 3): seed S + i.  The ops are
defined here, not imported from ``bench/``.  After one warm-up op per side
(seed S + 1,000,000), the two sides of each op run back to back, the side
that goes first alternating from op to op, with BLAS pinned to one thread;
only the op itself is timed.  One line per op gives both times, their ratio
(change / parent) and whether the outputs are equal bit for bit.  The
process's minor page faults (``getrusage``'s ``ru_minflt``) are counted
around each timed op, and one line gives each side's median per op: a
fresh array the allocator must map shows there.  The CPU seconds of the
process and of its child processes are taken around each timed op too,
and one line gives each side's medians per op, so work an op moves into a
child shows as moved, not removed.  The children's seconds are those of
the children it reaped (``RUSAGE_CHILDREN``) plus those of the children
still running, found in ``/proc`` and read from each one's CPU-time clock:
a helper that serves every op of a side is never reaped while the tool
runs.  (``/proc/<pid>/stat`` counts CPU time in clock ticks, 10 ms on most
hosts, about a helper's whole share of an SVRC op.)  The
next line gives the peak resident memory (``VmHWM``) of each side's
children still running after the timed pairs, "none" for a side that
leaves none.  After the timed pairs,
op 0 runs once more on each side under ``tracemalloc``, untimed, and one
line gives each side's traced allocation peak.  The page faults and the
traced peak count the calling process only: what an op does in a forked
child (the battery's descent, SVRC's batch draws where two CPUs are
usable) shows in neither, only in the children's CPU seconds.  The last
lines give each side's median op seconds and their quartiles, the paired
median ratio, its quartiles and the number of ops the change ran faster.
The exit status is 1 when any op's outputs differ, 2 when a tree is
refused.

Pairs in one process share the host's load from moment to moment, so a
paired ratio resolves effects of a few percent that separate benchmark runs
cannot.  The figures are raw seconds, not scaled to the host's speed.

Pairs in one process under-read a saving in fresh allocations: both trees
draw from one warm allocator, so an array the change no longer allocates
costs the parent less here than in a fresh benchmark process.  A version
of ``linalg._symmetrized`` that skipped its stack-sized |A| buffer read
svrc 0.982 here (73 of 100 ops faster), against -3.3% to -4.3% of
``op_s.p50`` in alternated benchmark pairs (``tools/bench_pairs.py``).
"""
from __future__ import annotations

import os

#: BLAS thread caps, set before numpy loads: threaded reductions would
#: reorder sums and add scheduling noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
#: added to the seed for the warm-up op, as in the benchmark
WARM_UP_SEED_OFFSET = 1_000_000


def _svrc_synthetic(pkg, seed: int, workdir: Path):
    """``svrc_run`` on ``quadratic_cosine_sum(256, 20)`` under the
    acceptance-08 theory schedule."""
    params = pkg.svrc_default_params(n=256, d=20, Delta=0.005, L2=6.0,
                                     eps=1e7)
    F = pkg.quadratic_cosine_sum(256, 20, seed=seed)
    ledger = pkg.OracleLedger(n=256)
    x_out, trajectory = pkg.svrc_run(
        F, dataclasses.replace(params, seed=seed), x0=np.zeros(20),
        ledger=ledger)
    return ledger.counters(), x_out, trajectory


ADVERSARY_CONFIG = ("[instance]\nmode = deterministic\np = 1\nn = 4\n"
                    "delta = 4040.0\nL = {L!r}\neps = 1.0\n"
                    "[optimizer]\noptimizer = cubic\n")


def _adversary_cubic(pkg, seed: int, workdir: Path):
    """``hardsum run`` of the cubic baseline against the resisting oracle
    (deterministic mode, p=1, n=4, K=20, d=197); its exit code and JSONL."""
    config = workdir / "adversary-cubic.ini"
    if not config.exists():
        config.write_text(ADVERSARY_CONFIG.format(L=pkg.ell_p(1)),
                          encoding="utf-8")
    out = workdir / "adversary-cubic.jsonl"
    code = pkg.cli.main(["run", "--config", str(config), "--seed",
                         str(seed), "--out", str(out), "--quiet"])
    return code, out.read_bytes()


def _verify_battery(pkg, seed: int, workdir: Path):
    """``run_battery(seed=s)`` at its defaults, what ``hardsum verify``
    runs."""
    return pkg.verify.run_battery(seed=seed)


WORKLOADS = {"svrc-synthetic": _svrc_synthetic,
             "adversary-cubic": _adversary_cubic,
             "verify-battery": _verify_battery}


class RefusedTree(Exception):
    """A source tree whose package cannot be loaded under another name."""


def absolute_self_imports(package: Path) -> list[str]:
    """``file:line`` of every import of ``hardsum`` by its absolute name in
    the package's modules."""
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "hardsum" for name in names):
                found.append(f"{path.relative_to(package)}:{node.lineno}")
    return found


def load(tree: Path, name: str, into: Path):
    """Tree's ``src/hardsum`` copied to ``into/name`` and imported as
    ``name``, with the submodules the ops call; :class:`RefusedTree` if the
    package imports itself absolutely."""
    source = tree / "src" / "hardsum"
    if not (source / "__init__.py").is_file():
        raise RefusedTree(f"{tree} has no src/hardsum package")
    found = absolute_self_imports(source)
    if found:
        raise RefusedTree(f"{source} imports hardsum by its absolute name "
                         f"({', '.join(found)}); its copy cannot be renamed")
    shutil.copytree(source, into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module in ("cli", "verify"):
        importlib.import_module(f"{name}.{module}")
    return importlib.import_module(name)


def canonical(obj):
    """A comparable form of an op's output that tells apart every bit of
    its numbers (so -0.0 and 0.0, and NaN payloads, differ)."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return ("float", np.float64(obj).tobytes())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, canonical(getattr(obj, f.name)))
            for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return ("dict",) + tuple((repr(k), canonical(v))
                                 for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__,) + tuple(map(canonical, obj))
    return repr(obj)


def _minor_faults() -> int:
    """This process's minor page faults so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _stat_fields(pid: int) -> list[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name, the
    process's state first; none for a process that has ended."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return []
    return text.rsplit(")", 1)[1].split()


def _live_children() -> set[int]:
    """Ids of this process's children that it has not reaped."""
    me = str(os.getpid())
    return {int(path.name) for path in Path("/proc").glob("[0-9]*")
            if _stat_fields(int(path.name))[1:2] == [me]}


def _process_cpu_seconds(pid: int) -> float:
    """CPU seconds so far of process ``pid``, read from its CPU-time clock,
    whose id is the one glibc's ``clock_getcpuclockid`` gives on Linux; 0
    for a process that has ended."""
    try:
        return time.clock_gettime((~pid << 3) | 2)
    except OSError:
        return 0.0


def _cpu_seconds() -> tuple[float, float]:
    """CPU seconds so far of this process and of its children, reaped or
    still running."""
    own, reaped = (usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))
    return own, reaped + sum(map(_process_cpu_seconds, _live_children()))


def _peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of process ``pid``, in MB; 0 for a
    process that has ended."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        return 0.0
    kb = [line.split()[1] for line in text.splitlines()
          if line.startswith("VmHWM:")]
    return int(kb[0]) / 1024 if kb else 0.0


def traced_peak(op, pkg, seed: int, workdir: Path) -> int:
    """Bytes at the peak of the allocations ``tracemalloc`` traces while
    one op runs."""
    tracemalloc.start()
    try:
        op(pkg, seed, workdir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(parent: Path, change: Path, workload: str, ops: int,
        seed: int) -> int:
    op = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(prefix="ab_inproc_") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "pkgs"))
        (tmp / "pkgs").mkdir()
        try:
            pkgs = {side: load(tree, f"hardsum_{side}", tmp / "pkgs")
                    for side, tree in zip(SIDES, (parent, change))}
            workdirs = {side: tmp / side for side in SIDES}
            for workdir in workdirs.values():
                workdir.mkdir()
            # the children each side's ops leave running
            children = {side: set() for side in SIDES}
            seen = _live_children()

            def note_children(side):
                new = _live_children() - seen
                children[side] |= new
                seen.update(new)

            for side in SIDES:
                op(pkgs[side], seed + WARM_UP_SEED_OFFSET, workdirs[side])
                note_children(side)
            print(f"{workload}: {ops} ops from seed {seed}, BLAS 1 thread")
            print("op  parent_s  change_s  ratio  outputs")
            ratios, wins, differ = [], 0, 0
            times = {side: [] for side in SIDES}
            faults = {side: [] for side in SIDES}
            cpu = {side: [] for side in SIDES}
            for i in range(ops):
                seconds, outputs = {}, {}
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    f0, c0 = _minor_faults(), _cpu_seconds()
                    t0 = time.perf_counter()
                    result = op(pkgs[side], seed + i, workdirs[side])
                    seconds[side] = time.perf_counter() - t0
                    faults[side].append(_minor_faults() - f0)
                    cpu[side].append(np.subtract(_cpu_seconds(), c0))
                    note_children(side)
                    times[side].append(seconds[side])
                    outputs[side] = canonical(result)
                same = outputs["parent"] == outputs["change"]
                differ += not same
                ratio = seconds["change"] / seconds["parent"]
                ratios.append(ratio)
                wins += seconds["change"] < seconds["parent"]
                print(f"{i:<3d} {seconds['parent']:.6f}  "
                      f"{seconds['change']:.6f}  {ratio:.3f}  "
                      f"{'same' if same else 'DIFF'}")
            print("minor page faults per op: " + ", ".join(
                f"{side} median {np.median(faults[side]):.1f}"
                for side in SIDES))
            print("CPU seconds per op: " + ", ".join(
                "{} median {:.6f} self, {:.6f} children".format(
                    side, *np.median(cpu[side], axis=0))
                for side in SIDES))
            peak_rss = {}
            for side in SIDES:
                live = children[side] & _live_children()
                peak_rss[side] = (f"{max(map(_peak_rss_mb, live)):.2f} MB"
                                  if live else "none")
            print("children's peak RSS (VmHWM): " + ", ".join(
                f"{side} {peak_rss[side]}" for side in SIDES))
            peaks = {side: traced_peak(op, pkgs[side], seed, workdirs[side])
                     for side in SIDES}
            print(f"traced peak of op 0: parent {peaks['parent'] / 1e6:.2f} "
                  f"MB, change {peaks['change'] / 1e6:.2f} MB")
        finally:
            sys.path.remove(str(tmp / "pkgs"))
            for name in list(sys.modules):
                if name.split(".")[0] in {f"hardsum_{s}" for s in SIDES}:
                    del sys.modules[name]
    print("op seconds: " + ", ".join(
        "{} median {:.6f} (quartiles {:.6f}, {:.6f})".format(
            side, *np.percentile(times[side], [50, 25, 75]))
        for side in SIDES))
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"paired ratio change/parent: median {median:.4f} (quartiles "
          f"{q1:.4f}, {q3:.4f}); change faster in {wins} of {ops} ops")
    print(f"outputs: {ops - differ} of {ops} ops the same")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    try:
        return run(args.parent, args.change, args.workload, args.ops,
                   args.seed)
    except RefusedTree as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
