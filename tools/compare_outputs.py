"""Compare the CLI outputs of two hardsum source trees byte for byte.

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (each with a ``src/``).
Every entry of :data:`ENTRIES` runs once against each tree's ``src/``, in a
fresh temporary directory, with BLAS pinned to one thread.  Every file the
run writes, its stdout, its stderr and its exit code are compared byte for
byte; one line per output is printed, then the summary line ``N of M
outputs the same``.  The exit status is 1 when any output differs or any
run exits with a code other than the entry's expected one (so an entry
whose config stops parsing fails instead of comparing two identical error
messages).

Under a ``.jsonl`` or ``.json`` output that differs, one indented line names
each key path whose values moved, with the largest relative change among
them (``inf`` where a value is not a number or a key is on one side only)
and how many values moved.  The rows of a ``.jsonl`` file, and the items of
a list (``[]`` in a path), share their key paths; list items that are dicts
with the same string ``name`` on both sides, such as battery checks, are
named by it (``[check_derivatives_composite]``).

Warnings are printed as ``Category: message`` and each tree's root is
replaced by ``<tree>``, so only what the program says is compared, not where
its source lives.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

#: runs hardsum's CLI with location-free warnings
RUNNER = """\
import sys, warnings
warnings.formatwarning = (
    lambda message, category, *_, **__: f"{category.__name__}: {message}\\n")
from hardsum.cli import main
sys.exit(main(sys.argv[1:]))
"""

#: BLAS thread caps, so threaded reductions cannot reorder sums
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}

#: the config file every entry's run reads; not itself compared
CONFIG = "c.ini"

ELL_1 = "58602877.71581407"   # ell_p(1)
ELL_2 = "155916855139.98273"  # ell_p(2)

SYNTH_SVRC = ("[instance]\nmode = synthetic\nn = 4\nd = 5\neps = 1e6\n"
              "[optimizer]\noptimizer = svrc\nb_g = 3\nb_h = 3\nS = 2\n"
              "T = 2\nL2 = 1.0\nseed = 3\n")
ADV_CUBIC = ("[instance]\nmode = deterministic\np = 1\nn = 4\n"
             f"delta = 960.0\nL = {ELL_1}\neps = 1.0\n"
             "[optimizer]\noptimizer = cubic\nseed = 1\n")
BENCH_ADV_CUBIC = ("[instance]\nmode = deterministic\np = 1\nn = 4\n"
                   f"delta = 4040.0\nL = {ELL_1}\neps = 1.0\n"
                   "[optimizer]\noptimizer = cubic\n")
# small M and L2 on the bench config: the Hessian's curvature shapes the
# cubic step and mu's screen fails, so mu takes lambda_min
ADV_CUBIC_CURVATURE = BENCH_ADV_CUBIC + "M = 1.0\nL2 = 1e-6\n"
# p = 2: the resisting oracle at d = 98, a second Hessian spectrum for the
# cubic solver
ADV_CUBIC_P2 = ("[instance]\nmode = deterministic\np = 2\nn = 4\n"
                f"delta = 2000.0\nL = {ELL_2}\neps = 1.0\n"
                "[optimizer]\noptimizer = cubic\nseed = 2\n")
SVRC_SAMPLED = ("[instance]\nmode = synthetic\nn = 16\nd = 6\neps = 1e-3\n"
                "[optimizer]\noptimizer = svrc\nb_g = 5\nb_h = 9\nS = 2\n"
                "T = 3\nL2 = 1.0\nseed = 7\n")
SVRC_FULL = ("[instance]\nmode = synthetic\nn = 6\nd = 4\neps = 1e-3\n"
             "[optimizer]\noptimizer = svrc\nfull_batch = true\nS = 2\n"
             "T = 3\nL2 = 1.0\nseed = 2\n")
# b_g and b_h far above n: every drawn index repeats, so every charge has
# count > 1
SVRC_REPEATS = ("[instance]\nmode = synthetic\nn = 8\nd = 5\neps = 1e-3\n"
                "[optimizer]\noptimizer = svrc\nb_g = 40\nb_h = 60\nS = 2\n"
                "T = 3\nL2 = 1.0\nseed = 11\n")
# d = 1: every stack of answers has a trailing size of 1, where numpy's
# sum over rows is pairwise
SVRC_D1 = SVRC_REPEATS.replace("d = 5\n", "d = 1\n")
# the svrc-synthetic benchmark's schedule on its n = 256, d = 20 sum
SVRC_BENCH = ("[instance]\nmode = synthetic\nn = 256\nd = 20\neps = 1e7\n"
              "[optimizer]\noptimizer = svrc\nM = 900.0\nb_g = 423\n"
              "b_h = 741185\nS = 1\nT = 4\nL2 = 6.0\n")
# SVRC on a sampled hard instance: its components are answered one by one
# (the default row-set evaluation)
SVRC_RANDOMIZED = ("[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
                   "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
                   "[optimizer]\noptimizer = svrc\nb_g = 3\nb_h = 5\nS = 2\n"
                   "T = 2\nL2 = 1.0\nseed = 12\n")
SVRC_ADV = ("[instance]\nmode = deterministic\np = 1\nn = 4\n"
            f"delta = 960.0\nL = {ELL_1}\neps = 1.0\n"
            "[optimizer]\noptimizer = svrc\nb_g = 2\nb_h = 2\nS = 2\nT = 2\n"
            "seed = 4\n")
GD_SYNTH = ("[instance]\nmode = synthetic\nn = 3\nd = 4\neps = 1e-9\n"
            "[optimizer]\noptimizer = gd\nstep = 0.05\nbudget = 12\n"
            "L2 = 1.0\n")
GD_ADV = ("[instance]\nmode = deterministic\np = 1\nn = 4\n"
          f"delta = 960.0\nL = {ELL_1}\neps = 1.0\n"
          "[optimizer]\noptimizer = gd\nstep = 1e-6\nseed = 5\n")
# n = 5: a round closes after ceil(n/2) = 3 distinct indices, so rounds
# close, and the game finalizes, mid-pass (d = 241)
ADV_CUBIC_N5 = BENCH_ADV_CUBIC.replace("n = 4\n", "n = 5\n")
GD_ADV_N5 = (GD_ADV.replace("n = 4\n", "n = 5\n")
             .replace("delta = 960.0\n", "delta = 4040.0\n"))
GD_THIRD_MOMENT = ("[instance]\nmode = randomized-third-moment\np = 2\n"
                   "n = 2\ndelta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
                   "[optimizer]\noptimizer = gd\nstep = 0.01\nbudget = 20\n"
                   "seed = 6\n")
CUBIC_SYNTH = ("[instance]\nmode = synthetic\nn = 5\nd = 4\neps = 1e-6\n"
               "[optimizer]\noptimizer = cubic\nL2 = 1.0\nbudget = 40\n"
               "seed = 8\n")
CUBIC_HAAR = ("[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
              "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
              "haar_c = true\n"
              "[optimizer]\noptimizer = cubic\nbudget = 24\nseed = 9\n")
THIRD_MOMENT_P1 = ("[instance]\nmode = randomized-third-moment\np = 1\n"
                   "n = 2\ndelta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n"
                   "[optimizer]\noptimizer = gd\nbudget = 20\n")
SYNTH_SVRC_NO_L2 = SYNTH_SVRC.replace("L2 = 1.0\n", "")
# the estimated L2 at the battery's L2_hat probe size: 64 components, so
# the individual probe skips most of its eigensolves
SYNTH_SVRC_NO_L2_N64 = (SYNTH_SVRC_NO_L2.replace("n = 4\n", "n = 64\n")
                        .replace("d = 5\n", "d = 8\n"))
RANDOMIZED_P1 = ("[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
                 "delta = 150000.0\nL = 1.0\neps = 1.0\n")
RANDOMIZED_P2 = ("[instance]\nmode = randomized-individual\np = 2\nn = 2\n"
                 "delta = 25000.0\nL = 1.0\neps = 1.0\n")
RANDOMIZED_P3 = ("[instance]\nmode = randomized-individual\np = 3\nn = 2\n"
                 "delta = 800.0\nL = 1.0\neps = 1.0\n"
                 "[optimizer]\noptimizer = gd\nbudget = 20\n")
# K = 2 at n = 2, so the smallest legal dimension is d = n^2 K = 8
RANDOMIZED_K2 = ("[instance]\nmode = randomized-individual\np = 1\nn = 2\n"
                 "delta = 800.0\nL = 1.0\neps = 1.0\nell_hat = 1.0\n")
DETERMINISTIC_P0 = ("[instance]\nmode = deterministic\np = 0\nn = 4\n"
                    "delta = 960.0\nL = 1.0\neps = 1.0\n")
SYNTH_SVRC_N0 = SYNTH_SVRC.replace("n = 4\n", "n = 0\n")
# eps so small that a count (K + 1, S) overflows a float
ADV_CUBIC_TINY_EPS = ADV_CUBIC.replace("eps = 1.0\n", "eps = 1e-300\n")
SYNTH_SVRC_TINY_EPS = SYNTH_SVRC.replace("eps = 1e6\n", "eps = 1e-300\n")
VERIFY_SMALL = ("[verify]\nnum_points = 4\nzero_chain_samples = 40\n"
                "pairs = 12\ntrials = 1000\nstarts = 2\n")
# 1500 trials cross a Monte-Carlo block boundary; 7 starts make an odd
# lockstep stack
VERIFY_BLOCKS = "[verify]\ntrials = 1500\nstarts = 7\n"
# 13 points end each derivative check on a partial block of stencils
VERIFY_STENCIL_BLOCKS = "[verify]\nnum_points = 13\n"
# a negative count: refused where the config is read
VERIFY_NEGATIVE_STARTS = "[verify]\nstarts = -1\n"


@dataclass(frozen=True)
class Entry:
    """One CLI invocation: its name, config text (None: no ``--config``),
    the arguments after the config and the exit code it must end with."""

    name: str
    config: str | None
    args: tuple[str, ...]
    exit_code: int = 0


def _run(name, config, *args):
    return Entry(name, config, ("run", "--out", "run.jsonl") + args)


ENTRIES = (
    _run("acc10-synth-svrc", SYNTH_SVRC),
    _run("acc10-adv-cubic", ADV_CUBIC),
    *(_run(f"acc10-synth-svrc-budget{b}", SYNTH_SVRC, "--budget", str(b))
      for b in (30, 40, 50)),
    *(_run(f"bench-adv-cubic-seed{s}", BENCH_ADV_CUBIC, "--seed", str(s))
      for s in (0, 1, 2)),
    _run("adv-cubic-p2", ADV_CUBIC_P2),
    _run("adv-cubic-curvature", ADV_CUBIC_CURVATURE),
    _run("svrc-sampled", SVRC_SAMPLED),
    _run("svrc-full-batch", SVRC_FULL),
    _run("svrc-full-batch-budget80", SVRC_FULL, "--budget", "80"),
    _run("svrc-adversary", SVRC_ADV),
    _run("svrc-repeats", SVRC_REPEATS),
    _run("svrc-d1", SVRC_D1),
    _run("svrc-bench-size", SVRC_BENCH),
    _run("svrc-randomized", SVRC_RANDOMIZED),
    _run("gd-synthetic", GD_SYNTH),
    _run("gd-adversary", GD_ADV),
    _run("adv-cubic-n5", ADV_CUBIC_N5),
    _run("gd-adversary-n5", GD_ADV_N5),
    _run("gd-third-moment", GD_THIRD_MOMENT),
    _run("cubic-synthetic", CUBIC_SYNTH),
    _run("cubic-haar-c", CUBIC_HAAR),
    _run("seeds-1-2", SYNTH_SVRC, "--seeds", "1,2", "--quiet"),
    # the echo of several seeds, in the order given
    _run("run-seeds-1-2-3-echo", SYNTH_SVRC, "--seeds", "1,2,3"),
    # no L2: the run estimates it from 60 sampled pairs
    _run("synth-svrc-estimated-L2", SYNTH_SVRC_NO_L2),
    _run("synth-svrc-estimated-L2-n64", SYNTH_SVRC_NO_L2_N64),
    Entry("verify-defaults", None, ("verify", "--out", "rep.json")),
    Entry("verify-small", VERIFY_SMALL, ("verify", "--out", "rep.json")),
    Entry("verify-seed3", None, ("verify", "--seed", "3", "--out", "rep.json")),
    Entry("verify-blocks", VERIFY_BLOCKS,
          ("verify", "--seed", "11", "--out", "rep.json")),
    Entry("verify-stencil-blocks", VERIFY_STENCIL_BLOCKS,
          ("verify", "--seed", "5", "--out", "rep.json")),
    Entry("gen-synthetic", SYNTH_SVRC, ("gen", "--out", "gen")),
    Entry("gen-deterministic", ADV_CUBIC, ("gen", "--out", "gen")),
    Entry("gen-haar-c", CUBIC_HAAR, ("gen", "--out", "gen")),
    # no ell_hat: gen estimates it (mean-squared probe at p = 1,
    # individual probe at p = 2)
    Entry("gen-randomized-p1-default-ell-hat", RANDOMIZED_P1,
          ("gen", "--out", "gen")),
    Entry("gen-randomized-p2-default-ell-hat", RANDOMIZED_P2,
          ("gen", "--out", "gen")),
    # a config the parser rejects: exit 2 with an error line, no traceback
    Entry("gen-third-moment-p1", THIRD_MOMENT_P1, ("gen", "--out", "gen"), 2),
    Entry("run-third-moment-p1", THIRD_MOMENT_P1,
          ("run", "--out", "run.jsonl"), 2),
    # no ell_hat estimate exists for p = 3
    Entry("gen-randomized-p3-no-ell-hat", RANDOMIZED_P3,
          ("gen", "--out", "gen"), 2),
    Entry("run-randomized-p3-no-ell-hat", RANDOMIZED_P3,
          ("run", "--out", "run.jsonl"), 2),
    # sizes below one
    Entry("gen-deterministic-p0", DETERMINISTIC_P0, ("gen", "--out", "gen"),
          2),
    Entry("run-synthetic-n0", SYNTH_SVRC_N0, ("run", "--out", "run.jsonl"),
          2),
    # a dimension the spec refuses: n does not divide it, or its slots are
    # too small for their columns
    Entry("gen-randomized-d-not-divisible", RANDOMIZED_K2 + "d = 5\n",
          ("gen", "--out", "gen"), 2),
    Entry("run-randomized-d-too-small", RANDOMIZED_K2 + "d = 4\n",
          ("run", "--out", "run.jsonl"), 2),
    # counts beyond the float range
    Entry("gen-deterministic-tiny-eps", ADV_CUBIC_TINY_EPS,
          ("gen", "--out", "gen"), 2),
    Entry("run-synthetic-tiny-eps", SYNTH_SVRC_TINY_EPS,
          ("run", "--out", "run.jsonl"), 2),
    # a flag is checked as the key it overrides
    Entry("run-budget-0", ADV_CUBIC,
          ("run", "--out", "run.jsonl", "--budget", "0"), 2),
    # a budget below the first pass: no query, an empty archive to certify
    _run("adv-cubic-budget7", ADV_CUBIC, "--budget", "7"),
    # a game cut short: finalize closes the rounds never played
    _run("adv-cubic-budget16", ADV_CUBIC, "--budget", "16"),
    # verify has no budget to override
    Entry("verify-budget", None, ("verify", "--budget", "5"), 2),
    Entry("verify-negative-starts", VERIFY_NEGATIVE_STARTS,
          ("verify", "--out", "rep.json"), 2),
)


def run_entry(tree: Path, entry: Entry, workdir: Path) -> dict[str, bytes]:
    """Run one entry against ``tree/src`` in ``workdir``; returns every
    output by name: ``exit``, ``stdout``, ``stderr`` and each written file's
    path relative to ``workdir``."""
    tree = tree.resolve()
    argv = [sys.executable, "-c", RUNNER, entry.args[0]]
    if entry.config is not None:
        (workdir / CONFIG).write_text(entry.config, encoding="utf-8")
        argv += ["--config", CONFIG]
    argv += entry.args[1:]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **PINNED)
    proc = subprocess.run(argv, cwd=workdir, env=env, capture_output=True,
                          check=False)
    root = str(tree).encode()
    outputs = {"exit": str(proc.returncode).encode(),
               "stdout": proc.stdout.replace(root, b"<tree>"),
               "stderr": proc.stderr.replace(root, b"<tree>")}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel != CONFIG:
            outputs[rel] = path.read_bytes()
    return outputs


def _leaf_change(a, b) -> float:
    """|b - a| / |a| for two numbers, inf for anything else."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    if not numbers:
        return math.inf
    return abs(b - a) / abs(a) if a else math.inf


def _item_name(a, b) -> str:
    """The ``name`` that two list items share, as a battery check names
    itself, or "" when they are not dicts of one string name."""
    name = a.get("name") if isinstance(a, dict) else None
    same = isinstance(b, dict) and b.get("name") == name
    return name if isinstance(name, str) and same else ""


def _walk(a, b, path: str, moved: dict) -> None:
    """Record in ``moved`` (path -> list of relative changes) every value of
    two parsed JSON documents that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                _walk(a[key], b[key], sub, moved)
            else:
                moved.setdefault(sub, []).append(math.inf)
    elif (isinstance(a, list) and isinstance(b, list)
          and len(a) == len(b)):
        for u, v in zip(a, b):
            _walk(u, v, f"{path}[{_item_name(u, v)}]", moved)
    elif type(a) is not type(b) or repr(a) != repr(b):
        moved.setdefault(path or "(document)", []).append(_leaf_change(a, b))


def moved_keys(name: str, a: bytes, b: bytes) -> list[str]:
    """One line per key path that moved between two versions of a
    ``.jsonl`` or ``.json`` output: the path, the largest relative change
    and the number of values moved.  Other outputs, and outputs that do not
    parse, give no lines."""
    try:
        if name.endswith(".jsonl"):
            rows = [[json.loads(line) for line in blob.splitlines()]
                    for blob in (a, b)]
        elif name.endswith(".json"):
            rows = [[json.loads(blob)] for blob in (a, b)]
        else:
            return []
    except ValueError:
        return []
    moved: dict[str, list[float]] = {}
    if len(rows[0]) != len(rows[1]):
        moved["(rows)"] = [math.inf]
    for u, v in zip(*rows):
        _walk(u, v, "", moved)
    return [f"{path}: max rel change {max(changes):.3g} ({len(changes)} "
            f"value{'s' if len(changes) > 1 else ''})"
            for path, changes in sorted(moved.items())]


def compare(parent: Path, change: Path, entries=ENTRIES, out=None
            ) -> bool:
    """Run every entry against both trees, print one line per output and
    a summary line, and return True when all outputs are identical and
    every run exited with its entry's code."""
    same = total = 0
    for entry in entries:
        runs = []
        for tree in (parent, change):
            with tempfile.TemporaryDirectory(prefix="hardsum-cmp-") as tmp:
                runs.append(run_entry(Path(tree), entry, Path(tmp)))
        want = str(entry.exit_code).encode()
        for key in sorted(set(runs[0]) | set(runs[1])):
            a, b = runs[0].get(key), runs[1].get(key)
            if a is None or b is None:
                verdict = "MISSING in " + ("parent" if a is None else "change")
            elif a != b:
                verdict = "DIFF"
            elif key == "exit" and a != want:
                verdict = f"EXIT {a.decode()} (expected {entry.exit_code})"
            else:
                verdict = "same"
            total += 1
            same += verdict == "same"
            print(f"{verdict:<8} {entry.name}/{key}", file=out, flush=True)
            if verdict == "DIFF":
                for line in moved_keys(key, a, b):
                    print(f"{'':<8} {line}", file=out, flush=True)
    print(f"{same} of {total} outputs the same", file=out, flush=True)
    return same == total


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/compare_outputs.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    parent, change = (Path(a) for a in argv)
    for tree in (parent, change):
        if not (tree / "src" / "hardsum").is_dir():
            print(f"error: {tree} has no src/hardsum", file=sys.stderr)
            return 2
    return 0 if compare(parent, change) else 1


if __name__ == "__main__":
    raise SystemExit(main())
