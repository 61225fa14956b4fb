"""Run the benchmark on two versions of the repository in alternated pairs,
then judge every end-to-end metric of the parent's ``BENCHMARK.json``.

    python tools/bench_pairs.py PARENT CHANGE --workload W --seed S [--seed S2 ...] --pairs N [--seconds 20]

PARENT and CHANGE are each a git revision of the repository this tool sits
in, exported with ``git archive``, or a directory, copied without ``.git``
and without what its root ``.gitignore`` lists (``__pycache__``,
``.bench_out`` and the other caches).  Every run gets a fresh copy of its
side and runs the parent's benchmark command (``python3 bench/run.py``)
with ``--workload W --seed S --seconds T --trace 0`` in it; pair i runs the
parent first when i is even and the change first when it is odd.  Each
``--seed`` gets its own N pairs and its own block of output, seed by seed
in the order given, so a claim can be checked on a seed not used while
writing the change in the same command.

In a seed's block, one line per run gives its end-to-end metrics, or why
it failed.  Then, for each end-to-end metric, one line gives each side's
median and quartiles over its runs, the ratio of the medians (change /
parent), the pairs the change won by the metric's ``better`` (ties count
for neither), the parent's quartile distance and a verdict:

- ``gain``: at least ten pairs, the change won at least nine tenths of
  them, and its median is better than the parent's by more than the
  parent's quartile distance;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` (a fraction of the parent's median);
- ``unresolved``: the parent's quartile distance is wider than the bound
  and not every change run beats every parent run;
- ``no worse`` otherwise.

Only pairs whose two runs both passed are judged.  The exit status is 1
when any run of any seed failed (a non-zero exit, no result line, or a
result that is not correct), 2 when a side cannot be exported.
"""
from __future__ import annotations

import argparse
import fnmatch
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the fewest pairs a gain may rest on; it must win nine tenths of them
GAIN_MIN_PAIRS = 10


class ExportError(Exception):
    """A side that is neither a directory nor a revision of the repo."""


def _ignore_patterns(tree: Path) -> list[str]:
    """The patterns of ``tree/.gitignore``, blank lines and comments out."""
    path = tree / ".gitignore"
    if not path.is_file():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.strip() for line in lines
            if line.strip() and not line.startswith("#")]


def _ignored(rel: Path, is_dir: bool, patterns: list[str]) -> bool:
    """Whether the path ``rel`` (relative to the tree's root) is ``.git``
    or matches one of the ``.gitignore`` patterns: a leading ``/`` anchors
    a pattern at the root, a trailing ``/`` matches directories only, and
    any other pattern matches the name at any depth."""
    if rel.name == ".git":
        return True
    for pattern in patterns:
        if pattern.endswith("/"):
            if not is_dir:
                continue
            pattern = pattern.rstrip("/")
        if pattern.startswith("/"):
            if fnmatch.fnmatchcase(rel.as_posix(), pattern.lstrip("/")):
                return True
        elif fnmatch.fnmatchcase(rel.name, pattern):
            return True
    return False


def copy_tree(source: Path, dest: Path) -> None:
    """Copy the directory ``source`` to ``dest``, leaving out ``.git`` and
    what ``source/.gitignore`` lists."""
    source = source.resolve()
    patterns = _ignore_patterns(source)

    def ignore(directory: str, names: list[str]) -> set[str]:
        here = Path(directory).relative_to(source)
        return {name for name in names
                if _ignored(here / name, (Path(directory) / name).is_dir(),
                            patterns)}

    shutil.copytree(source, dest, ignore=ignore)


def export(side: str, dest: Path, repo: Path = ROOT) -> None:
    """Put the tree ``side`` names at ``dest``: a directory's copy, or the
    ``git archive`` of a revision of the repository ``repo``."""
    if Path(side).is_dir():
        copy_tree(Path(side), dest)
        return
    archive = subprocess.run(["git", "-C", str(repo), "archive",
                              "--format=tar", side], capture_output=True)
    if archive.returncode != 0:
        raise ExportError(f"{side} is neither a directory nor a revision: "
                          + archive.stderr.decode(errors="replace").strip())
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_once(template: Path, command: list[str], args, seed: int,
             workdir: Path):
    """One benchmark run at ``seed`` in a fresh copy of ``template``: its
    metrics (name to value), or the reason it failed as a string."""
    tree = workdir / "tree"
    shutil.copytree(template, tree)
    timeout = 10 * args.seconds + 600
    try:
        proc = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"FAILED: no result after {timeout:g} s"
    finally:
        shutil.rmtree(tree)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or not (
            result.get("correct") and result.get("failed") == 0):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return f"FAILED (exit {proc.returncode}): {tail}"
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """The summary and verdict of one metric over pairs: ``parent[i]`` and
    ``change[i]`` are pair i's two runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("judge needs the same non-zero number of runs on "
                         f"each side, got {len(parent)} and {len(change)}")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    q = {side: np.percentile(runs, [25, 50, 75])
         for side, runs in zip(SIDES, (parent, change))}
    p_med, c_med = q["parent"][1], q["change"][1]
    spread = q["parent"][2] - q["parent"][0]
    pairs = len(parent)
    wins = sum(_beats(c, p, better) for p, c in zip(parent, change))
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    limit = bound * abs(p_med)
    if (pairs >= GAIN_MIN_PAIRS and 10 * wins >= 9 * pairs
            and -worse_by > spread):
        verdict = "gain"
    elif worse_by > limit:
        verdict = "worse"
    elif spread > limit and not all(_beats(c, p, better)
                                    for p in parent for c in change):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    return {"parent": tuple(q["parent"]), "change": tuple(q["change"]),
            "ratio": c_med / p_med if p_med else float("nan"),
            "wins": wins, "pairs": pairs, "spread": spread,
            "verdict": verdict}


def _quartiles(q) -> str:
    q1, median, q3 = q
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def run_seed(templates: dict, spec: dict, args, seed: int,
             workdir: Path) -> int:
    """The pairs of one seed and their verdicts, printed; the number of
    runs that failed."""
    metrics = spec["end_to_end"]
    print(f"{args.workload}: {args.pairs} pairs from seed {seed}, "
          f"--seconds {args.seconds:g}; parent {args.parent}, "
          f"change {args.change}")
    results = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            got = run_once(templates[side], spec["command"], args, seed,
                           workdir)
            results[side].append(got)
            text = got if isinstance(got, str) else "  ".join(
                f"{m['name']} {got[m['name']]:.6g} {m['unit']}"
                for m in metrics)
            print(f"pair {i} {side:<6} {text}", flush=True)
    done = [i for i in range(args.pairs)
            if all(isinstance(results[side][i], dict) for side in SIDES)]
    failed = sum(isinstance(r, str) for side in SIDES for r in results[side])
    print(f"{len(done)} of {args.pairs} pairs judged, {failed} runs failed")
    for m in metrics if done else []:
        name = m["name"]
        s = judge([results["parent"][i][name] for i in done],
                  [results["change"][i][name] for i in done],
                  m["better"], m["bound"])
        print(f"{name} ({m['unit']}, {m['better']} is better, bound "
              f"{m['bound']:g}): parent {_quartiles(s['parent'])}, change "
              f"{_quartiles(s['change'])}, ratio {s['ratio']:.4f}, change "
              f"wins {s['wins']} of {s['pairs']}, parent quartile distance "
              f"{s['spread']:.6g}: {s['verdict']}", flush=True)
    return failed


def run(args) -> int:
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        templates = {}
        for side, name in zip(SIDES, (args.parent, args.change)):
            templates[side] = tmp / side
            export(name, templates[side])
        spec = json.loads((templates["parent"] / "BENCHMARK.json")
                          .read_text(encoding="utf-8"))
        failed = sum([run_seed(templates, spec, args, seed, tmp)
                      for seed in args.seed])
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="a git revision or a directory")
    parser.add_argument("change", help="a git revision or a directory")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, action="append",
                        help="a seed; given again, its pairs follow")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if len(set(args.seed)) < len(args.seed):
        parser.error("each --seed may be given once")
    try:
        return run(args)
    except ExportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
