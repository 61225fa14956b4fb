"""tools/bench_pairs.py: the verdict of each metric on fixed numbers, what
a copy of a tree leaves out, and the tool end to end on stand-in trees
whose benchmark command prints a fixed result (no benchmark runs)."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


class TestJudge:
    def test_nine_of_ten_wins_beyond_the_spread_is_a_gain(self, tool):
        change = [p - 0.05 for p in PARENT]
        change[3] = 1.2                 # one pair lost
        s = tool.judge(PARENT, change, "lower", 0.25)
        assert (s["wins"], s["pairs"], s["verdict"]) == (9, 10, "gain")
        assert s["parent"][1] == 1.0
        assert s["spread"] == pytest.approx(0.0175)
        assert s["ratio"] == pytest.approx(s["change"][1])

    def test_eight_of_ten_wins_is_no_gain(self, tool):
        change = [p - 0.05 for p in PARENT]
        change[3] = change[5] = 1.2
        s = tool.judge(PARENT, change, "lower", 0.25)
        assert (s["wins"], s["verdict"]) == (8, "no worse")

    def test_a_difference_within_the_spread_is_no_gain(self, tool):
        change = [p - 0.001 for p in PARENT]
        s = tool.judge(PARENT, change, "lower", 0.25)
        assert (s["wins"], s["verdict"]) == (10, "no worse")

    def test_fewer_than_ten_pairs_make_no_gain(self, tool):
        change = [p - 0.05 for p in PARENT]
        assert tool.judge(PARENT[:9], change[:9], "lower",
                          0.25)["verdict"] == "no worse"

    def test_ties_count_for_neither_side(self, tool):
        s = tool.judge(PARENT, list(PARENT), "lower", 0.25)
        assert (s["wins"], s["verdict"]) == (0, "no worse")

    @pytest.mark.parametrize("better, factor", [("lower", 1.06),
                                                ("higher", 0.94)])
    def test_a_median_beyond_the_bound_is_worse(self, tool, better, factor):
        change = [p * factor for p in PARENT]
        assert tool.judge(PARENT, change, better, 0.05)["verdict"] == "worse"
        assert tool.judge(PARENT, change, better, 0.07)["verdict"] == (
            "no worse")

    def test_higher_is_better_counts_wins_upward(self, tool):
        change = [p + 0.05 for p in PARENT]
        s = tool.judge(PARENT, change, "higher", 0.25)
        assert (s["wins"], s["verdict"]) == (10, "gain")
        assert tool.judge(PARENT, change, "lower", 0.25)["wins"] == 0

    def test_a_spread_wider_than_the_bound_is_unresolved(self, tool):
        parent = [1.0, 1.5, 0.6, 1.2, 0.8]
        change = [1.1, 1.4, 0.7, 1.0, 0.9]
        assert tool.judge(parent, change, "lower", 0.1)["verdict"] == (
            "unresolved")
        # unless every change run beats every parent run
        assert tool.judge(parent, [0.5] * 5, "lower", 0.1)["verdict"] == (
            "no worse")

    def test_sides_of_other_lengths_are_refused(self, tool):
        with pytest.raises(ValueError, match="same non-zero number"):
            tool.judge([1.0, 2.0], [1.0], "lower", 0.25)
        with pytest.raises(ValueError, match="better"):
            tool.judge([1.0], [1.0], "smaller", 0.25)


def _write(path: Path, text: str = "") -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_a_copy_leaves_out_git_and_what_gitignore_lists(tool, tmp_path):
    src = tmp_path / "src"
    _write(src / ".gitignore", "# caches\n/examples/\n__pycache__/\n"
           ".bench_out/\nbuild/\n*.pyc\n")
    kept = ["a.py", "pkg/b.py", "pkg/examples/c.py", "build",
            ".gitignore"]
    dropped = [".git/HEAD", "examples/d.py", "pkg/__pycache__/b.pyc",
               ".bench_out/result.json", "pkg/build/e.o", "pkg/f.pyc"]
    for rel in kept[:-1] + dropped:
        _write(src / rel)
    tool.copy_tree(src, tmp_path / "copy")
    got = sorted(p.relative_to(tmp_path / "copy").as_posix()
                 for p in (tmp_path / "copy").rglob("*") if p.is_file())
    assert got == sorted(kept)


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c",
                    "user.email=t@t", *args], check=True,
                   capture_output=True)


def test_a_revision_is_its_archive(tool, tmp_path):
    repo = tmp_path / "repo"
    _write(repo / "a.txt", "one")
    _git(repo, "init", "-q")
    _git(repo, "add", "a.txt")
    _git(repo, "commit", "-q", "-m", "one")
    _write(repo / "a.txt", "two")      # not committed
    _write(repo / "b.txt", "new")      # not tracked
    tool.export("HEAD", tmp_path / "out", repo=repo)
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.txt"]
    assert (tmp_path / "out" / "a.txt").read_text() == "one"
    with pytest.raises(tool.ExportError, match="neither a directory"):
        tool.export("no-such-revision", tmp_path / "bad", repo=repo)


#: a stand-in benchmark: prints a result line whose op_s.p50 is the
#: number in ``op_s`` and which is correct unless ``fail`` exists
FAKE_BENCH = """\
import json, sys
from pathlib import Path
ok = not Path("fail").exists()
op = float(Path("op_s").read_text())
metrics = {"op_s.p50": {"value": op, "unit": "s"},
           "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
print(" ".join(sys.argv[1:]))
print(json.dumps({"correct": ok, "attempted": 3, "failed": 0 if ok else 1,
                  "metrics": metrics}))
sys.exit(0 if ok else 1)
"""


def _fake_tree(root: Path, op_s: float, fail: bool = False) -> Path:
    _write(root / "bench" / "run.py", FAKE_BENCH)
    _write(root / "op_s", repr(op_s))
    _write(root / "BENCHMARK.json", json.dumps({
        "command": [sys.executable, "bench/run.py"],
        "end_to_end": [
            {"name": "op_s.p50", "unit": "s", "better": "lower",
             "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower",
             "bound": 0.05}]}))
    if fail:
        _write(root / "fail")
    return root


def _pairs(parent: Path, change: Path, pairs: int = 2):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change), "--workload",
         "w", "--seed", "4", "--pairs", str(pairs), "--seconds", "1"],
        capture_output=True, text=True, timeout=120)


def test_end_to_end_on_stand_in_trees(tmp_path):
    run = _pairs(_fake_tree(tmp_path / "p", 2.0),
                 _fake_tree(tmp_path / "c", 1.0))
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # pairs alternate which side runs first
    assert [line.split()[:3] for line in lines[1:5]] == [
        ["pair", "0", "parent"], ["pair", "0", "change"],
        ["pair", "1", "change"], ["pair", "1", "parent"]]
    assert lines[1].endswith("op_s.p50 2 s  peak_rss_mb 40 MB")
    assert lines[5] == "2 of 2 pairs judged, 0 runs failed"
    assert lines[6] == (
        "op_s.p50 (s, lower is better, bound 0.25): parent 2 [2, 2], "
        "change 1 [1, 1], ratio 0.5000, change wins 2 of 2, parent "
        "quartile distance 0: no worse")
    assert lines[7].endswith("change wins 0 of 2, parent quartile "
                             "distance 0: no worse")
    assert len(lines) == 8


def test_a_failed_run_is_printed_and_exits_non_zero(tmp_path):
    run = _pairs(_fake_tree(tmp_path / "p", 2.0),
                 _fake_tree(tmp_path / "c", 1.0, fail=True), pairs=1)
    assert run.returncode == 1
    lines = run.stdout.splitlines()
    assert lines[2].startswith("pair 0 change FAILED (exit 1)")
    assert lines[3] == "0 of 1 pairs judged, 1 runs failed"
    assert len(lines) == 4


#: a stand-in benchmark whose op_s.p50 is the tree's number times the seed
SEEDED_BENCH = FAKE_BENCH.replace(
    'op = float(Path("op_s").read_text())',
    'op = float(Path("op_s").read_text()) * int(sys.argv[sys.argv.index('
    '"--seed") + 1])')


def test_each_seed_gets_its_pairs_and_its_verdicts(tmp_path):
    assert SEEDED_BENCH != FAKE_BENCH
    trees = [_fake_tree(tmp_path / side, op_s)
             for side, op_s in (("p", 2.0), ("c", 1.0))]
    for tree in trees:
        _write(tree / "bench" / "run.py", SEEDED_BENCH)
    run = subprocess.run(
        [sys.executable, str(TOOL), *map(str, trees), "--workload", "w",
         "--seed", "3", "--seed", "5", "--pairs", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 2 * 6
    for block, seed in zip((lines[:6], lines[6:]), (3, 5)):
        assert block[0].startswith(f"w: 1 pairs from seed {seed}, ")
        assert block[1].startswith(f"pair 0 parent op_s.p50 {2 * seed} s")
        assert block[2].startswith(f"pair 0 change op_s.p50 {seed} s")
        assert block[3] == "1 of 1 pairs judged, 0 runs failed"
        assert block[4].startswith(
            f"op_s.p50 (s, lower is better, bound 0.25): parent {2 * seed} "
            f"[{2 * seed}, {2 * seed}], change {seed} [{seed}, {seed}]")
        assert block[5].startswith("peak_rss_mb ")


def test_a_seed_given_twice_is_refused(tmp_path):
    run = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path), str(tmp_path),
         "--workload", "w", "--seed", "3", "--seed", "3", "--pairs", "1"],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert "each --seed may be given once" in run.stderr
