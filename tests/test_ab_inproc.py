"""tools/ab_inproc.py: a tree against itself reads the same outputs, a
changed output exits 1, and a package that imports itself by its absolute
name is refused."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab_inproc.py"


def _ab(parent: Path, change: Path, ops: int = 2):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "svrc-synthetic", "--ops", str(ops)],
        capture_output=True, text=True, timeout=300)


def _copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "hardsum", dest / "src" / "hardsum",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_a_tree_against_itself_reads_the_same():
    run = _ab(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[-1] for line in lines[2:4]] == ["same", "same"]
    assert lines[-2].startswith("paired ratio change/parent: median ")
    assert lines[-2].endswith(" of 2 ops")
    assert lines[-1] == "outputs: 2 of 2 ops the same"


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
