"""tools/cubic_sweep.py: it reads this tree, every model of the 10^±150
range is certified, and at 10^±300 the only refusal left is a length scale
beyond the float range."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sweep_of_this_tree():
    tool = ROOT / "tools" / "cubic_sweep.py"
    out = subprocess.run([sys.executable, str(tool)], capture_output=True,
                         text=True, check=True).stdout
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["10^±150", "10^±300"]
    for line in lines:
        counts = re.findall(r"(\d+) (?:'[^']*'|\"[^\"]*\")", line)
        assert sum(map(int, counts)) == 3000
        assert re.search(r"; steps sha256 [0-9a-f]{16}$", line)
    assert re.match(r"10\^±150: 3000 'certified'; ", lines[0])
    # no "|v| overflows", no "not PSD" and no warning
    outcomes = re.findall(r"\d+ ('[^']*'|\"[^\"]*\")", lines[1])
    assert set(outcomes) <= {"'certified'",
                             "\"the step's length scale overflows\""}
