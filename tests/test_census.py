"""tools/census.py: it reads this tree, and its counts add up."""
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_census_of_this_tree():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "census.py")],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 2
    src = re.fullmatch(r"src lines: (\d+)", lines[0])
    assert int(src[1]) == sum(path.read_bytes().count(b"\n")
                              for path in (ROOT / "src").rglob("*.py"))
    settable = re.fullmatch(
        r"settable values: (\d+) \((\d+) defaulted parameters, (\d+) config "
        r"keys, (\d+) CLI flags, (\d+) environment variables\)", lines[1])
    total, params, keys, flags, env = map(int, settable.groups())
    assert total == params + keys + flags + env
    # RunConfig's fields; --config --seed --out --budget --quiet --seeds;
    # no environment variable
    assert (keys, flags, env) == (29, 6, 0)
    assert params > 0
