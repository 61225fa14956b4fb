"""tools/census.py: it reads this tree, and its counts add up."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_census_of_this_tree():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "census.py")],
                         capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 3
    src = re.fullmatch(r"src lines: (\d+) \((\d+) code, (\d+) docstring, "
                       r"(\d+) comment, (\d+) blank\)", lines[0])
    total, *parts = map(int, src.groups())
    assert total == sum(path.read_bytes().count(b"\n")
                        for path in (ROOT / "src").rglob("*.py"))
    assert total == sum(parts) and min(parts) > 0
    settable = re.fullmatch(
        r"settable values: (\d+) \((\d+) defaulted parameters, (\d+) config "
        r"keys, (\d+) CLI flags, (\d+) environment variables\)", lines[1])
    total, params, keys, flags, env = map(int, settable.groups())
    assert total == params + keys + flags + env
    # the public callables' defaulted parameters; RunConfig's fields;
    # --config --seed --out --budget --quiet --seeds; no environment
    # variable
    assert (params, keys, flags, env) == (70, 29, 6, 0)
    tests = re.fullmatch(r"test lines: (\d+)", lines[2])
    assert int(tests[1]) == sum(path.read_bytes().count(b"\n")
                                for path in (ROOT / "tests").glob("*.py"))


def test_line_kinds(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from census import line_kinds
    source = ('"""Module.\n\nMore."""\n'
              "# a comment\n"
              "\n"
              "def f(x):  # code with a comment\n"
              '    """One line."""\n'
              '    s = """not a\n'
              '\n'
              'docstring"""\n'
              "    return x\n")
    assert line_kinds(source) == {"code": 5, "docstring": 4, "comment": 1,
                                  "blank": 1}


def test_a_root_without_the_package_is_refused(tmp_path):
    # "--help" is a flag, not a root; a root with no package exits 2
    # instead of printing a census of no source
    census = [sys.executable, str(ROOT / "tools" / "census.py")]
    shown = subprocess.run(census + ["--help"], capture_output=True,
                           text=True)
    assert shown.returncode == 0 and shown.stdout.startswith("usage:")
    refused = subprocess.run(census + [str(tmp_path)], capture_output=True,
                             text=True)
    assert refused.returncode == 2 and refused.stdout == ""
    assert refused.stderr.endswith(
        f"error: {tmp_path} holds no src/hardsum/__init__.py\n")


def test_a_root_whose_package_is_not_the_imported_one_is_refused(
        tmp_path, monkeypatch, capsys):
    # this process has imported the package of this tree already, so
    # another root's package would go uncounted
    import hardsum
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from census import main
    (tmp_path / "src" / "hardsum").mkdir(parents=True)
    (tmp_path / "src" / "hardsum" / "__init__.py").write_text("")
    with pytest.raises(SystemExit) as exit_:
        main([str(tmp_path)])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: the imported hardsum is {hardsum.__file__}, "
                        f"not {tmp_path}'s\n")
