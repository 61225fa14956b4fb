"""tools/compare_outputs.py: its entry list still parses, a tree compared
with itself reads identical, a changed output or exit code is caught, and a
moved JSON key is named with its change."""
import dataclasses
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from hardsum.cli import RunConfig, main

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _fake_tree(root: Path, body: str) -> Path:
    """A source tree whose ``hardsum.cli.main`` is ``body``."""
    cli = root / "src" / "hardsum" / "cli"
    cli.mkdir(parents=True)
    (root / "src" / "hardsum" / "__init__.py").write_text("")
    (cli / "__init__.py").write_text(
        f"def main(argv):\n    {body}\n", encoding="utf-8")
    return root


def _entry_config(entry):
    """The entry's config with its ``--budget`` flag applied, as the CLI
    applies it."""
    cfg = RunConfig.from_ini(entry.config)
    if "--budget" in entry.args:
        budget = entry.args[entry.args.index("--budget") + 1]
        cfg = dataclasses.replace(cfg, budget=int(budget))
    return cfg


#: entries expected to exit 2 whose configs parse: the scaling calculators
#: refuse them
LIBRARY_REFUSALS = ("gen-deterministic-tiny-eps", "run-synthetic-tiny-eps",
                    "gen-randomized-d-not-divisible",
                    "run-randomized-d-too-small")


def test_every_entry_config_parses(tool):
    # the other entries expected to exit 2 hold configs (with their
    # --budget flag) the parser must reject
    names = [entry.name for entry in tool.ENTRIES]
    assert len(names) == len(set(names))
    for entry in tool.ENTRIES:
        if entry.config is None:
            continue
        if entry.exit_code == 2 and entry.name not in LIBRARY_REFUSALS:
            with pytest.raises(ValueError):
                _entry_config(entry)
        else:
            _entry_config(entry)


@pytest.mark.parametrize("name", LIBRARY_REFUSALS)
def test_library_refusals_exit_2(tool, name, tmp_path, monkeypatch, capsys):
    # one error line, nothing written
    entry = next(e for e in tool.ENTRIES if e.name == name)
    assert entry.exit_code == 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / tool.CONFIG).write_text(entry.config, encoding="utf-8")
    assert main([entry.args[0], "--config", tool.CONFIG,
                 *entry.args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [tool.CONFIG]


def test_negative_verify_count_exits_2(tool, tmp_path, monkeypatch, capsys):
    # refused as the config is read: one error line, no report written
    entry = next(e for e in tool.ENTRIES
                 if e.name == "verify-negative-starts")
    assert entry.exit_code == 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / tool.CONFIG).write_text(entry.config, encoding="utf-8")
    assert main([entry.args[0], "--config", tool.CONFIG,
                 *entry.args[1:]]) == 2
    assert capsys.readouterr().err == (
        "error: bad config: starts must be at least 0, got starts = -1\n")
    assert [p.name for p in tmp_path.iterdir()] == [tool.CONFIG]


def test_tree_against_itself_is_identical(tool):
    entry = next(e for e in tool.ENTRIES if e.name == "acc10-synth-svrc")
    out = io.StringIO()
    assert tool.compare(ROOT, ROOT, [entry], out=out)
    *lines, summary = out.getvalue().splitlines()
    assert [line.split()[-1] for line in lines] == [
        "acc10-synth-svrc/exit", "acc10-synth-svrc/run.jsonl",
        "acc10-synth-svrc/stderr", "acc10-synth-svrc/stdout"]
    assert all(line.startswith("same ") for line in lines)
    assert summary == "4 of 4 outputs the same"


def test_changed_output_and_bad_exit_are_reported(tool, tmp_path):
    entry = tool.Entry("echo", None, ("run",))
    a = _fake_tree(tmp_path / "a", "print('a'); return 0")
    b = _fake_tree(tmp_path / "b", "print('b'); return 0")
    out = io.StringIO()
    assert not tool.compare(a, b, [entry], out=out)
    lines = out.getvalue().splitlines()
    assert "DIFF     echo/stdout" in lines
    assert lines[-1] == "2 of 3 outputs the same"

    failing = _fake_tree(tmp_path / "c", "return 3")
    out = io.StringIO()
    assert not tool.compare(failing, failing, [entry], out=out)
    lines = out.getvalue().splitlines()
    assert "EXIT 3 (expected 0) echo/exit" in lines
    assert lines[-1] == "2 of 3 outputs the same"


def test_moved_float_key_is_named_with_its_change(tool, tmp_path):
    # two runs whose JSONL differs in one float key of its second row
    entry = tool.Entry("rows", None, ("run",))
    rows = ('{{"iter": 0, "mu": 2.0}}\\n{{"iter": 1, "mu": {}}}\\n')
    trees = [_fake_tree(tmp_path / name, f"open('run.jsonl', 'w').write("
                        f"'{rows.format(mu)}'); return 0")
             for name, mu in (("a", "4.0"), ("b", "5.0"))]
    out = io.StringIO()
    assert not tool.compare(*trees, [entry], out=out)
    lines = out.getvalue().splitlines()
    at = lines.index("DIFF     rows/run.jsonl")
    assert lines[at + 1] == "         mu: max rel change 0.25 (1 value)"
    assert lines[at + 2].startswith("same ")


def test_named_list_items_are_named_in_key_paths(tool):
    # battery checks carry a name: a moved key under one is named by it;
    # items without one name on both sides keep the shared "[]"
    a = [{"name": "check_derivatives", "details": {"max_rel_err": 1e-10}},
         {"name": "suboptimality", "passed": True},
         {"name": "x", "v": 1}, {"v": 1}, [1]]
    b = [{"name": "check_derivatives", "details": {"max_rel_err": 2e-10}},
         {"name": "suboptimality", "passed": False},
         {"name": "y", "v": 1}, {"v": 2}, [2]]
    text = [json.dumps(doc).encode() for doc in (a, b)]
    assert tool.moved_keys("rep.json", *text) == [
        "[].name: max rel change inf (1 value)",
        "[].v: max rel change 1 (1 value)",
        "[][]: max rel change 1 (1 value)",
        "[check_derivatives].details.max_rel_err: max rel change 1 (1 value)",
        "[suboptimality].passed: max rel change inf (1 value)"]
