"""Count the package's source lines and its independently settable values.

    python tools/census.py [ROOT]

ROOT is a checkout of the repository (default: the one holding this file).
A ROOT without ``src/hardsum/__init__.py``, or one whose package is not the
``hardsum`` that gets imported, exits 2 with a message.  Prints three
lines:

- ``src lines``: the newline count of every ``.py`` file under ``src/``
  (what ``wc -l`` totals over them), split into code, docstring, comment
  and blank lines.  A docstring line is one inside the string that opens a
  module, class or function body, blank or not; a comment line holds only
  a comment; a line with code and a comment is code;
- ``settable values``: the defaulted parameters of the public callables,
  plus the run configuration's keys, the CLI's flags and the environment
  variables the package reads;
- ``test lines``: the newline count of ``tests/*.py``.

The public callables are the distinct objects named in the ``__all__`` of
the package and of each submodule that the package defines: each function,
and each class's constructor and the public methods it defines itself.
``RunConfig``'s constructor is not counted there, because its parameters are
the config keys, which are counted on their own.
"""
from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import io
import pkgutil
import re
import sys
import tokenize
from dataclasses import fields
from pathlib import Path

#: an environment variable read through ``os.environ``
ENV_READ = re.compile(r"os\.environ(?:\.get\(|\[)\s*[\"'](\w+)[\"']")


def newlines(paths) -> int:
    return sum(path.read_bytes().count(b"\n") for path in paths)


#: the kinds of source line, in the order they are printed
LINE_KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """The newline-terminated lines of one source file by kind: code,
    docstring, comment, blank."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(LINE_KINDS, 0)
    for number in range(1, source.count("\n") + 1):
        kind = ("docstring" if number in docstring else "code"
                if number in code else "comment" if number in comment
                else "blank")
        counts[kind] += 1
    return counts


def _defaulted(f) -> int:
    try:
        params = inspect.signature(f).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def _public_callables(package) -> list:
    modules = [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(package.__path__,
                                          package.__name__ + ".")]
    found = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if callable(obj) and getattr(obj, "__module__", "").startswith(
                    package.__name__ + "."):
                found[id(obj)] = obj
    return list(found.values())


def defaulted_parameters(package, config_class) -> int:
    count = 0
    for obj in _public_callables(package):
        if not inspect.isclass(obj):
            count += _defaulted(obj)
            continue
        if obj is not config_class:
            count += _defaulted(obj)
        for name, attr in vars(obj).items():
            if isinstance(attr, (staticmethod, classmethod)):
                attr = attr.__func__
            if not name.startswith("_") and inspect.isfunction(attr):
                count += _defaulted(attr)
    return count


def cli_flags(parser) -> set[str]:
    subparsers = [action for action in parser._actions
                  if hasattr(action, "choices") and isinstance(
                      action.choices, dict)]
    flags = set()
    for sub in [parser] + [p for a in subparsers for p in a.choices.values()]:
        for action in sub._actions:
            flags.update(opt for opt in action.option_strings
                         if opt not in ("-h", "--help"))
    return {flag for flag in flags if flag.startswith("--")}


def env_variables(src: Path) -> set[str]:
    return {name for path in src.rglob("*.py")
            for name in ENV_READ.findall(path.read_text(encoding="utf-8"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Count the package's source lines and its independently "
                    "settable values.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="a checkout of the repository (default: the one "
                             "holding this file)")
    root = parser.parse_args(argv).root
    src = root / "src"
    init = src / "hardsum" / "__init__.py"
    if not init.is_file():
        parser.error(f"{root} holds no src/hardsum/__init__.py")
    sys.path.insert(0, str(src))
    package = importlib.import_module("hardsum")
    if Path(package.__file__).resolve() != init.resolve():
        parser.error(f"the imported hardsum is {package.__file__}, not "
                     f"{root}'s")
    from hardsum.cli.config import RunConfig
    from hardsum.cli.main import _build_parser

    params = defaulted_parameters(package, RunConfig)
    keys = len(fields(RunConfig))
    flags = len(cli_flags(_build_parser()))
    env = len(env_variables(src))
    kinds = dict.fromkeys(LINE_KINDS, 0)
    for path in src.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        for kind, count in line_kinds(source).items():
            kinds[kind] += count
    print(f"src lines: {newlines(src.rglob('*.py'))} ("
          + ", ".join(f"{count} {kind}" for kind, count in kinds.items())
          + ")")
    print(f"settable values: {params + keys + flags + env} ({params} "
          f"defaulted parameters, {keys} config keys, {flags} CLI flags, "
          f"{env} environment variables)")
    print(f"test lines: {newlines((root / 'tests').glob('*.py'))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
