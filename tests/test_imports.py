"""Every name a module of the package imports is used in that module, and
importing the package stays cheap.

A deletion can leave an import behind with nothing to read it.  This check
reads each module's syntax tree with the stdlib ``ast`` module, so it needs
no linter.  ``__init__`` is left out: its imports are the public names it
re-exports through ``__all__``.

Each calculator command pays for ``import jetfields`` first.  ``dataclasses``
cost about a quarter of that import, generating methods and pulling in
``inspect``, ``dis``, ``ast`` and ``tokenize``, so a fresh interpreter
checks that neither module comes back.  The verification suite, with
``hashlib`` and ``json``, cost about a third of what was left; only
``verify`` and callers of the suite load it, on first use, so a fresh
interpreter checks that a calculator command does not.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import jetfields

PACKAGE = Path(jetfields.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# The text a string annotation can hold, such as "int | random.Random".
TYPE_TEXT = re.compile(r"[\w.\[\], |]+")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for every import, ``from __future__`` left out."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, those in string annotations such as
    ``"int | random.Random"`` included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and TYPE_TEXT.fullmatch(node.value)):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_caught():
    tree = ast.parse("from typing import Sequence, Mapping\nimport os\n"
                     "def f(x: 'Sequence[int]') -> None:\n    pass\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Mapping", "os"}


@pytest.mark.parametrize("module", ["jetfields", "jetfields.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    code = ("import sys; before = set(sys.modules); import " + module + "; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# Run in one fresh interpreter: what ``import jetfields`` loads, then what a
# canonical calculator command adds, then every public name and ``dir``.
LAZY_SUITE = """
import contextlib, io, sys
before = set(sys.modules)
import jetfields
loaded = {"package": sorted(set(sys.modules) - before)}
import jetfields.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = jetfields.cli.main(["div", "-n", "2", "-N", "4", "(x1)*d1 + (x2)*d2"])
loaded["cli"] = sorted(set(sys.modules) - before)
missing = []
for name in jetfields.__all__:
    try:
        exec(f"from jetfields import {name}")
    except ImportError:
        missing.append(name)
import json
print(json.dumps({
    "loaded": loaded, "code": code, "missing": missing,
    "not_in_dir": sorted(set(jetfields.__all__) - set(dir(jetfields))),
    "copied": sorted(name for name, value in vars(jetfields).items()
                     if getattr(value, "__module__", None) == "jetfields.suite"),
    "same": jetfields.run_suite is sys.modules["jetfields.suite"].run_suite,
}))
"""


def test_calculator_commands_leave_the_suite_unloaded():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", LAZY_SUITE], env=env, capture_output=True,
                         text=True, check=True).stdout
    got = json.loads(out)
    for path, modules in got["loaded"].items():
        assert {"jetfields.suite", "hashlib", "json"}.isdisjoint(modules), path
    assert got["code"] == 0
    assert got["missing"] == [] and got["not_in_dir"] == []
    # The suite's names are looked up on each access, never copied.
    assert got["copied"] == [] and got["same"]
