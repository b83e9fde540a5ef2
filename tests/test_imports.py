"""Every name a module of the package imports is used in that module, and
importing the package stays cheap.

A deletion can leave an import behind with nothing to read it.  This check
reads each module's syntax tree with the stdlib ``ast`` module, so it needs
no linter.  ``__init__`` is left out: its imports are the public names it
re-exports through ``__all__``.

Each calculator command pays for ``import jetfields`` first.  ``dataclasses``
cost about a quarter of that import, generating methods and pulling in
``inspect``, ``dis``, ``ast`` and ``tokenize``, so a fresh interpreter
checks that neither module comes back.
"""

from __future__ import annotations

import ast
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
