"""Every name that a ``flipwide`` module imports is used in that module.

The package ``__init__`` is left out: it imports names to export them.
A deletion that leaves an import behind fails here, with the module and
the names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "flipwide"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression of
    it reads, in order; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from itertools import chain, compress as pick\n"
              "from operator import and_\n"
              "def f(x: chain) -> int:\n"
              "    return os.sep\n")
    assert unused_imports(source) == ["pick", "and_"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == [], module
