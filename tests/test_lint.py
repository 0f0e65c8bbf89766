"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "evoalg"

# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by top-level imports that nothing in the module
    reads (``from __future__`` imports bind no name)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items()
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_lint_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\n"
                     "from __future__ import annotations\nprint(e)\n")
    assert _unused_imports(tree) == ["os (line 1)", "c (line 2)"]


def test_the_lint_covers_the_package():
    assert {p.name for p in MODULES} >= {"algebra.py", "classify.py",
                                         "linalg.py", "fields.py"}
