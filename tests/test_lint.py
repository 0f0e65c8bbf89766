"""Static checks on the package source, with the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evoalg"

# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))
# every module the unused-import lint reads: the package's (by name),
# the tests' and the tools' (by path)
IMPORTING = MODULES + sorted((ROOT / "tests").glob("*.py")) + TOOLS


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


@pytest.mark.parametrize(
    "path", IMPORTING,
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_the_lint_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\n"
                     "from __future__ import annotations\nprint(e)\n")
    assert _unused_imports(tree) == ["os (line 1)", "c (line 2)"]


def _non_stdlib_imports(tree: ast.Module) -> list[str]:
    """The imports anywhere in the module, function bodies included, that
    are neither relative nor of a standard-library module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _non_stdlib_imports(tree) == []


def test_the_lint_sees_a_non_stdlib_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import numpy as np\nfrom . import fields\n"
                     "from .linalg import rref\nfrom xml.dom import minidom\n"
                     "from sympy.core import S\n"
                     "def f():\n    import scipy, json\n")
    assert _non_stdlib_imports(tree) == [
        "numpy (line 3)", "sympy.core (line 7)", "scipy (line 9)"]


def _assert_statements(tree: ast.Module) -> list[str]:
    """The assert statements anywhere in the module.  ``python -O`` strips
    them, so a check made by one would vanish; the package raises
    instead."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_the_package_has_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _assert_statements(tree) == []


def test_the_lint_sees_an_assert_statement():
    tree = ast.parse("assert x\nif y:\n    raise AssertionError('kept')\n"
                     "def f(v):\n    assert v, 'message'\n"
                     "    return assertion(v)\n")
    assert _assert_statements(tree) == ["line 1", "line 5"]


def _dead_private_helpers(trees: dict) -> list[str]:
    """The top-level private functions and classes (``_name``) of the
    modules in trees (file name -> ast.Module) that no module reads, by
    name or as an attribute."""
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{node.name}"
            for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


# private helpers that only the tests read, each kept on purpose
KEPT_FOR_TESTS: set = set()


def test_no_dead_private_helpers():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p))
             for p in SRC.glob("*.py")}
    assert set(_dead_private_helpers(trees)) == KEPT_FOR_TESTS


def test_the_lint_sees_a_dead_private_helper():
    trees = {
        "a.py": ast.parse("def _called(): pass\ndef _dead(): pass\n"
                          "class _Gone: pass\ndef _by_attr(): pass\n"
                          "def __dunder__(): pass\ndef public(): pass\n"
                          "def _imported_only(): _called()\n"),
        "b.py": ast.parse("import a\nfrom a import _imported_only\n"
                          "a._by_attr()\n_dead = 1\n"),
    }
    assert _dead_private_helpers(trees) == [
        "a.py:_dead", "a.py:_Gone", "a.py:_imported_only"]


def test_the_lint_covers_the_package():
    assert {p.name for p in MODULES} >= {"algebra.py", "classify.py",
                                         "linalg.py", "fields.py"}


def _forwarding_shims(tree: ast.Module) -> list[str]:
    """The top-level private functions whose body, after any docstring,
    is one ``return`` of a call that passes only the function's own
    parameters, to a function or to an attribute of one of those
    parameters: such a function only restates the path it calls, and
    its callers should call that path directly."""
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or not node.name.startswith("_") \
                or node.name.startswith("__"):
            continue
        body = node.body
        if ast.get_docstring(node) is not None:
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return) \
                or not isinstance(body[0].value, ast.Call):
            continue
        a = node.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        params |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}

        def is_param(expr):
            if isinstance(expr, ast.Starred):
                expr = expr.value
            return isinstance(expr, ast.Name) and expr.id in params
        call = body[0].value
        func = call.func
        callee_ok = isinstance(func, ast.Name) or (
            isinstance(func, ast.Attribute) and is_param(func.value))
        if callee_ok and all(map(is_param, call.args)) \
                and all(is_param(k.value) for k in call.keywords):
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_forwarding_shims(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _forwarding_shims(tree) == []


def test_the_lint_sees_a_forwarding_shim():
    tree = ast.parse(
        "def _by_name(a, b):\n    return f(a, b)\n"
        "def _by_attr(rows, n, ops):\n    'doc'\n"
        "    return ops.rref(rows, n)\n"
        "def _starred(*args, **kw):\n    return g(*args, **kw)\n"
        "def _adds_a_value(a):\n    return f(a, 1)\n"
        "def _reads_an_attribute(E, v):\n    return f(E.rows, v)\n"
        "def _foreign_callee(a):\n    return other.f(a)\n"
        "def _two_statements(a):\n    a = a + 1\n    return f(a)\n"
        "def _indexes(a):\n    return f(a)[0]\n"
        "def public(a):\n    return f(a)\n"
        "class _K:\n    def _m(self, a):\n        return f(a)\n")
    assert _forwarding_shims(tree) == [
        "_by_name (line 1)", "_by_attr (line 3)", "_starred (line 6)"]


def _own_scope(fn) -> list:
    """The nodes of a function's own scope: its body, without the bodies
    of the functions, lambdas and classes nested in it."""
    nodes, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        nodes.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)
    return nodes


def _dead_locals(tree: ast.Module) -> list[str]:
    """The function-local names bound by a plain assignment (``x = ...``,
    not a tuple target) that nothing in the function reads, nested
    functions included.  Underscore names and names declared ``global``
    or ``nonlocal`` are exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared = {}, set()
        for node in _own_scope(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.setdefault(target.id, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        found += [f"{fn.name}: {name} (line {line})"
                  for name, line in sorted(bound.items(),
                                           key=lambda item: item[1])
                  if name not in read | declared and not name.startswith("_")]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dead_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _dead_locals(tree) == []


def test_the_lint_sees_a_dead_local():
    tree = ast.parse(
        "def f(a):\n    dead = a + 1\n    kept = a\n    return kept\n"
        "def g(a):\n    x = y = a\n    return y\n"
        "def h(a):\n    b, c = a\n    _unused = a\n    return 0\n"
        "def k(a):\n    global G\n    G = a\n"
        "def outer(a):\n    seen = a\n    inner_dead = 1\n"
        "    def inner():\n        nonlocal a\n        a = 2\n"
        "        gone = 3\n        return seen\n    return inner\n"
        "class K:\n    attr = 1\n    def m(self):\n"
        "        self.x = 1\n        late = 2\n")
    assert _dead_locals(tree) == [
        "f: dead (line 2)", "g: x (line 6)", "outer: inner_dead (line 17)",
        "inner: gone (line 21)", "m: late (line 28)"]


def _private_uses(tree: ast.Module) -> list[str]:
    """The places, in line order, where a tool reaches past evoalg's
    public names: a private attribute (``_name``, not a dunder) read on
    anything but ``self`` (a tool's objects are evoalg's or the standard
    library's, and it needs the private part of neither), a private
    name imported from evoalg, or an evoalg module path with a private
    part in an import or a string (``import_module("evoalg._values")``)."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")

    def path(text, line):
        parts = text.split(".")
        if parts[0] == "evoalg" and any(map(private, parts)):
            found.append((line, text))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr) \
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "self"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                path(alias.name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            path(node.module, node.lineno)
            if node.module.split(".")[0] == "evoalg":
                found += [(node.lineno, alias.name) for alias in node.names
                          if private(alias.name)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            path(node.value, node.lineno)
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", TOOLS, ids=lambda p: p.name)
def test_tools_use_only_public_package_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_uses(tree) == []


def test_the_lint_sees_a_private_package_name():
    tree = ast.parse(
        "import evoalg\nimport evoalg._values\n"
        "from evoalg.classify import _classify, classify\n"
        "from evoalg import normal_form\n"
        "m = importlib.import_module('evoalg._values')\n"
        "label, rows = classify_mod._classify(E)\n"
        "rows = E._rows\nok = evoalg.normal_form(E).witness.rows\n"
        "class Tool:\n    def f(self):\n        return self._rows\n"
        "def _rows(v):\n    return _rows(v).__class__\n")
    assert _private_uses(tree) == [
        "evoalg._values (line 2)", "_classify (line 3)",
        "evoalg._values (line 5)", "_classify (line 6)", "_rows (line 7)"]


TESTS = Path(__file__).resolve().parent
# probes.py patches the op tables for the white-box tests, and
# test_kernels.py tests the op tables themselves
OP_TABLE_USERS = ("probes.py", "test_kernels.py")


def _op_tables(tree: ast.Module) -> set[str]:
    """FieldOps and the classes of the module that derive from it (a
    base is defined before its subclasses)."""
    tables = {"FieldOps"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in tables
                for b in node.bases):
            tables.add(node.name)
    return tables


def _op_table_names(tree: ast.Module, tables: set[str]) -> list[str]:
    """The places, in line order, where a module names an op-table class:
    as a name, an attribute or an imported name.  A test that patches one
    class by name misses the others (GF(p) runs its own kernels, Q and
    Q(i) the generic ones); the probe of tests/probes.py patches them
    all."""
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in tables:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize(
    "path", sorted(p for p in TESTS.glob("*.py")
                   if p.name not in OP_TABLE_USERS),
    ids=lambda p: p.name)
def test_only_the_probe_patches_the_op_tables(path):
    tables = _op_tables(ast.parse((SRC / "fields.py").read_text()))
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _op_table_names(tree, tables) == []


def test_the_lint_sees_an_op_table_name():
    tables = _op_tables(ast.parse(
        "class FieldOps:\n    pass\nclass _PrimeOps(FieldOps):\n    pass\n"
        "class _RationalOps(_PrimeOps):\n    pass\nclass Other(Base):\n"
        "    pass\n"))
    assert tables == {"FieldOps", "_PrimeOps", "_RationalOps"}
    tree = ast.parse(
        "from evoalg.fields import GF, FieldOps\nimport evoalg.fields\n"
        "for table in (fields.FieldOps, fields._PrimeOps):\n"
        "    patch(table, 'rref')\n"
        "ops = type(GF(3).ops)\nx = _RationalOps\n")
    assert _op_table_names(tree, tables) == [
        "FieldOps (line 1)", "FieldOps (line 3)", "_PrimeOps (line 3)",
        "_RationalOps (line 6)"]
