"""Lint: no module of the package imports a name it never uses, or imports
inside a function from a module it already imports at top level, and no
function but ``set_guards`` takes a size guard as a parameter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coringext"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by import statements that no expression loads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def redundant_imports(source: str):
    """Imports from a module that an earlier top-level import already reads:
    a second top-level one, or one inside a function or class."""
    tree = ast.parse(source)
    top, found = set(), []
    for node in tree.body:
        for name in _sources(node):
            if name in top:
                found.append((node.lineno, name))
            top.add(name)
    nested = (node for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and node not in tree.body)
    found += [(node.lineno, name) for node in nested
              for name in _sources(node) if name in top]
    return sorted(found)


def _sources(node):
    """The modules an import statement reads, relative ones with dots."""
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return []


def test_detects_unused():
    src = "import os\nfrom x import a, b as c\nprint(c)\n"
    assert unused_imports(src) == [(1, "os"), (2, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_redundant():
    src = ("import os\nfrom .x import a\n"
           "def f():\n    import os\n    from .x import b\n"
           "    from .y import c\n    from x import d\n"
           "from .x import e\n")
    assert redundant_imports(src) == [(4, "os"), (5, ".x"), (8, ".x")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_redundant_imports(path):
    assert redundant_imports(path.read_text(encoding="utf-8")) == []


GUARDS = {"max_dim", "max_enum"}


def guard_parameters(source: str):
    """Functions other than ``set_guards`` with a ``max_dim`` or
    ``max_enum`` parameter: ``set_guards`` is the one guard setting."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name != "set_guards":
            a = node.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            found += [(node.lineno, node.name, g)
                      for g in sorted(names & GUARDS)]
    return found


def test_detects_guard_parameters():
    src = ("def set_guards(max_dim=None, max_enum=None):\n    pass\n"
           "def f(x, *, max_enum=None):\n    pass\n"
           "class K:\n    def g(self, max_dim):\n        pass\n")
    assert guard_parameters(src) == [(3, "f", "max_enum"),
                                     (6, "g", "max_dim")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_only_set_guards_takes_a_guard(path):
    assert guard_parameters(path.read_text(encoding="utf-8")) == []
