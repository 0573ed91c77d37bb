"""Lint: no module of the package imports a name it never uses, or imports
inside a function from a module it already imports at top level."""

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
