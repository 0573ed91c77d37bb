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


# -- one failure channel: a failed axiom raises AxiomViolation --------------

# the result types of the old second channel, the exception types that
# once reported mathematical failures besides AxiomViolation, and a builder
# that checked a bimodule its caller's ``make_coring`` checks again
RETIRED = {"Verdict", "Failure", "raise_if_failed", "DualBasisInvalid",
           "NotCoringMorphism", "NotColinear", "MiddleMismatch",
           "bimodule_from_actions"}


def _returns_value(fn):
    """Lines of ``return <value>`` in ``fn`` itself, not in nested scopes."""
    found, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def _empty_witness(fn):
    """Lines in ``fn`` that raise ``AxiomViolation(kind, ())``."""
    found = []
    for node in ast.walk(fn):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and
                isinstance(call.func, ast.Name) and
                call.func.id == "AxiomViolation"):
            continue
        args = call.args[1:2] + [k.value for k in call.keywords
                                 if k.arg == "witness"]
        if any(isinstance(a, ast.Tuple) and not a.elts for a in args):
            found.append(node.lineno)
    return found


def second_channel(source: str):
    """A ``check_*`` function that returns a value or rejects with the empty
    witness, and any definition, import or attribute use of the retired
    result types."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name.startswith("check_"):
            found += [(line, node.name, "returns a value")
                      for line in _returns_value(node)]
            found += [(line, node.name, "empty witness")
                      for line in _empty_witness(node)]
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(a.asname or a.name).split(".")[-1] for a in node.names]
            if isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module.split(".")[-1])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        found += [(node.lineno, n, "retired") for n in names
                  if n in RETIRED or n == "verdict"]
    return sorted(found)


def test_detects_second_channel():
    src = ("from .verdict import Verdict\n"
           "def check_a(x):\n    if x:\n        return x\n"
           "    def inner():\n        return 1\n    return None\n"
           "def check_b(x):\n    x.raise_if_failed()\n    return\n"
           "class Failure:\n    pass\n"
           "def make_c(x):\n    return x\n")
    assert second_channel(src) == [
        (1, "Verdict", "retired"), (1, "verdict", "retired"),
        (4, "check_a", "returns a value"),
        (9, "raise_if_failed", "retired"), (11, "Failure", "retired")]


def test_detects_empty_witness():
    src = ("def check_a(x):\n"
           "    if x:\n        raise AxiomViolation('a', ())\n"
           "    raise AxiomViolation('b', witness=())\n"
           "def check_b(x):\n"
           "    raise AxiomViolation('c', (0,))\n"
           "    raise AxiomViolation('d')\n"
           "def make_c(x):\n    raise AxiomViolation('e', ())\n")
    assert second_channel(src) == [(3, "check_a", "empty witness"),
                                   (4, "check_a", "empty witness")]


def witnessless_raises(source: str):
    """Lines anywhere in a module that raise ``AxiomViolation`` without a
    witness, or with a literally empty one: ``()``, ``[]`` or ``None``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and
                isinstance(call.func, ast.Name) and
                call.func.id == "AxiomViolation"):
            continue
        args = call.args[1:2] + [k.value for k in call.keywords
                                 if k.arg == "witness"]
        if not args or any(
                isinstance(a, (ast.Tuple, ast.List)) and not a.elts or
                isinstance(a, ast.Constant) and a.value is None
                for a in args):
            found.append(node.lineno)
    return sorted(found)


def test_detects_witnessless_raise():
    src = ("def make_a(x):\n"
           "    if x:\n        raise AxiomViolation('a')\n"
           "    raise AxiomViolation('b', witness=[])\n"
           "def _b(x, w):\n"
           "    raise AxiomViolation('c', w)\n"
           "    raise AxiomViolation('d', None)\n"
           "    raise AxiomViolation(kind='e', witness=(0,))\n"
           "class K:\n    def f(self):\n"
           "        raise AxiomViolation('f', ())\n")
    assert witnessless_raises(src) == [3, 4, 7, 11]


def test_detects_retired_exceptions():
    src = ("from .errors import NotColinear, AxiomViolation\n"
           "class MiddleMismatch(CoringError):\n    pass\n"
           "def f():\n    raise errors.DualBasisInvalid(())\n")
    assert second_channel(src) == [(1, "NotColinear", "retired"),
                                   (2, "MiddleMismatch", "retired"),
                                   (5, "DualBasisInvalid", "retired")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_one_failure_channel(path):
    source = path.read_text(encoding="utf-8")
    assert second_channel(source) == []
    assert witnessless_raises(source) == []


# -- one lazy-load mechanism: the CLI reaches every layer through the
# -- package's names ---------------------------------------------------------

# what cli.py may import from the package at module level, and the one
# import it may make inside a function (the public ``descent_functor`` would
# check the Cor. 2.8 data a second time)
CLI_TOP = {"coringext", "coringext._record", "coringext.errors",
           "coringext.exactla"}
CLI_NESTED = ("coringext.descent", "_descend")


def _absolute(node):
    """The absolute modules an import statement reads, in ``coringext``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:
        return [f"coringext.{alias.name}" for alias in node.names]
    return [f"coringext.{node.module}"]


def lazy_load_breaches(source: str):
    """Imports of a CLI module besides the package's lazy names: one at
    module level from a package module outside ``CLI_TOP``, and any inside a
    function or class but ``from .descent import _descend``."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        mods = _absolute(node)
        if node in tree.body:
            found += [(node.lineno, m) for m in mods
                      if m.split(".")[0] == "coringext" and m not in CLI_TOP]
        elif not (mods == [CLI_NESTED[0]] and
                  [a.name for a in node.names] == [CLI_NESTED[1]]):
            found += [(node.lineno, m) for m in mods]
    return sorted(found)


def test_detects_lazy_load_breaches():
    src = ("import json\nimport coringext as lib\n"
           "from .errors import SchemaError\nfrom .algmod import Algebra\n"
           "from . import fixtures\nimport coringext.coring\n"
           "def f():\n    from .descent import _descend\n"
           "    from .descent import Cor28Data\n    import json\n"
           "class K:\n    from .exactla import Mat\n")
    assert lazy_load_breaches(src) == [
        (4, "coringext.algmod"), (5, "coringext.fixtures"),
        (6, "coringext.coring"), (9, "coringext.descent"), (10, "json"),
        (12, "coringext.exactla")]


def test_cli_loads_layers_through_the_package():
    assert lazy_load_breaches((SRC / "cli.py").read_text(
        encoding="utf-8")) == []
