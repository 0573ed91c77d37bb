"""Lint: no module of the package imports a name it never uses, or imports
inside a function from a module it already imports at top level, no
function but ``set_guards`` takes a size guard as a parameter, no module
but ``algmod`` restricts a regular module by hand, and no sweep runs a
checker on each candidate."""

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
# once reported mathematical failures besides AxiomViolation, a builder
# that checked a bimodule its caller's ``make_coring`` checks again, the
# wrappers that checked or assembled a made record a second time, a builder
# that nothing called, the maps that let a sweep re-run ``check_measuring``
# on each candidate, an accessor that built A over B a second time, a second
# linear solver and the helpers no CLI call used, the oracles that moved
# into the tests as ``ref_*``, the records that only carried arguments, a
# second column constructor, the second fixture table, the field
# arithmetic only the oracles used (``FieldSpec.add``, ``mul`` and ``sub``,
# which the balancing relations no longer read), the coordinate reader
# that tested membership in Sigma*, which a checked Sigma makes a theorem,
# the morphism check that ``check_colinear`` is, and the balance test of a
# map on a quotient's ambient, which a theorem answers wherever the package
# reads such a map
RETIRED = {"Verdict", "Failure", "raise_if_failed", "DualBasisInvalid",
           "NotCoringMorphism", "NotColinear", "MiddleMismatch",
           "bimodule_from_actions", "cor28_extension", "_descend",
           "induced_action", "make_bimodule", "_MeasuringMaps",
           "_measuring_maps", "aab", "apply", "solve", "rank", "scale",
           "is_zero", "is_finite", "star_product", "dual_coords", "ccc",
           "opposite", "is_isomorphism", "_holds", "flip_entwining",
           "twisted_product", "_hom_basis", "TwistedConvolution",
           "twisted_convolution", "enumerate_entwined_measurings",
           "Entwining", "DualBasis", "column", "ALGEBRA_FIXTURES",
           "CORING_FIXTURES", "_coerce_tensor3", "enumerate_algebra_maps",
           "dual_element", "measuring_to_algebra_map",
           "algebra_map_to_measuring", "_algebra_map_laws", "add", "mul",
           "coords", "star_coords", "check_descent_morphism",
           "check_coalgebra", "sub", "descend_map"}


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


# a retired name that is also a method of ``set`` (``add``) is flagged where
# it is defined, imported or assigned, not where an attribute reads it
SET_METHODS = set(dir(set))


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
        elif isinstance(node, ast.Attribute) and node.attr not in SET_METHODS:
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


def test_detects_retired_field_arithmetic():
    src = ("class FieldSpec:\n    def add(self, a, b):\n        pass\n"
           "    def mul(self, a, b):\n        pass\n"
           "def f(field, s):\n    s.add(1)\n    return field.mul(2, 3)\n"
           "def g(f, row):\n    return f.sub(row.get(0, 0), 1)\n")
    assert second_channel(src) == [(2, "add", "retired"),
                                   (4, "mul", "retired"),
                                   (8, "mul", "retired"),
                                   (10, "sub", "retired")]


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


# the kinds of the Sigma* membership test, a theorem once Sigma is checked,
# of the descent-morphism check, which check_colinear reports as
# not-colinear, and of the commuting of an extension's B-action and of
# Cor. 2.8's rho_A with the left action, which the bimodule check reports
# as commuting-actions; and every ``*-not-balanced`` kind, the balance of
# a quotient coring's Delta and eps, a theorem of the Sweedler and comatrix
# corings
RETIRED_KINDS = {"not-in-sigma-star", "not-descent-map",
                 "actions-do-not-commute", "rho-not-left-linear"}


def _kind_constants():
    return [(path.name, node.value) for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)]


def test_no_retired_kind():
    assert [c for c in _kind_constants() if c[1] in RETIRED_KINDS
            or c[1].endswith("-not-balanced")] == []


def test_commuting_actions_stated_once():
    # algmod._check_right_action is the one place two actions commute
    assert [c for c in _kind_constants() if c[1] == "commuting-actions"] \
        == [("algmod.py", "commuting-actions")]


# -- one lazy-load mechanism: the CLI reaches every layer through the
# -- package's names ---------------------------------------------------------

# what cli.py may import from the package at module level; it imports
# nothing inside a function or class
CLI_TOP = {"coringext", "coringext.errors", "coringext.exactla"}


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
    function or class."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        mods = _absolute(node)
        if node in tree.body:
            found += [(node.lineno, m) for m in mods
                      if m.split(".")[0] == "coringext" and m not in CLI_TOP]
        else:
            found += [(node.lineno, m) for m in mods]
    return sorted(found)


def test_detects_lazy_load_breaches():
    src = ("import json\nimport coringext as lib\n"
           "from .errors import SchemaError\nfrom .algmod import Algebra\n"
           "from . import fixtures\nimport coringext.coring\n"
           "from ._record import frozen\n"
           "def f():\n    from .descent import _descend\n"
           "    from .descent import Cor28Data\n    import json\n"
           "class K:\n    from .exactla import Mat\n")
    assert lazy_load_breaches(src) == [
        (4, "coringext.algmod"), (5, "coringext.fixtures"),
        (6, "coringext.coring"), (7, "coringext._record"),
        (9, "coringext.descent"), (10, "coringext.descent"), (11, "json"),
        (13, "coringext.exactla")]


def test_cli_loads_layers_through_the_package():
    assert lazy_load_breaches((SRC / "cli.py").read_text(
        encoding="utf-8")) == []


# -- one spelling of restriction: A over B along f: B -> A is
# -- ``algmod.regular_along(f)`` -----------------------------------------------

RESTRICT = {"restrict_left", "restrict_right"}
REGULAR = {"left_regular", "right_regular"}


def _named(node):
    """The name a ``Name`` or ``Attribute`` node reads, else None."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _called(node):
    """The name a call calls, bare or as an attribute, else None."""
    return _named(node.func) if isinstance(node, ast.Call) else None


def regular_restrictions(source: str):
    """Calls that restrict a regular module by hand, as
    ``(line, restriction)``: ``restrict_left`` or ``restrict_right`` whose
    module is a ``left_regular(...)`` or ``right_regular(...)`` call."""
    return sorted((node.lineno, _called(node))
                  for node in ast.walk(ast.parse(source))
                  if _called(node) in RESTRICT and node.args
                  and _called(node.args[0]) in REGULAR)


def test_detects_regular_restrictions():
    src = ("a_b = restrict_right(right_regular(a), iota)\n"
           "b_a = algmod.restrict_left(\n    left_regular(a), iota)\n"
           "m_b = restrict_right(m, iota)\n"
           "x = restrict_left(lib.left_regular(b), f).act\n"
           "y = left_regular(restrict_left(m, f))\n")
    assert regular_restrictions(src) == [(1, "restrict_right"),
                                         (2, "restrict_left"),
                                         (5, "restrict_left")]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "algmod.py"],
                         ids=lambda p: p.name)
def test_restriction_has_one_spelling(path):
    assert regular_restrictions(path.read_text(encoding="utf-8")) == []


# -- a sweep solves its linear laws once: the ``keep`` that a module passes
# -- to ``enumerate_affine`` tests only the others, and runs no checker ------

CHECKERS = "check_", "_holds"


def checking_keeps(source: str):
    """Names of a ``check_*`` function or of ``_holds`` read in a ``keep``
    passed to ``enumerate_affine``, as ``(line, name)``.  The keep is the
    fourth argument or the ``keep`` keyword; a name in it stands for every
    function of that name that the module defines."""
    tree = ast.parse(source)
    defs = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    found = set()
    for node in ast.walk(tree):
        if _called(node) != "enumerate_affine":
            continue
        keeps = node.args[3:4] + [k.value for k in node.keywords
                                  if k.arg == "keep"]
        scopes = keeps + [fn for keep in keeps for n in ast.walk(keep)
                          for fn in defs.get(_named(n), [])]
        found |= {(n.lineno, _named(n)) for scope in scopes
                  for n in ast.walk(scope)
                  if (_named(n) or "").startswith(CHECKERS)}
    return sorted(found)


def test_detects_checking_keeps():
    src = ("def f(k, s, r):\n"
           "    def keep(m):\n        return _holds(check_x, m)\n"
           "    def plain(m):\n        return m @ m == m\n"
           "    enumerate_affine(k, s, r, keep)\n"
           "    enumerate_affine(k, s, r, plain)\n"
           "    _search.enumerate_affine(k, s, r,\n"
           "                             keep=lambda m: lib.check_y(m))\n"
           "    enumerate_affine(k, s, r, check_z)\n"
           "    check_w(enumerate_affine(k, s, r, plain))\n")
    assert checking_keeps(src) == [(3, "_holds"), (3, "check_x"),
                                   (9, "check_y"), (10, "check_z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sweeps_run_no_checker(path):
    assert checking_keeps(path.read_text(encoding="utf-8")) == []
