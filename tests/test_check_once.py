"""Data is checked where it enters the library, and nowhere else.

A structure given from outside (a workspace object, a ``make_*`` call, a
construction's own parameters) is checked once, where its record is made.
A construction whose output is valid by a theorem, once its inputs are
made, builds its record unchecked; ``tests/test_theorems.py`` proves each
such theorem on its outputs.

These tests count the calls of a checker while one record is built, or
while a sweep runs.  A checker is counted through every module of the
package that binds it, so a call from any layer is seen.  The memos are
cleared first, so that a result memoised by an earlier test does not hide
a call.
"""

import sys

import pytest

import coringext
from coringext import exactla
from coringext.algmod import RightModule
from coringext.cli import parse_workspace
from coringext.constructions import (base_algebra, coalgebra_to_coring,
                                     comatrix_coring, entwining_coring,
                                     group_coalgebra, make_coalgebra,
                                     sweedler_coring, trivial_coring)
from coringext.coring import dual_ring, make_colinear_map, regular_comodule
from coringext.descent import (check_cor28, comodule_to_descent,
                               descent_to_comodule, make_cor28)
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.extension import (apply_functor, compose_extensions,
                                 enumerate_measurings,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction,
                                 make_extension)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                gc2_coring, sw_coring, unit_map)

from test_constructions import free_rank_two, ref_flip_entwining
from test_witness import cor28_fixtures, outcome


def count_calls(monkeypatch, name):
    """The argument tuples of every later call of the checker ``name`` of
    the package."""
    checker = getattr(coringext, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return checker(*args)

    for modname, module in list(sys.modules.items()):
        if (modname == "coringext" or modname.startswith("coringext.")) \
                and vars(module).get(name) is checker:
            monkeypatch.setattr(module, name, counted)
    return calls


def count_checkers(monkeypatch):
    """The calls of every ``check_*`` of the package, by name."""
    return {name: count_calls(monkeypatch, name)
            for name in coringext.__all__ if name.startswith("check_")}


def made(calls):
    """The checkers that were called, with their argument tuples."""
    return {name: args for name, args in calls.items() if args}


def clear_memos():
    for cached in exactla._MEMOS:
        cached.cache_clear()


def explicit_coring(field):
    """An explicit coring object: the coalgebra of two group-likes over k."""
    ws = ('{"field": {"type": "Fp", "p": %d}, "objects": {'
          '"k": {"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]},'
          '"c": {"type": "coring", "algebra": "k", "dim": 2,'
          ' "lact": [[1, 0], [0, 1]], "ract": [[1, 0], [0, 1]],'
          ' "delta_lift": [[1, 0], [0, 0], [0, 0], [0, 1]],'
          ' "eps": [[1, 1]]}}}' % field.p)
    return parse_workspace(ws).objects["c"]


def coring_builders(field):
    """Each coring builder whose bimodule enters from outside, on inputs
    built before the count starts."""
    ent = ref_flip_entwining(d2_algebra(field), gc2_coalgebra(field))
    return {"explicit": lambda: explicit_coring(field),
            "entwining": lambda: entwining_coring(*ent)}


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
@pytest.mark.parametrize("builder", ["explicit", "entwining"])
def test_each_coring_builder_checks_its_bimodule_once(monkeypatch, builder,
                                                      field):
    build = coring_builders(field)[builder]
    clear_memos()
    bimodules = count_calls(monkeypatch, "check_bimodule")
    left = count_calls(monkeypatch, "check_left_module")
    c = build()
    assert bimodules == [(c.C,)]
    assert left == [(c.C.left_module(),)]


def theorem_builders(field):
    """Each construction that builds its record unchecked, on inputs made
    before the count starts, with the checks it runs on its own
    parameters."""
    d2 = d2_algebra(field)
    iota = unit_map(field, d2)
    sw = sweedler_coring(iota)
    t = trivial_coring(d2)
    e = extension_from_coring_map(sw.eps, sw, t)
    e_id = identity_extension(sw)
    reg = regular_comodule(sw)
    idmap = make_colinear_map(reg, reg, Mat.identity(field, sw.dim))
    datum = comodule_to_descent(iota, reg)
    coalg = group_coalgebra(field, 2)
    sigma, (elements, functionals) = free_rank_two(field)
    base_algebra(field)  # a made input of coalgebra_to_coring
    return {
        "sweedler": (lambda: sweedler_coring(iota), {}),
        "comatrix": (lambda: comatrix_coring(sigma, elements, functionals),
                     {"check_bimodule": [(sigma,)],
                      "check_left_module": [(sigma.left_module(),)],
                      "check_right_module": [(sigma.right_module(),)],
                      "check_dual_basis": [(sigma, elements, functionals)]}),
        "trivial": (lambda: trivial_coring(d2), {}),
        "coalgebra": (lambda: coalgebra_to_coring(coalg), {}),
        "group_coalgebra": (lambda: group_coalgebra(field, 3), {}),
        "dual_ring": (lambda: dual_ring(sw), {}),
        "identity_extension": (lambda: identity_extension(sw), {}),
        "extension_from_coring_map": (
            lambda: extension_from_coring_map(sw.eps, sw, t), {}),
        "compose_extensions": (lambda: compose_extensions(e_id, e), {}),
        "induced_coaction": (lambda: induced_coaction(e, reg), {}),
        "apply_functor": (lambda: apply_functor(e, idmap), {}),
        "descent_to_comodule": (lambda: descent_to_comodule(datum), {}),
        "comodule_to_descent": (lambda: comodule_to_descent(iota, reg), {}),
    }


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
@pytest.mark.parametrize("builder", [
    "sweedler", "comatrix", "trivial", "coalgebra", "group_coalgebra",
    "dual_ring",
    "identity_extension", "extension_from_coring_map", "compose_extensions",
    "induced_coaction", "apply_functor", "descent_to_comodule",
    "comodule_to_descent"])
def test_theorem_backed_builder_runs_no_check(monkeypatch, builder, field):
    """A construction valid by a theorem checks no more than its own
    parameters: of the list, only the comatrix coring checks them, Sigma
    as a bimodule and its dual basis."""
    build, expected = theorem_builders(field)[builder]
    clear_memos()
    base_algebra(field)
    calls = count_checkers(monkeypatch)
    build()
    assert made(calls) == expected


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
def test_make_coalgebra_checks_its_coring_once(monkeypatch, field):
    """A coalgebra is checked as its coring over k, by ``check_coring``
    alone: its bimodule, k acting by scalars, is checked within it."""
    data = group_coalgebra(field, 3)
    clear_memos()
    base_algebra(field)
    calls = count_checkers(monkeypatch)
    c = make_coalgebra(field, data.dim, data.delta, data.eps)
    assert {name: len(args) for name, args in made(calls).items()} == {
        "check_coring": 1, "check_bimodule": 1, "check_left_module": 1,
        "check_right_module": 1}
    assert calls["check_coring"] == [(coalgebra_to_coring(c),)]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
def test_make_cor28_trusts_its_extension(monkeypatch, field):
    """``make_cor28`` checks the data; the extension they assemble is valid
    by Cor. 2.8, so neither making the record nor assembling its extension
    checks the extension."""
    accepted = [d for d in cor28_fixtures(field)
                if outcome(check_cor28, d) is None]
    assert len(accepted) >= 2
    clear_memos()
    extensions = count_calls(monkeypatch, "check_coring_extension")
    for d in accepted:
        assert make_cor28(d.iota_B, d.iota_A, d.rho_A, d.phi_lift).extension
    assert extensions == []


def extension_data(field):
    """The data of three extensions, as a workspace ``extension`` object
    gives them to ``make_extension``: the identity, the counit onto the
    trivial coring, and their composite."""
    c = sw_coring(field)
    t = trivial_coring(d2_algebra(field))
    e = extension_from_coring_map(c.eps, c, t)
    return [(e.c, e.d, e.ract, e.sigma_lift) for e in (
        identity_extension(c), e, compose_extensions(identity_extension(c),
                                                     e))]


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_make_extension_never_checks_left_comodule(monkeypatch, field):
    data = extension_data(field)
    left_comodules = count_calls(monkeypatch, "check_left_comodule")
    for args in data:
        make_extension(*args)
    assert left_comodules == []


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_each_extension_checks_its_b_module_once(monkeypatch, field):
    # check_right_b_structure checks it; sigma's coaction is checked
    # without it
    data = extension_data(field)
    extensions = count_calls(monkeypatch, "check_coring_extension")
    modules = count_calls(monkeypatch, "check_right_module")
    for args in data:
        extensions.clear()
        modules.clear()
        make_extension(*args)
        assert extensions
        assert modules == [(RightModule(e.d.A, e.c.dim, e.ract),)
                           for (e,) in extensions]


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_sweeps_check_no_candidate(monkeypatch, field):
    """A sweep solves its linear laws exactly and compares only the others
    on each candidate: it calls no ``check_*``."""
    k, bc2 = base_algebra(field), c2_group_algebra(field)
    sweeps = [lambda: enumerate_measurings(gc2_coring(field), bc2),
              lambda: enumerate_measurings(sw_coring(field), k)]
    clear_memos()
    for sweep in sweeps:  # builds the inputs before the count starts
        sweep()
    calls = count_checkers(monkeypatch)
    for sweep in sweeps:
        assert sweep()
    assert made(calls) == {}
