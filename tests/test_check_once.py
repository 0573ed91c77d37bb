"""Each structure is checked where its record is made, and nowhere else.

These tests count the calls of a checker while one record is built, or
while a sweep runs.  A checker is counted through every module of the
package that binds it, so a call from any layer is seen.  The memos are
cleared first, so that a result memoised by an earlier test does not hide
a call.
"""

import sys

import pytest

import coringext
from coringext import algmod, exactla
from coringext.algmod import RightModule, enumerate_algebra_maps
from coringext.cli import parse_workspace
from coringext.constructions import (base_algebra, coalgebra_to_coring,
                                     entwining_coring, flip_entwining,
                                     group_coalgebra, sweedler_coring,
                                     trivial_coring)
from coringext.coring import regular_comodule
from coringext.exactla import GF2, GF3, Mat
from coringext.extension import (compose_extensions, enumerate_measurings,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction,
                                 make_measuring, measuring_to_algebra_map)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                gc2_coring, sw_coring, unit_map)


def count_calls(monkeypatch, name, home=coringext):
    """The argument tuples of every later call of the checker ``name`` of
    ``home``, the package or one of its modules."""
    checker = getattr(home, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return checker(*args)

    for modname, module in list(sys.modules.items()):
        if (modname == "coringext" or modname.startswith("coringext.")) \
                and vars(module).get(name) is checker:
            monkeypatch.setattr(module, name, counted)
    return calls


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
    """Each coring builder, on inputs built before the count starts."""
    iota = unit_map(field, d2_algebra(field))
    ent = flip_entwining(d2_algebra(field), gc2_coalgebra(field))
    coalg = group_coalgebra(field, 2)
    return {"explicit": lambda: explicit_coring(field),
            "sweedler": lambda: sweedler_coring(iota),
            "entwining": lambda: entwining_coring(ent),
            "coalgebra": lambda: coalgebra_to_coring(coalg)}


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
@pytest.mark.parametrize("builder",
                         ["explicit", "sweedler", "entwining", "coalgebra"])
def test_each_coring_builder_checks_its_bimodule_once(monkeypatch, builder,
                                                      field):
    build = coring_builders(field)[builder]
    clear_memos()
    bimodules = count_calls(monkeypatch, "check_bimodule")
    left = count_calls(monkeypatch, "check_left_module")
    c = build()
    assert bimodules == [(c.C,)]
    assert left == [(c.C.left_module(),)]


def extension_builders(field):
    """Each extension builder, on corings built before the count starts."""
    c = sw_coring(field)
    t = trivial_coring(d2_algebra(field))
    gamma = Mat.from_rows(field, [[1, 0, 0, 0], [0, 0, 0, 1]])
    e = extension_from_coring_map(gamma, c, t)
    return [lambda: identity_extension(c),
            lambda: extension_from_coring_map(gamma, c, t),
            lambda: compose_extensions(identity_extension(c), e)]


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_make_extension_never_checks_left_comodule(monkeypatch, field):
    builds = extension_builders(field)
    left_comodules = count_calls(monkeypatch, "check_left_comodule")
    for build in builds:
        build()
    assert left_comodules == []


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_each_extension_checks_its_b_module_once(monkeypatch, field):
    # check_right_b_structure checks it; sigma's coaction is checked
    # without it
    builds = extension_builders(field)
    extensions = count_calls(monkeypatch, "check_coring_extension")
    modules = count_calls(monkeypatch, "check_right_module")
    for build in builds:
        extensions.clear()
        modules.clear()
        build()
        assert extensions
        assert modules == [(RightModule(e.d.A, e.c.dim, e.ract),)
                           for (e,) in extensions]


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_induced_coaction_checks_its_module_once(monkeypatch, field):
    c = sw_coring(field)
    t = trivial_coring(d2_algebra(field))
    e = extension_from_coring_map(
        Mat.from_rows(field, [[1, 0, 0, 0], [0, 0, 0, 1]]), c, t)
    reg = regular_comodule(c)
    modules = count_calls(monkeypatch, "check_right_module")
    out = induced_coaction(e, reg)
    assert modules == [(out.M,)]


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_measuring_to_algebra_map_trusts_a_made_measuring(monkeypatch, field):
    c = sw_coring(field)
    m = make_measuring(c, base_algebra(field), c.eps)
    measurings = count_calls(monkeypatch, "check_measuring")
    measuring_to_algebra_map(m)
    assert measurings == []


@pytest.mark.parametrize("field", [GF2, GF3], ids=repr)
def test_sweeps_check_no_candidate(monkeypatch, field):
    """A sweep solves its linear laws exactly and compares only the others
    on each candidate: it calls no ``check_*`` and no ``_holds``."""
    k, d2, bc2 = base_algebra(field), d2_algebra(field), c2_group_algebra(field)
    sweeps = [lambda: enumerate_measurings(gc2_coring(field), bc2),
              lambda: enumerate_measurings(sw_coring(field), k),
              lambda: enumerate_algebra_maps(d2, bc2),
              lambda: enumerate_algebra_maps(bc2, d2)]
    clear_memos()
    for sweep in sweeps:  # builds the inputs before the count starts
        sweep()
    calls = {name: count_calls(monkeypatch, name)
             for name in coringext.__all__ if name.startswith("check_")}
    calls["_holds"] = count_calls(monkeypatch, "_holds", algmod)
    for sweep in sweeps:
        assert sweep()
    assert {name: args for name, args in calls.items() if args} == {}
