"""End-to-end acceptance checks, one test per contract criterion.

Every check uses exact arithmetic; any mismatch is a hard failure.  Each
test prints a single summary line (visible with ``pytest -s``); the pytest
verbose report gives one pass/fail line per criterion as well.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from coringext.cli import run
from coringext.errors import AxiomViolation
from coringext.exactla import (GF2, GF3, QQ, FieldSpec, Mat, kernel,
                               quotient, rref)
from coringext.algmod import (Bimodule, RightModule, enumerate_algebra_maps,
                              make_algebra_map, right_regular)
from coringext.coring import (check_comodule, check_coring, cofree_comodule,
                              direct_sum_comodule, dual_ring,
                              make_colinear_map, regular_comodule)
from coringext.constructions import (base_algebra,
                                     coalgebra_to_coring, comatrix_coring,
                                     entwining_coring, sweedler_coring,
                                     trivial_coring)
from coringext.descent import (Cor28Data, check_cor28, check_descent_datum,
                               check_descent_morphism, comodule_to_descent,
                               descent_to_comodule, make_cor28,
                               make_descent_datum)
from coringext.extension import (action_from_measuring,
                                 algebra_map_to_measuring, apply_functor,
                                 check_coring_extension,
                                 check_right_b_structure, compose_extensions,
                                 enumerate_measurings,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction,
                                 measuring_from_action,
                                 measuring_to_algebra_map)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                gc2_coring, matrix_algebra_2, sw_coring,
                                unit_map)

from test_algmod import ref_is_isomorphism, ref_opposite, ref_unit
from test_constructions import (ref_enumerate_entwined_measurings,
                                ref_flip_entwining, ref_twisted_convolution)


def _report(n: int, desc: str):
    print(f"criterion {n}: PASS - {desc}")


def measuring_cases():
    return [
        (trivial_coring(d2_algebra(GF2)), c2_group_algebra(GF2), 1),
        (gc2_coring(GF3), c2_group_algebra(GF3), 4),
        (sw_coring(GF2), base_algebra(GF2), 1),
    ]


def fixture_extensions():
    sw = sw_coring(GF2)
    triv = trivial_coring(d2_algebra(GF2))
    return [
        identity_extension(sw),
        identity_extension(triv),
        extension_from_coring_map(sw.eps, sw, triv),
        _cor28_fixture().extension,
    ]


def _cor28_fixture() -> Cor28Data:
    a = d2_algebra(GF2)
    k = base_algebra(GF2)
    iota_b = make_algebra_map(k, k, Mat.identity(GF2, 1))
    iota_a = unit_map(GF2, a)
    ia = Mat.identity(GF2, a.dim)
    phi = a.unit_col.kron(ia).kron(Mat.identity(GF2, 1))
    return make_cor28(iota_b, iota_a, Mat.identity(GF2, a.dim), phi)


def comodule_corpus(c):
    reg = regular_comodule(c)
    x = RightModule(c.A, 1, Mat.from_rows(c.A.field, [[1, 0]]))
    return [reg, direct_sum_comodule(reg, reg), cofree_comodule(c, x)]


def test_criterion_1_measuring_bijection():
    for c, b, expected in measuring_cases():
        ms = enumerate_measurings(c, b)
        chis = enumerate_algebra_maps(b, dual_ring(c).alg)
        assert len(ms) == expected
        assert len(chis) == expected
        for m in ms:
            chi = measuring_to_algebra_map(m)
            assert algebra_map_to_measuring(c, chi).nu == m.nu
        for chi in chis:
            m = algebra_map_to_measuring(c, chi)
            assert measuring_to_algebra_map(m).matrix == chi.matrix
    _report(1, "measurings biject with algebra maps into the dual ring "
               "(counts 1, 4, 1; conversions mutually inverse)")


def test_criterion_2_measuring_action_equivalence():
    for c, b, _ in measuring_cases():
        for m in enumerate_measurings(c, b):
            ract = action_from_measuring(m)
            assert measuring_from_action(c, b, ract).nu == m.nu
            assert check_right_b_structure(c, b, ract) is None
        # and conversely: every valid action arises from its measuring
        for m in enumerate_measurings(c, b):
            ract = action_from_measuring(m)
            again = action_from_measuring(measuring_from_action(c, b, ract))
            assert again == ract
    _report(2, "measurings and compatible actions convert back and forth "
               "with matrix equality; the coproduct is right linear")


def test_criterion_3_induced_functor():
    for e in fixture_extensions():
        assert check_coring_extension(e) is None
        for m in comodule_corpus(e.c):
            out = induced_coaction(e, m)
            assert out.dim == m.dim                 # space unchanged
            assert out.M.alg == e.d.A
            assert check_comodule(out) is None
        reg = regular_comodule(e.c)
        ds = direct_sum_comodule(reg, reg)
        ident = Mat.identity(GF2, reg.dim)

        def transport(f, m, n):
            return apply_functor(e, make_colinear_map(m, n, f)).matrix

        assert transport(ident, reg, reg) == ident
        inc = Mat.from_cols(GF2, [tuple(
            1 if (i == j or i == j + reg.dim) else 0
            for i in range(2 * reg.dim)) for j in range(reg.dim)])
        pr = Mat.from_rows(GF2, [tuple(
            1 if i == j else 0 for j in range(2 * reg.dim))
            for i in range(reg.dim)])
        f1 = transport(inc, reg, ds)
        f2 = transport(pr, ds, reg)
        assert f1 == inc and f2 == pr               # matrices unchanged
        assert transport(pr @ inc, reg, reg) == f2 @ f1
    _report(3, "induced coactions pass all axioms over the base coring; "
               "the functor is identity on spaces and morphisms and "
               "preserves identities and composition")


def test_criterion_4_regular_comodule_roundtrip():
    for e in fixture_extensions():
        reg = regular_comodule(e.c)
        assert induced_coaction(e, reg).M.act == e.ract
        assert induced_coaction(e, reg).rho_lift == e.sigma_lift
    _report(4, "the induced structure on the regular comodule reproduces "
               "the extension's action and coaction exactly")


def _find_iso(src, tgt):
    for m in enumerate_algebra_maps(src, tgt):
        if ref_is_isomorphism(m):
            return m
    return None


def test_criterion_5_worked_constructions():
    # (1) dual ring of the trivial coring on A is A itself, via f -> f(1)
    for field in (GF2, GF3, QQ):
        a = d2_algebra(field)
        dr = dual_ring(trivial_coring(a))
        ev = Mat.from_cols(field, [(b @ a.unit_col).col(0)
                                   for b in dr.basis])
        assert ref_is_isomorphism(make_algebra_map(dr.alg, a, ev))

    # (2)/(3) dual rings of the free-rank-one comatrix and Sweedler corings
    # are the opposite endomorphism ring of the fibre, found by search
    m2op = ref_opposite(matrix_algebra_2(GF2))
    a = d2_algebra(GF2)
    k = base_algebra(GF2)
    sigma = Bimodule(k, a, a.dim, Mat.identity(GF2, a.dim), a.mult_mat)
    elements, functionals = (ref_unit(a),), (Mat.identity(GF2, a.dim),)
    for c in (sw_coring(GF2), comatrix_coring(sigma, elements, functionals)):
        assert _find_iso(m2op, dual_ring(c).alg) is not None

    # (4) flip-entwining measurings agree with the plain coalgebra coring
    # measurings, and twisted convolution is the dual ring of the
    # entwined coring via the explicit evaluation map
    e = ref_flip_entwining(base_algebra(GF3), gc2_coalgebra(GF3))
    c = entwining_coring(*e)
    b = c2_group_algebra(GF3)
    entwined = ref_enumerate_entwined_measurings(e, b)
    plain = enumerate_measurings(coalgebra_to_coring(gc2_coalgebra(GF3)), b)
    assert [m.nu for m in plain] == entwined
    for field in (GF2, GF3):
        ef = ref_flip_entwining(d2_algebra(field), gc2_coalgebra(field))
        tc = ref_twisted_convolution(ef)
        assert tc.to_dual.target == dual_ring(entwining_coring(*ef)).alg
        assert ref_is_isomorphism(tc.to_dual)
    _report(5, "worked constructions: trivial dual ring, comatrix and "
               "canonical-quotient dual rings, flip entwining, and "
               "twisted convolution all match their closed forms")


def test_criterion_6_descent():
    a = d2_algebra(GF2)
    bcg = c2_group_algebra(GF2)
    iotas = [
        make_algebra_map(a, a, Mat.identity(GF2, 2)),
        unit_map(GF2, a),
        unit_map(GF2, bcg),
    ]
    for iota, tgt in zip(iotas, (a, a, bcg)):
        ia = Mat.identity(GF2, tgt.dim)
        d = make_descent_datum(iota, right_regular(tgt),
                               tgt.unit_col.kron(ia))
        com = descent_to_comodule(d)
        assert check_comodule(com) is None
        back = comodule_to_descent(iota, com)
        assert back.M == d.M and back.f_lift == d.f_lift
        reg = regular_comodule(sweedler_coring(iota))
        d2d = comodule_to_descent(iota, reg)
        assert check_descent_datum(d2d) is None
        again = descent_to_comodule(d2d)
        assert again.M == reg.M and again.rho_lift == reg.rho_lift
        # morphisms carry across with the same matrix
        ident = Mat.identity(GF2, d.M.dim)
        assert check_descent_morphism(d, d, ident) is None
        from coringext.coring import check_colinear
        assert check_colinear(ident, com, com) is None

    good = _cor28_fixture()
    assert check_cor28(good) is None
    ia = Mat.identity(GF2, a.dim)
    wrong_slot = ia.kron(a.unit_col).kron(Mat.identity(GF2, 1))
    for phi in (wrong_slot, Mat.zero(GF2, 4, 2)):
        with pytest.raises(AxiomViolation):
            check_cor28(Cor28Data(good.iota_B, good.iota_A, good.rho_A, phi))
    assert check_coring_extension(good.extension) is None
    _report(6, "descent data and canonical-quotient comodules round-trip "
               "exactly; the chain-of-maps fixtures accept and reject as "
               "expected and acceptance matches extension validity")


def test_criterion_7_extension_composition():
    sw = sw_coring(GF2)
    triv = trivial_coring(d2_algebra(GF2))
    e = extension_from_coring_map(sw.eps, sw, triv)
    left = compose_extensions(identity_extension(sw), e)
    right = compose_extensions(e, identity_extension(triv))
    for got in (left, right):
        assert got.ract == e.ract and got.sigma_lift == e.sigma_lift

    g1 = sw.eps
    g2 = Mat.identity(GF2, triv.dim)
    e1 = extension_from_coring_map(g1, sw, triv)
    e2 = extension_from_coring_map(g2, triv, triv)
    e3 = identity_extension(triv)
    lhs = compose_extensions(compose_extensions(e1, e2), e3)
    rhs = compose_extensions(e1, compose_extensions(e2, e3))
    assert lhs.ract == rhs.ract and lhs.sigma_lift == rhs.sigma_lift
    chain = compose_extensions(e1, e2)
    direct = extension_from_coring_map(g2 @ g1, sw, triv)
    assert chain.ract == direct.ract
    assert chain.sigma_lift == direct.sigma_lift
    _report(7, "identity extensions are two-sided units, composition is "
               "associative on a 3-chain, and chains of map-induced "
               "extensions equal the extension of the composite map")


def _rand_mat(field, rows, cols, rng):
    if field.p is not None:
        ent = [[rng.randrange(field.p) for _ in range(cols)]
               for _ in range(rows)]
    else:
        ent = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
                for _ in range(cols)] for _ in range(rows)]
    return Mat.from_rows(field, ent)


def test_criterion_8_infrastructure():
    for field in (GF2, GF3, FieldSpec(5), QQ):
        rng = random.Random(0)
        for _ in range(100):
            m = _rand_mat(field, rng.randrange(1, 6), rng.randrange(1, 6),
                          rng)
            assert rref(m)[0].rows + kernel(m).rows == m.cols
            q = quotient(field, m.cols, m)
            assert q.projection @ q.section == \
                Mat.identity(field, q.quo_dim)
            assert q.projection @ m.transpose() == \
                Mat.zero(field, q.quo_dim, m.rows)

    text = json.dumps({"field": {"type": "Fp", "p": 2},
                       "objects": {"sw": {"fixture": "FIX.SW"}}})
    outs = []
    for _ in range(2):
        out = io.StringIO()
        code = run(["dualring", "--coring", "sw"],
                   stdin=io.StringIO(text), stdout=out)
        assert code == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    _report(8, "rank-nullity and quotient identities hold on 100 seeded "
               "random matrices per field; CLI reports are byte-identical")


def test_sweedler_unit_map_m2_gf2():
    # the 16-dimensional Sweedler coring of k -> M_2(GF(2)), the first rung
    # of the size ladder beyond the fixtures
    c = sweedler_coring(unit_map(GF2, matrix_algebra_2(GF2)))
    assert c.dim == 16
    assert check_coring(c) is None
    assert dual_ring(c).dim == 16
