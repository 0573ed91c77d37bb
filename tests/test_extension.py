"""Measurings, the bijection with dual-ring maps, and coring extensions."""

import pytest

from coringext.errors import (AxiomViolation, MiddleMismatch, NotColinear,
                              NotCoringMorphism)
from coringext.exactla import GF2, GF3, Mat
from coringext.algmod import (RightModule, enumerate_algebra_maps,
                              make_algebra)
from coringext.coring import (check_comodule, dual_ring, regular_comodule,
                              direct_sum_comodule, cofree_comodule)
from coringext.constructions import base_algebra, trivial_coring
from coringext.extension import (Measuring, action_from_measuring,
                                 algebra_map_to_measuring, apply_functor,
                                 check_coring_extension, check_measuring,
                                 check_right_b_structure, compose_extensions,
                                 enumerate_measurings,
                                 extension_from_coring_map,
                                 identity_extension, induced_action,
                                 induced_coaction, make_extension,
                                 measuring_from_action,
                                 measuring_to_algebra_map)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                sw_coring)


def measuring_cases():
    return [
        (trivial_coring(d2_algebra(GF2)), c2_group_algebra(GF2), 1),
        (gc2_coring(GF3), c2_group_algebra(GF3), 4),
        (sw_coring(GF2), base_algebra(GF2), 1),
        # the zero algebra: 1 = 0, so no nu can satisfy nu(x (x) 1) = eps(x)
        (sw_coring(GF2), make_algebra(GF2, 0, (), ()), 0),
    ]


class TestMeasurings:
    def test_counts(self):
        for c, b, expected in measuring_cases():
            assert len(enumerate_measurings(c, b)) == expected

    def test_canonical_order(self):
        c, b, _ = measuring_cases()[1]
        ms = enumerate_measurings(c, b)
        flats = [m.nu.entries for m in ms]
        assert flats == sorted(flats)

    def test_unit_diagram_violation(self):
        c = gc2_coring(GF3)
        b = c2_group_algebra(GF3)
        bad = Measuring(c, b, Mat.zero(GF3, 1, 4))
        v = check_measuring(bad)
        assert not v and v.failure.kind == "unit-diagram"

    def test_multiplication_diagram_violation(self):
        c = gc2_coring(GF3)
        b = c2_group_algebra(GF3)
        # nu(e_1 (x) g) = 0 cannot square to nu(e_1 (x) 1) = 1
        nu = Mat.from_rows(GF3, [[1, 0, 1, 1]])
        v = check_measuring(Measuring(c, b, nu))
        assert not v and v.failure.kind == "multiplication-diagram"


class TestBijection:
    def test_counts_match_algebra_maps(self):
        for c, b, expected in measuring_cases():
            dr = dual_ring(c)
            chis = enumerate_algebra_maps(b, dr.alg)
            assert len(chis) == expected

    def test_mutually_inverse(self):
        for c, b, _ in measuring_cases():
            for m in enumerate_measurings(c, b):
                chi = measuring_to_algebra_map(m)
                assert algebra_map_to_measuring(c, chi).nu == m.nu
            dr = dual_ring(c)
            for chi in enumerate_algebra_maps(b, dr.alg):
                m = algebra_map_to_measuring(c, chi)
                assert measuring_to_algebra_map(m).matrix == chi.matrix


class TestActionEquivalence:
    def test_roundtrip(self):
        for c, b, _ in measuring_cases():
            for m in enumerate_measurings(c, b):
                ract = action_from_measuring(m)
                assert measuring_from_action(c, b, ract).nu == m.nu

    def test_coproduct_right_linear(self):
        for c, b, _ in measuring_cases():
            for m in enumerate_measurings(c, b):
                ract = action_from_measuring(m)
                assert bool(check_right_b_structure(c, b, ract))

    def test_invalid_action_rejected(self):
        c = gc2_coring(GF3)
        b = c2_group_algebra(GF3)
        bad = Mat.zero(GF3, 2, 4)
        v = check_right_b_structure(c, b, bad)
        assert not v
        with pytest.raises(AxiomViolation):
            measuring_from_action(c, b, bad)


def fixture_extensions():
    sw = sw_coring(GF2)
    triv = trivial_coring(d2_algebra(GF2))
    return [
        identity_extension(sw),
        identity_extension(triv),
        extension_from_coring_map(sw.eps, sw, triv),
    ]


class TestExtensions:
    def test_fixtures_valid(self):
        for e in fixture_extensions():
            assert bool(check_coring_extension(e))

    def test_coring_map_validation(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        with pytest.raises(NotCoringMorphism):
            extension_from_coring_map(Mat.zero(GF2, 2, 4), sw, triv)

    def test_make_extension_rejects_bad_sigma(self):
        sw = sw_coring(GF2)
        with pytest.raises(AxiomViolation):
            make_extension(sw, sw, sw.C.ract,
                           Mat.zero(GF2, sw.dim * sw.dim, sw.dim))


def comodule_corpus(c):
    reg = regular_comodule(c)
    x = RightModule(c.A, 1, Mat.from_rows(c.A.field, [[1, 0]]))
    return [reg, direct_sum_comodule(reg, reg), cofree_comodule(c, x)]


class TestInducedFunctor:
    def test_outputs_are_comodules(self):
        for e in fixture_extensions():
            for m in comodule_corpus(e.c):
                out = induced_coaction(e, m)
                assert out.dim == m.dim
                assert bool(check_comodule(out))

    def test_structure_roundtrip(self):
        # reading the functor on the regular comodule recovers the extension
        for e in fixture_extensions():
            reg = regular_comodule(e.c)
            assert induced_action(e, reg) == e.ract
            assert induced_coaction(e, reg).rho_lift == e.sigma_lift

    def test_preserves_identity_and_composition(self):
        for e in fixture_extensions():
            reg = regular_comodule(e.c)
            ds = direct_sum_comodule(reg, reg)
            ident = Mat.identity(GF2, reg.dim)
            assert apply_functor(e, ident, reg, reg) == ident
            # diagonal embedding followed by first projection
            inc = Mat.from_cols(GF2, [tuple(
                1 if (i == j or i == j + reg.dim) else 0
                for i in range(2 * reg.dim)) for j in range(reg.dim)])
            pr = Mat.from_rows(GF2, [tuple(
                1 if i == j else 0 for j in range(2 * reg.dim))
                for i in range(reg.dim)])
            f1 = apply_functor(e, inc, reg, ds)
            f2 = apply_functor(e, pr, ds, reg)
            assert apply_functor(e, pr @ inc, reg, reg) == f2 @ f1

    def test_not_colinear_rejected(self):
        e = fixture_extensions()[2]
        reg = regular_comodule(e.c)
        bad = Mat.from_rows(GF2, [[1, 1, 1, 1]] * 4)
        with pytest.raises(NotColinear):
            apply_functor(e, bad, reg, reg)


class TestComposition:
    def test_identity_units(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        e = extension_from_coring_map(sw.eps, sw, triv)
        left = compose_extensions(identity_extension(sw), e)
        right = compose_extensions(e, identity_extension(triv))
        for got in (left, right):
            assert got.ract == e.ract
            assert got.sigma_lift == e.sigma_lift

    def test_chain_equals_direct(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        g1 = sw.eps
        g2 = Mat.identity(GF2, triv.dim)
        e1 = extension_from_coring_map(g1, sw, triv)
        e2 = extension_from_coring_map(g2, triv, triv)
        chain = compose_extensions(e1, e2)
        direct = extension_from_coring_map(g2 @ g1, sw, triv)
        assert chain.ract == direct.ract
        assert chain.sigma_lift == direct.sigma_lift

    def test_associativity(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        e1 = extension_from_coring_map(sw.eps, sw, triv)
        e2 = extension_from_coring_map(Mat.identity(GF2, 2), triv, triv)
        e3 = identity_extension(triv)
        left = compose_extensions(compose_extensions(e1, e2), e3)
        right = compose_extensions(e1, compose_extensions(e2, e3))
        assert left.ract == right.ract
        assert left.sigma_lift == right.sigma_lift

    def test_middle_mismatch(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        e = extension_from_coring_map(sw.eps, sw, triv)
        with pytest.raises(MiddleMismatch):
            compose_extensions(e, e)
