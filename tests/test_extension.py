"""Measurings, the bijection with dual-ring maps, and coring extensions.

The algebra maps B -> *C into the dual ring, and the bijection between
them and the measurings of C by B, are test oracles here
(``ref_enumerate_algebra_maps``, ``ref_measuring_to_algebra_map`` and
``ref_algebra_map_to_measuring``): ``enumerate_measurings`` is checked
against them by count and through the bijection.
"""

import random

import pytest

from coringext._search import enumerate_affine
from coringext.errors import AxiomViolation, DimensionMismatch
from coringext.exactla import GF2, GF3, QQ, Mat, _combine, kernel
from coringext.algmod import (AlgebraMap, Bimodule, LeftModule, RightModule,
                              _first_diff, make_algebra_map)
from coringext.cli import parse_workspace
from coringext.coring import (ColinearMap, Comodule, LeftComodule,
                              check_bicomodule, check_comodule,
                              check_left_comodule, dual_ring,
                              make_colinear_map, regular_comodule,
                              direct_sum_comodule, cofree_comodule)
from coringext.tensorcat import tensor_chain, tensor_over
from coringext.constructions import base_algebra, trivial_coring
from coringext.extension import (Measuring, action_from_measuring,
                                 apply_functor, check_coring_extension,
                                 check_measuring, check_right_b_structure,
                                 compose_extensions, enumerate_measurings,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction,
                                 make_extension, make_measuring,
                                 measuring_from_action)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                sw_coring)

from test_algmod import ref_add, ref_algebra
from test_corpus import load_gen
from test_exactla_sparse import ref_coords


# -- reference: algebra maps B -> *C and the bijection ----------------------


def ref_enumerate_algebra_maps(b, a):
    """All algebra maps b -> a over a prime field, ordered by their
    row-major matrix entries.  The unit law f(1) = 1 is affine in the
    matrix, so the sweep runs over its solutions only and keeps the
    multiplicative ones."""
    def residual(m):
        return m @ b.unit_col - a.unit_col

    def keep(m):
        return m @ b.mult_mat == a.mult_mat @ m.kron(m)

    return [AlgebraMap(b, a, m) for m in
            enumerate_affine(b.field, (a.dim, b.dim), residual, keep)]


def ref_dual_element(dr, coeffs):
    """The left A-linear map C -> A with coordinates ``coeffs`` in the
    basis of the dual ring ``dr``."""
    c = dr.coring
    return _combine(Mat.zero(c.A.field, c.A.dim, c.dim), coeffs, dr.basis)


def ref_measuring_to_algebra_map(m):
    """chi(b) = nu(- (x) b), the algebra map B -> *C of a measuring."""
    c, b = m.coring, m.B
    f = c.A.field
    dr = dual_ring(c)
    cols = []
    for j in range(b.dim):
        nu_j = Mat(f, c.A.dim, c.dim, tuple(
            tuple(m.nu.entries[r][s * b.dim + j] for s in range(c.dim))
            for r in range(c.A.dim)))
        x = ref_coords(dr.basis, nu_j)
        assert x is not None, f"slice {j} of nu is not left A-linear"
        cols.append(x)
    return make_algebra_map(b, dr.alg, Mat.from_cols(f, cols))


def ref_algebra_map_to_measuring(c, chi):
    """nu(x (x) b) = chi(b)(x), the measuring of an algebra map B -> *C."""
    dr = dual_ring(c)
    assert chi.target == dr.alg
    b = chi.source
    slices = [ref_dual_element(dr, chi.matrix.col(j)) for j in range(b.dim)]
    return make_measuring(c, b, Mat.from_cols(c.A.field, [
        slices[j].col(s) for s in range(c.dim) for j in range(b.dim)]))


def assert_bijection(c, ms, chis):
    """The two reference maps are mutually inverse bijections between the
    measurings ``ms`` and the algebra maps ``chis``, both in canonical
    order."""
    assert len(ms) == len(chis)
    to_maps = [ref_measuring_to_algebra_map(m) for m in ms]
    assert sorted(to_maps, key=lambda chi: chi.matrix.entries) == chis
    for m, chi in zip(ms, to_maps):
        assert ref_algebra_map_to_measuring(c, chi) == m
    to_measurings = [ref_algebra_map_to_measuring(c, chi) for chi in chis]
    assert sorted(to_measurings, key=lambda m: m.nu.entries) == ms
    for chi, m in zip(chis, to_measurings):
        assert ref_measuring_to_algebra_map(m) == chi


def measuring_cases():
    return [
        (trivial_coring(d2_algebra(GF2)), c2_group_algebra(GF2), 1),
        (gc2_coring(GF3), c2_group_algebra(GF3), 4),
        (sw_coring(GF2), base_algebra(GF2), 1),
        # the zero algebra: 1 = 0, so no nu can satisfy nu(x (x) 1) = eps(x)
        (sw_coring(GF2), ref_algebra(GF2, 0, (), ()), 0),
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
        with pytest.raises(AxiomViolation) as err:
            check_measuring(bad)
        assert (err.value.kind, err.value.witness) == ("unit-diagram", (0,))

    def test_multiplication_diagram_violation(self):
        c = gc2_coring(GF3)
        b = c2_group_algebra(GF3)
        # nu(e_1 (x) g) = 0 cannot square to nu(e_1 (x) 1) = 1
        nu = Mat.from_rows(GF3, [[1, 0, 1, 1]])
        with pytest.raises(AxiomViolation) as err:
            check_measuring(Measuring(c, b, nu))
        assert err.value.kind == "multiplication-diagram"


class TestBijection:
    def test_counts_match_algebra_maps(self):
        for c, b, expected in measuring_cases():
            dr = dual_ring(c)
            chis = ref_enumerate_algebra_maps(b, dr.alg)
            assert len(chis) == expected

    def test_mutually_inverse(self):
        for c, b, _ in measuring_cases():
            assert_bijection(c, enumerate_measurings(c, b),
                             ref_enumerate_algebra_maps(b, dual_ring(c).alg))

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_enumerations_match_algebra_maps(self, seed):
        # the enumeration calls of the cli-mix workload, with their counts
        calls = {call.label: call for call in load_gen().cli_mix(seed)}
        for label, count in (("gc6-by-k2", 64), ("gc5-by-k3", 243),
                             ("sw-by-bc2", 32)):
            call = calls[label]
            assert call.argv == ("enumerate-measurings", "--coring", "c",
                                 "--algebra", "b")
            ws = parse_workspace(call.workspace)
            c, b = ws.objects["c"], ws.objects["b"]
            ms = enumerate_measurings(c, b)
            chis = ref_enumerate_algebra_maps(b, dual_ring(c).alg)
            assert len(ms) == len(chis) == count
            assert_bijection(c, ms, chis)


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
                assert check_right_b_structure(c, b, ract) is None

    def test_invalid_action_rejected(self):
        c = gc2_coring(GF3)
        b = c2_group_algebra(GF3)
        bad = Mat.zero(GF3, 2, 4)
        with pytest.raises(AxiomViolation):
            check_right_b_structure(c, b, bad)
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
            assert check_coring_extension(e) is None

    def test_coring_map_validation(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        with pytest.raises(AxiomViolation) as err:
            extension_from_coring_map(Mat.zero(GF2, 2, 4), sw, triv)
        assert err.value.kind == "coring-map-counit"

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
                assert check_comodule(out) is None

    def test_structure_roundtrip(self):
        # reading the functor on the regular comodule recovers the extension
        for e in fixture_extensions():
            reg = regular_comodule(e.c)
            assert induced_coaction(e, reg).M.act == e.ract
            assert induced_coaction(e, reg).rho_lift == e.sigma_lift

    def test_preserves_identity_and_composition(self):
        for e in fixture_extensions():
            reg = regular_comodule(e.c)
            ds = direct_sum_comodule(reg, reg)
            ident = Mat.identity(GF2, reg.dim)

            def transport(f, m, n):
                # the same matrix, between the induced comodules
                out = apply_functor(e, make_colinear_map(m, n, f))
                assert out == ColinearMap(induced_coaction(e, m),
                                          induced_coaction(e, n), f)
                return out.matrix

            assert transport(ident, reg, reg) == ident
            # diagonal embedding followed by first projection
            inc = Mat.from_cols(GF2, [tuple(
                1 if (i == j or i == j + reg.dim) else 0
                for i in range(2 * reg.dim)) for j in range(reg.dim)])
            pr = Mat.from_rows(GF2, [tuple(
                1 if i == j else 0 for j in range(2 * reg.dim))
                for i in range(reg.dim)])
            f1 = transport(inc, reg, ds)
            f2 = transport(pr, ds, reg)
            assert transport(pr @ inc, reg, reg) == f2 @ f1

    def test_not_colinear_rejected(self):
        # apply_functor takes a made map: make_colinear_map rejects it
        e = fixture_extensions()[2]
        reg = regular_comodule(e.c)
        bad = Mat.from_rows(GF2, [[1, 1, 1, 1]] * 4)
        with pytest.raises(AxiomViolation) as err:
            make_colinear_map(reg, reg, bad)
        assert (err.value.kind, err.value.witness) == ("not-A-linear", (0, 0))


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

    @pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
    def test_functor_of_composite_is_composite_of_functors(self, field):
        sw = sw_coring(field)
        triv = trivial_coring(d2_algebra(field))
        e = extension_from_coring_map(sw.eps, sw, triv)
        pairs = [(identity_extension(sw), e),
                 (identity_extension(sw), identity_extension(sw)),
                 (e, identity_extension(triv))]
        for first, second in pairs:
            composite = compose_extensions(first, second)
            for m in comodule_corpus(sw):
                assert induced_coaction(composite, m) == induced_coaction(
                    second, induced_coaction(first, m))

    def test_middle_mismatch(self):
        sw = sw_coring(GF2)
        triv = trivial_coring(d2_algebra(GF2))
        e = extension_from_coring_map(sw.eps, sw, triv)
        with pytest.raises(DimensionMismatch):
            compose_extensions(e, e)


# -- the bicomodule condition through the other iterated quotient -------


def ref_right_route(c, d, m):
    """Projection of C (x) M (x) D onto C (x)_A (M (x)_B D): M (x)_B D with
    the left A-action induced from M, tensored on the left with C."""
    md = tensor_over(m.right_module(), d.C.left_module())
    lact = md.projection @ m.lact.tensor_id(1, d.dim) @ \
        md.section.tensor_id(c.A.dim, 1)
    it = tensor_over(c.C.right_module(), LeftModule(c.A, md.quo_dim, lact))
    return it.projection @ md.projection.tensor_id(c.dim, 1)


def ref_check_bicomodule(c, d, m, lambda_lift, sigma_lift):
    """``check_bicomodule`` with the condition read in C (x)_A (M (x)_B D)."""
    check_left_comodule(LeftComodule(c, m.left_module(), lambda_lift))
    check_comodule(Comodule(d, m.right_module(), sigma_lift))
    p = ref_right_route(c, d, m)
    w = _first_diff(p @ lambda_lift.tensor_id(1, d.dim) @ sigma_lift,
                    p @ sigma_lift.tensor_id(c.dim, 1) @ lambda_lift)
    if w is not None:
        raise AxiomViolation("not-bicomodule", w)


def outcome(check, *args):
    """None if ``check(*args)`` passes, else the violated kind and witness."""
    try:
        check(*args)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


def field_extensions(field):
    sw = sw_coring(field)
    triv = trivial_coring(d2_algebra(field))
    return [identity_extension(sw), identity_extension(triv),
            extension_from_coring_map(sw.eps, sw, triv)]


def perturbed(f, m, rng):
    """``m`` with one entry moved by a nonzero scalar."""
    rows = [dict(r) for r in m.sparse_rows]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    x = ref_add(f, rows[i].get(j, f.zero), f.of(rng.randrange(1, 3)) or f.one)
    rows[i].pop(j, None)
    if x:
        rows[i][j] = x
    return Mat.from_sparse_rows(f, m.rows, m.cols, rows)


class TestBicomoduleRoutes:
    """``check_bicomodule`` reads the condition in (C (x)_A M) (x)_B D only;
    the other iterated quotient C (x)_A (M (x)_B D) has the same kernel."""

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_routes_have_one_kernel(self, field):
        for e in field_extensions(field):
            c, d = e.c, e.d
            m = Bimodule(c.A, d.A, c.dim, c.C.lact, e.ract)
            left = tensor_chain(c.C.right_module(), (m,), d.C.left_module())
            assert kernel(left) == kernel(ref_right_route(c, d, m))

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_perturbed_sigma_same_verdict_and_witness(self, field):
        rng = random.Random(20040)
        differing = 0
        for e in field_extensions(field):
            c, d = e.c, e.d
            m = Bimodule(c.A, d.A, c.dim, c.C.lact, e.ract)
            p1 = tensor_chain(c.C.right_module(), (m,), d.C.left_module())
            p2 = ref_right_route(c, d, m)
            for _ in range(12):
                sigma = perturbed(field, e.sigma_lift, rng)
                args = (c, d, m, c.delta_lift, sigma)
                assert outcome(check_bicomodule, *args) == \
                    outcome(ref_check_bicomodule, *args)
                lhs = c.delta_lift.tensor_id(1, d.dim) @ sigma
                rhs = sigma.tensor_id(c.dim, 1) @ c.delta_lift
                w = _first_diff(p1 @ lhs, p1 @ rhs)
                assert w == _first_diff(p2 @ lhs, p2 @ rhs)
                differing += w is not None
        assert differing > 0

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_noncommuting_gradings_rejected_on_both_routes(self, field):
        """M = k^2 with C = D the group coalgebra on g, h: the left
        coaction grades e1 by g and e2 by h, the right one grades e1 + e2
        by g and e2 by h.  Each is a comodule; together they do not commute.
        """
        c = gc2_coring(field)
        ident = Mat.identity(field, 2)
        m = Bimodule(c.A, c.A, 2, ident, ident)
        lam = Mat.from_cols(field, [(1, 0, 0, 0), (0, 0, 0, 1)])
        sigma = Mat.from_cols(field, [(1, 0, 1, -1), (0, 0, 0, 1)])
        got = outcome(check_bicomodule, c, c, m, lam, sigma)
        assert got[0] == "not-bicomodule"
        assert got == outcome(ref_check_bicomodule, c, c, m, lam, sigma)
        # the same grading on both sides commutes
        assert check_bicomodule(c, c, m, lam, lam) is None
        assert ref_check_bicomodule(c, c, m, lam, lam) is None
