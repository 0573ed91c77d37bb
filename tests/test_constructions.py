"""Named constructions: trivial, Sweedler, comatrix and entwining corings,
and coalgebras.

The twisted convolution algebra of an entwining and the entwined
measurings (Examples 2.4(4) of the paper) are kept below as references
that the entwining coring, its dual ring and its measurings are tested
against."""

import random
from collections import namedtuple

import pytest

from coringext._search import enumerate_affine
from coringext.errors import AxiomViolation, DimensionMismatch
from coringext.exactla import GF2, GF3, QQ, Mat, rref
from coringext.algmod import Bimodule, make_algebra_map
from coringext.coring import check_coring, dual_ring
from coringext.constructions import (base_algebra, check_dual_basis,
                                     coalgebra_to_coring, comatrix_coring,
                                     entwining_coring, group_coalgebra,
                                     make_coalgebra, sweedler_coring,
                                     trivial_coring)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                matrix_algebra_2, sw_coring, unit_map)

from test_algmod import (ref_add, ref_algebra, ref_apply, ref_is_isomorphism,
                        ref_mul, ref_unit)
from test_exactla_sparse import ref_coords


# -- reference: entwinings, twisted convolution, entwined measurings -------


# an entwining datum: an algebra A, a coalgebra C and psi: C (x) A -> A (x) C;
# ``entwining_coring(*e)`` is its coring
RefEntwining = namedtuple("RefEntwining", "A C psi")


def ref_flip_entwining(a, c):
    """The trivial entwining c (x) a -> a (x) c."""
    return RefEntwining(a, c, Mat.swap(a.field, c.dim, a.dim))


# Hom_k(C, A) with the psi-twisted product, plus its identification with
# the left dual ring of the entwining coring (``to_dual``, an isomorphism
# onto ``dual.alg``)
RefTwistedConvolution = namedtuple("RefTwistedConvolution",
                                   "alg dual to_dual")


def ref_hom_basis(a, c):
    """The matrix units E_rs, in row-major order of (r, s)."""
    f = a.field
    return [Mat.from_sparse_rows(f, a.dim, c.dim, [
        {s: f.one} if i == r else {} for i in range(a.dim)])
        for r in range(a.dim) for s in range(c.dim)]


def ref_twisted_product(e, f, g):
    """(f #_psi g)(c) = sum_alpha f(c_(2))_alpha g(c_(1)^alpha)."""
    a, c = e.A, e.C
    return a.mult_mat @ g.tensor_id(a.dim, 1) @ e.psi @ \
        f.tensor_id(c.dim, 1) @ c.delta


def ref_twisted_convolution(e):
    """The psi-twisted convolution algebra, verified against *(A (x) C).

    A witness (k,) names the k-th basis element of Hom_k(C, A), the matrix
    unit E_rs with k = r * C.dim + s: the first whose image in *(A (x) C)
    is not left A-linear, or lies in the span of the images before it."""
    a, c = e.A, e.C
    f = a.field
    basis = ref_hom_basis(a, c)
    n = len(basis)
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = ref_twisted_product(e, basis[i], basis[j])
            row.append(tuple(x for rr in prod.entries for x in rr))
        mult.append(tuple(row))
    unitmap = a.unit_col @ c.eps
    unit = tuple(x for rr in unitmap.entries for x in rr)
    alg = ref_algebra(f, n, mult, unit)
    dr = dual_ring(entwining_coring(*e))
    if dr.dim != n:
        raise DimensionMismatch(f"dual ring has dimension {dr.dim}, not {n}")
    cols = []
    for k, bmat in enumerate(basis):
        nu = a.mult_mat @ bmat.tensor_id(a.dim, 1)  # a (x) c -> a f(c)
        x = ref_coords(dr.basis, nu)
        if x is None:
            raise AxiomViolation("hom-tensor-image-not-left-linear", (k,))
        cols.append(x)
    iso = make_algebra_map(alg, dr.alg, Mat.from_cols(f, cols))
    pivots = rref(iso.matrix)[1]
    if len(pivots) != n:
        # the first non-pivot column depends on the columns before it
        raise AxiomViolation("twisted-convolution-iso-not-bijective",
                             (min(set(range(n)) - set(pivots)),))
    return RefTwistedConvolution(alg, dr, iso)


def ref_enumerate_entwined_measurings(e, b):
    """All k-linear f: C (x) B -> A satisfying the entwined measuring
    diagrams, enumerated by brute force over the unit-constraint affine
    space and returned in canonical order."""
    a, c = e.A, e.C
    na, nb, nc = a.dim, b.dim, c.dim
    target_unit = a.unit_col @ c.eps
    unit_b = b.unit_col.tensor_id(nc, 1)
    mult_b = b.mult_mat.tensor_id(nc, 1)
    psi_b = e.psi.tensor_id(1, nb)
    delta_bb = c.delta.tensor_id(1, nb * nb)

    def unit_residual(m):
        return m @ unit_b - target_unit

    def is_measuring(m):
        lhs = m @ mult_b
        rhs = a.mult_mat @ m.tensor_id(na, 1) @ psi_b @ \
            m.tensor_id(nc, nb) @ delta_bb
        return lhs == rhs

    return enumerate_affine(a.field, (na, nc * nb), unit_residual,
                            is_measuring)


class TestCoalgebra:
    def test_group_coalgebra(self):
        for field in (GF2, GF3, QQ):
            c = group_coalgebra(field, 3)
            assert check_coring(coalgebra_to_coring(c)) is None

    def test_bad_counit(self):
        # a coalgebra is checked as its coring over k, whose left counit
        # law is checked first
        c = gc2_coalgebra(GF2)
        with pytest.raises(AxiomViolation) as err:
            make_coalgebra(GF2, 2, c.delta, Mat.zero(GF2, 1, 2))
        assert (err.value.kind, err.value.witness) == ("counit-left", (0,))

    def test_bad_coassoc(self):
        # delta(e1) = e2 (x) e2, delta(e2) = e1 (x) e1: (delta (x) I)
        # delta(e1) = e1 (x) e1 (x) e2 but (I (x) delta) delta(e1) =
        # e2 (x) e1 (x) e1
        delta = Mat.from_cols(GF2, [(0, 0, 0, 1), (1, 0, 0, 0)])
        with pytest.raises(AxiomViolation) as err:
            make_coalgebra(GF2, 2, delta, Mat.from_rows(GF2, [[1, 1]]))
        assert err.value.kind == "coassoc"

    def test_coalgebra_as_coring(self):
        c = coalgebra_to_coring(gc2_coalgebra(GF3))
        assert check_coring(c) is None
        assert c.A.dim == 1


class TestSweedler:
    def test_unit_map_gives_dim4(self):
        for field in (GF2, GF3, QQ):
            c = sweedler_coring(unit_map(field, d2_algebra(field)))
            assert c.dim == 4
            assert check_coring(c) is None

    def test_identity_map_collapses(self):
        a = d2_algebra(GF2)
        ident = make_algebra_map(a, a, Mat.identity(GF2, 2))
        c = sweedler_coring(ident)
        assert c.dim == 2
        assert check_coring(c) is None

    def test_cached(self):
        u = unit_map(GF2, d2_algebra(GF2))
        assert sweedler_coring(u) is sweedler_coring(u)


class TestComatrix:
    def _sigma_db(self, field):
        a = d2_algebra(field)
        k = base_algebra(field)
        sigma = Bimodule(k, a, a.dim, Mat.identity(field, a.dim), a.mult_mat)
        # the dual basis as (elements, functionals)
        db = ((ref_unit(a),), (Mat.identity(field, a.dim),))
        return sigma, db

    def test_free_rank_one(self):
        for field in (GF2, QQ):
            sigma, db = self._sigma_db(field)
            c = comatrix_coring(sigma, *db)
            assert c.dim == 4
            assert check_coring(c) is None

    def test_invalid_dual_basis(self):
        sigma, _ = self._sigma_db(GF2)
        bad = ((1, 0),), (Mat.identity(GF2, 2),)
        with pytest.raises(AxiomViolation) as err:
            check_dual_basis(sigma, *bad)
        assert (err.value.kind, err.value.witness) == \
            ("dual-basis-identity", (1,))
        with pytest.raises(AxiomViolation) as err:
            comatrix_coring(sigma, *bad)
        assert str(err.value) == "dual-basis-identity at (1,)"

    def test_non_linear_functional(self):
        sigma, _ = self._sigma_db(GF2)
        bad = ((1, 1),), (Mat.from_rows(GF2, [[1, 1], [0, 0]]),)
        with pytest.raises(AxiomViolation) as err:
            check_dual_basis(sigma, *bad)
        # g(e_1 . a_0) = 0, but g(e_1) a_0 = a_0
        assert (err.value.kind, err.value.witness) == \
            ("functional-not-right-linear", (1, 0))

    def test_matches_sweedler_dual(self):
        # Sigma = A over B = k gives a coring with the same dual ring type
        sigma, db = self._sigma_db(GF2)
        c = comatrix_coring(sigma, *db)
        sw = sw_coring(GF2)
        assert dual_ring(c).dim == dual_ring(sw).dim == 4


def outcome(check, *args):
    """None if ``check(*args)`` passes, else the violated kind and witness."""
    try:
        check(*args)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


def ref_check_dual_basis(sigma, elements, functionals):
    """``check_dual_basis`` as a loop over the basis s of Sigma (and a of
    A), applying each functional and the right action one vector at a
    time: None, or the violated kind and witness."""
    a = sigma.algR
    f = a.field

    def unit(n, i):
        return tuple(f.one if t == i else f.zero for t in range(n))

    def kron(u, v):
        return tuple(ref_mul(f, x, y) for x in u for y in v)

    for g in functionals:
        for s in range(sigma.dim):
            for j in range(a.dim):
                # g(s . a_j) against g(s) a_j
                e_s, a_j = unit(sigma.dim, s), unit(a.dim, j)
                if ref_apply(g, ref_apply(sigma.ract, kron(e_s, a_j))) != \
                        ref_apply(a.mult_mat, kron(ref_apply(g, e_s), a_j)):
                    return "functional-not-right-linear", (s, j)
    for s in range(sigma.dim):
        acc = (f.zero,) * sigma.dim
        basis_s = unit(sigma.dim, s)
        for e_i, g in zip(elements, functionals):
            val = ref_apply(g, basis_s)  # in A
            moved = ref_apply(sigma.ract, kron(e_i, val))
            acc = tuple(ref_add(f, p, q) for p, q in zip(acc, moved))
        if acc != basis_s:
            return "dual-basis-identity", (s,)
    return None


def free_rank_two(field, a=None):
    """Sigma = A (+) A over A (D_2 unless given), with the two coordinate
    projections as dual basis of the two unit vectors."""
    a = a or d2_algebra(field)
    k = base_algebra(field)
    n = a.dim
    zero = (0,) * n
    cols = []
    for s in range(2 * n):
        for j in range(n):
            col = a.mult_mat.col((s % n) * n + j)
            cols.append((*col, *zero) if s < n else (*zero, *col))
    sigma = Bimodule(k, a, 2 * n, Mat.identity(field, 2 * n),
                     Mat.from_cols(field, cols))
    proj = Mat.identity(field, 2 * n)
    elements = (ref_unit(a) + zero, zero + ref_unit(a))
    functionals = (Mat.from_rows(field, proj.entries[:n]),
                   Mat.from_rows(field, proj.entries[n:]))
    return sigma, (elements, functionals)


def nudged(field, vec, rng):
    """``vec`` with one coordinate moved by a nonzero scalar."""
    out = list(vec)
    i = rng.randrange(len(out))
    out[i] = ref_add(field, field.of(out[i]),
                     field.of(rng.randrange(1, 3)) or field.one)
    return tuple(out)


class TestDualBasisIdentity:
    """``check_dual_basis`` compares one matrix identity; its first
    differing column is the loop's first failing basis vector."""

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_matches_loop_under_perturbation(self, field):
        rng = random.Random(20041)
        sigmas = [TestComatrix()._sigma_db(field), free_rank_two(field)]
        witnesses = set()
        for sigma, (elements, functionals) in sigmas:
            assert outcome(check_dual_basis, sigma, elements,
                           functionals) is None
            assert ref_check_dual_basis(sigma, elements, functionals) is None
            for _ in range(16):
                i = rng.randrange(len(elements))
                if rng.randrange(2):
                    els = list(elements)
                    els[i] = nudged(field, els[i], rng)
                    bad = (tuple(els), functionals)
                else:
                    fns = list(functionals)
                    g = fns[i]
                    rows = [list(r) for r in g.entries]
                    r = rng.randrange(g.rows)
                    rows[r] = list(nudged(field, rows[r], rng))
                    fns[i] = Mat.from_rows(field, rows)
                    bad = (elements, tuple(fns))
                got = outcome(check_dual_basis, sigma, *bad)
                assert got == ref_check_dual_basis(sigma, *bad)
                if got is not None:
                    witnesses.add(got)
        for kind in ("dual-basis-identity", "functional-not-right-linear"):
            assert len({w for k, w in witnesses if k == kind}) > 1


class TestEntwining:
    def test_flip_valid(self):
        for field in (GF2, GF3):
            e = ref_flip_entwining(d2_algebra(field), gc2_coalgebra(field))
            c = entwining_coring(*e)
            assert c.dim == 4
            assert check_coring(c) is None

    def test_invalid_psi_rejected(self):
        a = d2_algebra(GF2)
        cg = gc2_coalgebra(GF2)
        with pytest.raises(AxiomViolation):
            entwining_coring(a, cg, Mat.zero(GF2, 4, 4))

    def test_flip_coring_equals_tensor_structure(self):
        e = ref_flip_entwining(base_algebra(GF3), gc2_coalgebra(GF3))
        c = entwining_coring(*e)
        other = coalgebra_to_coring(gc2_coalgebra(GF3))
        assert c.delta_lift == other.delta_lift
        assert c.eps == other.eps


class TestTwistedConvolution:
    def test_iso_to_dual_ring(self):
        for field in (GF2, GF3):
            e = ref_flip_entwining(d2_algebra(field), gc2_coalgebra(field))
            tc = ref_twisted_convolution(e)
            assert tc.alg.dim == 4
            assert ref_is_isomorphism(tc.to_dual)

    def test_unit_element(self):
        e = ref_flip_entwining(d2_algebra(GF2), gc2_coalgebra(GF2))
        tc = ref_twisted_convolution(e)
        # unit is u_A . eps_C, flattened on the matrix-unit basis
        unitmap = e.A.unit_col @ e.C.eps
        flat = tuple(x for row in unitmap.entries for x in row)
        assert ref_unit(tc.alg) == flat

    def test_product_formula(self):
        e = ref_flip_entwining(d2_algebra(GF2), gc2_coalgebra(GF2))
        f = Mat.from_rows(GF2, [[1, 0], [0, 1]])
        g = Mat.from_rows(GF2, [[0, 1], [1, 0]])
        prod = ref_twisted_product(e, f, g)
        # for the flip entwining this is pointwise-on-group-likes product
        for x in range(2):
            col = tuple(GF2.one if t == x else GF2.zero for t in range(2))
            fx, gx = ref_apply(f, col), ref_apply(g, col)
            expected = ref_apply(e.A.mult_mat, 
                tuple(ref_mul(GF2, a, b) for a in fx for b in gx))
            assert ref_apply(prod, col) == expected

    def test_dual_ring_of_another_dimension(self, monkeypatch):
        # no entwining reaches it: a stand-in dual ring of dimension 2
        # against the 4 basis maps of Hom_k(C, A) compares two sizes
        e = ref_flip_entwining(d2_algebra(GF3), gc2_coalgebra(GF3))
        small = dual_ring(trivial_coring(d2_algebra(GF3)))
        monkeypatch.setitem(globals(), "dual_ring", lambda c: small)
        with pytest.raises(DimensionMismatch) as err:
            ref_twisted_convolution(e)
        assert str(err.value) == "dual ring has dimension 2, not 4"


class TestEntwinedMeasurings:
    def test_match_coring_measurings(self):
        from coringext.extension import enumerate_measurings
        e = ref_flip_entwining(base_algebra(GF3), gc2_coalgebra(GF3))
        c = entwining_coring(*e)
        b = c2_group_algebra(GF3)
        entwined = ref_enumerate_entwined_measurings(e, b)
        coring_side = enumerate_measurings(c, b)
        assert len(entwined) == len(coring_side) == 4
        assert [m.nu for m in coring_side] == entwined
