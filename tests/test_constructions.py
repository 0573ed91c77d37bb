"""Named constructions: trivial, Sweedler, comatrix and entwining corings,
coalgebras, and twisted convolution algebras."""

import pytest

from coringext.errors import AxiomViolation, DualBasisInvalid
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.algmod import Bimodule, is_isomorphism, make_algebra_map
from coringext.coring import check_coring, dual_ring
from coringext.constructions import (Coalgebra, DualBasis, Entwining,
                                     base_algebra, check_coalgebra,
                                     check_dual_basis, coalgebra_to_coring,
                                     comatrix_coring, entwining_coring,
                                     enumerate_entwined_measurings,
                                     flip_entwining, group_coalgebra,
                                     make_coalgebra, sweedler_coring,
                                     trivial_coring, twisted_convolution,
                                     twisted_product)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                matrix_algebra_2, sw_coring, unit_map)


class TestCoalgebra:
    def test_group_coalgebra(self):
        for field in (GF2, GF3, QQ):
            c = group_coalgebra(field, 3)
            assert bool(check_coalgebra(c))

    def test_bad_counit(self):
        c = gc2_coalgebra(GF2)
        bad = Coalgebra(GF2, 2, c.delta, Mat.zero(GF2, 1, 2))
        v = check_coalgebra(bad)
        assert not v and v.failure.kind == "counit"

    def test_bad_coassoc(self):
        # delta(e1) = e1 (x) e2 is not coassociative with any counit
        delta = Mat.from_cols(GF2, [(0, 1, 0, 0), (0, 0, 0, 1)])
        bad = Coalgebra(GF2, 2, delta, Mat.from_rows(GF2, [[1, 1]]))
        assert not check_coalgebra(bad)

    def test_coalgebra_as_coring(self):
        c = coalgebra_to_coring(gc2_coalgebra(GF3))
        assert bool(check_coring(c))
        assert c.A.dim == 1


class TestSweedler:
    def test_unit_map_gives_dim4(self):
        for field in (GF2, GF3, QQ):
            c = sweedler_coring(unit_map(field, d2_algebra(field)))
            assert c.dim == 4
            assert bool(check_coring(c))

    def test_identity_map_collapses(self):
        a = d2_algebra(GF2)
        ident = make_algebra_map(a, a, Mat.identity(GF2, 2))
        c = sweedler_coring(ident)
        assert c.dim == 2
        assert bool(check_coring(c))

    def test_cached(self):
        u = unit_map(GF2, d2_algebra(GF2))
        assert sweedler_coring(u) is sweedler_coring(u)


class TestComatrix:
    def _sigma_db(self, field):
        a = d2_algebra(field)
        k = base_algebra(field)
        sigma = Bimodule(k, a, a.dim, Mat.identity(field, a.dim), a.mult_mat)
        db = DualBasis(elements=(tuple(a.unit),),
                       functionals=(Mat.identity(field, a.dim),))
        return sigma, db

    def test_free_rank_one(self):
        for field in (GF2, QQ):
            sigma, db = self._sigma_db(field)
            c = comatrix_coring(sigma, db)
            assert c.dim == 4
            assert bool(check_coring(c))

    def test_invalid_dual_basis(self):
        sigma, _ = self._sigma_db(GF2)
        bad = DualBasis(elements=((1, 0),),
                        functionals=(Mat.identity(GF2, 2),))
        v = check_dual_basis(sigma, bad)
        assert not v and v.failure.kind == "dual-basis-identity"
        with pytest.raises(DualBasisInvalid):
            comatrix_coring(sigma, bad)

    def test_non_linear_functional(self):
        sigma, _ = self._sigma_db(GF2)
        bad = DualBasis(elements=((1, 1),),
                        functionals=(Mat.from_rows(GF2, [[1, 1], [0, 0]]),))
        v = check_dual_basis(sigma, bad)
        assert not v and v.failure.kind == "functional-not-right-linear"

    def test_matches_sweedler_dual(self):
        # Sigma = A over B = k gives a coring with the same dual ring type
        sigma, db = self._sigma_db(GF2)
        c = comatrix_coring(sigma, db)
        sw = sw_coring(GF2)
        assert dual_ring(c).dim == dual_ring(sw).dim == 4


class TestEntwining:
    def test_flip_valid(self):
        for field in (GF2, GF3):
            e = flip_entwining(d2_algebra(field), gc2_coalgebra(field))
            c = entwining_coring(e)
            assert c.dim == 4
            assert bool(check_coring(c))

    def test_invalid_psi_rejected(self):
        a = d2_algebra(GF2)
        cg = gc2_coalgebra(GF2)
        bad = Entwining(a, cg, Mat.zero(GF2, 4, 4))
        with pytest.raises(AxiomViolation):
            entwining_coring(bad)

    def test_flip_coring_equals_tensor_structure(self):
        e = flip_entwining(base_algebra(GF3), gc2_coalgebra(GF3))
        c = entwining_coring(e)
        other = coalgebra_to_coring(gc2_coalgebra(GF3))
        assert c.delta_lift == other.delta_lift
        assert c.eps == other.eps


class TestTwistedConvolution:
    def test_iso_to_dual_ring(self):
        for field in (GF2, GF3):
            e = flip_entwining(d2_algebra(field), gc2_coalgebra(field))
            tc = twisted_convolution(e)
            assert tc.alg.dim == 4
            assert is_isomorphism(tc.to_dual)

    def test_unit_element(self):
        e = flip_entwining(d2_algebra(GF2), gc2_coalgebra(GF2))
        tc = twisted_convolution(e)
        # unit is u_A . eps_C, flattened on the matrix-unit basis
        unitmap = e.A.unit_col @ e.C.eps
        flat = tuple(x for row in unitmap.entries for x in row)
        assert tc.alg.unit == flat

    def test_product_formula(self):
        e = flip_entwining(d2_algebra(GF2), gc2_coalgebra(GF2))
        f = Mat.from_rows(GF2, [[1, 0], [0, 1]])
        g = Mat.from_rows(GF2, [[0, 1], [1, 0]])
        prod = twisted_product(e, f, g)
        # for the flip entwining this is pointwise-on-group-likes product
        for x in range(2):
            col = tuple(GF2.one if t == x else GF2.zero for t in range(2))
            fx, gx = f.apply(col), g.apply(col)
            expected = e.A.mult_mat.apply(
                tuple(GF2.mul(a, b) for a in fx for b in gx))
            assert prod.apply(col) == expected


class TestEntwinedMeasurings:
    def test_match_coring_measurings(self):
        from coringext.extension import enumerate_measurings
        e = flip_entwining(base_algebra(GF3), gc2_coalgebra(GF3))
        c = entwining_coring(e)
        b = c2_group_algebra(GF3)
        entwined = enumerate_entwined_measurings(e, b)
        coring_side = enumerate_measurings(c, b)
        assert len(entwined) == len(coring_side) == 4
        assert [m.nu for m in coring_side] == entwined
