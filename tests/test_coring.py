"""Coring and comodule axioms, colinear maps, dual rings."""

import pytest

from coringext.errors import AxiomViolation
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.algmod import RightModule, check_right_module, make_algebra_map
from coringext.coring import (Coring, check_colinear, check_comodule,
                              check_coring, cofree_comodule, cotensor_basis,
                              direct_sum_comodule, dual_element, dual_ring,
                              make_comodule, make_coring, regular_comodule,
                              regular_left_comodule)
from coringext.constructions import (base_algebra, coalgebra_to_coring,
                                     entwining_coring, group_coalgebra,
                                     trivial_coring)
from coringext._search import coords
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coalgebra,
                                gc2_coring, matrix_algebra_2, sw_coring)

from test_algmod import ref_apply, ref_mult, ref_unit
from test_constructions import ref_flip_entwining


def ref_star_product(c, f, g):
    """(f * g)(x) = sum g(x_(1) f(x_(2))), with ``I_C (x) f`` from kron."""
    return g @ c.C.ract @ Mat.identity(c.A.field, c.dim).kron(f) @ \
        c.delta_lift


class TestCoringAxioms:
    def test_trivial_coring_valid(self):
        for field in (GF2, GF3, QQ):
            for a in (d2_algebra(field), matrix_algebra_2(field)):
                c = trivial_coring(a)
                assert check_coring(c) is None
                assert c.dim == a.dim

    def test_sweedler_valid(self):
        c = sw_coring(GF2)
        assert c.dim == 4
        assert check_coring(c) is None

    def test_zero_counit_rejected(self):
        c = sw_coring(GF2)
        bad = Coring(c.A, c.C, c.delta_lift, Mat.zero(GF2, c.A.dim, c.dim))
        with pytest.raises(AxiomViolation) as err:
            check_coring(bad)
        assert err.value.kind in ("counit-left", "counit-right")

    def test_broken_coassoc_rejected(self):
        c = gc2_coring(GF3)
        # swap the coproduct images of the two group-likes
        swapped = c.delta_lift @ Mat.from_rows(GF3, [[0, 1], [1, 0]])
        bad = Coring(c.A, c.C, swapped, c.eps)
        with pytest.raises(AxiomViolation) as err:
            check_coring(bad)
        assert err.value.kind == "coassoc"

    def test_canonical_lift_normalization(self):
        c = sw_coring(GF2)
        q = c.cc()
        assert q.canonical_lift(c.delta_lift) == c.delta_lift


class TestComodules:
    def test_regular(self):
        for c in (sw_coring(GF2), gc2_coring(GF3),
                  trivial_coring(d2_algebra(QQ))):
            m = regular_comodule(c)
            assert check_comodule(m) is None

    def test_direct_sum(self):
        c = sw_coring(GF2)
        m = regular_comodule(c)
        s = direct_sum_comodule(m, m)
        assert s.dim == 2 * m.dim
        assert check_comodule(s) is None

    def test_cofree(self):
        c = sw_coring(GF2)
        x = RightModule(c.A, 1, Mat.from_rows(GF2, [[1, 0]]))
        assert check_right_module(x) is None
        m = cofree_comodule(c, x)
        assert check_comodule(m) is None

    def test_counit_violation_witnessed(self):
        c = trivial_coring(d2_algebra(GF2))
        m = regular_comodule(c)
        with pytest.raises(AxiomViolation) as err:
            check_comodule(
                type(m)(c, m.M, Mat.zero(GF2, m.dim * c.dim, m.dim)))
        assert err.value.kind == "counit"

    def test_colinear_identity_and_zero(self):
        c = sw_coring(GF2)
        m = regular_comodule(c)
        assert check_colinear(Mat.identity(GF2, m.dim), m, m) is None
        assert check_colinear(Mat.zero(GF2, m.dim, m.dim), m, m) is None

    def test_colinear_rejects(self):
        c = gc2_coring(GF3)
        m = regular_comodule(c)
        # unipotent mixing of the two group-likes breaks the coaction
        stretch = Mat.from_rows(GF3, [[1, 1], [0, 1]])
        with pytest.raises(AxiomViolation) as err:
            check_colinear(stretch, m, m)
        assert err.value.kind == "not-colinear"


class TestCotensor:
    def test_regular_cotensor(self):
        # C box_C C has the same dimension as C
        for c in (sw_coring(GF2), gc2_coring(GF3)):
            m = regular_comodule(c)
            n = regular_left_comodule(c)
            basis = cotensor_basis(m, n)
            assert basis.rows == c.dim


class TestDualRing:
    def test_group_like_pointwise(self):
        # *C of a group-like coalgebra is the pointwise function algebra
        c = gc2_coring(GF3)
        dr = dual_ring(c)
        assert dr.dim == 2
        for f in dr.basis:
            for g in dr.basis:
                prod = ref_star_product(c, f, g)
                for x in range(2):
                    col = tuple(GF3.one if t == x else GF3.zero
                                for t in range(2))
                    expected = tuple(GF3.mul(u, v) for u, v in
                                     zip(ref_apply(f, col), ref_apply(g, col)))
                    assert ref_apply(prod, col) == expected

    def test_unit_is_counit(self):
        c = sw_coring(GF2)
        dr = dual_ring(c)
        assert dual_element(dr, ref_unit(dr.alg)) == c.eps

    def test_coords_roundtrip(self):
        c = sw_coring(GF2)
        dr = dual_ring(c)
        for i, b in enumerate(dr.basis):
            assert dual_element(dr, coords(dr.basis, b)) == b

    def test_trivial_dual_dim(self):
        a = matrix_algebra_2(GF2)
        assert dual_ring(trivial_coring(a)).dim == a.dim

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_table_is_star_product(self, field):
        corings = (sw_coring(field), gc2_coring(field),
                   trivial_coring(matrix_algebra_2(field)),
                   entwining_coring(*ref_flip_entwining(
                       d2_algebra(field), gc2_coalgebra(field))))
        for c in corings:
            dr = dual_ring(c)
            mult = ref_mult(dr.alg)
            for i, f in enumerate(dr.basis):
                for j, g in enumerate(dr.basis):
                    prod = ref_star_product(c, f, g)
                    assert mult[i][j] == coords(dr.basis, prod)
