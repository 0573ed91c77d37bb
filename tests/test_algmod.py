"""Algebras, algebra maps and modules presented by structure constants."""

import pytest

from coringext.errors import AxiomViolation, SizeLimit
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.algmod import (Bimodule, LeftModule, RightModule,
                              check_algebra_map, check_bimodule,
                              check_left_module, check_right_module,
                              enumerate_algebra_maps, is_isomorphism,
                              make_algebra, make_algebra_map, opposite,
                              regular_bimodule, restrict_left,
                              restrict_right, right_regular, left_regular)
from coringext.fixtures import (c2_group_algebra, d2_algebra,
                                matrix_algebra_2, unit_map)
from coringext.constructions import base_algebra


class TestAlgebra:
    def test_d2_valid(self):
        a = d2_algebra(GF2)
        assert a.product((1, 0), (0, 1)) == (0, 0)
        assert a.product(a.unit, (1, 1)) == (1, 1)

    def test_bad_unit_witness(self):
        o, z = 1, 0
        mult = (((o, z), (z, z)), ((z, z), (z, o)))
        with pytest.raises(AxiomViolation) as err:
            make_algebra(GF2, 2, mult, (o, z))
        assert err.value.kind == "unitality"
        assert err.value.witness == (1,)

    def test_nonassociative_witness(self):
        # e2(e2 e2) = e2 e3 = 0 but (e2 e2)e2 = e3 e2 = e1
        z = [0, 0, 0]
        mult = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], z],
                [[0, 0, 1], [1, 0, 0], z]]
        with pytest.raises(AxiomViolation) as err:
            make_algebra(GF2, 3, mult, (1, 0, 0))
        assert err.value.kind == "associativity"
        assert err.value.witness == (1, 1, 1)

    def test_mult_mat_matches_product(self):
        a = matrix_algebra_2(GF3)
        u, v = (1, 2, 0, 1), (0, 1, 1, 0)
        flat = tuple(x * y % 3 for x in u for y in v)
        assert a.mult_mat.apply(flat) == a.product(u, v)

    def test_opposite_involution(self):
        for a in (d2_algebra(QQ), matrix_algebra_2(GF2)):
            assert opposite(opposite(a)) == a

    def test_opposite_noncommutative(self):
        a = matrix_algebra_2(GF2)
        assert opposite(a).mult != a.mult


class TestAlgebraMap:
    def test_unit_map(self):
        u = unit_map(GF2, d2_algebra(GF2))
        assert bool(check_algebra_map(u))

    def test_non_unital_rejected(self):
        from coringext.algmod import AlgebraMap
        k = base_algebra(GF2)
        a = d2_algebra(GF2)
        bad = check_algebra_map(AlgebraMap(k, a, Mat.column(GF2, (1, 0))))
        assert not bad
        assert bad.failure.kind == "unit-not-preserved"

    def test_not_multiplicative(self):
        b = c2_group_algebra(GF3)
        a = c2_group_algebra(GF3)
        from coringext.algmod import AlgebraMap
        bad = AlgebraMap(b, a, Mat.from_rows(GF3, [[1, 1], [0, 1]]))
        v = check_algebra_map(bad)
        assert not v and v.failure.kind == "not-multiplicative"

    def test_is_isomorphism(self):
        a = d2_algebra(GF2)
        swap = make_algebra_map(a, a, Mat.from_rows(GF2, [[0, 1], [1, 0]]))
        assert is_isomorphism(swap)


class TestModules:
    def test_regular_modules(self):
        for a in (d2_algebra(GF3), matrix_algebra_2(GF2)):
            assert bool(check_right_module(right_regular(a)))
            assert bool(check_left_module(left_regular(a)))
            assert bool(check_bimodule(regular_bimodule(a)))

    def test_non_unital_action(self):
        a = d2_algebra(GF2)
        m = RightModule(a, 1, Mat.zero(GF2, 1, 2))
        v = check_right_module(m)
        assert not v and v.failure.kind == "unital"

    def test_nonassociative_action_witness(self):
        a = c2_group_algebra(GF2)
        # act(m, 1) = m, act(m, g) = 0: not associative since g.g = 1
        m = RightModule(a, 1, Mat.from_rows(GF2, [[1, 0]]))
        v = check_right_module(m)
        assert not v and v.failure.kind == "right-assoc"

    def test_restriction(self):
        a = d2_algebra(GF2)
        u = unit_map(GF2, a)
        r = restrict_right(right_regular(a), u)
        l = restrict_left(left_regular(a), u)
        assert bool(check_right_module(r))
        assert bool(check_left_module(l))

    def test_bimodule_commuting_witness(self):
        a = d2_algebra(GF2)
        # left regular, right action through the swap: fails to commute
        swap = Mat.from_rows(GF2, [[0, 1], [1, 0]])
        ract = swap @ a.mult_mat
        b = Bimodule(a, a, 2, a.mult_mat, ract)
        assert not check_bimodule(b)


class TestEnumeration:
    def test_maps_from_group_algebra(self):
        b = c2_group_algebra(GF3)
        a = base_algebra(GF3)
        maps = enumerate_algebra_maps(b, a)
        # g can map to either square root of 1 in F3
        assert len(maps) == 2
        mats = [m.matrix.entries for m in maps]
        assert mats == sorted(mats)

    def test_maps_to_d2(self):
        k = base_algebra(GF2)
        a = d2_algebra(GF2)
        assert len(enumerate_algebra_maps(k, a)) == 1

    def test_guard(self):
        a = matrix_algebra_2(GF3)
        with pytest.raises(SizeLimit):
            enumerate_algebra_maps(a, a, max_enum=100)

    def test_guard_counts_unit_constraint_space(self):
        # 2^12 unital linear maps of M_2(GF2), not 2^16 linear ones
        a = matrix_algebra_2(GF2)
        maps = enumerate_algebra_maps(a, a, max_enum=5000)
        assert len(maps) == 6  # the automorphisms, PGL_2(GF2) = S_3
        assert all(is_isomorphism(m) for m in maps)
        mats = [m.matrix.entries for m in maps]
        assert mats == sorted(mats)
