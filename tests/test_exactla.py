"""Exact linear algebra: canonical echelon forms, kernels, quotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.errors import (DimensionMismatch, NonFiniteField, SizeLimit)
from coringext.exactla import (GF2, GF3, MAX_PRIME, QQ, FieldSpec, Mat,
                               kernel, quotient, rank, rref, solve,
                               solve_matrix)

FIELDS = [GF2, GF3, FieldSpec(5), QQ]


def rand_mat(field, rows, cols, rng):
    if field.is_finite:
        ent = [[rng.randrange(field.p) for _ in range(cols)]
               for _ in range(rows)]
    else:
        ent = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
                for _ in range(cols)] for _ in range(rows)]
    return Mat.from_rows(field, ent)


@st.composite
def small_matrix(draw):
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 10 ** 6))
    return rand_mat(field, rows, cols, random.Random(seed))


class TestField:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(4)
        with pytest.raises(ValueError):
            FieldSpec(1)
        # a strong pseudoprime to all 13 Miller-Rabin bases, at the bound
        with pytest.raises(ValueError):
            FieldSpec(MAX_PRIME)
        assert FieldSpec(10 ** 18 + 3).p == 10 ** 18 + 3
        with pytest.raises(ValueError):
            FieldSpec((10 ** 9 + 7) * (10 ** 9 + 9))

    def test_arithmetic_gf3(self):
        f = GF3
        assert f.add(2, 2) == 1
        assert f.mul(2, 2) == 1
        assert f.inv(2) == 2
        assert f.neg(1) == 2

    def test_rationals(self):
        assert QQ.of("2/4") == Fraction(1, 2)
        assert QQ.of("-1.25") == Fraction(-5, 4)
        assert QQ.of("7") == Fraction(7)
        for text in ("1e5000000", "2.5E-3"):
            with pytest.raises(ValueError):
                QQ.of(text)
        assert QQ.render(Fraction(-3, 6)) == "-1/2"
        assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)

    def test_elements_order(self):
        assert list(GF3.elements()) == [0, 1, 2]
        with pytest.raises(NonFiniteField):
            QQ.elements()

    def test_coercion_rejects_garbage(self):
        with pytest.raises(ValueError):
            GF2.of(Fraction(1, 2))
        with pytest.raises(ValueError):
            QQ.of(object())


class TestMat:
    def test_matmul_shapes(self):
        a = Mat.identity(GF2, 3)
        with pytest.raises(DimensionMismatch):
            a @ Mat.identity(GF2, 2)

    def test_kron_is_tensor_of_maps(self):
        rng = random.Random(7)
        for field in FIELDS:
            a = rand_mat(field, 2, 3, rng)
            b = rand_mat(field, 3, 2, rng)
            c = rand_mat(field, 3, 2, rng)
            d = rand_mat(field, 2, 3, rng)
            assert (a @ b).kron(c @ d) == a.kron(c) @ b.kron(d)

    def test_transpose_involution(self):
        m = rand_mat(GF3, 3, 4, random.Random(1))
        assert m.transpose().transpose() == m

    def test_apply_matches_column(self):
        m = rand_mat(QQ, 3, 3, random.Random(2))
        v = (Fraction(1), Fraction(2), Fraction(3))
        assert m.apply(v) == (m @ Mat.column(QQ, v)).col(0)


class TestEchelon:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_rref_idempotent(self, m):
        r1, p1 = rref(m)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_rank_nullity(self, m):
        assert rank(m) + kernel(m).rows == m.cols

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_kernel_annihilated(self, m):
        assert (m @ kernel(m).transpose()).is_zero

    def test_rref_canonical_under_row_ops(self):
        m = Mat.from_rows(GF3, [[1, 2, 0], [0, 1, 1]])
        shuffled = Mat.from_rows(GF3, [[0, 1, 1], [1, 2, 0], [1, 0, 1]])
        assert rref(m)[0] == rref(shuffled)[0]

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_solve_consistency(self, m):
        target = m.col(0) if m.cols else ()
        x = solve(m.transpose(), m.row(0))
        if x is not None:
            assert m.transpose().apply(x) == m.row(0)

    def test_solve_inconsistent(self):
        m = Mat.from_rows(GF2, [[1, 0], [1, 0]])
        assert solve(m, (1, 0)) is None

    def test_solve_matrix(self):
        m = Mat.identity(GF3, 2)
        rhs = Mat.from_rows(GF3, [[1, 2], [0, 1]])
        assert solve_matrix(m, rhs) == rhs


class TestQuotient:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_projection_section_identity(self, m):
        q = quotient(m.field, m.cols, m)
        assert q.projection @ q.section == Mat.identity(m.field, q.quo_dim)
        assert (q.projection @ m.transpose()).is_zero
        assert q.quo_dim == m.cols - rank(m)

    def test_descends(self):
        rel = Mat.from_rows(GF3, [[1, 1]])
        q = quotient(GF3, 2, rel)
        summing = Mat.from_rows(GF3, [[1, 1]])
        assert q.descends(summing) is None
        invariant = Mat.identity(GF3, 2)
        assert q.descends(invariant) is None
        differencing = Mat.from_rows(GF3, [[1, 2], [2, 1]])
        assert q.descends(differencing) is not None

    def test_canonical_lift_stable(self):
        rel = Mat.from_rows(GF2, [[1, 1, 0]])
        q = quotient(GF2, 3, rel)
        lift = Mat.from_rows(GF2, [[1], [0], [1]])
        canon = q.canonical_lift(lift)
        assert q.canonical_lift(canon) == canon
        assert q.projection @ canon == q.projection @ lift

    def test_size_guard(self):
        with pytest.raises(SizeLimit):
            quotient(GF2, 10, Mat.zero(GF2, 0, 10), max_dim=5)
