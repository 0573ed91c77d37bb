"""Exact linear algebra: canonical echelon forms, kernels, quotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.errors import (AxiomViolation, DimensionMismatch,
                              NonFiniteField, SizeLimit)
from coringext.exactla import (DEFAULT_MAX_DIM, GF2, GF3, MAX_PRIME, QQ,
                               FieldSpec, Mat, _combine, kernel, quotient,
                               rref, set_guards)
from coringext.algmod import _first_diff, make_algebra
from coringext.constructions import make_coalgebra
from coringext.fixtures import d2_algebra, gc2_coalgebra

from test_algmod import ref_apply
from test_tensorcat import ref_descend_map

FIELDS = [GF2, GF3, FieldSpec(5), QQ]


def is_zero(m):
    return m == Mat.zero(m.field, m.rows, m.cols)


def rand_mat(field, rows, cols, rng):
    if field.p is not None:
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

    # each string's value over GF(5) and over Q, or None where it is
    # rejected; the same on every Python, whatever int() and Fraction() of
    # that version accept
    GRAMMAR = {"1_0": (None, None), "1/ 2": (None, None), " 1": (None, None),
               "\u0663": (None, None), "+1": (1, Fraction(1)),
               "-3/4": (None, Fraction(-3, 4)), ".5": (None, Fraction(1, 2)),
               "1.": (None, Fraction(1)), "1_000/1_000": (None, None)}

    @pytest.mark.parametrize("text", list(GRAMMAR), ids=ascii)
    def test_scalar_grammar(self, text):
        rejections = (f"invalid literal for int() with base 10: {text!r}",
                      f"Invalid literal for Fraction: {text!r}")
        for field, want, message in zip((FieldSpec(5), QQ),
                                        self.GRAMMAR[text], rejections):
            if want is None:
                with pytest.raises(ValueError) as exc:
                    field.of(text)
                assert str(exc.value) == message
            else:
                got = field.of(text)
                assert got == want and type(got) is type(want)

    def test_bool_is_not_a_scalar(self):
        # bool is a subclass of int, and 1 == True; neither field takes it
        for field, message in ((GF3, "bad scalar True for GF(3)"),
                               (QQ, "bad scalar True")):
            with pytest.raises(ValueError) as exc:
                field.of(True)
            assert str(exc.value) == message

    def test_elements_order(self):
        assert list(GF3.elements()) == [0, 1, 2]
        with pytest.raises(NonFiniteField):
            QQ.elements()

    def test_long_digit_runs(self):
        # one message on every Python, limit on int conversion or not
        message = "a scalar has a run of more than 4300 digits"
        run = "7" * 4301
        for field, text in ((GF3, run), (GF3, "-" + run), (QQ, "1/" + run),
                            (QQ, "0." + run), (QQ, "7_" * 4301),
                            (GF3, "\u0663" * 4301)):
            with pytest.raises(ValueError) as exc:
                field.of(text)
            assert str(exc.value) == message
        # the limit is per run: each int() call reads one run
        assert GF3.of("7" * 4300) == 1
        assert QQ.of("1" * 4300 + "/" + "1" * 4300) == 1
        assert QQ.of("1" * 4300 + "." + "0" * 4300) == int("1" * 4300)

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

    def test_add_and_sub_shapes(self):
        a, b = Mat.identity(GF2, 2), Mat.zero(GF2, 2, 3)
        for op in (a.__add__, a.__sub__, b.__add__, b.__sub__):
            with pytest.raises(DimensionMismatch) as err:
                op(Mat.zero(GF2, 3, 2))
            assert str(err.value) == "shape mismatch"

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
        assert ref_apply(m, v) == (m @ Mat.from_cols(QQ, [v])).col(0)

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x @ y,
        lambda x, y: x.kron(y),
        lambda x, y: x.stack(y),
        lambda x, y: _combine(x, (1,), (y,)),
        lambda x, y: _first_diff(x, y),
        # the records: maps over GF(2) given for an algebra or a
        # coalgebra over GF(3)
        lambda x, y: make_algebra(GF3, 2, d2_algebra(GF2).mult_mat,
                                  d2_algebra(GF2).unit_col),
        lambda x, y: make_coalgebra(GF3, 2, gc2_coalgebra(GF2).delta,
                                    gc2_coalgebra(GF2).eps),
        # relations over one field for a quotient over the other
        lambda x, y: quotient(y.field, 2, x),
    ], ids=["add", "sub", "matmul", "kron", "stack", "combine", "first_diff",
            "make_algebra", "make_coalgebra", "quotient"])
    def test_operands_over_another_field_rejected(self, op):
        # the identity over GF(2) and over Q: equal entries, two fields
        gf2, qq = Mat.identity(GF2, 2), Mat.identity(QQ, 2)
        for x, y in ((gf2, qq), (qq, gf2)):
            with pytest.raises(DimensionMismatch, match="over"):
                op(x, y)


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
        assert rref(m)[0].rows + kernel(m).rows == m.cols

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_kernel_annihilated(self, m):
        assert is_zero(m @ kernel(m).transpose())

    def test_rref_canonical_under_row_ops(self):
        m = Mat.from_rows(GF3, [[1, 2, 0], [0, 1, 1]])
        shuffled = Mat.from_rows(GF3, [[0, 1, 1], [1, 2, 0], [1, 0, 1]])
        assert rref(m)[0] == rref(shuffled)[0]


class TestQuotient:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_projection_section_identity(self, m):
        q = quotient(m.field, m.cols, m)
        assert q.projection @ q.section == Mat.identity(m.field, q.quo_dim)
        assert is_zero(q.projection @ m.transpose())
        assert q.quo_dim == m.cols - rref(m)[0].rows

    def test_descends(self):
        rel = Mat.from_rows(GF3, [[1, 1]])
        q = quotient(GF3, 2, rel)
        summing = Mat.from_rows(GF3, [[1, 1]])
        invariant = Mat.identity(GF3, 2)
        for m in (summing, invariant):
            with pytest.raises(AxiomViolation) as err:
                ref_descend_map(q, m, "k", (2,))
            assert err.value.witness == (0,)
        differencing = Mat.from_rows(GF3, [[1, 2], [2, 1]])
        assert ref_descend_map(q, differencing, "k", (2,)) @ q.projection == \
            differencing

    @settings(max_examples=60, deadline=None)
    @given(small_matrix(), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_descend_map_iff_relations_vanish(self, rel, rows, seed):
        # the reference: m descends iff it vanishes on every relation
        q = quotient(rel.field, rel.cols, rel)
        m = rand_mat(rel.field, rows, rel.cols, random.Random(seed))
        if seed % 2:  # half the maps factor through the projection
            m = m @ q.section @ q.projection
        try:
            out = ref_descend_map(q, m, "k", None)
        except AxiomViolation:
            assert not is_zero(m @ rel.transpose())
        else:
            assert is_zero(m @ rel.transpose())
            assert out @ q.projection == m

    def test_canonical_lift_stable(self):
        rel = Mat.from_rows(GF2, [[1, 1, 0]])
        q = quotient(GF2, 3, rel)
        lift = Mat.from_rows(GF2, [[1], [0], [1]])
        canon = q.canonical_lift(lift)
        assert q.canonical_lift(canon) == canon
        assert q.projection @ canon == q.projection @ lift

    def test_size_guard(self):
        set_guards(max_dim=5)
        try:
            with pytest.raises(SizeLimit):
                quotient(GF2, 10, Mat.zero(GF2, 0, 10))
        finally:
            set_guards(max_dim=DEFAULT_MAX_DIM)
