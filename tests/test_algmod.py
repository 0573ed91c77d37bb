"""Algebras, algebra maps and modules.

An algebra is its multiplication and unit maps.  The tests write small
algebras as structure constants, mult[i][j][l] the coefficient of e_l in
e_i e_j, through ``ref_algebra``, and read them back with ``ref_mult`` and
``ref_unit``.  The axiom checkers are also tested against the dense loop
over basis tuples that they replaced, which is kept below as the
reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.errors import AxiomViolation, DimensionMismatch, SizeLimit
from coringext.exactla import (DEFAULT_MAX_ENUM, GF2, GF3, QQ, Mat, rref,
                               set_guards)
from coringext.algmod import (Algebra, AlgebraMap, Bimodule, LeftModule,
                              RightModule, _first_diff, _require,
                              check_algebra, check_algebra_map,
                              check_bimodule,
                              check_left_module, check_right_module,
                              enumerate_algebra_maps, make_algebra,
                              make_algebra_map, regular_bimodule,
                              restrict_left, restrict_right, right_regular,
                              left_regular)
from coringext.fixtures import (c2_group_algebra, d2_algebra,
                                matrix_algebra_2, unit_map)
from coringext.constructions import base_algebra


# -- reference: the dense loop over basis tuples --------------------------


def ref_algebra(f, dim, mult, unit, make=make_algebra):
    """The algebra with structure constants ``mult[i][j][l]`` and unit
    coordinates ``unit``, made by ``make`` (``Algebra`` for an unchecked
    record): column i*dim + j of its multiplication is ``mult[i][j]``."""
    cols = [mult[i][j] for i in range(dim) for j in range(dim)]
    return make(f, dim, Mat.from_cols(f, cols), Mat.from_cols(f, [unit]))


def ref_mult(a):
    """The structure constants of ``a``: ``ref_mult(a)[i][j]`` holds the
    coordinates of e_i e_j, column i*dim + j of its multiplication."""
    return tuple(tuple(a.mult_mat.col(i * a.dim + j) for j in range(a.dim))
                 for i in range(a.dim))


def ref_unit(a):
    """The coordinates of the unit of ``a``."""
    return a.unit_col.col(0)


def ref_product(a, u, v):
    """The product of two coordinate vectors, from the structure constants."""
    f = a.field
    mult = ref_mult(a)
    out = [f.zero] * a.dim
    for i, x in enumerate(u):
        if x == f.zero:
            continue
        for j, y in enumerate(v):
            if y == f.zero:
                continue
            xy = f.mul(x, y)
            for l in range(a.dim):
                c = mult[i][j][l]
                if c != f.zero:
                    out[l] = f.add(out[l], f.mul(xy, c))
    return tuple(out)


def ref_apply(m, vec):
    """The matrix m applied to a coordinate vector, as a loop over its
    entries."""
    if len(vec) != m.cols:
        raise DimensionMismatch("vector length mismatch")
    f = m.field
    out = []
    for row in m.entries:
        acc = f.zero
        for a, x in zip(row, vec):
            acc = f.add(acc, f.mul(a, x))
        out.append(acc)
    return tuple(out)


def ref_holds(check, *args) -> bool:
    """Whether ``check(*args)`` passes, i.e. raises no AxiomViolation."""
    try:
        check(*args)
    except AxiomViolation:
        return False
    return True


def ref_is_isomorphism(f) -> bool:
    """Whether an algebra map is a bijective algebra map."""
    return ref_holds(check_algebra_map, f) and \
        f.source.dim == f.target.dim and \
        rref(f.matrix)[0].rows == f.source.dim


def ref_opposite(a):
    """Same space, reversed multiplication; an involution on structure
    constants."""
    mult = ref_mult(a)
    opp = tuple(tuple(mult[j][i] for j in range(a.dim)) for i in range(a.dim))
    return ref_algebra(a.field, a.dim, opp, ref_unit(a))


def ref_basis(a):
    f = a.field
    return [tuple(f.one if t == i else f.zero for t in range(a.dim))
            for i in range(a.dim)]


def ref_check_algebra(a):
    """``(kind, witness)`` of the loop's first failure, or None."""
    e, mult, unit = ref_basis(a), ref_mult(a), ref_unit(a)
    for i in range(a.dim):
        if ref_product(a, unit, e[i]) != e[i] or \
                ref_product(a, e[i], unit) != e[i]:
            return "unitality", (i,)
    for i in range(a.dim):
        for j in range(a.dim):
            for l in range(a.dim):
                if ref_product(a, mult[i][j], e[l]) != \
                        ref_product(a, e[i], mult[j][l]):
                    return "associativity", (i, j, l)
    return None


def ref_check_algebra_map(fm):
    m, mult = fm.matrix, ref_mult(fm.source)
    if ref_apply(m, ref_unit(fm.source)) != ref_unit(fm.target):
        return "unit-not-preserved", (0,)  # the one basis element of k
    for i in range(fm.source.dim):
        for j in range(fm.source.dim):
            if ref_apply(m, mult[i][j]) != \
                    ref_product(fm.target, m.col(i), m.col(j)):
                return "not-multiplicative", (i, j)
    return None


def ref_first_diff(m1, m2, dims=None):
    """The column loop ``_first_diff`` used before it read the sparse rows."""
    if m1 == m2:
        return None
    for c in range(m1.cols):
        if m1.col(c) != m2.col(c):
            if dims is None:
                return (c,)
            idx = []
            for d in reversed(dims):
                c, r = divmod(c, d)
                idx.append(r)
            return tuple(reversed(idx))
    return None


def outcome(check, *args):
    """None if ``check(*args)`` passes, else the violated kind and witness."""
    try:
        check(*args)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


# -- seeded perturbations of one structure constant or map entry ----------


def zero_algebra(f):
    return ref_algebra(f, 0, (), (), Algebra)


def c3_group_algebra(f):
    """k[C3]: e_i e_j = e_(i+j mod 3), so the perturbations off the unit
    index 0 meet associativity before unitality."""
    o, z = f.one, f.zero
    mult = tuple(tuple(tuple(o if l == (i + j) % 3 else z for l in range(3))
                       for j in range(3)) for i in range(3))
    return ref_algebra(f, 3, mult, (o, z, z))


ALGEBRAS = [zero_algebra, base_algebra, d2_algebra, c2_group_algebra,
            c3_group_algebra, matrix_algebra_2]


def scalars(f):
    if f.p is not None:
        return st.integers(0, f.p - 1)
    return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _replace(t, idx, x):
    """The nested tuple ``t`` with the entry at ``idx`` replaced by x."""
    if not idx:
        return x
    i = idx[0]
    return t[:i] + (_replace(t[i], idx[1:], x),) + t[i + 1:]


def _index(draw, dims, where, unit):
    """A random index into ``dims``; with ``where == "off-unit"`` its first
    len(dims) - 1 places avoid the support of ``unit``, which keeps the
    unit laws intact, if such places exist."""
    off = [i for i, x in enumerate(unit) if not x]
    head = len(dims) - 1
    if where == "off-unit" and off:
        return tuple(draw(st.sampled_from(off)) for _ in range(head)) + \
            (draw(st.integers(0, dims[-1] - 1)),)
    return tuple(draw(st.integers(0, d - 1)) for d in dims)


WHERE = ["none", "any", "off-unit"]


@st.composite
def perturbed_algebras(draw):
    f = draw(st.sampled_from([GF2, GF3, QQ]))
    a = draw(st.sampled_from(ALGEBRAS))(f)
    mult, unit, d = ref_mult(a), ref_unit(a), a.dim
    where = draw(st.sampled_from(WHERE)) if d else "none"
    if where != "none" and draw(st.integers(0, 3)):
        idx = _index(draw, (d, d, d), where, unit)
        mult = _replace(mult, idx, f.of(draw(scalars(f))))
    elif where != "none":
        unit = _replace(unit, (draw(st.integers(0, d - 1)),),
                        f.of(draw(scalars(f))))
    return ref_algebra(f, d, mult, unit, Algebra)


def _map_fixtures(f):
    k, d2, c2, c3, m2 = (base_algebra(f), d2_algebra(f), c2_group_algebra(f),
                         c3_group_algebra(f), matrix_algebra_2(f))
    swap = [[0, 1], [1, 0]]
    conj = [[1 if j == 3 - i else 0 for j in range(4)] for i in range(4)]
    maps = [(a, a, Mat.identity(f, a.dim)) for a in (k, d2, c2, c3, m2)]
    maps += [(k, a, a.unit_col) for a in (d2, c2, c3, m2)]
    maps += [(d2, d2, Mat.from_rows(f, swap)),
             (m2, m2, Mat.from_rows(f, conj)),
             (c2, k, Mat.from_rows(f, [[1, 1]])),
             (c3, k, Mat.from_rows(f, [[1, 1, 1]])),
             (d2, k, Mat.from_rows(f, [[1, 0]])),
             (d2, m2, Mat.from_rows(f, [[1, 0], [0, 0], [0, 0], [0, 1]]))]
    return maps


@st.composite
def perturbed_maps(draw):
    f = draw(st.sampled_from([GF2, GF3, QQ]))
    src, tgt, m = draw(st.sampled_from(_map_fixtures(f)))
    where = draw(st.sampled_from(WHERE))
    if where != "none":
        # columns off the source unit keep the unit law intact
        j, i = _index(draw, (m.cols, m.rows), where, ref_unit(src))
        rows = [list(r) for r in m.entries]
        rows[i][j] = draw(scalars(f))
        m = Mat.from_rows(f, rows)
    return AlgebraMap(src, tgt, m)


class TestAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_algebras())
    def test_check_algebra(self, a):
        got = outcome(check_algebra, a)
        assert got == ref_check_algebra(a)
        if got is None:
            return
        kind, w = got
        e, mult, unit = ref_basis(a), ref_mult(a), ref_unit(a)
        if kind == "unitality":
            (i,) = w
            assert ref_product(a, unit, e[i]) != e[i] or \
                ref_product(a, e[i], unit) != e[i]
        else:
            i, j, l = w
            assert ref_product(a, mult[i][j], e[l]) != \
                ref_product(a, e[i], mult[j][l])

    @settings(max_examples=300, deadline=None)
    @given(perturbed_maps())
    def test_check_algebra_map(self, fm):
        got = outcome(check_algebra_map, fm)
        assert got == ref_check_algebra_map(fm)
        m = fm.matrix
        if got is not None and got[0] == "unit-not-preserved":
            assert ref_apply(m, ref_unit(fm.source)) != ref_unit(fm.target)
        elif got is not None:
            i, j = got[1]
            assert ref_apply(m, ref_mult(fm.source)[i][j]) != \
                ref_product(fm.target, m.col(i), m.col(j))

    def test_fixtures_accepted(self):
        for f in (GF2, GF3, QQ):
            for make in ALGEBRAS:
                assert check_algebra(make(f)) is None
            for src, tgt, m in _map_fixtures(f):
                assert check_algebra_map(AlgebraMap(src, tgt, m)) is None


class TestAlgebra:
    def test_d2_valid(self):
        a = d2_algebra(GF2)
        assert ref_product(a, (1, 0), (0, 1)) == (0, 0)
        assert ref_product(a, ref_unit(a), (1, 1)) == (1, 1)
        assert check_algebra(a) is None

    def test_bad_unit_witness(self):
        o, z = 1, 0
        mult = (((o, z), (z, z)), ((z, z), (z, o)))
        with pytest.raises(AxiomViolation) as err:
            ref_algebra(GF2, 2, mult, (o, z))
        assert err.value.kind == "unitality"
        assert err.value.witness == (1,)

    def test_nonassociative_witness(self):
        # e2(e2 e2) = e2 e3 = 0 but (e2 e2)e2 = e3 e2 = e1
        z = [0, 0, 0]
        mult = [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [0, 0, 1], z],
                [[0, 0, 1], [1, 0, 0], z]]
        with pytest.raises(AxiomViolation) as err:
            ref_algebra(GF2, 3, mult, (1, 0, 0))
        assert err.value.kind == "associativity"
        assert err.value.witness == (1, 1, 1)

    def test_mult_mat_matches_product(self):
        a = matrix_algebra_2(GF3)
        u, v = (1, 2, 0, 1), (0, 1, 1, 0)
        flat = tuple(x * y % 3 for x in u for y in v)
        assert ref_apply(a.mult_mat, flat) == ref_product(a, u, v)

    def test_opposite_involution(self):
        for a in (d2_algebra(QQ), matrix_algebra_2(GF2)):
            assert ref_opposite(ref_opposite(a)) == a

    def test_opposite_noncommutative(self):
        a = matrix_algebra_2(GF2)
        assert ref_opposite(a).mult_mat != a.mult_mat

    def test_maps_of_the_wrong_shape_rejected(self):
        a = d2_algebra(GF2)
        m, u = a.mult_mat, a.unit_col
        for mult, unit in ((m.transpose(), u), (m, u.transpose()),
                           (Mat.identity(GF2, 2), u), (m, Mat.zero(GF2, 1, 1)),
                           (m.stack(m), u.stack(u))):
            with pytest.raises(DimensionMismatch):
                make_algebra(GF2, 2, mult, unit)
        assert make_algebra(GF2, 2, m, u) == a


class TestAlgebraMap:
    def test_unit_map(self):
        u = unit_map(GF2, d2_algebra(GF2))
        assert check_algebra_map(u) is None

    def test_non_unital_rejected(self):
        k = base_algebra(GF2)
        a = d2_algebra(GF2)
        bad = AlgebraMap(k, a, Mat.from_cols(GF2, [(1, 0)]))
        assert outcome(check_algebra_map, bad) == ("unit-not-preserved",
                                                   (0,))

    def test_not_multiplicative(self):
        b = c2_group_algebra(GF3)
        a = c2_group_algebra(GF3)
        bad = AlgebraMap(b, a, Mat.from_rows(GF3, [[1, 1], [0, 1]]))
        with pytest.raises(AxiomViolation) as err:
            check_algebra_map(bad)
        assert err.value.kind == "not-multiplicative"

    def test_is_isomorphism(self):
        a = d2_algebra(GF2)
        swap = make_algebra_map(a, a, Mat.from_rows(GF2, [[0, 1], [1, 0]]))
        assert ref_is_isomorphism(swap)


class TestModules:
    def test_regular_modules(self):
        for a in (d2_algebra(GF3), matrix_algebra_2(GF2)):
            assert check_right_module(right_regular(a)) is None
            assert check_left_module(left_regular(a)) is None
            assert check_bimodule(regular_bimodule(a)) is None

    def test_non_unital_action(self):
        a = d2_algebra(GF2)
        m = RightModule(a, 1, Mat.zero(GF2, 1, 2))
        with pytest.raises(AxiomViolation) as err:
            check_right_module(m)
        assert err.value.kind == "unital"

    def test_nonassociative_action_witness(self):
        a = c2_group_algebra(GF2)
        # act(m, 1) = m, act(m, g) = 0: not associative since g.g = 1
        m = RightModule(a, 1, Mat.from_rows(GF2, [[1, 0]]))
        with pytest.raises(AxiomViolation) as err:
            check_right_module(m)
        assert err.value.kind == "right-assoc"

    def test_restriction(self):
        a = d2_algebra(GF2)
        u = unit_map(GF2, a)
        r = restrict_right(right_regular(a), u)
        l = restrict_left(left_regular(a), u)
        assert check_right_module(r) is None
        assert check_left_module(l) is None

    def test_bimodule_non_unital_side(self):
        a = d2_algebra(GF2)
        # left regular, right action through the swap: not unital
        swap = Mat.from_rows(GF2, [[0, 1], [1, 0]])
        ract = swap @ a.mult_mat
        b = Bimodule(a, a, 2, a.mult_mat, ract)
        with pytest.raises(AxiomViolation) as err:
            check_bimodule(b)
        assert err.value.kind == "unital"

    def test_bimodule_commuting_witness(self):
        # on k^2 over GF(3), e_i acts on the left by the coordinate
        # projections and on the right by the projections onto (1, 1)
        # and (1, -1): both actions are unital and associative, but
        # (e1.m1).e1 = (2, 2) while e1.(m1.e1) = (2, 0)
        a = d2_algebra(GF3)
        lact = Mat.from_cols(GF3, [(1, 0), (0, 0), (0, 0), (0, 1)])
        ract = Mat.from_cols(GF3, [(2, 2), (2, 1), (2, 2), (1, 2)])
        with pytest.raises(AxiomViolation) as err:
            check_bimodule(Bimodule(a, a, 2, lact, ract))
        assert (err.value.kind, err.value.witness) == \
            ("commuting-actions", (0, 0, 0))


class TestWitness:
    def test_first_diff_decodes_the_first_differing_column(self):
        a = Mat.from_rows(GF2, [[1, 0, 1, 1], [0, 1, 0, 1]])
        b = Mat.from_rows(GF2, [[1, 0, 1, 0], [0, 1, 1, 1]])
        assert _first_diff(a, a) is None
        assert _first_diff(a, b) == (2,)
        assert _first_diff(a, b, (2, 2)) == (1, 0)

    @pytest.mark.parametrize("other", [
        Mat.from_rows(GF2, [[1, 0, 0], [0, 1, 0]]),  # one more column
        Mat.from_rows(GF2, [[1, 0], [0, 1], [0, 0]]),  # one more row
    ])
    def test_first_diff_refuses_different_shapes(self, other):
        ident = Mat.identity(GF2, 2)
        for m1, m2 in ((ident, other), (other, ident)):
            with pytest.raises(DimensionMismatch):
                _first_diff(m1, m2)
            with pytest.raises(DimensionMismatch):
                _require(m1, m2, "k")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_first_diff_against_column_loop(self, data):
        f = data.draw(st.sampled_from([GF2, GF3, QQ]))
        dims = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        rows = data.draw(st.integers(0, 4))
        cols = 1
        for d in dims:
            cols *= d
        cells = st.lists(st.lists(scalars(f), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)
        m1 = Mat.from_rows(f, data.draw(cells))
        entries = [list(r) for r in m1.entries]
        for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
            r = data.draw(st.integers(0, rows - 1))
            c = data.draw(st.integers(0, cols - 1))
            entries[r][c] = data.draw(scalars(f))
        m2 = Mat.from_rows(f, entries)
        for a, b in ((m1, m2), (m2, m1)):
            assert _first_diff(a, b) == ref_first_diff(a, b)
            assert _first_diff(a, b, dims) == ref_first_diff(a, b, dims)

    def test_require_raises_at_the_witness(self):
        a = Mat.from_rows(GF2, [[1, 0], [0, 1]])
        assert _require(a, a, "k") is None
        with pytest.raises(AxiomViolation) as err:
            _require(a, Mat.from_rows(GF2, [[1, 0], [1, 1]]), "k", (1, 2))
        assert (err.value.kind, err.value.witness) == ("k", (0, 0))
        assert str(err.value) == "k at (0, 0)"

    def test_holds_catches_only_axiom_violations(self):
        def fails(kind):
            raise AxiomViolation(kind, ())

        assert ref_holds(lambda: None) is True
        assert ref_holds(fails, "unital") is False
        with pytest.raises(DimensionMismatch):
            ref_holds(check_right_module,
                      RightModule(d2_algebra(GF2), 1, Mat.zero(GF2, 1, 1)))


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
        set_guards(max_enum=100)
        try:
            with pytest.raises(SizeLimit):
                enumerate_algebra_maps(a, a)
        finally:
            set_guards(max_enum=DEFAULT_MAX_ENUM)

    def test_guard_counts_unit_constraint_space(self):
        # 2^12 unital linear maps of M_2(GF2), not 2^16 linear ones
        a = matrix_algebra_2(GF2)
        set_guards(max_enum=5000)
        try:
            maps = enumerate_algebra_maps(a, a)
        finally:
            set_guards(max_enum=DEFAULT_MAX_ENUM)
        assert len(maps) == 6  # the automorphisms, PGL_2(GF2) = S_3
        assert all(ref_is_isomorphism(m) for m in maps)
        mats = [m.matrix.entries for m in maps]
        assert mats == sorted(mats)
