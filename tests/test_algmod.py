"""Algebras, algebra maps and modules presented by structure constants.

The axiom checkers are also tested against the dense loop over basis
tuples that they replaced, which is kept below as the reference.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.errors import AxiomViolation, SizeLimit
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.algmod import (Algebra, AlgebraMap, Bimodule, LeftModule,
                              RightModule, check_algebra, check_algebra_map,
                              check_bimodule,
                              check_left_module, check_right_module,
                              enumerate_algebra_maps, is_isomorphism,
                              make_algebra, make_algebra_map, opposite,
                              regular_bimodule, restrict_left,
                              restrict_right, right_regular, left_regular)
from coringext.fixtures import (c2_group_algebra, d2_algebra,
                                matrix_algebra_2, unit_map)
from coringext.constructions import base_algebra


# -- reference: the dense loop over basis tuples --------------------------


def ref_product(a, u, v):
    """The product of two coordinate vectors, from the structure constants."""
    f = a.field
    out = [f.zero] * a.dim
    for i, x in enumerate(u):
        if x == f.zero:
            continue
        for j, y in enumerate(v):
            if y == f.zero:
                continue
            xy = f.mul(x, y)
            for l in range(a.dim):
                c = a.mult[i][j][l]
                if c != f.zero:
                    out[l] = f.add(out[l], f.mul(xy, c))
    return tuple(out)


def ref_basis(a):
    f = a.field
    return [tuple(f.one if t == i else f.zero for t in range(a.dim))
            for i in range(a.dim)]


def ref_check_algebra(a):
    """``(kind, witness)`` of the loop's first failure, or None."""
    e = ref_basis(a)
    for i in range(a.dim):
        if ref_product(a, a.unit, e[i]) != e[i] or \
                ref_product(a, e[i], a.unit) != e[i]:
            return "unitality", (i,)
    for i in range(a.dim):
        for j in range(a.dim):
            for l in range(a.dim):
                if ref_product(a, a.mult[i][j], e[l]) != \
                        ref_product(a, e[i], a.mult[j][l]):
                    return "associativity", (i, j, l)
    return None


def ref_check_algebra_map(fm):
    m = fm.matrix
    if m.apply(fm.source.unit) != fm.target.unit:
        return "unit-not-preserved", ()
    for i in range(fm.source.dim):
        for j in range(fm.source.dim):
            if m.apply(fm.source.mult[i][j]) != \
                    ref_product(fm.target, m.col(i), m.col(j)):
                return "not-multiplicative", (i, j)
    return None


def outcome(v):
    return None if v else (v.failure.kind, v.failure.witness)


# -- seeded perturbations of one structure constant or map entry ----------


def zero_algebra(f):
    return Algebra(f, 0, (), ())


def c3_group_algebra(f):
    """k[C3]: e_i e_j = e_(i+j mod 3), so the perturbations off the unit
    index 0 meet associativity before unitality."""
    o, z = f.one, f.zero
    mult = tuple(tuple(tuple(o if l == (i + j) % 3 else z for l in range(3))
                       for j in range(3)) for i in range(3))
    return make_algebra(f, 3, mult, (o, z, z))


ALGEBRAS = [zero_algebra, base_algebra, d2_algebra, c2_group_algebra,
            c3_group_algebra, matrix_algebra_2]


def scalars(f):
    if f.is_finite:
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
    mult, unit, d = a.mult, a.unit, a.dim
    where = draw(st.sampled_from(WHERE)) if d else "none"
    if where != "none" and draw(st.integers(0, 3)):
        idx = _index(draw, (d, d, d), where, unit)
        mult = _replace(mult, idx, f.of(draw(scalars(f))))
    elif where != "none":
        unit = _replace(unit, (draw(st.integers(0, d - 1)),),
                        f.of(draw(scalars(f))))
    return Algebra(f, d, mult, unit)


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
        j, i = _index(draw, (m.cols, m.rows), where, src.unit)
        rows = [list(r) for r in m.entries]
        rows[i][j] = draw(scalars(f))
        m = Mat.from_rows(f, rows)
    return AlgebraMap(src, tgt, m)


class TestAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(perturbed_algebras())
    def test_check_algebra(self, a):
        got = outcome(check_algebra(a))
        assert got == ref_check_algebra(a)
        if got is None:
            return
        kind, w = got
        e = ref_basis(a)
        if kind == "unitality":
            (i,) = w
            assert ref_product(a, a.unit, e[i]) != e[i] or \
                ref_product(a, e[i], a.unit) != e[i]
        else:
            i, j, l = w
            assert ref_product(a, a.mult[i][j], e[l]) != \
                ref_product(a, e[i], a.mult[j][l])

    @settings(max_examples=300, deadline=None)
    @given(perturbed_maps())
    def test_check_algebra_map(self, fm):
        got = outcome(check_algebra_map(fm))
        assert got == ref_check_algebra_map(fm)
        if got is not None and got[0] == "not-multiplicative":
            i, j = got[1]
            m = fm.matrix
            assert m.apply(fm.source.mult[i][j]) != \
                ref_product(fm.target, m.col(i), m.col(j))

    def test_fixtures_accepted(self):
        for f in (GF2, GF3, QQ):
            for make in ALGEBRAS:
                assert bool(check_algebra(make(f)))
            for src, tgt, m in _map_fixtures(f):
                assert bool(check_algebra_map(AlgebraMap(src, tgt, m)))


class TestAlgebra:
    def test_d2_valid(self):
        a = d2_algebra(GF2)
        assert ref_product(a, (1, 0), (0, 1)) == (0, 0)
        assert ref_product(a, a.unit, (1, 1)) == (1, 1)
        assert bool(check_algebra(a))

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
        assert a.mult_mat.apply(flat) == ref_product(a, u, v)

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
        k = base_algebra(GF2)
        a = d2_algebra(GF2)
        bad = check_algebra_map(AlgebraMap(k, a, Mat.column(GF2, (1, 0))))
        assert not bad
        assert bad.failure.kind == "unit-not-preserved"

    def test_not_multiplicative(self):
        b = c2_group_algebra(GF3)
        a = c2_group_algebra(GF3)
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
