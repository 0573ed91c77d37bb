"""Differential tests: the linear-condition solver of ``_search`` against
the generic pipeline it replaced, and the sweeps built on it against their
full checks.

The reference probes the residual at zero and at each unit matrix, builds
the coefficient matrix column by column, and calls the dense textbook
``ref_solve`` for the particular solution and ``kernel`` for the null
space; coordinates are a ``ref_solve`` against the flattened basis, and
``at_pivots`` must read them off a vector of the span.  A
sweep must return exactly the matrices of its shape, in row-major
lexicographic order, that its full ``check_*`` accepts, and its guard must
trip before it lists the field.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext import _search
from coringext._search import (affine_solutions, at_pivots,
                               enumerate_affine, pivots)
from coringext.algmod import AlgebraMap, check_algebra_map
from coringext.constructions import base_algebra, trivial_coring
from coringext.errors import DimensionMismatch, NonFiniteField, SizeLimit
from coringext.exactla import GF2, GF3, QQ, FieldSpec, Mat, _combine, kernel
from coringext.extension import (Measuring, check_measuring,
                                 enumerate_measurings)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                sw_coring)

from test_algmod import ref_add, ref_holds, ref_mul
from test_exactla_sparse import ref_coords, ref_solve
from test_extension import ref_enumerate_algebra_maps

FIELDS = [GF2, GF3, FieldSpec(7), QQ]


# -- reference -----------------------------------------------------------


def flat(m):
    return tuple(x for row in m.entries for x in row)


def unflatten(f, rows, cols, vec):
    return Mat(f, rows, cols,
               tuple(tuple(vec[r * cols:(r + 1) * cols]) for r in range(rows)))


def mat_solve(m, target):
    """``ref_solve`` on a matrix: one solution of ``m x = target`` as a
    tuple, or None."""
    x = ref_solve(m.field, m.entries, m.cols, target)
    return None if x is None else tuple(x)


def ref_scale(m, x):
    f = m.field
    c = f.of(x)
    return Mat(f, m.rows, m.cols,
               tuple(tuple(ref_mul(f, c, y) for y in r) for r in m.entries))


def ref_affine_solutions(f, shape, residual):
    rows, cols = shape
    nvars = rows * cols
    offset = residual(Mat.zero(f, rows, cols))
    coeff_cols = []
    for v in range(nvars):
        e = unflatten(f, rows, cols, tuple(f.one if t == v else f.zero
                                           for t in range(nvars)))
        coeff_cols.append(flat(residual(e) - offset))
    # from_cols cannot know the row count of zero columns
    coeff = Mat.from_cols(f, coeff_cols) if coeff_cols else \
        Mat.zero(f, offset.rows * offset.cols, 0)
    part = mat_solve(coeff, tuple(f.neg(x) for x in flat(offset)))
    if part is None:
        return None
    return (unflatten(f, rows, cols, part),
            [unflatten(f, rows, cols, r) for r in kernel(coeff).entries])


def ref_combine(m, coeffs, basis):
    """``m + sum_i coeffs[i] * basis[i]`` entry by entry on the dense
    entries, without ``+``, which is ``_combine`` itself."""
    f = m.field
    out = [list(r) for r in m.entries]
    for x, b in zip(coeffs, basis):
        for r, row in enumerate(b.entries):
            for k, y in enumerate(row):
                out[r][k] = ref_add(f, out[r][k], ref_mul(f, f.of(x), y))
    return Mat(f, m.rows, m.cols, tuple(map(tuple, out)))


# -- generation ----------------------------------------------------------


def rand_mat(f, nrows, ncols, rng, density=0.5):
    def scalar():
        if rng.random() >= density:
            return f.zero
        if f.p is not None:
            return rng.randrange(1, f.p)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                        rng.randrange(1, 4))
    return Mat(f, nrows, ncols, tuple(tuple(scalar() for _ in range(ncols))
                                      for _ in range(nrows)))


@st.composite
def systems(draw):
    """An affine residual X -> reshape(K vec(X) + o) with K of low rank, so
    that both consistent and inconsistent offsets occur; zero sizes too."""
    f = draw(st.sampled_from(FIELDS))
    rows, cols, rr, rc = (draw(st.integers(0, 4)) for _ in range(4))
    inner = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    k = rand_mat(f, rr * rc, inner, rng) @ \
        rand_mat(f, inner, rows * cols, rng)
    if draw(st.booleans()):  # an offset in the image of K: consistent
        o = k @ rand_mat(f, rows * cols, 1, rng)
    else:
        o = rand_mat(f, rr * rc, 1, rng)

    def residual(x):
        return unflatten(f, rr, rc, flat(k @ Mat.from_cols(f, [flat(x)]) + o))

    return f, (rows, cols), residual


@st.composite
def spans(draw):
    """A canonical basis (a kernel, reshaped) and a matrix of its shape,
    drawn from the span or at random."""
    f = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = rand_mat(f, draw(st.integers(0, 6)), rows * cols, rng,
                 draw(st.sampled_from([0.2, 0.5, 1.0])))
    basis = [unflatten(f, rows, cols, r) for r in kernel(m).entries]
    if draw(st.booleans()):
        target = Mat.zero(f, rows, cols)
        for b in basis:
            x = rand_mat(f, 1, 1, rng).entries[0][0]
            target = target + ref_scale(b, x)
    else:
        target = rand_mat(f, rows, cols, rng)
    return basis, target


@st.composite
def combinations(draw):
    """A matrix, coefficients and basis matrices of its shape.  A
    coefficient is zero, a field element, or a plain int that is not
    reduced (a multiple of p among them).  Optionally a repeated term with
    the opposite coefficient, and a last term that cancels the whole sum
    to empty rows."""
    f = draw(st.sampled_from([GF2, GF3, QQ]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = rand_mat(f, rows, cols, rng, draw(st.sampled_from([0.0, 0.5, 1.0])))
    n = draw(st.integers(0, 4))
    basis = [rand_mat(f, rows, cols, rng) for _ in range(n)]
    coeffs = [draw(st.sampled_from([
        f.zero, rand_mat(f, 1, 1, rng, 1.0).entries[0][0],
        draw(st.integers(-4, 4))])) for _ in range(n)]
    if n and draw(st.booleans()):
        basis.append(basis[0])
        coeffs.append(f.neg(f.of(coeffs[0])))
    if draw(st.booleans()):
        basis.append(ref_combine(m, coeffs, basis))
        coeffs.append(f.neg(f.one))
    return m, tuple(coeffs), basis


# -- differential tests --------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(combinations())
def test_combine_matches_fold(case):
    m, coeffs, basis = case
    before = [dict(r) for r in m.sparse_rows]
    got = _combine(m, coeffs, basis)
    assert got == ref_combine(m, coeffs, basis)
    assert all(x for r in got.sparse_rows for x in r.values())
    assert [dict(r) for r in m.sparse_rows] == before
    assert not any(a is b for a in got.sparse_rows for b in m.sparse_rows)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_affine_solutions_match_reference(system):
    f, shape, residual = system
    got = affine_solutions(f, shape, residual)
    ref = ref_affine_solutions(f, shape, residual)
    if ref is None:
        assert got is None
        return
    assert got is not None
    (part, basis), (ref_part, ref_basis) = got, ref
    assert part == ref_part
    assert basis == ref_basis
    r = residual(part)
    assert r == Mat.zero(f, r.rows, r.cols)


@settings(max_examples=200, deadline=None)
@given(spans())
def test_at_pivots_match_solve(case):
    # a vector of the span has its coordinates at the pivots of a
    # canonical basis; a random one may lie outside it
    basis, target = case
    x = ref_coords(basis, target)
    if x is not None:
        assert at_pivots(pivots(basis), target) == x


def test_pivots_shape_mismatch():
    basis = [unflatten(GF2, 1, 2, (1, 0)), unflatten(GF2, 2, 1, (0, 1))]
    with pytest.raises(DimensionMismatch):
        pivots(basis)


# -- the sweeps against their full checks ------------------------------------


def matrix_space(f, rows, cols):
    """Every rows x cols matrix over a prime field, in row-major
    lexicographic order."""
    for vec in itertools.product(f.elements(), repeat=rows * cols):
        yield unflatten(f, rows, cols, vec)


@pytest.mark.parametrize("f", [GF2, GF3], ids=repr)
def test_enumerate_measurings_is_the_checked_space(f):
    # gc2 by bc2: 1 x 4 matrices; FIX.SW by k: 2 x 4 matrices
    for c, b in ((gc2_coring(f), c2_group_algebra(f)),
                 (sw_coring(f), base_algebra(f))):
        want = [m for m in (Measuring(c, b, nu) for nu in
                            matrix_space(f, c.A.dim, c.dim * b.dim))
                if ref_holds(check_measuring, m)]
        assert want
        assert enumerate_measurings(c, b) == want


@pytest.mark.parametrize("f", [GF2, GF3], ids=repr)
def test_enumerate_algebra_maps_is_the_checked_space(f):
    algebras = (d2_algebra(f), c2_group_algebra(f))
    for b, a in itertools.product(algebras, repeat=2):
        want = [g for g in (AlgebraMap(b, a, m) for m in
                            matrix_space(f, a.dim, b.dim))
                if ref_holds(check_algebra_map, g)]
        assert want
        assert ref_enumerate_algebra_maps(b, a) == want


# -- the guard of a sweep ----------------------------------------------------


BIG = FieldSpec(1000003)


def sweep_peak(c, b):
    """The sweep of c by b, and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        try:
            out = enumerate_measurings(c, b)
        except SizeLimit as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_guard_trips_before_field_elements_are_built():
    # 1000003^4 candidates; listing the field first took 53 MiB
    out, peak = sweep_peak(sw_coring(BIG), d2_algebra(BIG))
    assert str(out) == (f"{BIG.p ** 4} candidates exceed the guard "
                        "2000000")
    assert peak < 5 * 2 ** 20


def test_one_candidate_builds_no_field_elements():
    # the trivial coring of k, measured by k: nu is fixed by the unit law
    k = base_algebra(BIG)
    out, peak = sweep_peak(trivial_coring(k), k)
    assert [m.nu for m in out] == [Mat.identity(BIG, 1)]
    assert peak < 5 * 2 ** 20


def test_a_count_of_more_than_4300_digits_is_a_power():
    # str() refuses an int of more than 4300 digits from Python 3.10.7 on
    def zero(m):
        return Mat.zero(BIG, 1, 1)

    def keep(m):
        raise AssertionError("a candidate was built")

    assert len(str(BIG.p ** 716)) == 4297  # and 1000003^717 has 4303
    for n, count in ((716, str(BIG.p ** 716)), (717, f"{BIG.p}^717")):
        with pytest.raises(SizeLimit) as exc:
            enumerate_affine(BIG, (1, n), zero, keep)
        assert str(exc.value) == f"{count} candidates exceed the guard 2000000"


# -- an enumeration over Q is refused before anything is solved -------------


def test_enumeration_over_q_solves_nothing(monkeypatch):
    def solve(*args):
        raise AssertionError("a linear law was solved")

    def zero(m):
        return Mat.zero(QQ, 1, 1)

    def inconsistent(m):
        # the constant 1 == 0 has no solution
        return Mat.identity(QQ, 1)

    def keep(m):
        raise AssertionError("a candidate was built")

    monkeypatch.setattr(_search, "affine_solutions", solve)
    for residual in (zero, inconsistent):
        with pytest.raises(NonFiniteField):
            enumerate_affine(QQ, (1, 2), residual, keep)
    with pytest.raises(NonFiniteField):
        enumerate_measurings(sw_coring(QQ), d2_algebra(QQ))
