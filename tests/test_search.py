"""Differential tests: the linear-condition solver of ``_search`` against
the generic pipeline it replaced, and the sweeps built on it against their
full checks.

The reference probes the residual at zero and at each unit matrix, builds
the coefficient matrix column by column, and calls ``solve`` for the
particular solution and ``kernel`` for the null space; coordinates are a
``solve`` against the flattened basis.  A sweep must return exactly the
matrices of its shape, in row-major lexicographic order, that its full
``check_*`` accepts.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext._search import _combine, affine_solutions, coords
from coringext.algmod import (AlgebraMap, _holds, check_algebra_map,
                              enumerate_algebra_maps)
from coringext.constructions import base_algebra
from coringext.errors import DimensionMismatch
from coringext.exactla import GF2, GF3, QQ, FieldSpec, Mat, kernel, solve
from coringext.extension import (Measuring, check_measuring,
                                 enumerate_measurings)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                sw_coring)

FIELDS = [GF2, GF3, FieldSpec(7), QQ]


# -- reference -----------------------------------------------------------


def flat(m):
    return tuple(x for row in m.entries for x in row)


def unflatten(f, rows, cols, vec):
    return Mat(f, rows, cols,
               tuple(tuple(vec[r * cols:(r + 1) * cols]) for r in range(rows)))


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
    part = solve(coeff, tuple(f.neg(x) for x in flat(offset)))
    if part is None:
        return None
    return (unflatten(f, rows, cols, part),
            [unflatten(f, rows, cols, r) for r in kernel(coeff).entries])


def ref_combine(m, coeffs, basis):
    """The fold ``_combine`` replaced: one scale and one add per term."""
    for x, b in zip(coeffs, basis):
        if x:
            m = m + b.scale(x)
    return m


def ref_coords(basis, m):
    f = m.field
    bm = Mat.from_cols(f, [flat(b) for b in basis]) if basis else \
        Mat.zero(f, m.rows * m.cols, 0)
    return solve(bm, flat(m))


# -- generation ----------------------------------------------------------


def rand_mat(f, nrows, ncols, rng, density=0.5):
    def scalar():
        if rng.random() >= density:
            return f.zero
        if f.is_finite:
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
        return unflatten(f, rr, rc, flat(k @ Mat.column(f, flat(x)) + o))

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
            target = target + b.scale(rand_mat(f, 1, 1, rng).entries[0][0])
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
    assert residual(part).is_zero


@settings(max_examples=200, deadline=None)
@given(spans())
def test_coords_match_solve(case):
    basis, target = case
    assert coords(basis, target) == ref_coords(basis, target)


def test_coords_shape_mismatch():
    basis = [unflatten(GF2, 1, 2, (1, 0))]
    with pytest.raises(DimensionMismatch):
        coords(basis, Mat.zero(GF2, 2, 1))


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
                if _holds(check_measuring, m)]
        assert want
        assert enumerate_measurings(c, b) == want


@pytest.mark.parametrize("f", [GF2, GF3], ids=repr)
def test_enumerate_algebra_maps_is_the_checked_space(f):
    algebras = (d2_algebra(f), c2_group_algebra(f))
    for b, a in itertools.product(algebras, repeat=2):
        want = [g for g in (AlgebraMap(b, a, m) for m in
                            matrix_space(f, a.dim, b.dim))
                if _holds(check_algebra_map, g)]
        assert want
        assert enumerate_algebra_maps(b, a) == want
