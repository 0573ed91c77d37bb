"""Differential tests: the sparse-row kernel against dense textbook Gauss-Jordan.

The reference below works on plain lists of lists with the field's own
scalar operations.  Every sparse result is also checked to store no zero,
and matrices built along different paths must compare and hash equal.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.exactla import (GF2, GF3, QQ, FieldSpec, Mat, kernel,
                               quotient, rref)

from test_algmod import ref_add, ref_mul, ref_sub

FIELDS = [GF2, GF3, FieldSpec(7), QQ]
DENSITIES = [0.05, 0.15, 0.3, 0.6, 1.0]


# -- dense reference ---------------------------------------------------


def ref_rref(f, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    top = 0
    for c in range(ncols):
        sel = next((r for r in range(top, len(rows)) if rows[r][c] != 0),
                   None)
        if sel is None:
            continue
        rows[top], rows[sel] = rows[sel], rows[top]
        inv = f.inv(rows[top][c])
        rows[top] = [ref_mul(f, inv, x) for x in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][c] != 0:
                coef = rows[r][c]
                rows[r] = [ref_sub(f, x, ref_mul(f, coef, y))
                           for x, y in zip(rows[r], rows[top])]
        pivots.append(c)
        top += 1
    return rows[:top], pivots


def ref_null(f, red, pivots, ncols):
    """One null vector per free column, as the textbook back-solve gives."""
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [f.zero] * ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red[r][fc])
        out.append(v)
    return out


def ref_kernel(f, rows, ncols):
    red, pivots = ref_rref(f, rows, ncols)
    return ref_rref(f, ref_null(f, red, pivots, ncols), ncols)[0]


def ref_solve(f, rows, ncols, target):
    red, pivots = ref_rref(f, [list(r) + [t] for r, t in zip(rows, target)],
                           ncols + 1)
    if ncols in pivots:
        return None
    x = [f.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


def ref_coords(basis, m):
    """The coordinates of ``m`` in ``basis``, independent matrices of its
    shape, by ``ref_solve`` on their flattened entries; None if ``m`` is
    not in their span."""
    cols = m.cols
    rows = [[b.entries[k // cols][k % cols] for b in basis]
            for k in range(m.rows * cols)]
    x = ref_solve(m.field, rows, len(basis),
                  [y for row in m.entries for y in row])
    return None if x is None else tuple(x)


def ref_matmul(f, a, b, inner, ncols):
    out = []
    for row in a:
        out.append([])
        for k in range(ncols):
            acc = f.zero
            for j in range(inner):
                acc = ref_add(f, acc, ref_mul(f, row[j], b[j][k]))
            out[-1].append(acc)
    return out


def ref_kron(f, a, b):
    return [[ref_mul(f, x, y) for x in ra for y in rb] for ra in a for rb in b]


def ref_transpose(rows, ncols):
    return [[r[j] for r in rows] for j in range(ncols)]


def dense(rows):
    return tuple(tuple(r) for r in rows)


# -- generation --------------------------------------------------------


def rand_rows(f, nrows, ncols, density, rng):
    def scalar():
        if rng.random() >= density:
            return f.zero
        if f.p is not None:
            return rng.randrange(1, f.p)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                        rng.randrange(1, 4))
    return [[scalar() for _ in range(ncols)] for _ in range(nrows)]


@st.composite
def cases(draw):
    f = draw(st.sampled_from(FIELDS))
    density = draw(st.sampled_from(DENSITIES))
    shape = [draw(st.integers(0, 6)) for _ in range(4)]
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return f, density, shape, rng


def check_sparse(m):
    assert len(m.sparse_rows) == m.rows
    for r in m.sparse_rows:
        for c, x in r.items():
            assert x != 0, "stored a zero"
            assert 0 <= c < m.cols
    return m


# -- differential tests ------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(cases())
def test_echelon_forms_match_reference(case):
    f, density, (nr, nc, _, _), rng = case
    rows = rand_rows(f, nr, nc, density, rng)
    m = check_sparse(Mat(f, nr, nc, dense(rows)))
    assert m.entries == dense(rows)
    red, pivots = rref(m)
    ref_red, ref_piv = ref_rref(f, rows, nc)
    assert check_sparse(red).entries == dense(ref_red)
    assert pivots == tuple(ref_piv)
    assert red.rows == len(ref_piv)
    assert check_sparse(kernel(m)).entries == dense(ref_kernel(f, rows, nc))

    q = quotient(f, nc, m)
    free = [c for c in range(nc) if c not in ref_piv]
    assert q.quo_dim == len(free)
    assert check_sparse(q.projection).entries == dense(
        ref_null(f, ref_red, ref_piv, nc))
    assert check_sparse(q.section).entries == dense(
        [[f.one if i == fc else f.zero for fc in free] for i in range(nc)])


@settings(max_examples=150, deadline=None)
@given(cases())
def test_algebra_matches_reference(case):
    f, density, (nr, nc, nk, nl), rng = case
    a = rand_rows(f, nr, nc, density, rng)
    a2 = rand_rows(f, nr, nc, density, rng)
    b = rand_rows(f, nc, nk, density, rng)
    c = rand_rows(f, nk, nl, density, rng)
    ma, ma2, mb, mc = (Mat(f, len(x), len(x[0]) if x else n, dense(x))
                       for x, n in ((a, nc), (a2, nc), (b, nk), (c, nl)))
    assert check_sparse(ma @ mb).entries == dense(
        ref_matmul(f, a, b, nc, nk))
    assert check_sparse(ma.kron(mc)).entries == dense(ref_kron(f, a, c))
    assert check_sparse(ma + ma2).entries == dense(
        [[ref_add(f, x, y) for x, y in zip(r, s)] for r, s in zip(a, a2)])
    assert check_sparse(ma - ma2).entries == dense(
        [[ref_sub(f, x, y) for x, y in zip(r, s)] for r, s in zip(a, a2)])
    assert check_sparse(ma.transpose()).entries == dense(
        ref_transpose(a, nc))
    assert check_sparse(ma.stack(ma2)).entries == dense(a + a2)
    assert check_sparse(ma - ma) == Mat.zero(f, nr, nc)
    for j in range(nc):
        assert ma.col(j) == tuple(r[j] for r in a)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_equal_matrices_hash_equal(case):
    f, density, (nr, nc, _, _), rng = case
    rows = rand_rows(f, nr, nc, density, rng)
    m = Mat(f, nr, nc, dense(rows))
    other = Mat(f, nr, nc, dense(rand_rows(f, nr, nc, density, rng)))
    built = [
        Mat.from_rows(f, rows) if nr else m,
        # the same rows with their columns inserted in another order
        Mat.from_sparse_rows(f, nr, nc, [dict(reversed(r.items()))
                                         for r in m.sparse_rows]),
        (m - other) + other,
        Mat.identity(f, nr) @ m,
        m @ Mat.identity(f, nc),
        m + Mat.zero(f, nr, nc),
        m.transpose().transpose(),
        Mat.identity(f, 1).kron(m),
    ]
    for other in built:
        assert other == m and hash(other) == hash(m)
    ident = [Mat.identity(f, nc), rref(Mat.identity(f, nc))[0],
             Mat(f, nc, nc, tuple(tuple(f.one if i == j else f.zero
                                        for j in range(nc))
                                  for i in range(nc)))]
    zero = [Mat.zero(f, nr, nc), m - m,
            Mat(f, nr, nc, ((f.zero,) * nc,) * nr)]
    for group in (ident, zero):
        for other in group:
            assert other == group[0] and hash(other) == hash(group[0])


# -- the rationals with wide scalars -----------------------------------


def wide_rows(nrows, ncols, density, rng):
    """Rows over Q with numerators up to 10^6 and denominators up to 10^4.

    About a third of the rows are integer multiples of an earlier row, and
    the leading entry of a fresh row is negative half of the time.
    """
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            k = rng.choice([-7, -2, -1, 2, 3, 10 ** 6])
            rows.append([k * x for x in rng.choice(rows)])
            continue
        row = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                        rng.randint(1, 10 ** 4))
               if rng.random() < density else QQ.zero for _ in range(ncols)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is not None and rng.random() < 0.5:
            row[lead] = -abs(row[lead])
        rows.append(row)
    return rows


@st.composite
def wide_cases(draw):
    shape = [draw(st.integers(0, 8)) for _ in range(3)]
    density = draw(st.sampled_from(DENSITIES))
    return shape, density, random.Random(draw(st.integers(0, 2 ** 32)))


@settings(max_examples=150, deadline=None)
@given(wide_cases())
def test_rationals_with_wide_scalars(case):
    (nr, nc, nk), density, rng = case
    f = QQ
    rows = wide_rows(nr, nc, density, rng)
    m = check_sparse(Mat(f, nr, nc, dense(rows)))
    red, pivots = rref(m)
    ref_red, ref_piv = ref_rref(f, rows, nc)
    assert check_sparse(red).entries == dense(ref_red)
    assert pivots == tuple(ref_piv)
    assert all(type(x) is Fraction
               for r in red.sparse_rows for x in r.values())
    assert check_sparse(kernel(m)).entries == dense(ref_kernel(f, rows, nc))

    q = quotient(f, nc, m)
    assert check_sparse(q.projection).entries == dense(
        ref_null(f, ref_red, ref_piv, nc))
    free = [c for c in range(nc) if c not in ref_piv]
    assert check_sparse(q.section).entries == dense(
        [[f.one if i == fc else f.zero for fc in free] for i in range(nc)])

    b = wide_rows(nc, nk, density, rng)
    prod = check_sparse(m @ Mat(f, nc, nk, dense(b)))
    assert prod.entries == dense(ref_matmul(f, rows, b, nc, nk))
    assert all(type(x) is Fraction
               for r in prod.sparse_rows for x in r.values())


# -- Kronecker products with an identity factor ------------------------


def kron_with_identities(m, pre, post):
    f = m.field
    return Mat.identity(f, pre).kron(m).kron(Mat.identity(f, post))


def check_tensor_id(m, pre, post):
    got = check_sparse(m.tensor_id(pre, post))
    want = kron_with_identities(m, pre, post)
    assert (got.rows, got.cols) == (pre * m.rows * post, pre * m.cols * post)
    assert got == want and hash(got) == hash(want)
    f = m.field
    eye_pre, eye_post = (Mat.identity(f, n).entries for n in (pre, post))
    assert got.entries == dense(
        ref_kron(f, ref_kron(f, eye_pre, m.entries), eye_post))
    inputs = {id(r) for r in m.sparse_rows}
    assert not any(id(r) in inputs for r in got.sparse_rows)


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 3), st.integers(0, 3))
def test_tensor_id_matches_kron(case, pre, post):
    f, density, (nr, nc, _, _), rng = case
    check_tensor_id(Mat(f, nr, nc, dense(rand_rows(f, nr, nc, density, rng))),
                    pre, post)


def test_tensor_id_empty_shapes():
    rng = random.Random(7)
    for f in (GF2, GF3, QQ):
        for nr, nc in ((0, 0), (0, 3), (3, 0), (2, 3)):
            m = Mat(f, nr, nc, dense(rand_rows(f, nr, nc, 0.6, rng)))
            for pre in range(3):
                for post in range(3):
                    check_tensor_id(m, pre, post)
