"""Linear conditions on a matrix: their solution spaces, coordinates in a
canonical basis, and brute-force enumeration over affine solution spaces."""

import itertools
from typing import Callable, List, Optional

from .errors import DimensionMismatch, SizeLimit
from .exactla import (FieldSpec, Mat, _addmul, _new, _null_rows,
                      current_max_enum, rref)


def affine_solutions(field: FieldSpec, shape, residual: Callable[[Mat], Mat]):
    """Particular solution and kernel basis of a linear residual map.

    ``residual`` must be affine in the entries of its argument; the
    solutions of ``residual(m) == 0`` form ``particular + span(basis)``.
    The residual is probed at zero and at each unit matrix, and the
    augmented system ``[coeff | -offset]``, one row per residual entry, is
    reduced once.  The particular solution sets the free variables to zero.
    The basis is the null space of ``coeff`` read off that reduction and
    brought into reduced echelon form (flattened row-major), as ``kernel``
    does.  Returns None if the system is inconsistent.
    """
    rows, cols = shape
    nvars = rows * cols

    def unflatten(flat: dict) -> Mat:
        data = [{} for _ in range(rows)]
        for k, x in flat.items():
            data[k // cols][k % cols] = x
        return Mat.from_sparse_rows(field, rows, cols, data)

    offset = residual(Mat.zero(field, rows, cols))
    width = offset.cols
    aug = [{} for _ in range(offset.rows * width)]
    for r, row in enumerate(offset.sparse_rows):
        for c, x in row.items():
            aug[r * width + c][nvars] = field.neg(x)
    for v in range(nvars):
        resid = residual(unflatten({v: field.one})) - offset
        for r, row in enumerate(resid.sparse_rows):
            for c, x in row.items():
                aug[r * width + c][v] = x
    red, pivots = rref(Mat.from_sparse_rows(field, len(aug), nvars + 1, aug))
    if nvars in pivots:
        return None
    # consistent, so dropping the last column of red leaves rref(coeff)
    part = {pc: r[nvars] for pc, r in zip(pivots, red.sparse_rows)
            if nvars in r}
    coeff = Mat.from_sparse_rows(field, len(pivots), nvars, [
        {k: x for k, x in r.items() if k != nvars} for r in red.sparse_rows])
    free, vecs = _null_rows(coeff, pivots)
    null = rref(Mat.from_sparse_rows(field, len(free), nvars, vecs))[0]
    return unflatten(part), [unflatten(r) for r in null.sparse_rows]


def _combine(m: Mat, coeffs, basis) -> Mat:
    """``m + sum_i coeffs[i] * basis[i]``, accumulated into one set of rows.

    Each nonzero coefficient is coerced into the field, as ``Mat.scale``
    would.  The basis matrices must have the shape of ``m``.
    """
    f = m.field
    p = f.p
    out = [dict(r) for r in m.sparse_rows]
    for x, b in zip(coeffs, basis):
        c = f.of(x) if x else x
        if c:
            for acc, row in zip(out, b.sparse_rows):
                _addmul(acc, c, row, p)
    return _new(f, m.rows, m.cols, tuple(out))


def coords(basis, m: Mat) -> Optional[tuple]:
    """Coordinates of ``m`` in ``basis``, or None if ``m`` is not in its span.

    The basis matrices, flattened row-major, must be in reduced echelon
    form with lowest-index pivots, as ``affine_solutions`` returns them:
    then each coordinate is the entry of ``m`` at a basis pivot, and one
    recombination decides membership.
    """
    if any((b.rows, b.cols) != (m.rows, m.cols) for b in basis):
        raise DimensionMismatch("matrix and basis shapes differ")
    z = m.field.zero
    out = []
    for b in basis:
        r = next(i for i, row in enumerate(b.sparse_rows) if row)
        out.append(m.sparse_rows[r].get(min(b.sparse_rows[r]), z))
    if _combine(Mat.zero(m.field, m.rows, m.cols), out, basis) != m:
        return None
    return tuple(out)


def enumerate_affine(field: FieldSpec, shape, residual: Callable[[Mat], Mat],
                     keep: Callable[[Mat], bool],
                     max_enum=None) -> List[Mat]:
    """All solutions of ``residual == 0`` passing ``keep``, in canonical
    order by row-major flattened entries.

    The guard ``max_enum`` bounds the number of candidates, p to the power
    of the dimension of the solution space.
    """
    sol = affine_solutions(field, shape, residual)
    if sol is None:
        return []
    part, basis = sol
    elems = tuple(field.elements())  # raises NonFiniteField over Q
    if max_enum is None:
        max_enum = current_max_enum()
    total = len(elems) ** len(basis)
    if total > max_enum:
        raise SizeLimit(f"{total} candidates exceed the guard {max_enum}")
    out = []
    for coeffs in itertools.product(elems, repeat=len(basis)):
        m = _combine(part, coeffs, basis)
        if keep(m):
            out.append(m)
    out.sort(key=lambda m: m.entries)
    return out
