"""Linear conditions on a matrix: their solution spaces, coordinates in a
canonical basis, and brute-force enumeration over affine solution spaces."""

import itertools
from typing import Callable, List

from .errors import DimensionMismatch, SizeLimit
from .exactla import (FieldSpec, Mat, _combine, _null_basis,
                      current_max_enum, rref)


def affine_solutions(field: FieldSpec, shape, residual: Callable[[Mat], Mat]):
    """Particular solution and kernel basis of a linear residual map.

    ``residual`` must be affine in the entries of its argument; the
    solutions of ``residual(m) == 0`` form ``particular + span(basis)``.
    The residual is probed at zero and at each unit matrix, and the
    augmented system ``[coeff | -offset]``, one row per residual entry, is
    reduced once.  The particular solution sets the free variables to zero.
    The basis is the null space of ``coeff`` read off that reduction by
    the step ``kernel`` uses, in reduced echelon form (flattened
    row-major).  Returns None if the system is inconsistent.
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
    null = _null_basis(coeff, pivots)
    return unflatten(part), [unflatten(r) for r in null.sparse_rows]


def pivots(basis) -> tuple:
    """The pivot ``(row, column)`` of each basis matrix, its first nonzero
    entry in row-major order.  DimensionMismatch unless the matrices share
    one shape."""
    if len({(b.rows, b.cols) for b in basis}) > 1:
        raise DimensionMismatch("matrix and basis shapes differ")
    return tuple(next((r, min(row)) for r, row in enumerate(b.sparse_rows)
                      if row) for b in basis)


def at_pivots(piv, m: Mat) -> tuple:
    """The entries of ``m`` at ``piv``, the pivots of a basis: the
    coordinates of ``m`` in that basis if ``m`` lies in its span."""
    z = m.field.zero
    return tuple(m.sparse_rows[r].get(c, z) for r, c in piv)


def enumerate_affine(field: FieldSpec, shape, residual: Callable[[Mat], Mat],
                     keep: Callable[[Mat], bool]) -> List[Mat]:
    """All solutions of ``residual == 0`` passing ``keep``, in canonical
    order by row-major flattened entries.

    The guard ``max_enum`` of ``set_guards`` bounds the number of
    candidates, p to the power of the dimension d of the solution space,
    before any is built; a count of more than 4300 digits reads ``p^d``.
    Over Q, NonFiniteField is raised before anything is solved, also where
    the laws have no solution.
    """
    elems = field.elements()  # raises NonFiniteField over Q
    sol = affine_solutions(field, shape, residual)
    if sol is None:
        return []
    part, basis = sol
    n = len(basis)
    max_enum = current_max_enum()
    total = field.p ** n
    if total > max_enum:
        count = f"{field.p}^{n}" if total >= 10 ** 4300 else total
        raise SizeLimit(f"{count} candidates exceed the guard {max_enum}")
    out = []
    for coeffs in itertools.product(elems, repeat=n):
        m = _combine(part, coeffs, basis)
        if keep(m):
            out.append(m)
    out.sort(key=lambda m: m.entries)
    return out
