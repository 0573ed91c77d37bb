"""Tensor products over an algebra.

M (x)_A N is the quotient of the k-tensor ambient space M (x) N by the
balancing relations: :func:`tensor_over` (memoised) returns that
``QuotientSpace``, and its ``projection``/``section`` pair and
``quo_dim`` present every balanced product in the package.  A product of
several factors, such as C (x)_A C (x)_A C or A (x)_B A (x)_D B, is
formed one factor at a time by :func:`tensor_chain`: each partial product
carries the right action induced from its last factor and is tensored
with the next one.  The coring, comodule and descent checkers compare
composites in these iterated quotients.
"""

from math import prod

from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, _check_ambient, memoised, quotient
from .algmod import Algebra, LeftModule, RightModule, _require


def balancing_rows(ract: Mat, lact: Mat, alg: Algebra) -> Mat:
    """Rows spanning { (x.a)(x)y - x(x)(a.y) } inside X (x) Y.

    ``ract``: X (x) A -> X and ``lact``: A (x) Y -> Y.
    """
    f = alg.field
    dx = ract.rows
    dy = lact.rows
    rcols = ract.transpose().sparse_rows
    lcols = lact.transpose().sparse_rows
    rows = []
    for i in range(dx):
        for j in range(alg.dim):
            xa = rcols[i * alg.dim + j]
            for k in range(dy):
                row = {m * dy + k: c for m, c in xa.items()}
                for n, c in lcols[j * dy + k].items():
                    row[i * dy + n] = f.sub(row.get(i * dy + n, 0), c)
                rows.append(row)
    return Mat.from_sparse_rows(f, len(rows), dx * dy, rows)


@memoised
def tensor_over(m: RightModule, n: LeftModule) -> QuotientSpace:
    """M (x)_A N for a right and a left module over one algebra A, as a
    quotient of the k-tensor ambient M (x) N."""
    if m.alg != n.alg:
        raise DimensionMismatch("modules are not over one algebra")
    ambient = m.dim * n.dim
    _check_ambient(ambient)
    return quotient(m.alg.field, ambient, balancing_rows(m.act, n.act, m.alg))


def tensor_chain(m: RightModule, mids: tuple, n: LeftModule) -> Mat:
    """Projection of M (x) N_1 (x) ... (x) N_k (x) P onto the iterated
    quotient ((M (x)_A N_1) (x)_B ...) (x)_Z P.

    Every middle factor ``N_i`` in ``mids`` must be a ``Bimodule``, over the
    algebra on its left and the one on its right; only then is the kernel
    of the iterated projection the span of all balancing relations at once,
    so that two maps into the k-tensor ambient agree in the iterated
    quotient exactly when they agree in the balanced one.  Each step is a
    memoised ``tensor_over`` whose left factor carries the right action
    induced from ``N_i``.  The size guard measures the full k-tensor
    ambient before any quotient is built.
    """
    _check_ambient(prod([m.dim, *(b.dim for b in mids), n.dim]))
    proj = Mat.identity(m.alg.field, m.dim)
    for b in mids:
        q = tensor_over(m, b.left_module())
        proj = q.projection @ proj.tensor_id(1, b.dim)
        m = RightModule(b.algR, q.quo_dim,
                        right_action_on_quotient(q, m.dim, b.ract, b.algR))
    return tensor_over(m, n).projection @ proj.tensor_id(1, n.dim)


def descend_map(q: QuotientSpace, m: Mat, kind: str, dims) -> Mat:
    """The map that ``m`` on the ambient of ``q`` induces on the quotient.

    The vectors v - section(projection(v)) span the relations, so ``m``
    vanishes on them iff ``m == m @ section @ projection``; if not,
    AxiomViolation(kind) names the first ambient tuple, over the factors
    ``dims``, where the two differ.
    """
    out = m @ q.section
    _require(m, out @ q.projection, kind, dims)
    return out


def right_action_on_quotient(q: QuotientSpace, dim_m: int, ract_n: Mat,
                             algR: Algebra) -> Mat:
    """Right action of algR on M (x)_A N = ``q`` induced from an action on
    N; ``dim_m`` is the dimension of M."""
    return q.projection @ ract_n.tensor_id(dim_m, 1) @ \
        q.section.tensor_id(1, algR.dim)
