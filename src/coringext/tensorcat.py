"""Tensor products over the base field and over an algebra.

M (x)_A N is computed as an explicit quotient of the k-tensor ambient
space by balancing relations, together with a canonical projection/section
pair (:func:`tensor_over`, memoised).  A product of several factors, such
as C (x)_A C (x)_A C or A (x)_B A (x)_D B, is formed one factor at a time
by :func:`tensor_chain`: each partial product carries the right action
induced from its last factor and is tensored with the next one.  The
coring, comodule and descent checkers compare composites in these
iterated quotients.
"""

from math import prod

from ._record import frozen
from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, _check_ambient, memoised, quotient
from .algmod import Algebra, LeftModule, RightModule


@frozen
class TensorIndex:
    """Row-major pairing of basis indices: (i, j) -> i * dim_n + j."""

    dim_m: int
    dim_n: int

    @property
    def dim(self) -> int:
        return self.dim_m * self.dim_n

    def index(self, i: int, j: int) -> int:
        if not (0 <= i < self.dim_m and 0 <= j < self.dim_n):
            raise DimensionMismatch("tensor index out of range")
        return i * self.dim_n + j

    def pair(self, k: int) -> tuple:
        return divmod(k, self.dim_n)


def tensor_k(dim_m: int, dim_n: int) -> TensorIndex:
    """Canonical index map of the tensor product over the base field."""
    return TensorIndex(dim_m, dim_n)


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


@frozen
class TensorOverAlg:
    """M (x)_A N presented as a quotient of the k-tensor ambient space."""

    left: RightModule
    right: LeftModule
    q: QuotientSpace

    @property
    def dim(self) -> int:
        return self.q.quo_dim

    @property
    def proj(self) -> Mat:
        return self.q.projection

    @property
    def sect(self) -> Mat:
        return self.q.section


@memoised
def tensor_over(alg: Algebra, m: RightModule, n: LeftModule) -> TensorOverAlg:
    """Tensor product of a right and a left module over ``alg``."""
    if m.alg != alg or n.alg != alg:
        raise DimensionMismatch("modules are not over the given algebra")
    ambient = m.dim * n.dim
    _check_ambient(ambient)
    q = quotient(alg.field, ambient, balancing_rows(m.act, n.act, alg))
    return TensorOverAlg(m, n, q)


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
        t = tensor_over(m.alg, m, b.left_module())
        proj = t.proj @ proj.tensor_id(1, b.dim)
        m = RightModule(b.algR, t.dim,
                        right_action_on_quotient(t, b.ract, b.algR))
    return tensor_over(m.alg, m, n).proj @ proj.tensor_id(1, n.dim)


def induced_map(f: Mat, src: QuotientSpace, dst: QuotientSpace):
    """Induce an ambient map on the quotients, or None if it does not descend.

    Defined iff ``f`` carries every src relation into the span of the dst
    relations; then ``induced @ src.projection == dst.projection @ f``.
    """
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise DimensionMismatch("ambient shapes do not match the quotients")
    return src.descends(dst.projection @ f)


def right_action_on_quotient(t: TensorOverAlg, ract_n: Mat, algR: Algebra) -> Mat:
    """Right action of algR on M (x)_A N induced from an action on N."""
    return t.proj @ ract_n.tensor_id(t.left.dim, 1) @ \
        t.sect.tensor_id(1, algR.dim)
