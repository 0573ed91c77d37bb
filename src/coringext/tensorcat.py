"""Tensor products over the base field and over an algebra.

A tensor product over an algebra is computed as an explicit quotient of
the k-tensor ambient space by balancing relations, together with a
canonical projection/section pair.  Iterated tensor products are always
compared through the single-step quotient produced by
:func:`assoc_normalizer`, which sidesteps coherence bookkeeping.
"""

from ._record import frozen
from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, memoised, quotient, rank
from .algmod import Algebra, Bimodule, LeftModule, RightModule


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


def balanced_quotient(field, dims, balancings,
                      max_dim=None) -> QuotientSpace:
    """Quotient of a flat multi-tensor by balancing at the given slots.

    ``dims`` lists the factor dimensions; ``balancings`` maps a slot index
    ``s`` to ``(ract, lact, alg)`` balancing factors ``s`` and ``s+1``.
    """
    ambient = 1
    for d in dims:
        ambient *= d
    rel = Mat.zero(field, 0, ambient)
    for s, (ract, lact, alg) in sorted(balancings.items()):
        pre = 1
        for d in dims[:s]:
            pre *= d
        post = 1
        for d in dims[s + 2:]:
            post *= d
        pair = balancing_rows(ract, lact, alg)
        block = Mat.identity(field, pre).kron(pair).kron(
            Mat.identity(field, post))
        rel = rel.stack(block)
    return quotient(field, ambient, rel, max_dim=max_dim)


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
def tensor_over(alg: Algebra, m: RightModule, n: LeftModule,
                max_dim=None) -> TensorOverAlg:
    """Tensor product of a right and a left module over ``alg``."""
    if m.alg != alg or n.alg != alg:
        raise DimensionMismatch("modules are not over the given algebra")
    q = balanced_quotient(alg.field, (m.dim, n.dim),
                          {0: (m.act, n.act, alg)}, max_dim=max_dim)
    return TensorOverAlg(m, n, q)


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
    im = Mat.identity(t.q.field, t.left.dim)
    ir = Mat.identity(t.q.field, algR.dim)
    return t.proj @ im.kron(ract_n) @ t.sect.kron(ir)


def left_action_on_quotient(t: TensorOverAlg, lact_m: Mat, algL: Algebra) -> Mat:
    """Left action of algL on M (x)_A N induced from an action on M."""
    i_n = Mat.identity(t.q.field, t.right.dim)
    il = Mat.identity(t.q.field, algL.dim)
    return t.proj @ lact_m.kron(i_n) @ il.kron(t.sect)


@frozen
class AssocNormalizer:
    """Both iterated quotients identified with the single-step quotient."""

    single: QuotientSpace
    left_iterated: QuotientSpace   # (M (x)_A N) (x)_A P
    right_iterated: QuotientSpace  # M (x)_A (N (x)_A P)
    from_left: Mat   # left iterated -> single, invertible
    from_right: Mat  # right iterated -> single, invertible


@memoised
def assoc_normalizer(alg: Algebra, m: RightModule, n: Bimodule,
                     p: LeftModule,
                     max_dim=None) -> AssocNormalizer:
    """Canonical isomorphisms of both iterated A-tensor triples.

    The middle factor must be an (A, A)-bimodule.  Both isomorphisms land
    in the quotient of M (x) N (x) P by all middle balancing relations and
    satisfy ``iso @ iterated_projection == single_projection`` on composite
    ambient maps, which is the triangle making normalized comparisons valid.
    """
    f = alg.field
    single = balanced_quotient(
        f, (m.dim, n.dim, p.dim),
        {0: (m.act, n.lact, alg), 1: (n.ract, p.act, alg)},
        max_dim=max_dim)
    ip = Mat.identity(f, p.dim)
    im = Mat.identity(f, m.dim)

    mn = tensor_over(alg, m, n.left_module(), max_dim=max_dim)
    mn_right = RightModule(alg, mn.dim,
                           right_action_on_quotient(mn, n.ract, alg))
    left_it = tensor_over(alg, mn_right, p, max_dim=max_dim).q
    from_left = single.projection @ mn.sect.kron(ip) @ left_it.section

    np_ = tensor_over(alg, n.right_module(), p, max_dim=max_dim)
    np_left = LeftModule(alg, np_.dim,
                         left_action_on_quotient(np_, n.lact, alg))
    right_it = tensor_over(alg, m, np_left, max_dim=max_dim).q
    from_right = single.projection @ im.kron(np_.sect) @ right_it.section

    norm = AssocNormalizer(single, left_it, right_it, from_left, from_right)
    _check_iso(from_left, single, left_it,
               single.section, mn.proj.kron(ip), "left")
    _check_iso(from_right, single, right_it,
               single.section, im.kron(np_.proj), "right")
    return norm


def _check_iso(iso: Mat, single: QuotientSpace, iterated: QuotientSpace,
               sect_single: Mat, inner_proj: Mat, side: str):
    if single.quo_dim != iterated.quo_dim or rank(iso) != single.quo_dim:
        raise DimensionMismatch(
            f"{side} associativity normalizer is not invertible")
    back = iterated.projection @ inner_proj @ sect_single
    ident = Mat.identity(iso.field, single.quo_dim)
    if back @ iso != ident or iso @ back != ident:
        raise DimensionMismatch(
            f"{side} associativity normalizer triangle does not commute")
