"""Tensor products over an algebra.

M (x)_A N is the quotient of the k-tensor ambient space M (x) N by the
balancing relations, the image of the one map R = ract (x) I_N - I_M (x)
lact: M (x) A (x) N -> M (x) N (:func:`balancing_rows` gives its
transpose).  :func:`tensor_over` (memoised) returns that
``QuotientSpace``, and its ``projection``/``section`` pair and
``quo_dim`` present every balanced product in the package.  A product of
several factors, such as C (x)_A C (x)_A C or A (x)_B A (x)_D B, is
formed one factor at a time by :func:`tensor_chain`: each partial product
carries the right action induced from its last factor and is tensored
with the next one.  The coring, comodule and descent checkers compare
composites in these iterated quotients.  A map m on the ambient that
vanishes on the relations induces ``m @ section`` on the quotient; where
the package reads a map so, a theorem says it vanishes, and the tests
check it as ``m == m @ section @ projection``.
"""

from math import prod

from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, _check_ambient, memoised, quotient
from .algmod import Algebra, LeftModule, RightModule


def balancing_rows(ract: Mat, lact: Mat) -> Mat:
    """The transpose of R = ract (x) I_Y - I_X (x) lact: X (x) A (x) Y ->
    X (x) Y, whose image spans the balancing relations of X (x)_A Y.

    ``ract``: X (x) A -> X and ``lact``: A (x) Y -> Y.  Row (i, j, k) is
    (x_i.a_j)(x)y_k - x_i(x)(a_j.y_k).
    """
    return (ract.tensor_id(1, lact.rows) -
            lact.tensor_id(ract.rows, 1)).transpose()


@memoised
def tensor_over(m: RightModule, n: LeftModule) -> QuotientSpace:
    """M (x)_A N for a right and a left module over one algebra A, as a
    quotient of the k-tensor ambient M (x) N."""
    if m.alg != n.alg:
        raise DimensionMismatch("modules are not over one algebra")
    ambient = m.dim * n.dim
    _check_ambient(ambient)
    return quotient(m.alg.field, ambient, balancing_rows(m.act, n.act))


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


def right_action_on_quotient(q: QuotientSpace, dim_m: int, ract_n: Mat,
                             algR: Algebra) -> Mat:
    """Right action of algR on M (x)_A N = ``q`` induced from an action on
    N; ``dim_m`` is the dimension of M."""
    return q.projection @ ract_n.tensor_id(dim_m, 1) @ \
        q.section.tensor_id(1, algR.dim)
