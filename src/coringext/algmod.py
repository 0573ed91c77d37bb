"""Finite-dimensional algebras, algebra maps and (bi)modules.

An algebra is its two maps over a fixed base field, as a coalgebra is its
coproduct and counit: the multiplication A (x) A -> A and the unit
k -> A, stored as matrices.  Only the CLI reads and writes the table of
structure constants.  Each axiom is checked as an identity of linear
maps, such as ``mult @ (mult (x) I) == mult @ (I (x) mult)``, whose first
differing column names the basis tuple that breaks it: over a field these
checks are complete, so no randomized testing is needed in the core.

Every ``check_*`` function of the package returns None when its axioms
hold and raises ``AxiomViolation(kind, witness)`` at the first one that
fails.  A structure is checked once, where its record is made: a
``make_*`` checks the record it is given, and a part such as the bimodule
of a coring is built unchecked for the ``make_*`` that receives it.
Identities are compared with ``_require``: a rejection names the first
basis tuple of the domain, or of its tensor factors, at which the two
sides differ.
"""

from typing import List, Optional

from ._record import frozen
from ._search import enumerate_affine
from .errors import AxiomViolation, DimensionMismatch
from .exactla import FieldSpec, Mat


@frozen
class Algebra:
    """Associative unital algebra as two maps: ``mult_mat``, A (x) A -> A,
    whose column i*dim + j holds the coordinates of e_i e_j, and
    ``unit_col``, k -> A, the column of the coordinates of 1."""

    field: FieldSpec
    dim: int
    mult_mat: Mat
    unit_col: Mat


def make_algebra(field: FieldSpec, dim: int, mult_mat: Mat,
                 unit_col: Mat) -> Algebra:
    """Validated algebra from its multiplication (dim x dim^2) and unit
    (dim x 1) maps: DimensionMismatch for other shapes, else
    AxiomViolation unless ``check_algebra`` passes."""
    if (mult_mat.rows, mult_mat.cols, unit_col.rows, unit_col.cols) != \
            (dim, dim * dim, dim, 1):
        raise DimensionMismatch(f"expected a {dim}x{dim * dim} "
                                f"multiplication and a {dim}x1 unit")
    a = Algebra(field, dim, mult_mat, unit_col)
    check_algebra(a)
    return a


def check_algebra(a: Algebra) -> None:
    """Unitality, then associativity, as identities of maps on the basis.

    A unitality witness is the first index i with 1 e_i != e_i or
    e_i 1 != e_i; an associativity witness is the first (i, j, l) in
    row-major order with (e_i e_j) e_l != e_i (e_j e_l).
    """
    n = a.dim
    ia = Mat.identity(a.field, n)
    m, u = a.mult_mat, a.unit_col
    # stacked, the two unit laws first differ at the lower of their witnesses
    _require((m @ u.tensor_id(1, n)).stack(m @ u.tensor_id(n, 1)),
             ia.stack(ia), "unitality")
    _require(m @ m.tensor_id(1, n), m @ m.tensor_id(n, 1), "associativity",
             (n,) * 3)


@frozen
class AlgebraMap:
    """Candidate algebra map source -> target as a matrix on coordinates."""

    source: Algebra
    target: Algebra
    matrix: Mat


def _algebra_map_laws(source: Algebra, target: Algebra):
    """The laws of an algebra map source -> target, in the order they are
    checked, each a function of its matrix m that gives the arguments of
    ``_require``.  The first, the unit law, is affine in m."""
    return (lambda m: (m @ source.unit_col, target.unit_col,
                       "unit-not-preserved"),
            lambda m: (m @ source.mult_mat, target.mult_mat @ m.kron(m),
                       "not-multiplicative", (source.dim,) * 2))


def check_algebra_map(f: AlgebraMap) -> None:
    """Pass iff the matrix is unital and multiplicative on basis pairs."""
    m = f.matrix
    if m.rows != f.target.dim or m.cols != f.source.dim:
        raise DimensionMismatch("algebra map matrix has wrong shape")
    for law in _algebra_map_laws(f.source, f.target):
        _require(*law(m))


def make_algebra_map(source: Algebra, target: Algebra,
                     matrix: Mat) -> AlgebraMap:
    f = AlgebraMap(source, target, matrix)
    check_algebra_map(f)
    return f


# -- modules ---------------------------------------------------------


@frozen
class RightModule:
    """Right module: action as a map M (x) A -> M."""

    alg: Algebra
    dim: int
    act: Mat


@frozen
class LeftModule:
    """Left module: action as a map A (x) M -> M."""

    alg: Algebra
    dim: int
    act: Mat


@frozen
class Bimodule:
    """(algL, algR)-bimodule with both actions stored as matrices."""

    algL: Algebra
    algR: Algebra
    dim: int
    lact: Mat  # A_L (x) M -> M
    ract: Mat  # M (x) A_R -> M

    def left_module(self) -> LeftModule:
        return LeftModule(self.algL, self.dim, self.lact)

    def right_module(self) -> RightModule:
        return RightModule(self.algR, self.dim, self.ract)


def _first_diff(m1: Mat, m2: Mat, dims=None) -> Optional[tuple]:
    """The witness where two maps differ: their first differing column,
    as ``(column,)`` or decoded as a row-major multi-index over ``dims``.
    None if the maps agree; DimensionMismatch if their shapes differ."""
    if (m1.rows, m1.cols) != (m2.rows, m2.cols):
        raise DimensionMismatch(f"cannot compare a {m1.rows}x{m1.cols} map "
                                f"with a {m2.rows}x{m2.cols} map")
    if m1 == m2:
        return None
    c = min((j for r1, r2 in zip(m1.sparse_rows, m2.sparse_rows) if r1 != r2
             for j in r1.keys() | r2.keys() if r1.get(j) != r2.get(j)),
            default=None)
    if c is None:  # equal entries over different fields
        return None
    if dims is None:
        return (c,)
    idx = []
    for d in reversed(dims):
        c, r = divmod(c, d)
        idx.append(r)
    return tuple(reversed(idx))


def _require(m1: Mat, m2: Mat, kind: str, dims=None) -> None:
    """Raise ``AxiomViolation(kind, w)`` at the witness w of ``_first_diff``
    if the two maps differ."""
    w = _first_diff(m1, m2, dims)
    if w is not None:
        raise AxiomViolation(kind, w)


def check_right_module(m: RightModule) -> None:
    a = m.alg
    im = Mat.identity(a.field, m.dim)
    if m.act.rows != m.dim or m.act.cols != m.dim * a.dim:
        raise DimensionMismatch("right action has wrong shape")
    _require(m.act @ a.unit_col.tensor_id(m.dim, 1), im, "unital", (m.dim,))
    _require(m.act @ m.act.tensor_id(1, a.dim),
             m.act @ a.mult_mat.tensor_id(m.dim, 1), "right-assoc",
             (m.dim, a.dim, a.dim))


def check_left_module(m: LeftModule) -> None:
    a = m.alg
    im = Mat.identity(a.field, m.dim)
    if m.act.rows != m.dim or m.act.cols != a.dim * m.dim:
        raise DimensionMismatch("left action has wrong shape")
    _require(m.act @ a.unit_col.tensor_id(1, m.dim), im, "unital", (m.dim,))
    _require(m.act @ a.mult_mat.tensor_id(1, m.dim),
             m.act @ m.act.tensor_id(a.dim, 1), "left-assoc",
             (a.dim, a.dim, m.dim))


def check_bimodule(b: Bimodule) -> None:
    check_left_module(b.left_module())
    check_right_module(b.right_module())
    # (a.m).b == a.(m.b) on A_L (x) M (x) A_R
    _require(b.ract @ b.lact.tensor_id(1, b.algR.dim),
             b.lact @ b.ract.tensor_id(b.algL.dim, 1), "commuting-actions",
             (b.algL.dim, b.dim, b.algR.dim))


def right_regular(a: Algebra) -> RightModule:
    return RightModule(a, a.dim, a.mult_mat)


def left_regular(a: Algebra) -> LeftModule:
    return LeftModule(a, a.dim, a.mult_mat)


def regular_bimodule(a: Algebra) -> Bimodule:
    return Bimodule(a, a, a.dim, a.mult_mat, a.mult_mat)


def restrict_right(m: RightModule, f: AlgebraMap) -> RightModule:
    """Restrict a right module along an algebra map into its algebra."""
    if f.target != m.alg:
        raise DimensionMismatch("map does not land in the module's algebra")
    return RightModule(f.source, m.dim,
                       m.act @ f.matrix.tensor_id(m.dim, 1))


def restrict_left(m: LeftModule, f: AlgebraMap) -> LeftModule:
    if f.target != m.alg:
        raise DimensionMismatch("map does not land in the module's algebra")
    return LeftModule(f.source, m.dim,
                      m.act @ f.matrix.tensor_id(1, m.dim))


def regular_along(f: AlgebraMap) -> Bimodule:
    """The target A of f: B -> A as a (B, B)-bimodule, b.x.b' = f(b) x f(b')."""
    a = f.target
    return Bimodule(f.source, f.source, a.dim,
                    restrict_left(left_regular(a), f).act,
                    restrict_right(right_regular(a), f).act)


# -- enumeration -----------------------------------------------------


def enumerate_algebra_maps(b: Algebra, a: Algebra) -> List[AlgebraMap]:
    """All algebra maps b -> a over a prime field, in lexicographic order.

    The unit law ``f(1) = 1`` is linear, so the sweep runs over its affine
    solution space only and keeps the multiplicative candidates.  The
    guard ``max_enum`` of ``set_guards`` bounds that sweep: p to the power
    of the dimension of the linear maps b -> a that vanish on the unit of
    b.  The maps are ordered lexicographically on row-major matrix entries
    with 0 < 1 < ... < p-1.
    """
    unit, mult = _algebra_map_laws(b, a)

    def residual(m: Mat) -> Mat:
        lhs, rhs, _ = unit(m)
        return lhs - rhs

    def keep(m: Mat) -> bool:
        lhs, rhs, *_ = mult(m)
        return lhs == rhs

    mats = enumerate_affine(b.field, (a.dim, b.dim), residual, keep)
    return [AlgebraMap(b, a, m) for m in mats]
