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
fails.  Data is checked where it enters: a ``make_*`` checks the record it
is given (a part, such as the bimodule of a coring, only within it), and
a construction its own parameters (iota, gamma, psi, a dual basis).  A
construction whose output is valid by a theorem builds its record
directly, with the canonical lift a ``make_*`` stores: the Sweedler,
comatrix, trivial and coalgebra corings, the group coalgebras, the
algebra of ``dual_ring``, the identity, coring-map and composed
extensions, ``induced_coaction``, ``apply_functor``, and both ways
between descent data and Sweedler comodules.  The tests prove each
theorem.  Identities are compared with
``_require``: a rejection names the first basis tuple of the domain, or
of its tensor factors, at which the two sides differ.  Each law is stated
once: the commuting of a left and a right action is required only by
``_check_right_action``, the right half of ``check_bimodule``, which
also checks an extension's right B-action and the rho_A of Cor. 2.8.
"""

from typing import Optional

from ._record import frozen
from .errors import AxiomViolation, DimensionMismatch
from .exactla import FieldSpec, Mat, _field_of


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
    (dim x 1) maps over ``field``: DimensionMismatch for other shapes or
    fields, else AxiomViolation unless ``check_algebra`` passes."""
    if (mult_mat.rows, mult_mat.cols, unit_col.rows, unit_col.cols) != \
            (dim, dim * dim, dim, 1):
        raise DimensionMismatch(f"expected a {dim}x{dim * dim} "
                                f"multiplication and a {dim}x1 unit")
    if mult_mat.field != field or unit_col.field != field:
        raise DimensionMismatch(f"expected maps over {field!r}")
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


def check_algebra_map(f: AlgebraMap) -> None:
    """Pass iff the matrix is unital and multiplicative on basis pairs."""
    m, source, target = f.matrix, f.source, f.target
    if m.rows != target.dim or m.cols != source.dim:
        raise DimensionMismatch("algebra map matrix has wrong shape")
    _require(m @ source.unit_col, target.unit_col, "unit-not-preserved")
    _require(m @ source.mult_mat, target.mult_mat @ m.kron(m),
             "not-multiplicative", (source.dim,) * 2)


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
    None if the maps agree; DimensionMismatch if their shapes or fields
    differ."""
    if (m1.rows, m1.cols) != (m2.rows, m2.cols):
        raise DimensionMismatch(f"cannot compare a {m1.rows}x{m1.cols} map "
                                f"with a {m2.rows}x{m2.cols} map")
    _field_of(m1, m2)
    if m1 == m2:
        return None
    c = min(j for r1, r2 in zip(m1.sparse_rows, m2.sparse_rows) if r1 != r2
            for j in r1.keys() | r2.keys() if r1.get(j) != r2.get(j))
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
    _check_right_action(b)


def _check_right_action(b: Bimodule) -> None:
    """``check_bimodule`` once M is a left module: the right module laws,
    then (a.m).b == a.(m.b) on A_L (x) M (x) A_R."""
    check_right_module(b.right_module())
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
