"""Named coring constructions: trivial, Sweedler, comatrix and entwining
corings, and coalgebras over the base field.  Each takes its defining data
as arguments: an entwining as A, C and psi, a dual basis as its elements
and functionals.  A coalgebra is a coring over k: ``make_coalgebra``
checks it as its coring, with the coring's kinds and size guards, and a
group coalgebra is valid by a theorem, so it is built unchecked."""

from typing import List

from ._record import frozen
from ._search import affine_solutions, at_pivots, pivots
from .errors import DimensionMismatch
from .exactla import FieldSpec, Mat, QuotientSpace, memoised
from .algmod import (Algebra, AlgebraMap, Bimodule, LeftModule, RightModule,
                     _require, check_bimodule, make_algebra, regular_along,
                     regular_bimodule)
from .coring import Coring, check_coring, make_coring
from .tensorcat import descend_map, right_action_on_quotient, tensor_over


@memoised
def base_algebra(field: FieldSpec) -> Algebra:
    """The base field as a one-dimensional algebra."""
    one = Mat.identity(field, 1)
    return make_algebra(field, 1, one, one)


def trivial_coring(a: Algebra) -> Coring:
    """A as a coring over itself: Delta the inverse of A (x)_A A = A, eps = id."""
    cbim, eps = regular_bimodule(a), Mat.identity(a.field, a.dim)
    delta_lift = a.unit_col.tensor_id(1, a.dim)  # x -> 1 (x) x
    return Coring(a, cbim, Coring(a, cbim, delta_lift, eps).cc()
                  .canonical_lift(delta_lift), eps)


@memoised
def sweedler_space(iota: AlgebraMap) -> QuotientSpace:
    """The quotient A (x)_B A underlying the Sweedler coring of iota."""
    a_bb = regular_along(iota)
    return tensor_over(a_bb.right_module(), a_bb.left_module())


def _quotient_coring(name: str, q: QuotientSpace, a: Algebra, lact_x: Mat,
                     ract_y: Mat, delta_amb: Mat, eps_amb: Mat) -> Coring:
    """The A-coring on q = X (x)_B Y.  Its actions are induced from the left
    action ``lact_x`` on X and the right action ``ract_y`` on Y; Delta and
    eps from ``delta_amb``: X (x) Y -> (X (x) Y)^(x)2 and ``eps_amb``:
    X (x) Y -> A, or AxiomViolation ``<name>-coproduct-not-balanced`` or
    ``<name>-counit-not-balanced`` names where one is not balanced."""
    dims = nx, ny = lact_x.rows, ract_y.rows
    lact = q.projection @ lact_x.tensor_id(1, ny) @ \
        q.section.tensor_id(a.dim, 1)
    ract = right_action_on_quotient(q, nx, ract_y, a)
    cbim = Bimodule(a, a, q.quo_dim, lact, ract)
    cc = tensor_over(cbim.right_module(), cbim.left_module())
    delta = descend_map(q, cc.projection @ (
        q.projection.kron(q.projection) @ delta_amb),
        name + "-coproduct-not-balanced", dims)
    eps = descend_map(q, eps_amb, name + "-counit-not-balanced", dims)
    return Coring(a, cbim, cc.canonical_lift(cc.section @ delta), eps)


@memoised
def sweedler_coring(iota: AlgebraMap) -> Coring:
    """Canonical Sweedler coring A (x)_B A of an algebra map iota: B -> A."""
    a = iota.target
    n = a.dim
    u = a.unit_col
    insert = u.kron(u).tensor_id(n, n)  # x (x) y -> x (x) 1 (x) 1 (x) y
    return _quotient_coring("sweedler", sweedler_space(iota), a, a.mult_mat,
                            a.mult_mat, insert, a.mult_mat)


# -- coalgebras ------------------------------------------------------


@frozen
class Coalgebra:
    """Coassociative counital coalgebra over the base field."""

    field: FieldSpec
    dim: int
    delta: Mat  # C -> C (x) C
    eps: Mat    # C -> k, a 1 x dim matrix


def make_coalgebra(field: FieldSpec, dim: int, delta: Mat, eps: Mat
                   ) -> Coalgebra:
    """Validated coalgebra: DimensionMismatch for maps of other shapes or
    fields, else checked as its coring over k, with the coring's kinds
    and size guards."""
    if delta.rows != dim * dim or delta.cols != dim:
        raise DimensionMismatch("coproduct has wrong shape")
    if eps.rows != 1 or eps.cols != dim:
        raise DimensionMismatch("counit has wrong shape")
    if delta.field != field or eps.field != field:
        raise DimensionMismatch(f"expected maps over {field!r}")
    c = Coalgebra(field, dim, delta, eps)
    check_coring(coalgebra_to_coring(c))
    return c


def group_coalgebra(field: FieldSpec, n: int) -> Coalgebra:
    """Coalgebra with n group-like basis elements."""
    if n < 1:
        raise DimensionMismatch("need at least one group-like")
    f = field
    delta_cols = []
    for g in range(n):
        col = [f.zero] * (n * n)
        col[g * n + g] = f.one
        delta_cols.append(tuple(col))
    return Coalgebra(f, n, Mat.from_cols(f, delta_cols),
                     Mat(f, 1, n, ((f.one,) * n,)))


def coalgebra_to_coring(c: Coalgebra) -> Coring:
    """View a coalgebra as a coring over the one-dimensional base algebra."""
    k = base_algebra(c.field)
    ic = Mat.identity(c.field, c.dim)
    cbim = Bimodule(k, k, c.dim, ic, ic)
    return Coring(k, cbim, Coring(k, cbim, c.delta, c.eps).cc()
                  .canonical_lift(c.delta), c.eps)


# -- comatrix corings ------------------------------------------------


def _right_linear_basis(sigma: Bimodule) -> List[Mat]:
    """Canonical basis of Sigma* = Hom_A(Sigma, A) (right A-linear maps)."""
    a = sigma.algR
    return affine_solutions(
        a.field, (a.dim, sigma.dim),
        lambda x: x @ sigma.ract - a.mult_mat @ x.tensor_id(1, a.dim))[1]


def check_dual_basis(sigma: Bimodule, elements, functionals) -> None:
    """Verify that (e_i, e*_i) is a dual basis of the right A-module Sigma:
    ``elements`` are the coordinate tuples of the e_i in Sigma,
    ``functionals`` the matrices (A.dim x Sigma.dim) of the maps e*_i:
    Sigma -> A.  First e*_i(s.a) = e*_i(s) a, at the witness (s, a), then
    sum_i e_i . e*_i(s) = s, as ract @ sum_i (e_i (x) e*_i) = I, at the
    first basis s of Sigma where it fails."""
    a = sigma.algR
    f = a.field
    for g in functionals:
        _require(g @ sigma.ract, a.mult_mat @ g.tensor_id(1, a.dim),
                 "functional-not-right-linear", (sigma.dim, a.dim))
    pairing = Mat.zero(f, sigma.dim * a.dim, sigma.dim)
    for e_i, g in zip(elements, functionals):
        pairing = pairing + Mat.from_cols(f, [e_i]).kron(g)
    _require(sigma.ract @ pairing, Mat.identity(f, sigma.dim),
             "dual-basis-identity")


def comatrix_coring(sigma: Bimodule, elements, functionals) -> Coring:
    """Comatrix coring Sigma* (x)_B Sigma of a (B, A)-bimodule Sigma with
    the dual basis (``elements``, ``functionals``) of ``check_dual_basis``.

    Sigma is checked as a bimodule, then its dual basis.  Sigma* is then
    an (A, B)-bimodule, so a.g, g.b and the functionals lie in it, and
    their coordinates are their entries at its pivots.
    """
    b, a = sigma.algL, sigma.algR
    f = a.field
    check_bimodule(sigma)
    check_dual_basis(sigma, elements, functionals)
    star = _right_linear_basis(sigma)
    piv = pivots(star)
    ns = len(star)

    # (A, B)-bimodule structure on Sigma*: (a.g)(s) = a g(s), (g.b)(s) = g(b.s)
    ea, eb = Mat.identity(f, a.dim), Mat.identity(f, b.dim)
    lefts = [a.mult_mat @ Mat.from_cols(f, [x]).tensor_id(1, a.dim)
             for x in ea.entries]
    rights = [sigma.lact @ Mat.from_cols(f, [x]).tensor_id(1, sigma.dim)
              for x in eb.entries]
    lact_star = Mat.from_cols(f, [at_pivots(piv, li @ g)
                                  for li in lefts for g in star])
    ract_star = Mat.from_cols(f, [at_pivots(piv, g @ rj)
                                  for g in star for rj in rights])
    q = tensor_over(RightModule(b, ns, ract_star),
                    LeftModule(b, sigma.dim, sigma.lact))
    amb = ns * sigma.dim
    delta_amb = Mat.zero(f, amb * amb, amb)
    for e_i, g_i in zip(elements, functionals):
        term = Mat.from_cols(f, [e_i]).kron(
            Mat.from_cols(f, [at_pivots(piv, g_i)])).tensor_id(ns, sigma.dim)
        delta_amb = delta_amb + term
    eval_cols = [star[t].col(j) for t in range(ns) for j in range(sigma.dim)]
    return _quotient_coring("comatrix", q, a, lact_star, sigma.ract,
                            delta_amb, Mat.from_cols(f, eval_cols))


# -- entwining structures --------------------------------------------


def entwining_coring(a: Algebra, coalgebra: Coalgebra, psi: Mat) -> Coring:
    """The coring A (x) C of an entwining datum (A, C, psi), with psi:
    C (x) A -> A (x) C.

    Validity of psi is defined operationally: this fails iff the coring
    built on A (x) C fails a coring axiom, that is iff psi is not an
    entwining.
    """
    na, nc = a.dim, coalgebra.dim
    if psi.rows != na * nc or psi.cols != nc * na:
        raise DimensionMismatch("psi has wrong shape")
    lact = a.mult_mat.tensor_id(1, nc)
    ract = lact @ psi.tensor_id(na, 1)
    delta_lift = a.unit_col.tensor_id(na * nc, nc) @ \
        coalgebra.delta.tensor_id(na, 1)
    return make_coring(a, Bimodule(a, a, na * nc, lact, ract), delta_lift,
                       coalgebra.eps.tensor_id(na, 1))
