"""Named coring constructions: trivial, Sweedler, comatrix and entwining
corings, and coalgebras over the base field.  Each takes its defining data
as arguments: an entwining as A, C and psi, a dual basis as its elements
and functionals."""

from typing import List

from ._record import frozen
from ._search import affine_solutions, coords
from .errors import AxiomViolation, DimensionMismatch
from .exactla import FieldSpec, Mat, QuotientSpace, memoised
from .algmod import (Algebra, AlgebraMap, Bimodule, LeftModule, RightModule,
                     _require, make_algebra, regular_along, regular_bimodule)
from .coring import Coring, make_coring
from .tensorcat import descend_map, right_action_on_quotient, tensor_over


@memoised
def base_algebra(field: FieldSpec) -> Algebra:
    """The base field as a one-dimensional algebra."""
    one = Mat.identity(field, 1)
    return make_algebra(field, 1, one, one)


def trivial_coring(a: Algebra) -> Coring:
    """A as a coring over itself: Delta the inverse of A (x)_A A = A, eps = id."""
    delta_lift = a.unit_col.tensor_id(1, a.dim)  # x -> 1 (x) x
    return make_coring(a, regular_bimodule(a), delta_lift,
                       Mat.identity(a.field, a.dim))


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
    return make_coring(a, cbim, cc.section @ delta, eps)


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


def check_coalgebra(c: Coalgebra) -> None:
    n = c.dim
    ic = Mat.identity(c.field, n)
    if c.delta.rows != n * n or c.delta.cols != n:
        raise DimensionMismatch("coproduct has wrong shape")
    if c.eps.rows != 1 or c.eps.cols != n:
        raise DimensionMismatch("counit has wrong shape")
    _require(c.delta.tensor_id(1, n) @ c.delta,
             c.delta.tensor_id(n, 1) @ c.delta, "coassoc", (n,))
    # stacked, the two counit laws first differ at the lower of their witnesses
    _require((c.eps.tensor_id(1, n) @ c.delta).stack(
        c.eps.tensor_id(n, 1) @ c.delta), ic.stack(ic), "counit", (n,))


def make_coalgebra(field: FieldSpec, dim: int, delta: Mat, eps: Mat
                   ) -> Coalgebra:
    c = Coalgebra(field, dim, delta, eps)
    check_coalgebra(c)
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
    delta = Mat.from_cols(f, delta_cols)
    eps = Mat(f, 1, n, ((f.one,) * n,))
    return make_coalgebra(f, n, delta, eps)


def coalgebra_to_coring(c: Coalgebra) -> Coring:
    """View a coalgebra as a coring over the one-dimensional base algebra."""
    k = base_algebra(c.field)
    ic = Mat.identity(c.field, c.dim)
    return make_coring(k, Bimodule(k, k, c.dim, ic, ic), c.delta, c.eps)


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

    A map that should lie in Sigma* but is not right A-linear is rejected
    as ``not-in-sigma-star`` at its index: (i, t) for a_i . g_t and (t, j)
    for g_t . b_j, where g_t is the t-th basis element of Sigma*.
    """
    b, a = sigma.algL, sigma.algR
    f = a.field
    check_dual_basis(sigma, elements, functionals)
    star = _right_linear_basis(sigma)
    ns = len(star)

    def star_coords(g: Mat, *index) -> tuple:
        x = coords(star, g)
        if x is None:
            raise AxiomViolation("not-in-sigma-star", index)
        return x

    # (A, B)-bimodule structure on Sigma*: (a.g)(s) = a g(s), (g.b)(s) = g(b.s)
    ea, eb = Mat.identity(f, a.dim), Mat.identity(f, b.dim)
    lact_cols = []
    for i in range(a.dim):
        li = a.mult_mat @ Mat.from_cols(f, [ea.col(i)]).tensor_id(1, a.dim)
        for t in range(ns):
            lact_cols.append(star_coords(li @ star[t], i, t))
    lact_star = Mat.from_cols(f, lact_cols)
    ract_cols = []
    for t in range(ns):
        for j in range(b.dim):
            bj = sigma.lact @ Mat.from_cols(f, [eb.col(j)]).tensor_id(
                1, sigma.dim)
            ract_cols.append(star_coords(star[t] @ bj, t, j))
    ract_star = Mat.from_cols(f, ract_cols)

    q = tensor_over(RightModule(b, ns, ract_star),
                    LeftModule(b, sigma.dim, sigma.lact))
    amb = ns * sigma.dim
    delta_amb = Mat.zero(f, amb * amb, amb)
    for e_i, g_i in zip(elements, functionals):
        term = Mat.from_cols(f, [e_i]).kron(
            Mat.from_cols(f, [coords(star, g_i)])).tensor_id(ns, sigma.dim)
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
