"""Named coring constructions: trivial, Sweedler, comatrix and entwining
corings, coalgebras over the base field, and the twisted convolution
algebra of an entwining.
"""

from typing import List

from ._record import frozen
from ._search import affine_solutions, coords, enumerate_affine
from .errors import AxiomViolation, DimensionMismatch
from .exactla import FieldSpec, Mat, QuotientSpace, memoised, rref
from .algmod import (Algebra, AlgebraMap, Bimodule, LeftModule, RightModule,
                     _require, make_algebra, make_algebra_map,
                     regular_along, regular_bimodule)
from .coring import Coring, DualRing, dual_coords, dual_ring, make_coring
from .tensorcat import descend_map, right_action_on_quotient, tensor_over


@memoised
def base_algebra(field: FieldSpec) -> Algebra:
    """The base field as a one-dimensional algebra."""
    return make_algebra(field, 1, (((field.one,),),), (field.one,))


def trivial_coring(a: Algebra) -> Coring:
    """A as a coring over itself: Delta the inverse of A (x)_A A = A, eps = id."""
    delta_lift = a.unit_col.tensor_id(1, a.dim)  # x -> 1 (x) x
    return make_coring(a, regular_bimodule(a), delta_lift,
                       Mat.identity(a.field, a.dim))


@memoised
def sweedler_space(iota: AlgebraMap) -> QuotientSpace:
    """The quotient A (x)_B A underlying the Sweedler coring of iota."""
    a_bb = regular_along(iota)
    return tensor_over(iota.source, a_bb.right_module(), a_bb.left_module())


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
    cc = tensor_over(a, cbim.right_module(), cbim.left_module())
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


@frozen
class DualBasis:
    """Dual basis certificate for a right A-module Sigma.

    ``elements`` are coordinates of e_i in Sigma, ``functionals`` the
    matrices of the right A-linear maps e*_i: Sigma -> A.
    """

    elements: tuple     # of coordinate tuples
    functionals: tuple  # of Mat (A.dim x Sigma.dim)


def _right_linear_basis(sigma: Bimodule) -> List[Mat]:
    """Canonical basis of Sigma* = Hom_A(Sigma, A) (right A-linear maps)."""
    a = sigma.algR
    return affine_solutions(
        a.field, (a.dim, sigma.dim),
        lambda x: x @ sigma.ract - a.mult_mat @ x.tensor_id(1, a.dim))[1]


def check_dual_basis(sigma: Bimodule, db: DualBasis) -> None:
    """Verify e*_i(s.a) = e*_i(s) a, at the witness (s, a), then sum_i e_i .
    e*_i(s) = s, as ract @ sum_i (e_i (x) e*_i) = I, at the first basis s
    of Sigma where it fails."""
    a = sigma.algR
    f = a.field
    for g in db.functionals:
        _require(g @ sigma.ract, a.mult_mat @ g.tensor_id(1, a.dim),
                 "functional-not-right-linear", (sigma.dim, a.dim))
    pairing = Mat.zero(f, sigma.dim * a.dim, sigma.dim)
    for e_i, g in zip(db.elements, db.functionals):
        pairing = pairing + Mat.column(f, e_i).kron(g)
    _require(sigma.ract @ pairing, Mat.identity(f, sigma.dim),
             "dual-basis-identity")


def comatrix_coring(sigma: Bimodule, db: DualBasis) -> Coring:
    """Comatrix coring Sigma* (x)_B Sigma of a (B, A)-bimodule Sigma.

    A map that should lie in Sigma* but is not right A-linear is rejected
    as ``not-in-sigma-star`` at its index: (i, t) for a_i . g_t and (t, j)
    for g_t . b_j, where g_t is the t-th basis element of Sigma*.
    """
    b, a = sigma.algL, sigma.algR
    f = a.field
    check_dual_basis(sigma, db)
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
        li = a.mult_mat @ Mat.column(f, ea.col(i)).tensor_id(1, a.dim)
        for t in range(ns):
            lact_cols.append(star_coords(li @ star[t], i, t))
    lact_star = Mat.from_cols(f, lact_cols)
    ract_cols = []
    for t in range(ns):
        for j in range(b.dim):
            bj = sigma.lact @ Mat.column(f, eb.col(j)).tensor_id(1, sigma.dim)
            ract_cols.append(star_coords(star[t] @ bj, t, j))
    ract_star = Mat.from_cols(f, ract_cols)

    q = tensor_over(b, RightModule(b, ns, ract_star),
                    LeftModule(b, sigma.dim, sigma.lact))
    amb = ns * sigma.dim
    delta_amb = Mat.zero(f, amb * amb, amb)
    for i, (e_i, g_i) in enumerate(zip(db.elements, db.functionals)):
        term = Mat.column(f, e_i).kron(
            Mat.column(f, coords(star, g_i))).tensor_id(ns, sigma.dim)
        delta_amb = delta_amb + term
    eval_cols = [star[t].col(j) for t in range(ns) for j in range(sigma.dim)]
    return _quotient_coring("comatrix", q, a, lact_star, sigma.ract,
                            delta_amb, Mat.from_cols(f, eval_cols))


# -- entwining structures --------------------------------------------


@frozen
class Entwining:
    """Entwining datum (A, C, psi) with psi: C (x) A -> A (x) C.

    Validity of psi is defined operationally: the coring built on A (x) C
    must pass all coring axioms.
    """

    A: Algebra
    C: Coalgebra
    psi: Mat


def entwining_coring(e: Entwining) -> Coring:
    """The coring A (x) C of an entwining; fails iff psi is not an entwining."""
    a, c = e.A, e.C
    f = a.field
    if e.psi.rows != a.dim * c.dim or e.psi.cols != c.dim * a.dim:
        raise DimensionMismatch("psi has wrong shape")
    na, nc = a.dim, c.dim
    lact = a.mult_mat.tensor_id(1, nc)
    ract = lact @ e.psi.tensor_id(na, 1)
    delta_lift = a.unit_col.tensor_id(na * nc, nc) @ \
        c.delta.tensor_id(na, 1)
    eps = c.eps.tensor_id(na, 1)
    return make_coring(a, Bimodule(a, a, na * nc, lact, ract), delta_lift,
                       eps)


def flip_entwining(a: Algebra, c: Coalgebra) -> Entwining:
    """The trivial entwining c (x) a -> a (x) c."""
    return Entwining(a, c, Mat.swap(a.field, c.dim, a.dim))


@frozen
class TwistedConvolution:
    """Hom_k(C, A) with the psi-twisted product, plus its identification
    with the left dual ring of the entwining coring."""

    alg: Algebra
    dual: DualRing
    to_dual: AlgebraMap  # an isomorphism onto dual.alg


def _hom_basis(a: Algebra, c: Coalgebra) -> List[Mat]:
    """The matrix units E_rs, in row-major order of (r, s)."""
    f = a.field
    return [Mat.from_sparse_rows(f, a.dim, c.dim, [
        {s: f.one} if i == r else {} for i in range(a.dim)])
        for r in range(a.dim) for s in range(c.dim)]


def twisted_product(e: Entwining, f: Mat, g: Mat) -> Mat:
    """(f #_psi g)(c) = sum_alpha f(c_(2))_alpha g(c_(1)^alpha)."""
    a, c = e.A, e.C
    return a.mult_mat @ g.tensor_id(a.dim, 1) @ e.psi @ \
        f.tensor_id(c.dim, 1) @ c.delta


def twisted_convolution(e: Entwining) -> TwistedConvolution:
    """The psi-twisted convolution algebra, verified against *(A (x) C).

    A witness (k,) names the k-th basis element of Hom_k(C, A), the matrix
    unit E_rs with k = r * C.dim + s: the first whose image in *(A (x) C)
    is not left A-linear, or lies in the span of the images before it."""
    a, c = e.A, e.C
    f = a.field
    basis = _hom_basis(a, c)
    n = len(basis)
    mult = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = twisted_product(e, basis[i], basis[j])
            row.append(tuple(x for rr in prod.entries for x in rr))
        mult.append(tuple(row))
    unitmap = a.unit_col @ c.eps
    unit = tuple(x for rr in unitmap.entries for x in rr)
    alg = make_algebra(f, n, tuple(mult), unit)
    dr = dual_ring(entwining_coring(e))
    if dr.dim != n:
        raise DimensionMismatch(f"dual ring has dimension {dr.dim}, not {n}")
    cols = []
    for k, bmat in enumerate(basis):
        nu = a.mult_mat @ bmat.tensor_id(a.dim, 1)  # a (x) c -> a f(c)
        coords = dual_coords(dr, nu)
        if coords is None:
            raise AxiomViolation("hom-tensor-image-not-left-linear", (k,))
        cols.append(coords)
    iso = make_algebra_map(alg, dr.alg, Mat.from_cols(f, cols))
    pivots = rref(iso.matrix)[1]
    if len(pivots) != n:
        # the first non-pivot column depends on the columns before it
        raise AxiomViolation("twisted-convolution-iso-not-bijective",
                             (min(set(range(n)) - set(pivots)),))
    return TwistedConvolution(alg, dr, iso)


# -- entwined measurings (oracle side of Examples 2.4(4)) -------------


def enumerate_entwined_measurings(e: Entwining, b: Algebra) -> List[Mat]:
    """All k-linear f: C (x) B -> A satisfying the entwined measuring
    diagrams, enumerated by brute force over the unit-constraint affine
    space and returned in canonical order."""
    a, c = e.A, e.C
    f = a.field
    na, nb, nc = a.dim, b.dim, c.dim
    target_unit = a.unit_col @ c.eps
    unit_b = b.unit_col.tensor_id(nc, 1)
    mult_b = b.mult_mat.tensor_id(nc, 1)
    psi_b = e.psi.tensor_id(1, nb)
    delta_bb = c.delta.tensor_id(1, nb * nb)

    def unit_residual(m: Mat) -> Mat:
        return m @ unit_b - target_unit

    def is_measuring(m: Mat) -> bool:
        lhs = m @ mult_b
        rhs = a.mult_mat @ m.tensor_id(na, 1) @ psi_b @ \
            m.tensor_id(nc, nb) @ delta_bb
        return lhs == rhs

    shape = (a.dim, c.dim * b.dim)
    return enumerate_affine(f, shape, unit_residual, is_measuring)
