"""Named coring constructions: trivial, Sweedler, comatrix and entwining
corings, coalgebras over the base field, and the twisted convolution
algebra of an entwining.
"""

from typing import List

from ._record import frozen
from ._search import affine_solutions, coords, enumerate_affine
from .errors import AxiomViolation, DimensionMismatch, DualBasisInvalid
from .exactla import FieldSpec, Mat, memoised
from .algmod import (Algebra, AlgebraMap, Bimodule, LeftModule, RightModule,
                     bimodule_from_actions, left_regular, make_algebra,
                     make_algebra_map, regular_bimodule, restrict_left,
                     restrict_right, right_regular)
from .coring import Coring, DualRing, dual_coords, dual_ring, make_coring
from .exactla import QuotientSpace
from .tensorcat import tensor_over
from .verdict import Verdict


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
    a = iota.target
    t = tensor_over(iota.source,
                    restrict_right(right_regular(a), iota),
                    restrict_left(left_regular(a), iota))
    return t.q


@memoised
def sweedler_coring(iota: AlgebraMap) -> Coring:
    """Canonical Sweedler coring A (x)_B A of an algebra map iota: B -> A."""
    a = iota.target
    n = a.dim
    q = sweedler_space(iota)
    lact = q.projection @ a.mult_mat.tensor_id(1, n) @ \
        q.section.tensor_id(n, 1)
    ract = q.projection @ a.mult_mat.tensor_id(n, 1) @ \
        q.section.tensor_id(1, n)
    cbim = bimodule_from_actions(a, a, q.quo_dim, lact, ract)
    u = a.unit_col
    insert = u.kron(u).tensor_id(n, n)  # x (x) y -> x (x) 1 (x) 1 (x) y
    delta_amb = q.projection.kron(q.projection) @ insert
    cc = tensor_over(a, cbim.right_module(), cbim.left_module())
    delta = q.descends(cc.proj @ delta_amb)
    if delta is None:
        raise AxiomViolation("sweedler-coproduct-not-balanced")
    eps = q.descends(a.mult_mat)
    if eps is None:
        raise AxiomViolation("sweedler-counit-not-balanced")
    return make_coring(a, cbim, cc.sect @ delta, eps)


# -- coalgebras ------------------------------------------------------


@frozen
class Coalgebra:
    """Coassociative counital coalgebra over the base field."""

    field: FieldSpec
    dim: int
    delta: Mat  # C -> C (x) C
    eps: Mat    # C -> k, a 1 x dim matrix


def check_coalgebra(c: Coalgebra) -> Verdict:
    n = c.dim
    ic = Mat.identity(c.field, n)
    if c.delta.rows != n * n or c.delta.cols != n:
        raise DimensionMismatch("coproduct has wrong shape")
    if c.eps.rows != 1 or c.eps.cols != n:
        raise DimensionMismatch("counit has wrong shape")
    if c.delta.tensor_id(1, n) @ c.delta != c.delta.tensor_id(n, 1) @ c.delta:
        return Verdict.reject("coassoc")
    if c.eps.tensor_id(1, n) @ c.delta != ic or \
            c.eps.tensor_id(n, 1) @ c.delta != ic:
        return Verdict.reject("counit")
    return Verdict.accept()


def make_coalgebra(field: FieldSpec, dim: int, delta: Mat, eps: Mat
                   ) -> Coalgebra:
    c = Coalgebra(field, dim, delta, eps)
    check_coalgebra(c).raise_if_failed()
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
    cbim = bimodule_from_actions(k, k, c.dim, ic, ic)
    return make_coring(k, cbim, c.delta, c.eps)


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


def _is_right_linear(sigma: Bimodule, g: Mat) -> bool:
    a = sigma.algR
    return g @ sigma.ract == a.mult_mat @ g.tensor_id(1, a.dim)


def check_dual_basis(sigma: Bimodule, db: DualBasis) -> Verdict:
    """Verify sum_i e_i . e*_i(s) = s on every basis s of Sigma."""
    f = sigma.algR.field
    for i, g in enumerate(db.functionals):
        if not _is_right_linear(sigma, g):
            return Verdict.reject("functional-not-right-linear", (i,))
    for s in range(sigma.dim):
        acc = (f.zero,) * sigma.dim
        basis_s = tuple(f.one if t == s else f.zero
                        for t in range(sigma.dim))
        for e_i, g in zip(db.elements, db.functionals):
            val = g.apply(basis_s)  # in A
            moved = sigma.ract.apply(
                tuple(f.mul(x, y) for x in e_i for y in val))
            acc = tuple(f.add(p, q) for p, q in zip(acc, moved))
        if acc != basis_s:
            return Verdict.reject("dual-basis-identity", (s,))
    return Verdict.accept()


def comatrix_coring(sigma: Bimodule, db: DualBasis) -> Coring:
    """Comatrix coring Sigma* (x)_B Sigma of a (B, A)-bimodule Sigma."""
    b, a = sigma.algL, sigma.algR
    f = a.field
    v = check_dual_basis(sigma, db)
    if not v:
        raise DualBasisInvalid(v.failure.witness)
    star = _right_linear_basis(sigma)
    ns = len(star)

    def star_coords(g: Mat) -> tuple:
        x = coords(star, g)
        if x is None:
            raise DualBasisInvalid(())
        return x

    # (A, B)-bimodule structure on Sigma*: (a.g)(s) = a g(s), (g.b)(s) = g(b.s)
    lact_cols = []
    for i in range(a.dim):
        li = a.mult_mat @ Mat.column(
            f, tuple(f.one if t == i else f.zero for t in range(a.dim))
        ).tensor_id(1, a.dim)
        for t in range(ns):
            lact_cols.append(star_coords(li @ star[t]))
    lact_star = Mat.from_cols(f, lact_cols)
    ract_cols = []
    for t in range(ns):
        for j in range(b.dim):
            bj = sigma.lact @ Mat.column(
                f, tuple(f.one if u == j else f.zero for u in range(b.dim))
            ).tensor_id(1, sigma.dim)
            ract_cols.append(star_coords(star[t] @ bj))
    ract_star = Mat.from_cols(f, ract_cols)

    q = tensor_over(b, RightModule(b, ns, ract_star),
                    LeftModule(b, sigma.dim, sigma.lact)).q
    lact = q.projection @ lact_star.tensor_id(1, sigma.dim) @ \
        q.section.tensor_id(a.dim, 1)
    ract = q.projection @ sigma.ract.tensor_id(ns, 1) @ \
        q.section.tensor_id(1, a.dim)
    cbim = bimodule_from_actions(a, a, q.quo_dim, lact, ract)

    amb = ns * sigma.dim
    delta_amb = Mat.zero(f, amb * amb, amb)
    for e_i, g_i in zip(db.elements, db.functionals):
        term = Mat.column(f, e_i).kron(
            Mat.column(f, star_coords(g_i))).tensor_id(ns, sigma.dim)
        delta_amb = delta_amb + term
    cc = tensor_over(a, cbim.right_module(), cbim.left_module())
    delta = q.descends(cc.proj @ q.projection.kron(q.projection) @ delta_amb)
    if delta is None:
        raise AxiomViolation("comatrix-coproduct-not-balanced")
    eval_cols = [star[t].col(j) for t in range(ns) for j in range(sigma.dim)]
    eps = q.descends(Mat.from_cols(f, eval_cols))
    if eps is None:
        raise AxiomViolation("comatrix-counit-not-balanced")
    return make_coring(a, cbim, cc.sect @ delta, eps)


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
    cbim = bimodule_from_actions(a, a, na * nc, lact, ract)
    delta_lift = a.unit_col.tensor_id(na * nc, nc) @ \
        c.delta.tensor_id(na, 1)
    eps = c.eps.tensor_id(na, 1)
    return make_coring(a, cbim, delta_lift, eps)


def flip_entwining(a: Algebra, c: Coalgebra) -> Entwining:
    """The trivial entwining c (x) a -> a (x) c."""
    f = a.field
    cols = []
    for j in range(c.dim):
        for i in range(a.dim):
            col = [f.zero] * (a.dim * c.dim)
            col[i * c.dim + j] = f.one
            cols.append(tuple(col))
    return Entwining(a, c, Mat.from_cols(f, cols))


@frozen
class TwistedConvolution:
    """Hom_k(C, A) with the psi-twisted product, plus its identification
    with the left dual ring of the entwining coring."""

    alg: Algebra
    dual: DualRing
    to_dual: AlgebraMap  # an isomorphism onto dual.alg


def _hom_basis(a: Algebra, c: Coalgebra) -> List[Mat]:
    f = a.field
    out = []
    for r in range(a.dim):
        for s in range(c.dim):
            out.append(Mat(f, a.dim, c.dim, tuple(
                tuple(f.one if (i, j) == (r, s) else f.zero
                      for j in range(c.dim)) for i in range(a.dim))))
    return out


def twisted_product(e: Entwining, f: Mat, g: Mat) -> Mat:
    """(f #_psi g)(c) = sum_alpha f(c_(2))_alpha g(c_(1)^alpha)."""
    a, c = e.A, e.C
    return a.mult_mat @ g.tensor_id(a.dim, 1) @ e.psi @ \
        f.tensor_id(c.dim, 1) @ c.delta


def twisted_convolution(e: Entwining) -> TwistedConvolution:
    """The psi-twisted convolution algebra, verified against *(A (x) C)."""
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
        raise AxiomViolation("dual-ring-dimension", (dr.dim, n))
    cols = []
    for bmat in basis:
        nu = a.mult_mat @ bmat.tensor_id(a.dim, 1)  # a (x) c -> a f(c)
        coords = dual_coords(dr, nu)
        if coords is None:
            raise AxiomViolation("hom-tensor-image-not-left-linear")
        cols.append(coords)
    iso = make_algebra_map(alg, dr.alg, Mat.from_cols(f, cols))
    from .exactla import rank
    if rank(iso.matrix) != n:
        raise AxiomViolation("twisted-convolution-iso-not-bijective")
    return TwistedConvolution(alg, dr, iso)


# -- entwined measurings (oracle side of Examples 2.4(4)) -------------


def enumerate_entwined_measurings(e: Entwining, b: Algebra,
                                  max_enum=None) -> List[Mat]:
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
    return enumerate_affine(f, shape, unit_residual, is_measuring, max_enum)
