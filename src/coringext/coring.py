"""Corings, comodules, colinear maps, bicomodules and the left dual ring.

Coproducts and coactions are stored as canonical lifts into the k-tensor
ambient space; equality of composites is always tested after projecting
into the relevant balanced quotient, so no section-dependent choice of
representatives ever leaks into a verdict.
"""

from typing import List, Optional

from ._record import frozen
from ._search import _combine, affine_solutions, coords
from .errors import AxiomViolation, DimensionMismatch
from .exactla import Mat, QuotientSpace, kernel, memoised
from .algmod import (Algebra, Bimodule, LeftModule, RightModule, _first_diff,
                     check_bimodule, make_algebra)
from .tensorcat import (TensorOverAlg, balanced_quotient,
                        left_action_on_quotient, right_action_on_quotient,
                        tensor_over)
from .verdict import Verdict


@frozen
class Coring:
    """A-coring: (A,A)-bimodule C with coproduct lift and counit.

    ``delta_lift`` maps C into C (x)_k C; its projection into C (x)_A C is
    the coproduct.  ``eps`` maps C into A.
    """

    A: Algebra
    C: Bimodule
    delta_lift: Mat
    eps: Mat

    @property
    def dim(self) -> int:
        return self.C.dim

    def cc(self) -> TensorOverAlg:
        """C (x)_A C."""
        return tensor_over(self.A, self.C.right_module(),
                           self.C.left_module())

    def ccc(self) -> QuotientSpace:
        """Single-step quotient presenting C (x)_A C (x)_A C."""
        return _triple(self.A, self.C)

    def delta(self) -> Mat:
        """The coproduct C -> C (x)_A C in quotient coordinates."""
        return self.cc().proj @ self.delta_lift


@memoised
def _triple(alg: Algebra, c: Bimodule) -> QuotientSpace:
    return balanced_quotient(
        alg.field, (c.dim, c.dim, c.dim),
        {0: (c.ract, c.lact, alg), 1: (c.ract, c.lact, alg)})


@memoised
def _mcc(alg: Algebra, m: RightModule, c: Bimodule) -> QuotientSpace:
    return balanced_quotient(
        alg.field, (m.dim, c.dim, c.dim),
        {0: (m.act, c.lact, alg), 1: (c.ract, c.lact, alg)})


def check_coring(c: Coring) -> Verdict:
    a = c.A
    na, nc = a.dim, c.dim
    ic = Mat.identity(a.field, nc)
    bim = check_bimodule(c.C)
    if not bim:
        return bim
    if c.delta_lift.rows != c.dim * c.dim or c.delta_lift.cols != c.dim:
        raise DimensionMismatch("coproduct lift has wrong shape")
    if c.eps.rows != a.dim or c.eps.cols != c.dim:
        raise DimensionMismatch("counit has wrong shape")
    # counit is an (A,A)-bimodule map
    w = _first_diff(c.eps @ c.C.lact, a.mult_mat @ c.eps.tensor_id(na, 1))
    if w is None:
        w = _first_diff(c.eps @ c.C.ract,
                        a.mult_mat @ c.eps.tensor_id(1, na))
    if w is not None:
        return Verdict.reject("bilinearity", w)
    # coproduct is an (A,A)-bimodule map (tested after projection)
    proj = c.cc().proj
    w = _first_diff(proj @ c.delta_lift @ c.C.lact,
                    proj @ c.C.lact.tensor_id(1, nc) @
                    c.delta_lift.tensor_id(na, 1))
    if w is None:
        w = _first_diff(proj @ c.delta_lift @ c.C.ract,
                        proj @ c.C.ract.tensor_id(nc, 1) @
                        c.delta_lift.tensor_id(1, na))
    if w is not None:
        return Verdict.reject("bilinearity", w)
    # coassociativity in the single-step triple quotient
    p3 = c.ccc().projection
    w = _first_diff(p3 @ c.delta_lift.tensor_id(1, nc) @ c.delta_lift,
                    p3 @ c.delta_lift.tensor_id(nc, 1) @ c.delta_lift)
    if w is not None:
        return Verdict.reject("coassoc", w)
    # counit laws
    w = _first_diff(c.C.lact @ c.eps.tensor_id(1, nc) @ c.delta_lift, ic)
    if w is not None:
        return Verdict.reject("counit-left", w)
    w = _first_diff(c.C.ract @ c.eps.tensor_id(nc, 1) @ c.delta_lift, ic)
    if w is not None:
        return Verdict.reject("counit-right", w)
    return Verdict.accept()


def make_coring(a: Algebra, c: Bimodule, delta_lift: Mat, eps: Mat) -> Coring:
    """Validated coring; the coproduct lift is canonicalized on the way in."""
    if c.algL != a or c.algR != a:
        raise DimensionMismatch("underlying bimodule is not over the algebra")
    cc = tensor_over(a, c.right_module(), c.left_module())
    cor = Coring(a, c, cc.q.canonical_lift(delta_lift), eps)
    check_coring(cor).raise_if_failed()
    return cor


# -- comodules -------------------------------------------------------


@frozen
class Comodule:
    """Right comodule: right A-module M with coaction lift M -> M (x)_k C."""

    coring: Coring
    M: RightModule
    rho_lift: Mat

    @property
    def dim(self) -> int:
        return self.M.dim

    def mc(self) -> TensorOverAlg:
        return tensor_over(self.coring.A, self.M,
                           self.coring.C.left_module())

    def rho(self) -> Mat:
        return self.mc().proj @ self.rho_lift


def check_comodule(m: Comodule) -> Verdict:
    c = m.coring
    im = Mat.identity(c.A.field, m.dim)
    from .algmod import check_right_module
    v = check_right_module(m.M)
    if not v:
        return v
    if m.rho_lift.rows != m.dim * c.dim or m.rho_lift.cols != m.dim:
        raise DimensionMismatch("coaction lift has wrong shape")
    proj = m.mc().proj
    w = _first_diff(proj @ m.rho_lift @ m.M.act,
                    proj @ c.C.ract.tensor_id(m.dim, 1) @
                    m.rho_lift.tensor_id(1, c.A.dim))
    if w is not None:
        return Verdict.reject("A-linearity", w)
    p3 = _mcc(c.A, m.M, c.C).projection
    w = _first_diff(p3 @ m.rho_lift.tensor_id(1, c.dim) @ m.rho_lift,
                    p3 @ c.delta_lift.tensor_id(m.dim, 1) @ m.rho_lift)
    if w is not None:
        return Verdict.reject("coassoc", w)
    w = _first_diff(m.M.act @ c.eps.tensor_id(m.dim, 1) @ m.rho_lift, im)
    if w is not None:
        return Verdict.reject("counit", w)
    return Verdict.accept()


def make_comodule(c: Coring, m: RightModule, rho_lift: Mat) -> Comodule:
    mc = tensor_over(c.A, m, c.C.left_module())
    com = Comodule(c, m, mc.q.canonical_lift(rho_lift))
    check_comodule(com).raise_if_failed()
    return com


def regular_comodule(c: Coring) -> Comodule:
    """(C, Delta) as a right comodule over itself."""
    return make_comodule(c, c.C.right_module(), c.delta_lift)


def direct_sum_comodule(m: Comodule, n: Comodule) -> Comodule:
    """Block-diagonal direct sum of two comodules over the same coring."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    f = m.coring.A.field
    a = m.coring.A
    dm, dn = m.dim, n.dim
    inc1 = Mat(f, dm + dn, dm, tuple(
        tuple(f.one if i == j else f.zero for j in range(dm))
        for i in range(dm + dn)))
    inc2 = Mat(f, dm + dn, dn, tuple(
        tuple(f.one if i == dm + j else f.zero for j in range(dn))
        for i in range(dm + dn)))
    pr1, pr2 = inc1.transpose(), inc2.transpose()
    na, nc = a.dim, m.coring.dim
    act = inc1 @ m.M.act @ pr1.tensor_id(1, na) + \
        inc2 @ n.M.act @ pr2.tensor_id(1, na)
    rho = inc1.tensor_id(1, nc) @ m.rho_lift @ pr1 + \
        inc2.tensor_id(1, nc) @ n.rho_lift @ pr2
    return make_comodule(m.coring, RightModule(a, dm + dn, act), rho)


def cofree_comodule(c: Coring, x: RightModule) -> Comodule:
    """X (x)_A C with coaction X (x)_A Delta, for a right A-module X."""
    xc = tensor_over(c.A, x, c.C.left_module())
    act = right_action_on_quotient(xc, c.C.ract, c.A)
    rho_lift = xc.proj.tensor_id(1, c.dim) @ \
        c.delta_lift.tensor_id(x.dim, 1) @ xc.sect
    return make_comodule(c, RightModule(c.A, xc.dim, act), rho_lift)


def check_colinear(f: Mat, m: Comodule, n: Comodule) -> Verdict:
    """Accept iff f is right A-linear and rho^N f = (f (x)_A C) rho^M."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    c = m.coring
    if f.rows != n.dim or f.cols != m.dim:
        raise DimensionMismatch("map has wrong shape")
    w = _first_diff(f @ m.M.act, n.M.act @ f.tensor_id(1, c.A.dim))
    if w is not None:
        return Verdict.reject("not-A-linear", w)
    proj = n.mc().proj
    w = _first_diff(proj @ n.rho_lift @ f,
                    proj @ f.tensor_id(1, c.dim) @ m.rho_lift)
    if w is not None:
        return Verdict.reject("not-colinear", w)
    return Verdict.accept()


# -- left comodules --------------------------------------------------


@frozen
class LeftComodule:
    """Left comodule: left A-module N with coaction lift N -> C (x)_k N."""

    coring: Coring
    N: LeftModule
    lambda_lift: Mat

    @property
    def dim(self) -> int:
        return self.N.dim

    def cn(self) -> TensorOverAlg:
        return tensor_over(self.coring.A, self.coring.C.right_module(),
                           self.N)


def check_left_comodule(n: LeftComodule) -> Verdict:
    c = n.coring
    f = c.A.field
    im = Mat.identity(f, n.dim)
    from .algmod import check_left_module
    v = check_left_module(n.N)
    if not v:
        return v
    proj = n.cn().proj
    w = _first_diff(proj @ n.lambda_lift @ n.N.act,
                    proj @ c.C.lact.tensor_id(1, n.dim) @
                    n.lambda_lift.tensor_id(c.A.dim, 1))
    if w is not None:
        return Verdict.reject("A-linearity", w)
    p3 = balanced_quotient(
        f, (c.dim, c.dim, n.dim),
        {0: (c.C.ract, c.C.lact, c.A), 1: (c.C.ract, n.N.act, c.A)})
    w = _first_diff(
        p3.projection @ c.delta_lift.tensor_id(1, n.dim) @ n.lambda_lift,
        p3.projection @ n.lambda_lift.tensor_id(c.dim, 1) @ n.lambda_lift)
    if w is not None:
        return Verdict.reject("coassoc", w)
    w = _first_diff(n.N.act @ c.eps.tensor_id(1, n.dim) @ n.lambda_lift, im)
    if w is not None:
        return Verdict.reject("counit", w)
    return Verdict.accept()


def make_left_comodule(c: Coring, n: LeftModule, lambda_lift: Mat
                       ) -> LeftComodule:
    cn = tensor_over(c.A, c.C.right_module(), n)
    com = LeftComodule(c, n, cn.q.canonical_lift(lambda_lift))
    check_left_comodule(com).raise_if_failed()
    return com


def regular_left_comodule(c: Coring) -> LeftComodule:
    return make_left_comodule(c, c.C.left_module(), c.delta_lift)


def cotensor_basis(m: Comodule, n: LeftComodule) -> Mat:
    """Canonical basis of M box_C N inside M (x)_A N (rows, echelonized)."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    c = m.coring
    f = c.A.field
    mn = tensor_over(c.A, m.M, n.N)
    single = balanced_quotient(
        f, (m.dim, c.dim, n.dim),
        {0: (m.M.act, c.C.lact, c.A), 1: (c.C.ract, n.N.act, c.A)})
    lhs = single.projection @ m.rho_lift.tensor_id(1, n.dim) @ mn.sect
    rhs = single.projection @ n.lambda_lift.tensor_id(m.dim, 1) @ mn.sect
    return kernel(lhs - rhs)


# -- bicomodules -----------------------------------------------------


def check_bicomodule(c: Coring, d: Coring, m: Bimodule,
                     lambda_lift: Mat, sigma_lift: Mat) -> Verdict:
    """Accept iff the left C-coaction and right D-coaction commute.

    The compatibility (lambda (x)_B D) sigma = (C (x)_A sigma) lambda is
    checked through each iterated quotient in turn: first (C (x)_A M)
    (x)_B D, as C-colinearity of the D-coaction, then C (x)_A (M (x)_B D),
    as D-colinearity of the C-coaction.  The first route that finds a
    difference rejects, and the second is not reached.
    """
    a, b = c.A, d.A
    if m.algL != a or m.algR != b:
        raise DimensionMismatch("bimodule is not an (A,B)-bimodule")
    v = check_left_comodule(LeftComodule(c, m.left_module(), lambda_lift))
    if not v:
        return v
    v = check_comodule(Comodule(d, m.right_module(), sigma_lift))
    if not v:
        return v
    lhs = lambda_lift.tensor_id(1, d.dim) @ sigma_lift
    rhs = sigma_lift.tensor_id(c.dim, 1) @ lambda_lift
    # route 1: (C (x)_A M) (x)_B D
    cm = tensor_over(a, c.C.right_module(), m.left_module())
    cm_right = RightModule(b, cm.dim,
                           right_action_on_quotient(cm, m.ract, b))
    it1 = tensor_over(b, cm_right, d.C.left_module()).q
    p1 = it1.projection @ cm.proj.tensor_id(1, d.dim)
    w = _first_diff(p1 @ lhs, p1 @ rhs)
    if w is not None:
        return Verdict.reject("not-bicomodule", w)
    # route 2: C (x)_A (M (x)_B D)
    md = tensor_over(b, m.right_module(), d.C.left_module())
    md_left = LeftModule(a, md.dim,
                         left_action_on_quotient(md, m.lact, a))
    it2 = tensor_over(a, c.C.right_module(), md_left).q
    p2 = it2.projection @ md.proj.tensor_id(c.dim, 1)
    w = _first_diff(p2 @ lhs, p2 @ rhs)
    if w is not None:
        return Verdict.reject("not-bicomodule", w)
    return Verdict.accept()


# -- dual ring -------------------------------------------------------


@frozen
class DualRing:
    """Left dual ring *C: left A-linear maps C -> A with convolution-type product.

    ``basis`` is the canonical basis of Hom_{A-}(C, A): flattened row-major,
    its matrices are in reduced echelon form with lowest-index pivots.
    ``dual_coords`` relies on this to read coordinates off the pivots.
    """

    coring: Coring
    basis: tuple  # of Mat (A.dim x C.dim)
    alg: Algebra

    @property
    def dim(self) -> int:
        return self.alg.dim


def _star_factor(c: Coring, f: Mat) -> Mat:
    """The map x -> x_(1) f(x_(2)) on C, so that f * g = g @ it."""
    return c.C.ract @ f.tensor_id(c.dim, 1) @ c.delta_lift


def star_product(c: Coring, f: Mat, g: Mat) -> Mat:
    """(f * g)(x) = sum g(x_(1) f(x_(2))), computed through the lift."""
    return g @ _star_factor(c, f)


def _left_linear_basis(c: Coring) -> List[Mat]:
    """Canonical basis of Hom_{A-}(C, A) as the null space of linearity."""
    a = c.A
    return affine_solutions(
        a.field, (a.dim, c.dim),
        lambda x: x @ c.C.lact - a.mult_mat @ x.tensor_id(a.dim, 1))[1]


def dual_coords(dr: DualRing, f: Mat) -> Optional[tuple]:
    """Coordinates of a left A-linear map in the dual ring basis."""
    return coords(dr.basis, f)


def dual_element(dr: DualRing, coeffs) -> Mat:
    """The left A-linear map with coordinates ``coeffs`` in the basis."""
    c = dr.coring
    return _combine(Mat.zero(c.A.field, c.A.dim, c.dim), coeffs, dr.basis)


@memoised
def dual_ring(c: Coring) -> DualRing:
    """The left dual ring *C = Hom_{A-}(C, A) as a validated algebra."""
    basis = _left_linear_basis(c)
    n = len(basis)
    mult = []
    for i in range(n):
        factor = _star_factor(c, basis[i])
        row = []
        for j in range(n):
            x = coords(basis, basis[j] @ factor)
            if x is None:
                raise AxiomViolation("dual-product-not-linear", (i, j))
            row.append(x)
        mult.append(tuple(row))
    unit = coords(basis, c.eps)
    if unit is None:
        raise AxiomViolation("counit-not-left-linear", ())
    alg = make_algebra(c.A.field, n, tuple(mult), unit)
    return DualRing(c, tuple(basis), alg)
