"""Corings, comodules, colinear maps, bicomodules and the left dual ring.

Coproducts and coactions are stored as canonical lifts into the k-tensor
ambient space; equality of composites is always tested after projecting
into the relevant balanced quotient, so no section-dependent choice of
representatives ever leaks into a verdict.

A ``make_*`` checks the record with the lift it is given, then stores the
canonical lift.  Each comparison projects the lift, or composes it with a
map that vanishes on the balancing relations once the checks before it
pass; so every lift of one coaction gives the same verdict and witness.
"""

from typing import List

from ._record import frozen
from ._search import affine_solutions, at_pivots, pivots
from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, kernel, memoised
from .algmod import (Algebra, Bimodule, LeftModule, RightModule, _require,
                     check_bimodule, check_left_module, check_right_module)
from .tensorcat import right_action_on_quotient, tensor_chain, tensor_over


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

    def cc(self) -> QuotientSpace:
        """C (x)_A C, the home of the coproduct."""
        return tensor_over(self.C.right_module(), self.C.left_module())


@memoised
def _triple(c: Bimodule) -> Mat:
    """Projection of C (x) C (x) C onto (C (x)_A C) (x)_A C."""
    return tensor_chain(c.right_module(), (c,), c.left_module())


@memoised
def _mcc(m: RightModule, c: Bimodule) -> Mat:
    """Projection onto (M (x)_A C) (x)_A C."""
    return tensor_chain(m, (c,), c.left_module())


@memoised
def _ccn(c: Bimodule, n: LeftModule) -> Mat:
    """Projection onto (C (x)_A C) (x)_A N."""
    return tensor_chain(c.right_module(), (c,), n)


def check_coring(c: Coring) -> None:
    a = c.A
    na, nc = a.dim, c.dim
    ic = Mat.identity(a.field, nc)
    check_bimodule(c.C)
    if c.delta_lift.rows != c.dim * c.dim or c.delta_lift.cols != c.dim:
        raise DimensionMismatch("coproduct lift has wrong shape")
    if c.eps.rows != a.dim or c.eps.cols != c.dim:
        raise DimensionMismatch("counit has wrong shape")
    proj = c.cc().projection  # the size guard of C (x)_A C
    # counit is an (A,A)-bimodule map
    _require(c.eps @ c.C.lact, a.mult_mat @ c.eps.tensor_id(na, 1),
             "bilinearity", (na, nc))
    _require(c.eps @ c.C.ract, a.mult_mat @ c.eps.tensor_id(1, na),
             "bilinearity", (nc, na))
    # coproduct is an (A,A)-bimodule map (tested after projection)
    _require(proj @ c.delta_lift @ c.C.lact,
             proj @ c.C.lact.tensor_id(1, nc) @ c.delta_lift.tensor_id(na, 1),
             "bilinearity", (na, nc))
    _require(proj @ c.delta_lift @ c.C.ract,
             proj @ c.C.ract.tensor_id(nc, 1) @ c.delta_lift.tensor_id(1, na),
             "bilinearity", (nc, na))
    # coassociativity in (C (x)_A C) (x)_A C
    p3 = _triple(c.C)
    _require(p3 @ c.delta_lift.tensor_id(1, nc) @ c.delta_lift,
             p3 @ c.delta_lift.tensor_id(nc, 1) @ c.delta_lift, "coassoc")
    # counit laws
    _require(c.C.lact @ c.eps.tensor_id(1, nc) @ c.delta_lift, ic,
             "counit-left")
    _require(c.C.ract @ c.eps.tensor_id(nc, 1) @ c.delta_lift, ic,
             "counit-right")


def make_coring(a: Algebra, c: Bimodule, delta_lift: Mat, eps: Mat) -> Coring:
    """Validated coring, stored with the canonical lift of its coproduct."""
    if c.algL != a or c.algR != a:
        raise DimensionMismatch("underlying bimodule is not over the algebra")
    cor = Coring(a, c, delta_lift, eps)
    check_coring(cor)
    return Coring(a, c, cor.cc().canonical_lift(delta_lift), eps)


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

    def mc(self) -> QuotientSpace:
        """M (x)_A C, the home of the coaction."""
        return tensor_over(self.M, self.coring.C.left_module())


def check_comodule(m: Comodule) -> None:
    check_right_module(m.M)
    _check_coaction(m)


def _check_coaction(m: Comodule) -> None:
    """``check_comodule`` once M is a right A-module."""
    c = m.coring
    im = Mat.identity(c.A.field, m.dim)
    if m.rho_lift.rows != m.dim * c.dim or m.rho_lift.cols != m.dim:
        raise DimensionMismatch("coaction lift has wrong shape")
    proj = m.mc().projection
    _require(proj @ m.rho_lift @ m.M.act,
             proj @ c.C.ract.tensor_id(m.dim, 1) @
             m.rho_lift.tensor_id(1, c.A.dim), "A-linearity",
             (m.dim, c.A.dim))
    p3 = _mcc(m.M, c.C)
    _require(p3 @ m.rho_lift.tensor_id(1, c.dim) @ m.rho_lift,
             p3 @ c.delta_lift.tensor_id(m.dim, 1) @ m.rho_lift, "coassoc")
    _require(m.M.act @ c.eps.tensor_id(m.dim, 1) @ m.rho_lift, im, "counit")


def make_comodule(c: Coring, m: RightModule, rho_lift: Mat) -> Comodule:
    com = Comodule(c, m, rho_lift)
    check_comodule(com)
    return Comodule(c, m, com.mc().canonical_lift(rho_lift))


def regular_comodule(c: Coring) -> Comodule:
    """(C, Delta) as a right comodule over itself."""
    return make_comodule(c, c.C.right_module(), c.delta_lift)


def direct_sum_comodule(m: Comodule, n: Comodule) -> Comodule:
    """Block-diagonal direct sum of two comodules over the same coring."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    a = m.coring.A
    f, dm, dn = a.field, m.dim, n.dim
    inc1 = Mat.identity(f, dm).stack(Mat.zero(f, dn, dm))
    inc2 = Mat.zero(f, dm, dn).stack(Mat.identity(f, dn))
    pr1, pr2 = inc1.transpose(), inc2.transpose()
    na, nc = a.dim, m.coring.dim
    act = inc1 @ m.M.act @ pr1.tensor_id(1, na) + \
        inc2 @ n.M.act @ pr2.tensor_id(1, na)
    rho = inc1.tensor_id(1, nc) @ m.rho_lift @ pr1 + \
        inc2.tensor_id(1, nc) @ n.rho_lift @ pr2
    return make_comodule(m.coring, RightModule(a, dm + dn, act), rho)


def cofree_comodule(c: Coring, x: RightModule) -> Comodule:
    """X (x)_A C with coaction X (x)_A Delta, for a right A-module X."""
    xc = tensor_over(x, c.C.left_module())
    act = right_action_on_quotient(xc, x.dim, c.C.ract, c.A)
    rho_lift = xc.projection.tensor_id(1, c.dim) @ \
        c.delta_lift.tensor_id(x.dim, 1) @ xc.section
    return make_comodule(c, RightModule(c.A, xc.quo_dim, act), rho_lift)


@frozen
class ColinearMap:
    """A right C-colinear map between two comodules over C."""

    source: Comodule
    target: Comodule
    matrix: Mat


def check_colinear(f: Mat, m: Comodule, n: Comodule) -> None:
    """Pass iff f is right A-linear and rho^N f = (f (x)_A C) rho^M."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    c = m.coring
    if f.rows != n.dim or f.cols != m.dim:
        raise DimensionMismatch("map has wrong shape")
    _require(f @ m.M.act, n.M.act @ f.tensor_id(1, c.A.dim), "not-A-linear",
             (m.dim, c.A.dim))
    proj = n.mc().projection
    _require(proj @ n.rho_lift @ f,
             proj @ f.tensor_id(1, c.dim) @ m.rho_lift, "not-colinear")


def make_colinear_map(source: Comodule, target: Comodule,
                      matrix: Mat) -> ColinearMap:
    check_colinear(matrix, source, target)
    return ColinearMap(source, target, matrix)


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

    def cn(self) -> QuotientSpace:
        """C (x)_A N, the home of the coaction."""
        return tensor_over(self.coring.C.right_module(), self.N)


def check_left_comodule(n: LeftComodule) -> None:
    c = n.coring
    f = c.A.field
    im = Mat.identity(f, n.dim)
    check_left_module(n.N)
    proj = n.cn().projection
    _require(proj @ n.lambda_lift @ n.N.act,
             proj @ c.C.lact.tensor_id(1, n.dim) @
             n.lambda_lift.tensor_id(c.A.dim, 1), "A-linearity",
             (c.A.dim, n.dim))
    p3 = _ccn(c.C, n.N)
    _require(p3 @ c.delta_lift.tensor_id(1, n.dim) @ n.lambda_lift,
             p3 @ n.lambda_lift.tensor_id(c.dim, 1) @ n.lambda_lift,
             "coassoc")
    _require(n.N.act @ c.eps.tensor_id(1, n.dim) @ n.lambda_lift, im,
             "counit")


def make_left_comodule(c: Coring, n: LeftModule, lambda_lift: Mat
                       ) -> LeftComodule:
    com = LeftComodule(c, n, lambda_lift)
    check_left_comodule(com)
    return LeftComodule(c, n, com.cn().canonical_lift(lambda_lift))


def regular_left_comodule(c: Coring) -> LeftComodule:
    return make_left_comodule(c, c.C.left_module(), c.delta_lift)


def cotensor_basis(m: Comodule, n: LeftComodule) -> Mat:
    """Canonical basis of M box_C N inside M (x)_A N (rows, echelonized)."""
    if m.coring != n.coring:
        raise DimensionMismatch("comodules over different corings")
    c = m.coring
    mn = tensor_over(m.M, n.N)
    p3 = tensor_chain(m.M, (c.C,), n.N)
    return kernel(p3 @ (m.rho_lift.tensor_id(1, n.dim) -
                        n.lambda_lift.tensor_id(m.dim, 1)) @ mn.section)


# -- bicomodules -----------------------------------------------------


def check_bicomodule(c: Coring, d: Coring, m: Bimodule,
                     lambda_lift: Mat, sigma_lift: Mat) -> None:
    """Pass iff the left C-coaction and right D-coaction commute.

    The compatibility (lambda (x)_B D) sigma = (C (x)_A sigma) lambda is
    checked in (C (x)_A M) (x)_B D, as C-colinearity of the D-coaction.
    That one route suffices: M is an (A, B)-bimodule, so this iterated
    quotient is isomorphic to C (x)_A (M (x)_B D) and to the quotient by
    all balancing relations at once, and two maps differ in one of them
    exactly when they differ in the others, at the same column.
    """
    a, b = c.A, d.A
    if m.algL != a or m.algR != b:
        raise DimensionMismatch("bimodule is not an (A,B)-bimodule")
    check_left_comodule(LeftComodule(c, m.left_module(), lambda_lift))
    check_right_module(m.right_module())
    _check_right_coaction(c, d, m, lambda_lift, sigma_lift)


def _check_right_coaction(c: Coring, d: Coring, m: Bimodule,
                          lambda_lift: Mat, sigma_lift: Mat) -> None:
    """``check_bicomodule`` once M is a left C-comodule under lambda and a
    right B-module."""
    _check_coaction(Comodule(d, m.right_module(), sigma_lift))
    p3 = tensor_chain(c.C.right_module(), (m,), d.C.left_module())
    _require(p3 @ lambda_lift.tensor_id(1, d.dim) @ sigma_lift,
             p3 @ sigma_lift.tensor_id(c.dim, 1) @ lambda_lift,
             "not-bicomodule")


# -- dual ring -------------------------------------------------------


@frozen
class DualRing:
    """Left dual ring *C: left A-linear maps C -> A with convolution-type product.

    ``basis`` is the canonical basis of Hom_{A-}(C, A): flattened row-major,
    its matrices are in reduced echelon form with lowest-index pivots, so
    the coordinates of a left A-linear map are its entries at the pivots.
    """

    coring: Coring
    basis: tuple  # of Mat (A.dim x C.dim)
    alg: Algebra

    @property
    def dim(self) -> int:
        return self.alg.dim


def _left_linear_basis(c: Coring) -> List[Mat]:
    """Canonical basis of Hom_{A-}(C, A) as the null space of linearity."""
    a = c.A
    return affine_solutions(
        a.field, (a.dim, c.dim),
        lambda x: x @ c.C.lact - a.mult_mat @ x.tensor_id(a.dim, 1))[1]


@memoised
def dual_ring(c: Coring) -> DualRing:
    """The left dual ring *C = Hom_{A-}(C, A), an algebra with unit eps.

    *C holds eps and its products, so their coordinates are read at pivots."""
    basis = _left_linear_basis(c)
    piv = pivots(basis)
    n = len(basis)
    # the product (f * g)(x) = sum g(x_(1) f(x_(2))) is g @ F_f for the map
    # F_f: x -> x_(1) f(x_(2)); column i*n + j holds the coordinates of b_i b_j
    factors = [c.C.ract @ b.tensor_id(c.dim, 1) @ c.delta_lift for b in basis]
    cols = [at_pivots(piv, g @ fac) for fac in factors for g in basis]
    f = c.A.field
    alg = Algebra(f, n, Mat(f, n, n * n, tuple(zip(*cols))),
                  Mat(f, n, 1, tuple(zip(at_pivots(piv, c.eps)))))
    return DualRing(c, tuple(basis), alg)
