"""Measurings, their classification, and coring extensions.

A measuring of an A-coring C by an algebra B is a map nu: C (x) B -> A
subject to a unit law and a twisted multiplicativity law.  Measurings
biject with the algebra maps B -> *C into the dual ring, nu |-> (b |->
nu(- (x) b)); ``tests/test_extension.py::TestBijection`` checks
``enumerate_measurings`` through this bijection.  A coring extension
equips C with a compatible right B-action and right D-coaction, and
induces a functor from right C-comodules to right D-comodules.

Each measuring law is written once, in ``_measuring_laws``.
``check_measuring`` requires all three; ``enumerate_measurings`` solves
the two that are linear in nu exactly and tests only the third on each
point of their solution space.
"""

from typing import List

from ._record import frozen
from .errors import DimensionMismatch
from .exactla import Mat, QuotientSpace, memoised
from .algmod import (Algebra, Bimodule, RightModule, _check_right_action,
                     _require)
from .coring import ColinearMap, Comodule, Coring, _check_right_coaction
from .tensorcat import tensor_over
from ._search import enumerate_affine


@frozen
class Measuring:
    """Candidate measuring of a coring by an algebra: nu: C (x) B -> A."""

    coring: Coring
    B: Algebra
    nu: Mat


def _measuring_laws(c: Coring, b: Algebra):
    """The laws of a measuring nu of c by b, in the order they are checked,
    each a function of nu that gives the arguments of ``_require``.  The
    maps that do not involve nu are built once.  The first two laws, left
    A-linearity and the unit diagram, are affine in nu; the third, the
    multiplication diagram, is not."""
    na, nb, nc = c.A.dim, b.dim, c.dim
    lact_b = c.C.lact.tensor_id(1, nb)
    unit_b = b.unit_col.tensor_id(nc, 1)
    mult_b = b.mult_mat.tensor_id(nc, 1)
    ract_b = c.C.ract.tensor_id(1, nb)
    delta_bb = c.delta_lift.tensor_id(1, nb * nb)
    return (lambda nu: (nu @ lact_b, c.A.mult_mat @ nu.tensor_id(na, 1),
                        "not-left-linear", (na, nc, nb)),
            lambda nu: (nu @ unit_b, c.eps, "unit-diagram", (nc,)),
            lambda nu: (nu @ mult_b,
                        nu @ ract_b @ nu.tensor_id(nc, nb) @ delta_bb,
                        "multiplication-diagram", (nc, nb, nb)))


def check_measuring(m: Measuring) -> None:
    """Left A-linearity plus the unit and multiplicativity diagrams."""
    c, b, nu = m.coring, m.B, m.nu
    if nu.rows != c.A.dim or nu.cols != c.dim * b.dim:
        raise DimensionMismatch("measuring has wrong shape")
    for law in _measuring_laws(c, b):
        _require(*law(nu))


def make_measuring(c: Coring, b: Algebra, nu: Mat) -> Measuring:
    m = Measuring(c, b, nu)
    check_measuring(m)
    return m


def enumerate_measurings(c: Coring, b: Algebra) -> List[Measuring]:
    """All measurings of c by b over a prime field, in canonical order.

    The two linear laws are solved exactly, so every candidate of the
    sweep satisfies them; it is kept iff the multiplication diagram holds.
    """
    left_linear, unit, mult = _measuring_laws(c, b)

    def residual(nu: Mat) -> Mat:
        (l1, r1, *_), (l2, r2, *_) = left_linear(nu), unit(nu)
        return (l1 - r1).transpose().stack((l2 - r2).transpose())

    def keep(nu: Mat) -> bool:
        lhs, rhs, *_ = mult(nu)
        return lhs == rhs

    shape = (c.A.dim, c.dim * b.dim)
    return [Measuring(c, b, nu)
            for nu in enumerate_affine(c.A.field, shape, residual, keep)]


# -- the equivalence with right B-structures on C ----------------------


def check_right_b_structure(c: Coring, b: Algebra, ract_b: Mat) -> None:
    """Pass iff ract_b makes C an (A, B)-bimodule with B-bilinear coproduct."""
    _check_right_action(Bimodule(c.A, b, c.dim, c.C.lact, ract_b))
    proj = c.cc().projection
    _require(proj @ c.delta_lift @ ract_b,
             proj @ ract_b.tensor_id(c.dim, 1) @
             c.delta_lift.tensor_id(1, b.dim), "coproduct-not-right-linear",
             (c.dim, b.dim))


def action_from_measuring(m: Measuring) -> Mat:
    """The right B-action x.b = x_(1) nu(x_(2) (x) b) on C."""
    c = m.coring
    ract_b = c.C.ract @ m.nu.tensor_id(c.dim, 1) @ \
        c.delta_lift.tensor_id(1, m.B.dim)
    check_right_b_structure(c, m.B, ract_b)
    return ract_b


def measuring_from_action(c: Coring, b: Algebra, ract_b: Mat) -> Measuring:
    """nu = eps . ract_b, the inverse of action_from_measuring."""
    check_right_b_structure(c, b, ract_b)
    return make_measuring(c, b, c.eps @ ract_b)


# -- coring extensions -------------------------------------------------


@frozen
class CoringExtension:
    """D a right extension of C: right B-action and right D-coaction on C.

    ``sigma_lift`` is a canonical lift C -> C (x)_k D of the coaction.
    """

    c: Coring
    d: Coring
    ract: Mat        # C (x) B -> C
    sigma_lift: Mat  # C -> C (x) D

    def cd(self) -> QuotientSpace:
        """C (x)_B D, the home of the coaction."""
        return _cd(self.d.A, self.ract, self.d.C)


@memoised
def _cd(b: Algebra, ract: Mat, dbim: Bimodule) -> QuotientSpace:
    return tensor_over(RightModule(b, ract.rows, ract), dbim.left_module())


def check_coring_extension(e: CoringExtension) -> None:
    """Definition of an extension, verified as a bicomodule condition.

    C must be a (C, D)-bicomodule: the regular left C-coaction and sigma
    must commute, with sigma a B-linear coassociative counital coaction.
    The left coaction is C's coproduct, a coaction because C is a coring.
    """
    c, d = e.c, e.d
    if c.A.field != d.A.field:
        raise DimensionMismatch("corings over different fields")
    check_right_b_structure(c, d.A, e.ract)
    m = Bimodule(c.A, d.A, c.dim, c.C.lact, e.ract)
    _check_right_coaction(c, d, m, c.delta_lift, e.sigma_lift)


def make_extension(c: Coring, d: Coring, ract: Mat,
                   sigma_lift: Mat) -> CoringExtension:
    e = CoringExtension(c, d, ract, sigma_lift)
    check_coring_extension(e)
    return CoringExtension(c, d, ract, e.cd().canonical_lift(sigma_lift))


def identity_extension(c: Coring) -> CoringExtension:
    """Every coring is an extension of itself via its own coproduct."""
    return CoringExtension(c, c, c.C.ract, _cd(c.A, c.C.ract, c.C)
                           .canonical_lift(c.delta_lift))


def extension_from_coring_map(gamma: Mat, c: Coring, d: Coring
                              ) -> CoringExtension:
    """The extension induced by a coring map gamma: C -> D over one algebra.

    Right A-linearity is compared on A (x) C through the flip, stacked
    under left A-linearity: a ``coring-map-bilinearity`` witness (i, x) is
    the first at which gamma(a_i x) != a_i gamma(x) or gamma(x a_i) !=
    gamma(x) a_i.
    """
    if c.A != d.A:
        raise DimensionMismatch("corings over different algebras")
    na, nc = c.A.dim, c.dim
    if gamma.rows != d.dim or gamma.cols != nc:
        raise DimensionMismatch("coring map has wrong shape")
    flip = Mat.swap(c.A.field, na, nc)
    _require((gamma @ c.C.lact).stack(gamma @ c.C.ract @ flip),
             (d.C.lact @ gamma.tensor_id(na, 1)).stack(
                 d.C.ract @ gamma.tensor_id(1, na) @ flip),
             "coring-map-bilinearity", (na, nc))
    _require(d.eps @ gamma, c.eps, "coring-map-counit", (nc,))
    proj = d.cc().projection
    _require(proj @ d.delta_lift @ gamma, proj @ gamma.kron(gamma) @
             c.delta_lift, "coring-map-coproduct", (nc,))
    sigma_lift = gamma.tensor_id(c.dim, 1) @ c.delta_lift
    return CoringExtension(c, d, c.C.ract, _cd(d.A, c.C.ract, d.C)
                           .canonical_lift(sigma_lift))


# -- the induced functor M^C -> M^D ------------------------------------


def _induced(e: CoringExtension, act: Mat, rho_lift: Mat):
    """The right B-action and the lift of the D-coaction that the functor
    M^C -> M^D of ``e`` gives a right C-comodule M with right A-action
    ``act`` and coaction lift ``rho_lift``: m.b = m_(0) nu(m_(1) (x) b),
    nu = eps . ract, and the D-coaction induced by sigma."""
    c, d, n = e.c, e.d, act.rows
    nu = c.eps @ e.ract
    return (act @ nu.tensor_id(n, 1) @ rho_lift.tensor_id(1, d.A.dim),
            act.tensor_id(1, d.dim) @ c.eps.tensor_id(n, d.dim) @
            e.sigma_lift.tensor_id(n, 1) @ rho_lift)


def induced_coaction(e: CoringExtension, m: Comodule) -> Comodule:
    """The image of a right C-comodule under the functor M^C -> M^D."""
    if m.coring != e.c:
        raise DimensionMismatch("comodule is not over the extended coring")
    act, rho_lift = _induced(e, m.M.act, m.rho_lift)
    out = Comodule(e.d, RightModule(e.d.A, m.dim, act), rho_lift)
    return Comodule(e.d, out.M, out.mc().canonical_lift(rho_lift))


def apply_functor(e: CoringExtension, g: ColinearMap) -> ColinearMap:
    """Transport a C-colinear map along the induced functor: the same
    matrix between the induced comodules."""
    return ColinearMap(induced_coaction(e, g.source),
                       induced_coaction(e, g.target), g.matrix)


def compose_extensions(e1: CoringExtension,
                       e2: CoringExtension) -> CoringExtension:
    """If D extends C and E extends D then E extends C: C, a right
    D-comodule through e1, carried along the functor of e2."""
    if e1.d != e2.c:
        raise DimensionMismatch("middle corings do not agree")
    ract, sigma_lift = _induced(e2, e1.ract, e1.sigma_lift)
    return CoringExtension(e1.c, e2.d, ract, _cd(e2.d.A, ract, e2.d.C)
                           .canonical_lift(sigma_lift))
