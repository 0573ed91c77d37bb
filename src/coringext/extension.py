"""Measurings, their classification, and coring extensions.

A measuring of an A-coring C by an algebra B is a map nu: C (x) B -> A
subject to a unit law and a twisted multiplicativity law; measurings
biject with algebra maps B -> *C.  A coring extension equips C with a
compatible right B-action and right D-coaction, and induces a functor
from right C-comodules to right D-comodules.
"""

from typing import List, Optional

from ._record import frozen
from .errors import AxiomViolation, DimensionMismatch
from .exactla import Mat, QuotientSpace, memoised
from .algmod import (Algebra, AlgebraMap, Bimodule, RightModule, _holds,
                     _require, check_right_module, make_algebra_map)
from .coring import (Comodule, Coring, _check_right_coaction, check_colinear,
                     dual_coords, dual_element, dual_ring, make_comodule)
from .tensorcat import tensor_over
from ._search import enumerate_affine


@frozen
class Measuring:
    """Candidate measuring of a coring by an algebra: nu: C (x) B -> A."""

    coring: Coring
    B: Algebra
    nu: Mat


@frozen
class _MeasuringMaps:
    """The maps in the measuring diagrams of a coring by an algebra that do
    not involve nu, built once and shared by every candidate nu."""

    lact_b: Mat    # lact (x) B
    unit_b: Mat    # C (x) unit of B
    mult_b: Mat    # C (x) mult of B
    ract_b: Mat    # ract (x) B
    delta_bb: Mat  # delta_lift (x) B (x) B


def _measuring_maps(c: Coring, b: Algebra) -> _MeasuringMaps:
    nb, nc = b.dim, c.dim
    return _MeasuringMaps(c.C.lact.tensor_id(1, nb),
                          b.unit_col.tensor_id(nc, 1),
                          b.mult_mat.tensor_id(nc, 1),
                          c.C.ract.tensor_id(1, nb),
                          c.delta_lift.tensor_id(1, nb * nb))


def check_measuring(m: Measuring,
                    maps: Optional[_MeasuringMaps] = None) -> None:
    """Left A-linearity plus the unit and multiplicativity diagrams.

    ``maps`` is ``_measuring_maps(m.coring, m.B)``, passed by a sweep that
    checks many candidates of one coring and algebra.
    """
    c, b, nu = m.coring, m.B, m.nu
    if nu.rows != c.A.dim or nu.cols != c.dim * b.dim:
        raise DimensionMismatch("measuring has wrong shape")
    if maps is None:
        maps = _measuring_maps(c, b)
    _require(nu @ maps.lact_b, c.A.mult_mat @ nu.tensor_id(c.A.dim, 1),
             "not-left-linear", (c.A.dim, c.dim, b.dim))
    _require(nu @ maps.unit_b, c.eps, "unit-diagram", (c.dim,))
    _require(nu @ maps.mult_b,
             nu @ maps.ract_b @ nu.tensor_id(c.dim, b.dim) @ maps.delta_bb,
             "multiplication-diagram", (c.dim, b.dim, b.dim))


def make_measuring(c: Coring, b: Algebra, nu: Mat) -> Measuring:
    m = Measuring(c, b, nu)
    check_measuring(m)
    return m


def enumerate_measurings(c: Coring, b: Algebra) -> List[Measuring]:
    """All measurings of c by b over a prime field, in canonical order.

    The linear constraints (left A-linearity, unit diagram) are solved
    exactly; the remaining affine space is swept and filtered by the
    multiplicativity diagram.
    """
    f = c.A.field
    maps = _measuring_maps(c, b)

    def residual(nu: Mat) -> Mat:
        lin = nu @ maps.lact_b - c.A.mult_mat @ nu.tensor_id(c.A.dim, 1)
        return lin.transpose().stack((nu @ maps.unit_b - c.eps).transpose())

    def keep(nu: Mat) -> bool:
        return _holds(check_measuring, Measuring(c, b, nu), maps)

    shape = (c.A.dim, c.dim * b.dim)
    return [Measuring(c, b, nu)
            for nu in enumerate_affine(f, shape, residual, keep)]


# -- the bijection with algebra maps B -> *C --------------------------


def measuring_to_algebra_map(m: Measuring) -> AlgebraMap:
    """chi(b) = nu(- (x) b), an algebra map B -> *C."""
    check_measuring(m)
    c, b = m.coring, m.B
    f = c.A.field
    dr = dual_ring(c)
    cols = []
    for j in range(b.dim):
        nu_j = Mat(f, c.A.dim, c.dim, tuple(
            tuple(m.nu.entries[r][s * b.dim + j] for s in range(c.dim))
            for r in range(c.A.dim)))
        coords = dual_coords(dr, nu_j)
        if coords is None:
            raise AxiomViolation("measuring-slice-not-left-linear", (j,))
        cols.append(coords)
    return make_algebra_map(b, dr.alg, Mat.from_cols(f, cols))


def algebra_map_to_measuring(c: Coring, chi: AlgebraMap) -> Measuring:
    """nu(x (x) b) = chi(b)(x), the inverse of measuring_to_algebra_map."""
    dr = dual_ring(c)
    if chi.target != dr.alg:
        raise DimensionMismatch("map does not land in the dual ring")
    f = c.A.field
    b = chi.source
    cols = []
    slices = [dual_element(dr, chi.matrix.col(j)) for j in range(b.dim)]
    for s in range(c.dim):
        for j in range(b.dim):
            cols.append(slices[j].col(s))
    return make_measuring(c, b, Mat.from_cols(f, cols))


# -- the equivalence with right B-structures on C ----------------------


def check_right_b_structure(c: Coring, b: Algebra, ract_b: Mat) -> None:
    """Pass iff ract_b makes C an (A, B)-bimodule with B-bilinear coproduct."""
    if ract_b.rows != c.dim or ract_b.cols != c.dim * b.dim:
        raise DimensionMismatch("right action has wrong shape")
    check_right_module(RightModule(b, c.dim, ract_b))
    _require(c.C.lact @ ract_b.tensor_id(c.A.dim, 1),
             ract_b @ c.C.lact.tensor_id(1, b.dim), "actions-do-not-commute",
             (c.A.dim, c.dim, b.dim))
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
    return tensor_over(b, RightModule(b, ract.rows, ract),
                       dbim.left_module())


def check_coring_extension(e: CoringExtension) -> None:
    """Definition of an extension, verified as a bicomodule condition.

    C must be a (C, D)-bicomodule: the regular left C-coaction and sigma
    must commute, with sigma a B-linear coassociative counital coaction.
    The left coaction is C's coproduct, which ``make_coring`` checked.
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
    return make_extension(c, c, c.C.ract, c.delta_lift)


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
    return make_extension(c, d, c.C.ract, sigma_lift)


# -- the induced functor M^C -> M^D ------------------------------------


def induced_action(e: CoringExtension, m: Comodule) -> Mat:
    """The right B-action of ``induced_coaction(e, m)``, checked with it."""
    return induced_coaction(e, m).M.act


def induced_coaction(e: CoringExtension, m: Comodule) -> Comodule:
    """The image of a right C-comodule under the functor M^C -> M^D: M with
    the right B-action m.b = m_(0) nu(m_(1) (x) b), nu = eps . ract, and
    the D-coaction induced by sigma."""
    if m.coring != e.c:
        raise DimensionMismatch("comodule is not over the extended coring")
    c, d = e.c, e.d
    nu = c.eps @ e.ract
    act = m.M.act @ nu.tensor_id(m.dim, 1) @ m.rho_lift.tensor_id(1, d.A.dim)
    rho = m.M.act.tensor_id(1, d.dim) @ c.eps.tensor_id(m.dim, d.dim) @ \
        e.sigma_lift.tensor_id(m.dim, 1) @ m.rho_lift
    return make_comodule(d, RightModule(d.A, m.dim, act), rho)


def apply_functor(e: CoringExtension, f: Mat, m: Comodule,
                  n: Comodule) -> Mat:
    """Transport a C-colinear map along the induced functor (it is the
    same matrix, re-verified to be D-colinear)."""
    check_colinear(f, m, n)
    check_colinear(f, induced_coaction(e, m), induced_coaction(e, n))
    return f


def compose_extensions(e1: CoringExtension,
                       e2: CoringExtension) -> CoringExtension:
    """If D extends C and E extends D then E extends C."""
    if e1.d != e2.c:
        raise DimensionMismatch("middle corings do not agree")
    c, d = e1.c, e1.d
    ee = e2.d
    nc, ne = c.dim, ee.dim
    ract = e1.ract @ d.eps.tensor_id(nc, 1) @ e2.ract.tensor_id(nc, 1) @ \
        e1.sigma_lift.tensor_id(1, ee.A.dim)
    sigma = e1.ract.tensor_id(1, ne) @ d.eps.tensor_id(nc, ne) @ \
        e2.sigma_lift.tensor_id(nc, 1) @ e1.sigma_lift
    return make_extension(c, ee, ract, sigma)
