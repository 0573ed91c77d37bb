"""Measurings, their classification, and coring extensions.

A measuring of an A-coring C by an algebra B is a map nu: C (x) B -> A
subject to a unit law and a twisted multiplicativity law; measurings
biject with algebra maps B -> *C.  A coring extension equips C with a
compatible right B-action and right D-coaction, and induces a functor
from right C-comodules to right D-comodules.
"""

from typing import List, Optional

from ._record import frozen
from .errors import (AxiomViolation, DimensionMismatch, MiddleMismatch,
                     NotColinear, NotCoringMorphism)
from .exactla import Mat, QuotientSpace, memoised
from .algmod import (Algebra, AlgebraMap, Bimodule, RightModule,
                     check_right_module, make_algebra_map)
from .coring import (Comodule, Coring, check_bicomodule, check_colinear,
                     dual_coords, dual_element, dual_ring, make_comodule)
from .tensorcat import balanced_quotient
from .verdict import Verdict
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
                    maps: Optional[_MeasuringMaps] = None) -> Verdict:
    """Left A-linearity plus the unit and multiplicativity diagrams.

    ``maps`` is ``_measuring_maps(m.coring, m.B)``, passed by a sweep that
    checks many candidates of one coring and algebra.
    """
    c, b, nu = m.coring, m.B, m.nu
    if nu.rows != c.A.dim or nu.cols != c.dim * b.dim:
        raise DimensionMismatch("measuring has wrong shape")
    if maps is None:
        maps = _measuring_maps(c, b)
    if nu @ maps.lact_b != c.A.mult_mat @ nu.tensor_id(c.A.dim, 1):
        return Verdict.reject("not-left-linear")
    if nu @ maps.unit_b != c.eps:
        return Verdict.reject("unit-diagram")
    lhs = nu @ maps.mult_b
    rhs = nu @ maps.ract_b @ nu.tensor_id(c.dim, b.dim) @ maps.delta_bb
    if lhs != rhs:
        return Verdict.reject("multiplication-diagram")
    return Verdict.accept()


def make_measuring(c: Coring, b: Algebra, nu: Mat) -> Measuring:
    m = Measuring(c, b, nu)
    check_measuring(m).raise_if_failed()
    return m


def enumerate_measurings(c: Coring, b: Algebra,
                         max_enum=None) -> List[Measuring]:
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
        return bool(check_measuring(Measuring(c, b, nu), maps))

    shape = (c.A.dim, c.dim * b.dim)
    return [Measuring(c, b, nu)
            for nu in enumerate_affine(f, shape, residual, keep, max_enum)]


# -- the bijection with algebra maps B -> *C --------------------------


def measuring_to_algebra_map(m: Measuring) -> AlgebraMap:
    """chi(b) = nu(- (x) b), an algebra map B -> *C."""
    check_measuring(m).raise_if_failed()
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


def check_right_b_structure(c: Coring, b: Algebra, ract_b: Mat) -> Verdict:
    """Accept iff ract_b makes C an (A, B)-bimodule with B-bilinear coproduct."""
    if ract_b.rows != c.dim or ract_b.cols != c.dim * b.dim:
        raise DimensionMismatch("right action has wrong shape")
    v = check_right_module(RightModule(b, c.dim, ract_b))
    if not v:
        return v
    if c.C.lact @ ract_b.tensor_id(c.A.dim, 1) != \
            ract_b @ c.C.lact.tensor_id(1, b.dim):
        return Verdict.reject("actions-do-not-commute")
    proj = c.cc().proj
    lhs = proj @ c.delta_lift @ ract_b
    rhs = proj @ ract_b.tensor_id(c.dim, 1) @ c.delta_lift.tensor_id(1, b.dim)
    if lhs != rhs:
        return Verdict.reject("coproduct-not-right-linear")
    return Verdict.accept()


def action_from_measuring(m: Measuring) -> Mat:
    """The right B-action x.b = x_(1) nu(x_(2) (x) b) on C."""
    c = m.coring
    ract_b = c.C.ract @ m.nu.tensor_id(c.dim, 1) @ \
        c.delta_lift.tensor_id(1, m.B.dim)
    check_right_b_structure(c, m.B, ract_b).raise_if_failed()
    return ract_b


def measuring_from_action(c: Coring, b: Algebra, ract_b: Mat) -> Measuring:
    """nu = eps . ract_b, the inverse of action_from_measuring."""
    check_right_b_structure(c, b, ract_b).raise_if_failed()
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
    return balanced_quotient(b.field, (ract.rows, dbim.dim),
                             {0: (ract, dbim.lact, b)})


def check_coring_extension(e: CoringExtension) -> Verdict:
    """Definition of an extension, verified as a bicomodule condition.

    C must be a (C, D)-bicomodule: the regular left C-coaction and sigma
    must commute, with sigma a B-linear coassociative counital coaction.
    """
    c, d = e.c, e.d
    if c.A.field != d.A.field:
        raise DimensionMismatch("corings over different fields")
    v = check_right_b_structure(c, d.A, e.ract)
    if not v:
        return v
    m = Bimodule(c.A, d.A, c.dim, c.C.lact, e.ract)
    return check_bicomodule(c, d, m, c.delta_lift, e.sigma_lift)


def make_extension(c: Coring, d: Coring, ract: Mat,
                   sigma_lift: Mat) -> CoringExtension:
    q = _cd(d.A, ract, d.C)
    e = CoringExtension(c, d, ract, q.canonical_lift(sigma_lift))
    check_coring_extension(e).raise_if_failed()
    return e


def identity_extension(c: Coring) -> CoringExtension:
    """Every coring is an extension of itself via its own coproduct."""
    return make_extension(c, c, c.C.ract, c.delta_lift)


def extension_from_coring_map(gamma: Mat, c: Coring, d: Coring
                              ) -> CoringExtension:
    """The extension induced by a coring map gamma: C -> D over one algebra."""
    if c.A != d.A:
        raise DimensionMismatch("corings over different algebras")
    na = c.A.dim
    if gamma.rows != d.dim or gamma.cols != c.dim:
        raise DimensionMismatch("coring map has wrong shape")
    if gamma @ c.C.lact != d.C.lact @ gamma.tensor_id(na, 1) or \
            gamma @ c.C.ract != d.C.ract @ gamma.tensor_id(1, na):
        raise NotCoringMorphism("A-bilinearity")
    if d.eps @ gamma != c.eps:
        raise NotCoringMorphism("counit")
    proj = d.cc().proj
    if proj @ d.delta_lift @ gamma != proj @ gamma.kron(gamma) @ c.delta_lift:
        raise NotCoringMorphism("coproduct")
    sigma_lift = gamma.tensor_id(c.dim, 1) @ c.delta_lift
    return make_extension(c, d, c.C.ract, sigma_lift)


# -- the induced functor M^C -> M^D ------------------------------------


def induced_action(e: CoringExtension, m: Comodule) -> Mat:
    """Right B-action m.b = m_(0) nu(m_(1) (x) b) on a right C-comodule."""
    if m.coring != e.c:
        raise DimensionMismatch("comodule is not over the extended coring")
    c, b = e.c, e.d.A
    nu = c.eps @ e.ract
    act = m.M.act @ nu.tensor_id(m.dim, 1) @ m.rho_lift.tensor_id(1, b.dim)
    check_right_module(RightModule(b, m.dim, act)).raise_if_failed()
    return act


def induced_coaction(e: CoringExtension, m: Comodule) -> Comodule:
    """The image of a right C-comodule under the functor M^C -> M^D."""
    c, d = e.c, e.d
    act = induced_action(e, m)
    rho = m.M.act.tensor_id(1, d.dim) @ c.eps.tensor_id(m.dim, d.dim) @ \
        e.sigma_lift.tensor_id(m.dim, 1) @ m.rho_lift
    return make_comodule(d, RightModule(d.A, m.dim, act), rho)


def apply_functor(e: CoringExtension, f: Mat, m: Comodule,
                  n: Comodule) -> Mat:
    """Transport a C-colinear map along the induced functor (it is the
    same matrix, re-verified to be D-colinear)."""
    v = check_colinear(f, m, n)
    if not v:
        raise NotColinear(v.failure.kind, v.failure.witness)
    fm = induced_coaction(e, m)
    fn = induced_coaction(e, n)
    check_colinear(f, fm, fn).raise_if_failed()
    return f


def compose_extensions(e1: CoringExtension,
                       e2: CoringExtension) -> CoringExtension:
    """If D extends C and E extends D then E extends C."""
    if e1.d != e2.c:
        raise MiddleMismatch("middle corings do not agree")
    c, d = e1.c, e1.d
    ee = e2.d
    nc, ne = c.dim, ee.dim
    ract = e1.ract @ d.eps.tensor_id(nc, 1) @ e2.ract.tensor_id(nc, 1) @ \
        e1.sigma_lift.tensor_id(1, ee.A.dim)
    sigma = e1.ract.tensor_id(1, ne) @ d.eps.tensor_id(nc, ne) @ \
        e2.sigma_lift.tensor_id(nc, 1) @ e1.sigma_lift
    return make_extension(c, ee, ract, sigma)
