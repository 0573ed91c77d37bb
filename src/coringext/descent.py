"""Descent data for an algebra map and pushforward along a tower.

A descent datum for iota: B -> A is a right A-module M with a map
f: M -> M (x)_B A that is A-linear, splits the action, and satisfies a
cocycle law.  Descent data are the same thing as comodules over the
Sweedler coring of iota; a second map D -> B with a compatible descent
structure on A itself pushes Desc(A|B) forward to Desc(B|D).
"""

from functools import cached_property

from ._record import frozen
from .errors import AxiomViolation, DimensionMismatch
from .exactla import Mat, QuotientSpace, memoised
from .algmod import (AlgebraMap, Bimodule, LeftModule, RightModule, _require,
                     check_right_module, regular_along, restrict_right)
from .coring import Comodule, make_comodule
from .constructions import sweedler_coring, sweedler_space
from .extension import (CoringExtension, _cd, check_coring_extension,
                        induced_coaction)
from .tensorcat import (descend_map, right_action_on_quotient, tensor_chain,
                        tensor_over)


@memoised
def _ma_space(iota: AlgebraMap, m: RightModule) -> QuotientSpace:
    """M (x)_B A for a right A-module M restricted along iota."""
    return tensor_over(restrict_right(m, iota),
                       regular_along(iota).left_module())


@frozen
class DescentDatum:
    """Right A-module with a canonical lift of f: M -> M (x)_B A."""

    iota: AlgebraMap  # B -> A
    M: RightModule    # over A
    f_lift: Mat       # M -> M (x) A, canonical through M (x)_B A

    def ma(self) -> QuotientSpace:
        return _ma_space(self.iota, self.M)


def check_descent_datum(d: DescentDatum) -> None:
    a = d.iota.target
    if d.M.alg != a:
        raise DimensionMismatch("module is not over the target algebra")
    if d.f_lift.rows != d.M.dim * a.dim or d.f_lift.cols != d.M.dim:
        raise DimensionMismatch("descent map has wrong shape")
    check_right_module(d.M)
    nm = d.M.dim
    f_a = d.f_lift.tensor_id(1, a.dim)
    proj = d.ma().projection
    _require(proj @ d.f_lift @ d.M.act,
             proj @ a.mult_mat.tensor_id(nm, 1) @ f_a, "not-A-linear",
             (nm, a.dim))
    _require(d.M.act @ d.f_lift, Mat.identity(a.field, nm), "unit-law",
             (nm,))
    p3 = _maa_space(d.iota, d.M)
    _require(p3 @ f_a @ d.f_lift,
             p3 @ a.unit_col.tensor_id(nm, a.dim) @ d.f_lift, "cocycle",
             (nm,))


@memoised
def _maa_space(iota: AlgebraMap, m: RightModule) -> Mat:
    """Projection onto (M (x)_B A) (x)_B A."""
    a_bb = regular_along(iota)
    return tensor_chain(restrict_right(m, iota), (a_bb,), a_bb.left_module())


def make_descent_datum(iota: AlgebraMap, m: RightModule,
                       f_lift: Mat) -> DescentDatum:
    d = DescentDatum(iota, m, f_lift)
    check_descent_datum(d)
    return DescentDatum(iota, m, d.ma().canonical_lift(f_lift))


def check_descent_morphism(d1: DescentDatum, d2: DescentDatum,
                           g: Mat) -> None:
    """A-linear map commuting with the descent maps."""
    if d1.iota != d2.iota:
        raise DimensionMismatch("descent data for different algebra maps")
    na = d1.iota.target.dim
    g_a = g.tensor_id(1, na)
    _require(g @ d1.M.act, d2.M.act @ g_a, "not-A-linear", (d1.M.dim, na))
    proj = d2.ma().projection
    _require(proj @ d2.f_lift @ g, proj @ g_a @ d1.f_lift, "not-descent-map",
             (d1.M.dim,))


# -- the correspondence with Sweedler comodules ------------------------


def descent_to_comodule(d: DescentDatum) -> Comodule:
    """rho(m) = f(m) read inside M (x)_A (A (x)_B A)."""
    c = sweedler_coring(d.iota)
    a = d.iota.target
    q = sweedler_space(d.iota)
    rho_lift = (q.projection @ a.unit_col.tensor_id(1, a.dim)).tensor_id(
        d.M.dim, 1) @ d.f_lift
    return make_comodule(c, d.M, rho_lift)


def comodule_to_descent(iota: AlgebraMap, m: Comodule) -> DescentDatum:
    """f(m) = m_(0) x (x) y for rho(m) = m_(0) (x) (x (x) y)."""
    if m.coring != sweedler_coring(iota):
        raise DimensionMismatch("comodule is not over the Sweedler coring")
    q = sweedler_space(iota)
    f_lift = m.M.act.tensor_id(1, iota.target.dim) @ \
        q.section.tensor_id(m.dim, 1) @ m.rho_lift
    return make_descent_datum(iota, m.M, f_lift)


# -- pushing descent data down a tower D -> B -> A ---------------------


@frozen
class Cor28Data:
    """Data for pushing Desc(A|B) to Desc(B|D).

    ``rho_A`` is a right B-action on A making A a (B, B)-bimodule map
    target, and ``phi_lift`` a lift of phi: A -> (A (x)_B A) (x)_D B
    subject to three compatibility diagrams.
    """

    iota_B: AlgebraMap  # D -> B
    iota_A: AlgebraMap  # B -> A
    rho_A: Mat          # A (x) B -> A
    phi_lift: Mat       # A -> A (x) A (x) B

    @cached_property
    def extension(self) -> CoringExtension:
        """The coring extension of the Sweedler corings of the tower,
        assembled once per record; ``check_cor28`` checks it."""
        return _assemble(self)


def _ab_factors(iota_B: AlgebraMap, a_bb: Bimodule, b_dd: Bimodule,
                rho_A: Mat):
    """The factors of (A (x)_B A) (x)_D B, from A over B (``a_bb``) and B
    over D (``b_dd``): A as a right B-module, A as a (B, D)-bimodule through
    rho_A, and B as a left D-module."""
    b = iota_B.target
    a_d = restrict_right(RightModule(b, a_bb.dim, rho_A), iota_B)
    return (a_bb.right_module(),
            Bimodule(b, iota_B.source, a_bb.dim, a_bb.lact, a_d.act),
            b_dd.left_module())


@memoised
def _aab_space(a_b: RightModule, a_bd: Bimodule, b_d: LeftModule) -> Mat:
    """Projection onto (A (x)_B A) (x)_D B; its factors do not involve phi."""
    return tensor_chain(a_b, (a_bd,), b_d)


def check_cor28(data: Cor28Data) -> None:
    """The three diagrams, plus validity of the assembled extension."""
    a = data.iota_A.target
    b = data.iota_B.target
    na, nb = a.dim, b.dim
    if data.iota_B.target != data.iota_A.source:
        raise DimensionMismatch("the algebra maps do not compose")
    if data.rho_A.rows != a.dim or data.rho_A.cols != a.dim * b.dim:
        raise DimensionMismatch("rho_A has wrong shape")
    if data.phi_lift.rows != a.dim * a.dim * b.dim or \
            data.phi_lift.cols != a.dim:
        raise DimensionMismatch("phi has wrong shape")
    check_right_module(RightModule(b, a.dim, data.rho_A))
    a_bb = regular_along(data.iota_A)
    b_dd = regular_along(data.iota_B)
    lB = a_bb.lact  # b . a on A
    _require(data.rho_A @ lB.tensor_id(1, nb),
             lB @ data.rho_A.tensor_id(nb, 1), "rho-not-left-linear",
             (nb, na, nb))
    # phi is a (B, B)-bimodule map
    a_b, a_bd, b_d = _ab_factors(data.iota_B, a_bb, b_dd, data.rho_A)
    pab = _aab_space(a_b, a_bd, b_d)
    _require(pab @ data.phi_lift @ lB,
             pab @ lB.tensor_id(1, na * nb) @ data.phi_lift.tensor_id(nb, 1),
             "phi-not-left-linear", (nb, na))
    _require(pab @ data.phi_lift @ data.rho_A,
             pab @ b.mult_mat.tensor_id(na * na, 1) @
             data.phi_lift.tensor_id(1, nb), "phi-not-right-linear", (na, nb))
    # (a): (A (x) rho_A) phi = unit insertion in A (x)_B A
    q2 = sweedler_space(data.iota_A)
    _require(q2.projection @ data.rho_A.tensor_id(na, 1) @ data.phi_lift,
             q2.projection @ a.unit_col.tensor_id(1, na), "diagram-a", (na,))
    # (b): coassociativity-type law in A (x)_B A (x)_D B (x)_D B
    p4b = tensor_chain(a_b, (a_bd, b_dd), b_d)
    _require(p4b @ a.mult_mat.tensor_id(1, na * nb * nb) @
             data.phi_lift.tensor_id(na, nb) @ data.phi_lift,
             p4b @ b.unit_col.tensor_id(na * na, nb) @ data.phi_lift,
             "diagram-b", (na,))
    # (c): counit-type law in A (x)_B A (x)_B A (x)_D B
    p4c = tensor_chain(a_b, (a_bb, a_bd), b_d)
    _require(p4c @ a.unit_col.tensor_id(1, na * na * nb) @ data.phi_lift,
             p4c @ a.unit_col.tensor_id(na, na * nb) @ data.phi_lift,
             "diagram-c", (na,))
    try:
        ext = data.extension
    except AxiomViolation as exc:
        raise AxiomViolation("assembled-extension-" + exc.kind, exc.witness)
    check_coring_extension(ext)


def make_cor28(iota_B: AlgebraMap, iota_A: AlgebraMap, rho_A: Mat,
               phi_lift: Mat) -> Cor28Data:
    """Validated Cor. 2.8 data, with the extension that it checked.  The
    lift of phi is kept as given: the verdict and the extension depend on
    phi only."""
    data = Cor28Data(iota_B, iota_A, rho_A, phi_lift)
    check_cor28(data)
    return data


def _assemble(data: Cor28Data) -> CoringExtension:
    """The extension of ``data``, with sigma's canonical lift, unchecked.

    sigma is read in C (x)_B D, so it depends on phi, not on phi's lift; it
    is balanced once phi is left B-linear, so ``check_cor28`` cannot reach
    ``coaction-not-balanced``."""
    a = data.iota_A.target
    b = data.iota_B.target
    na, nb = a.dim, b.dim
    c = sweedler_coring(data.iota_A)
    d = sweedler_coring(data.iota_B)
    qc = sweedler_space(data.iota_A)
    qd = sweedler_space(data.iota_B)
    ract = right_action_on_quotient(qc, na, data.rho_A, b)
    cd = _cd(b, ract, d.C)
    # sigma on the ambient A (x) A, into C (x)_B D, then descended through qc
    g = cd.projection @ \
        qc.projection.kron(qd.projection @ b.unit_col.tensor_id(1, nb)) @ \
        a.mult_mat.tensor_id(1, na * nb) @ data.phi_lift.tensor_id(na, 1)
    sigma = descend_map(qc, g, "coaction-not-balanced", (na, na))
    return CoringExtension(c, d, ract, cd.section @ sigma)


def descent_functor(data: Cor28Data, d: DescentDatum) -> DescentDatum:
    """Push a descent datum for iota_A down to one for iota_B, along the
    extension of data that ``make_cor28`` has checked."""
    if d.iota != data.iota_A:
        raise DimensionMismatch("descent datum is for a different map")
    pushed = induced_coaction(data.extension, descent_to_comodule(d))
    return comodule_to_descent(data.iota_B, pushed)
