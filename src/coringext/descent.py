"""Descent data for an algebra map and pushforward along a tower.

A descent datum for iota: B -> A is a right A-module M with a map
f: M -> M (x)_B A that is A-linear, splits the action, and satisfies a
cocycle law.  Descent data are the same thing as comodules over the
Sweedler coring of iota; a second map D -> B with a compatible descent
structure on A itself pushes Desc(A|B) forward to Desc(B|D).
"""

from ._record import frozen
from .errors import AxiomViolation, DimensionMismatch
from .exactla import Mat, QuotientSpace, memoised
from .algmod import (AlgebraMap, Bimodule, RightModule, _require,
                     check_right_module, left_regular, restrict_left,
                     restrict_right, right_regular)
from .coring import Comodule, make_comodule
from .constructions import sweedler_coring, sweedler_space
from .extension import (CoringExtension, _cd, check_coring_extension,
                        induced_coaction)
from .tensorcat import (descend_map, right_action_on_quotient, tensor_chain,
                        tensor_over)


@memoised
def _ma_space(iota: AlgebraMap, m: RightModule) -> QuotientSpace:
    """M (x)_B A for a right A-module M restricted along iota."""
    return tensor_over(iota.source, restrict_right(m, iota),
                       restrict_left(left_regular(iota.target), iota))


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
    a = iota.target
    a_b = restrict_right(right_regular(a), iota)
    b_a = restrict_left(left_regular(a), iota)
    return tensor_chain(restrict_right(m, iota),
                        (Bimodule(iota.source, iota.source, a.dim, b_a.act,
                                  a_b.act),),
                        b_a)


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
    target, and ``phi_lift`` a canonical lift of phi: A -> (A (x)_B A)
    (x)_D B subject to three compatibility diagrams.
    """

    iota_B: AlgebraMap  # D -> B
    iota_A: AlgebraMap  # B -> A
    rho_A: Mat          # A (x) B -> A
    phi_lift: Mat       # A -> A (x) A (x) B

    def aab(self) -> Mat:
        """Projection onto (A (x)_B A) (x)_D B.

        A must be a (B, D)-bimodule: ``check_cor28`` checks that rho_A is
        left B-linear before it calls this."""
        return _aab_space(self.iota_B, self.iota_A, self.rho_A)


def _ab_factors(iota_B: AlgebraMap, iota_A: AlgebraMap, rho_A: Mat):
    """The factors of (A (x)_B A) (x)_D B: A as a right B-module, A as a
    (B, D)-bimodule through rho_A, and B as a left D-module."""
    a = iota_A.target
    b = iota_B.target
    a_d = restrict_right(RightModule(b, a.dim, rho_A), iota_B)
    return (restrict_right(right_regular(a), iota_A),
            Bimodule(b, iota_B.source, a.dim,
                     restrict_left(left_regular(a), iota_A).act, a_d.act),
            restrict_left(left_regular(b), iota_B))


@memoised
def _aab_space(iota_B: AlgebraMap, iota_A: AlgebraMap, rho_A: Mat) -> Mat:
    """Projection onto (A (x)_B A) (x)_D B; it does not depend on phi."""
    a_b, a_bd, b_d = _ab_factors(iota_B, iota_A, rho_A)
    return tensor_chain(a_b, (a_bd,), b_d)


def check_cor28(data: Cor28Data) -> None:
    """The three diagrams, plus validity of the assembled extension."""
    a = data.iota_A.target
    b = data.iota_B.target
    dalg = data.iota_B.source
    na, nb = a.dim, b.dim
    if data.iota_B.target != data.iota_A.source:
        raise DimensionMismatch("the algebra maps do not compose")
    if data.rho_A.rows != a.dim or data.rho_A.cols != a.dim * b.dim:
        raise DimensionMismatch("rho_A has wrong shape")
    if data.phi_lift.rows != a.dim * a.dim * b.dim or \
            data.phi_lift.cols != a.dim:
        raise DimensionMismatch("phi has wrong shape")
    check_right_module(RightModule(b, a.dim, data.rho_A))
    lB = restrict_left(left_regular(a), data.iota_A).act  # b . a on A
    _require(data.rho_A @ lB.tensor_id(1, nb),
             lB @ data.rho_A.tensor_id(nb, 1), "rho-not-left-linear",
             (nb, na, nb))
    # phi is a (B, B)-bimodule map
    pab = data.aab()
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
    a_b, a_bd, b_d = _ab_factors(data.iota_B, data.iota_A, data.rho_A)
    b_dd = Bimodule(dalg, dalg, nb, b_d.act,
                    restrict_right(right_regular(b), data.iota_B).act)
    p4b = tensor_chain(a_b, (a_bd, b_dd), b_d)
    _require(p4b @ a.mult_mat.tensor_id(1, na * nb * nb) @
             data.phi_lift.tensor_id(na, nb) @ data.phi_lift,
             p4b @ b.unit_col.tensor_id(na * na, nb) @ data.phi_lift,
             "diagram-b", (na,))
    # (c): counit-type law in A (x)_B A (x)_B A (x)_D B
    a_bb = Bimodule(b, b, na, a_bd.lact, a_b.act)
    p4c = tensor_chain(a_b, (a_bb, a_bd), b_d)
    _require(p4c @ a.unit_col.tensor_id(1, na * na * nb) @ data.phi_lift,
             p4c @ a.unit_col.tensor_id(na, na * nb) @ data.phi_lift,
             "diagram-c", (na,))
    try:
        ext = _assemble(data)
    except AxiomViolation as exc:
        raise AxiomViolation("assembled-extension-" + exc.kind, exc.witness)
    check_coring_extension(ext)


def cor28_extension(data: Cor28Data) -> CoringExtension:
    """The coring extension of the Sweedler corings of the tower."""
    check_cor28(data)
    return _assemble(data)


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
    """Push a descent datum for iota_A down to one for iota_B."""
    check_cor28(data)
    return _descend(data, d)


def _descend(data: Cor28Data, d: DescentDatum) -> DescentDatum:
    """``descent_functor`` on data that ``check_cor28`` has accepted."""
    if d.iota != data.iota_A:
        raise DimensionMismatch("descent datum is for a different map")
    ext = _assemble(data)
    com = descent_to_comodule(d)
    pushed = induced_coaction(ext, com)
    return comodule_to_descent(data.iota_B, pushed)
