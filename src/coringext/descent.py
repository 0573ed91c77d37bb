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
from .algmod import (AlgebraMap, RightModule, check_right_module,
                     left_regular, restrict_left, restrict_right)
from .coring import Comodule, make_comodule
from .constructions import sweedler_coring, sweedler_space
from .extension import CoringExtension, _cd, check_coring_extension
from .tensorcat import balanced_quotient, tensor_over
from .verdict import Verdict


@memoised
def _ma_space(iota: AlgebraMap, m: RightModule) -> QuotientSpace:
    """M (x)_B A for a right A-module M restricted along iota."""
    a = iota.target
    t = tensor_over(iota.source, restrict_right(m, iota),
                    restrict_left(left_regular(a), iota))
    return t.q


def _b_pair(iota: AlgebraMap):
    """Balancing actions of B on (A, A) through iota."""
    a = iota.target
    ract = a.mult_mat @ iota.matrix.tensor_id(a.dim, 1)  # a . iota(b)
    lact = a.mult_mat @ iota.matrix.tensor_id(1, a.dim)  # iota(b) . a
    return ract, lact


@frozen
class DescentDatum:
    """Right A-module with a canonical lift of f: M -> M (x)_B A."""

    iota: AlgebraMap  # B -> A
    M: RightModule    # over A
    f_lift: Mat       # M -> M (x) A, canonical through M (x)_B A

    def ma(self) -> QuotientSpace:
        return _ma_space(self.iota, self.M)


def check_descent_datum(d: DescentDatum) -> Verdict:
    a = d.iota.target
    if d.M.alg != a:
        raise DimensionMismatch("module is not over the target algebra")
    if d.f_lift.rows != d.M.dim * a.dim or d.f_lift.cols != d.M.dim:
        raise DimensionMismatch("descent map has wrong shape")
    v = check_right_module(d.M)
    if not v:
        return v
    im = Mat.identity(a.field, d.M.dim)
    f_a = d.f_lift.tensor_id(1, a.dim)
    proj = d.ma().projection
    lhs = proj @ d.f_lift @ d.M.act
    rhs = proj @ a.mult_mat.tensor_id(d.M.dim, 1) @ f_a
    if lhs != rhs:
        return Verdict.reject("not-A-linear")
    if d.M.act @ d.f_lift != im:
        return Verdict.reject("unit-law")
    q3 = _maa_space(d.iota, d.M)
    lhs = q3.projection @ f_a @ d.f_lift
    rhs = q3.projection @ a.unit_col.tensor_id(d.M.dim, a.dim) @ d.f_lift
    if lhs != rhs:
        return Verdict.reject("cocycle")
    return Verdict.accept()


@memoised
def _maa_space(iota: AlgebraMap, m: RightModule) -> QuotientSpace:
    a = iota.target
    b = iota.source
    ractB, lactB = _b_pair(iota)
    mb = restrict_right(m, iota)
    return balanced_quotient(
        a.field, (m.dim, a.dim, a.dim),
        {0: (mb.act, lactB, b), 1: (ractB, lactB, b)})


def make_descent_datum(iota: AlgebraMap, m: RightModule,
                       f_lift: Mat) -> DescentDatum:
    q = _ma_space(iota, m)
    d = DescentDatum(iota, m, q.canonical_lift(f_lift))
    check_descent_datum(d).raise_if_failed()
    return d


def check_descent_morphism(d1: DescentDatum, d2: DescentDatum,
                           g: Mat) -> Verdict:
    """A-linear map commuting with the descent maps."""
    if d1.iota != d2.iota:
        raise DimensionMismatch("descent data for different algebra maps")
    g_a = g.tensor_id(1, d1.iota.target.dim)
    if g @ d1.M.act != d2.M.act @ g_a:
        return Verdict.reject("not-A-linear")
    proj = d2.ma().projection
    if proj @ d2.f_lift @ g != proj @ g_a @ d1.f_lift:
        return Verdict.reject("not-descent-map")
    return Verdict.accept()


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

    def aab(self) -> QuotientSpace:
        return _aab_space(self)


def _d_pair_on_ab(data: Cor28Data):
    """Balancing actions of D between the A and B slots."""
    b = data.iota_B.target
    a = data.iota_A.target
    iota = data.iota_B.matrix
    ract = data.rho_A @ iota.tensor_id(a.dim, 1)     # a . iota_B(d)
    lact = b.mult_mat @ iota.tensor_id(1, b.dim)     # iota_B(d) . b
    return ract, lact


@memoised
def _aab_space(data: Cor28Data) -> QuotientSpace:
    a = data.iota_A.target
    b = data.iota_B.target
    dalg = data.iota_B.source
    ractA, lactA = _b_pair(data.iota_A)
    ractD, lactD = _d_pair_on_ab(data)
    return balanced_quotient(
        a.field, (a.dim, a.dim, b.dim),
        {0: (ractA, lactA, b), 1: (ractD, lactD, dalg)})


def check_cor28(data: Cor28Data) -> Verdict:
    """The three diagrams, plus validity of the assembled extension."""
    a = data.iota_A.target
    b = data.iota_B.target
    dalg = data.iota_B.source
    f = a.field
    na, nb = a.dim, b.dim
    if data.iota_B.target != data.iota_A.source:
        raise DimensionMismatch("the algebra maps do not compose")
    if data.rho_A.rows != a.dim or data.rho_A.cols != a.dim * b.dim:
        raise DimensionMismatch("rho_A has wrong shape")
    if data.phi_lift.rows != a.dim * a.dim * b.dim or \
            data.phi_lift.cols != a.dim:
        raise DimensionMismatch("phi has wrong shape")
    v = check_right_module(RightModule(b, a.dim, data.rho_A))
    if not v:
        return v
    lB = a.mult_mat @ data.iota_A.matrix.tensor_id(1, na)  # b . a on A
    if data.rho_A @ lB.tensor_id(1, nb) != lB @ data.rho_A.tensor_id(nb, 1):
        return Verdict.reject("rho-not-left-linear")
    # phi is a (B, B)-bimodule map
    qab = data.aab()
    lhs = qab.projection @ data.phi_lift @ lB
    rhs = qab.projection @ lB.tensor_id(1, na * nb) @ \
        data.phi_lift.tensor_id(nb, 1)
    if lhs != rhs:
        return Verdict.reject("phi-not-left-linear")
    lhs = qab.projection @ data.phi_lift @ data.rho_A
    rhs = qab.projection @ b.mult_mat.tensor_id(na * na, 1) @ \
        data.phi_lift.tensor_id(1, nb)
    if lhs != rhs:
        return Verdict.reject("phi-not-right-linear")
    # (a): (A (x) rho_A) phi = unit insertion in A (x)_B A
    q2 = sweedler_space(data.iota_A)
    lhs = q2.projection @ data.rho_A.tensor_id(na, 1) @ data.phi_lift
    rhs = q2.projection @ a.unit_col.tensor_id(1, na)
    if lhs != rhs:
        return Verdict.reject("diagram-a")
    # (b): coassociativity-type law in A (x)_B A (x)_D B (x)_D B
    ractA, lactA = _b_pair(data.iota_A)
    ractD_ab, lactD_ab = _d_pair_on_ab(data)
    ractD_bb = b.mult_mat @ data.iota_B.matrix.tensor_id(nb, 1)
    lactD_bb = b.mult_mat @ data.iota_B.matrix.tensor_id(1, nb)
    q4b = balanced_quotient(
        f, (a.dim, a.dim, b.dim, b.dim),
        {0: (ractA, lactA, b), 1: (ractD_ab, lactD_ab, dalg),
         2: (ractD_bb, lactD_bb, dalg)})
    lhs = q4b.projection @ a.mult_mat.tensor_id(1, na * nb * nb) @ \
        data.phi_lift.tensor_id(na, nb) @ data.phi_lift
    rhs = q4b.projection @ b.unit_col.tensor_id(na * na, nb) @ \
        data.phi_lift
    if lhs != rhs:
        return Verdict.reject("diagram-b")
    # (c): counit-type law in A (x)_B A (x)_B A (x)_D B
    q4c = balanced_quotient(
        f, (a.dim, a.dim, a.dim, b.dim),
        {0: (ractA, lactA, b), 1: (ractA, lactA, b),
         2: (ractD_ab, lactD_ab, dalg)})
    lhs = q4c.projection @ a.unit_col.tensor_id(1, na * na * nb) @ \
        data.phi_lift
    rhs = q4c.projection @ a.unit_col.tensor_id(na, na * nb) @ \
        data.phi_lift
    if lhs != rhs:
        return Verdict.reject("diagram-c")
    try:
        ext = _assemble(data)
    except AxiomViolation as exc:
        return Verdict.reject("assembled-extension-" + exc.kind,
                              exc.witness)
    return check_coring_extension(ext)


def cor28_extension(data: Cor28Data) -> CoringExtension:
    """The coring extension of the Sweedler corings of the tower."""
    check_cor28(data).raise_if_failed()
    return _assemble(data)


def _assemble(data: Cor28Data) -> CoringExtension:
    """The extension of ``data``, with sigma's canonical lift, unchecked."""
    a = data.iota_A.target
    b = data.iota_B.target
    na, nb = a.dim, b.dim
    c = sweedler_coring(data.iota_A)
    d = sweedler_coring(data.iota_B)
    qc = sweedler_space(data.iota_A)
    qd = sweedler_space(data.iota_B)
    ract = qc.projection @ data.rho_A.tensor_id(na, 1) @ \
        qc.section.tensor_id(1, nb)
    # sigma on the ambient A (x) A, then descended through qc
    g = qc.projection.kron(qd.projection @ b.unit_col.tensor_id(1, nb)) @ \
        a.mult_mat.tensor_id(1, na * nb) @ data.phi_lift.tensor_id(na, 1)
    sigma = qc.descends(g)
    if sigma is None:
        raise AxiomViolation("coaction-not-balanced")
    return CoringExtension(c, d, ract,
                           _cd(d.A, ract, d.C).canonical_lift(sigma))


def descent_functor(data: Cor28Data, d: DescentDatum) -> DescentDatum:
    """Push a descent datum for iota_A down to one for iota_B."""
    check_cor28(data).raise_if_failed()
    return _descend(data, d)


def _descend(data: Cor28Data, d: DescentDatum) -> DescentDatum:
    """``descent_functor`` on data that ``check_cor28`` has accepted."""
    if d.iota != data.iota_A:
        raise DimensionMismatch("descent datum is for a different map")
    ext = _assemble(data)
    from .extension import induced_coaction
    com = descent_to_comodule(d)
    pushed = induced_coaction(ext, com)
    return comodule_to_descent(data.iota_B, pushed)
