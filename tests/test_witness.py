"""Every rejection names a basis tuple at which its axiom really fails.

For corings, right and left comodules, colinear maps, coring maps,
measurings, right B-structures on a coring, coalgebras, descent data,
descent morphisms and Cor. 2.8 data, each identity the checker compares is
restated here as a chain of maps ``I_pre (x) m (x) I_post``, applied to
basis vectors one at a time by a plain loop.  The loop over basis tuples in
row-major order is the reference: its first failure must be the reported
kind and witness, and an accepted object must satisfy every identity.  The
objects are small fixtures, each also with one entry changed, for every
entry and every nonzero change in turn.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from coringext.errors import AxiomViolation
from coringext.exactla import GF2, GF3, QQ, Mat, kernel, rref
from coringext.algmod import (Algebra, AlgebraMap, Bimodule, LeftModule,
                              RightModule, left_regular, make_algebra_map,
                              regular_along, restrict_left, restrict_right,
                              right_regular)
from coringext.constructions import (Coalgebra, _right_linear_basis,
                                     base_algebra,
                                     check_coalgebra, coalgebra_to_coring,
                                     comatrix_coring, group_coalgebra,
                                     sweedler_coring, sweedler_space,
                                     trivial_coring)
from coringext.coring import (Comodule, Coring, LeftComodule, _ccn, _mcc,
                              _triple,
                              check_colinear, check_comodule, check_coring,
                              check_left_comodule, cofree_comodule,
                              direct_sum_comodule, dual_ring,
                              regular_comodule, regular_left_comodule)
from coringext.descent import (Cor28Data, DescentDatum, _aab_space,
                               _ab_factors, _maa_space, check_cor28,
                               check_descent_morphism, check_descent_datum,
                               comodule_to_descent, descent_functor,
                               descent_to_comodule, make_descent_datum)
from coringext.extension import (Measuring, action_from_measuring,
                                 check_measuring, check_right_b_structure,
                                 enumerate_measurings,
                                 extension_from_coring_map)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                matrix_algebra_2, sw_coring, unit_map)
from coringext.tensorcat import descend_map, tensor_chain

import test_constructions
from test_algmod import ref_algebra, ref_unit
from test_constructions import ref_flip_entwining, ref_twisted_convolution

FIELDS = [GF2, GF3, QQ]


# -- reference: identities evaluated on one basis tuple at a time ----------


def apply_stage(f, vec, stage):
    """``I_pre (x) m (x) I_post`` applied to ``vec``; a bare Mat is
    ``(1, m, 1)``."""
    pre, m, post = stage if isinstance(stage, tuple) else (1, stage, 1)
    assert len(vec) == pre * m.cols * post
    out = [f.zero] * (pre * m.rows * post)
    for i in range(pre):
        for c in range(m.cols):
            for j in range(post):
                x = vec[(i * m.cols + c) * post + j]
                if x == f.zero:
                    continue
                for r in range(m.rows):
                    y = m.entries[r][c]
                    if y != f.zero:
                        k = (i * m.rows + r) * post + j
                        out[k] = f.add(out[k], f.mul(y, x))
    return out


def chain(f, *stages):
    """The composite of ``stages``, the first applied first."""
    def run(vec):
        for stage in stages:
            vec = apply_stage(f, vec, stage)
        return vec
    return run


def basis_vector(f, dims, t):
    """e_t0 (x) e_t1 (x) ... in row-major coordinates."""
    vec = [f.one]
    for d, i in zip(dims, t):
        vec = [x if k == i else f.zero for x in vec for k in range(d)]
    return vec


def first_failure(f, dims, lhs, rhs):
    """The first basis tuple, in row-major order, where the sides differ."""
    for t in itertools.product(*(range(d) for d in dims)):
        e = basis_vector(f, dims, t)
        if lhs(e) != rhs(e):
            return t
    return None


def ref_outcome(f, identities):
    """The first ``(kind, tuple)`` at which one of the identities, taken in
    order, fails, or None.  Each identity is ``(kind, dims, build)``;
    ``build()`` returns its two sides and runs only once the earlier
    identities hold, since a home of a later one may need them."""
    for kind, dims, build in identities:
        lhs, rhs = build()
        t = first_failure(f, dims, lhs, rhs)
        if t is not None:
            return kind, t
    return None


def outcome(check, *args):
    try:
        check(*args)
    except AxiomViolation as exc:
        return exc.kind, exc.witness
    return None


def perturbations(f, m):
    """``m`` with one entry changed, for every entry and every nonzero
    change (over Q: by +1)."""
    deltas = range(1, f.p) if f.p is not None else (1,)
    for r in range(m.rows):
        for c in range(m.cols):
            for d in deltas:
                rows = [list(row) for row in m.entries]
                rows[r][c] = f.add(rows[r][c], f.of(d))
                yield Mat.from_rows(f, rows)


def against_loop(cases, prechecks=(), after=()):
    """Run every case ``(check, args, f, identities)``; return the kinds
    reported.  A kind from ``prechecks`` comes from a sub-check that runs
    before the identities and is tested elsewhere; one from ``after`` comes
    after them, so all of them must hold."""
    seen = set()
    for check, args, f, identities in cases:
        got = outcome(check, *args)
        if got is not None and got[0] in prechecks:
            continue
        if got is not None and got[0].startswith(after):
            assert ref_outcome(f, identities) is None
        else:
            assert got == ref_outcome(f, identities), args
        seen.add(None if got is None else got[0])
    return seen


def ident(vec):
    return vec


# -- measurings and right B-structures -------------------------------------


def measuring_identities(m):
    c, b, nu = m.coring, m.B, m.nu
    f, na, nb, nc = c.A.field, c.A.dim, b.dim, c.dim
    return [
        ("not-left-linear", (na, nc, nb),
         lambda: (chain(f, (1, c.C.lact, nb), nu),
                  chain(f, (na, nu, 1), c.A.mult_mat))),
        ("unit-diagram", (nc,),
         lambda: (chain(f, (nc, b.unit_col, 1), nu), chain(f, c.eps))),
        # nu(x (x) b1 b2) = nu(x_(1) nu(x_(2) (x) b1) (x) b2)
        ("multiplication-diagram", (nc, nb, nb),
         lambda: (chain(f, (nc, b.mult_mat, 1), nu),
                  chain(f, (1, c.delta_lift, nb * nb), (nc, nu, nb),
                        (1, c.C.ract, nb), nu))),
    ]


def measuring_fixtures():
    for f in FIELDS:
        # the counit is a measuring by the base field
        for c in (sw_coring(f), gc2_coring(f)):
            yield Measuring(c, base_algebra(f), c.eps)
    for c, b in ((sw_coring(GF2), d2_algebra(GF2)),
                 (sw_coring(GF3), d2_algebra(GF3)),
                 (gc2_coring(GF3), c2_group_algebra(GF3)),
                 (gc3_coring(GF3), c2_group_algebra(GF3)),
                 (gc3_coring(GF2), d2_algebra(GF2)),
                 (trivial_coring(d2_algebra(GF2)), c2_group_algebra(GF2))):
        yield from enumerate_measurings(c, b)[:3]


def gc3_coring(f):
    """Three group-likes: C and B differ in dimension."""
    return coalgebra_to_coring(group_coalgebra(f, 3))


def right_b_identities(c, b, ract):
    f, na, nb, nc = c.A.field, c.A.dim, b.dim, c.dim
    proj = c.cc().projection
    return [
        ("actions-do-not-commute", (na, nc, nb),
         lambda: (chain(f, (na, ract, 1), c.C.lact),
                  chain(f, (1, c.C.lact, nb), ract))),
        ("coproduct-not-right-linear", (nc, nb),
         lambda: (chain(f, ract, c.delta_lift, proj),
                  chain(f, (1, c.delta_lift, nb), (nc, ract, 1), proj))),
    ]


def elementary(f, n):
    """I + E_01 and its inverse."""
    h = [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]
    h_inv = [row[:] for row in h]
    h[0][1], h_inv[0][1] = f.one, f.neg(f.one)
    return Mat.from_rows(f, h), Mat.from_rows(f, h_inv)


def right_b_actions():
    """The action of each measuring, and C's own right A-action on the
    Sweedler coring of k -> k[C2], whose unit is basis element 0; each
    also transported along a basis change of C, which keeps a right
    B-module whose B-action need not commute with the A-action."""
    actions = [(m.coring, m.B, action_from_measuring(m))
               for m in measuring_fixtures()]
    for f in FIELDS:
        c = sweedler_coring(unit_map(f, c2_group_algebra(f)))
        actions.append((c, c.A, c.C.ract))
    for c, b, ract in actions:
        h, h_inv = elementary(c.A.field, c.dim)
        yield c, b, ract
        yield c, b, h_inv @ ract @ h.kron(Mat.identity(c.A.field, b.dim))


class TestMeasurings:
    def test_measuring(self):
        cases = []
        for m in measuring_fixtures():
            f = m.coring.A.field
            for nu in perturbations(f, m.nu):
                bad = Measuring(m.coring, m.B, nu)
                cases.append((check_measuring, (bad,), f,
                              measuring_identities(bad)))
        assert against_loop(cases) == {
            None, "not-left-linear", "unit-diagram",
            "multiplication-diagram"}

    def test_right_b_structure(self):
        cases = []
        for c, b, action in right_b_actions():
            for ract in [action, *perturbations(c.A.field, action)]:
                cases.append((check_right_b_structure, (c, b, ract),
                              c.A.field, right_b_identities(c, b, ract)))
        assert against_loop(cases, prechecks={"unital", "right-assoc"}) == {
            None, "actions-do-not-commute", "coproduct-not-right-linear"}


# -- coalgebras --------------------------------------------------------------


def divided_powers(f, n):
    """delta(d_k) = sum_i d_i (x) d_(k-i), eps(d_k) = [k = 0]."""
    cols = [tuple(f.one if i + j == k else f.zero
                  for i in range(n) for j in range(n)) for k in range(n)]
    eps = Mat.from_rows(f, [[f.one] + [f.zero] * (n - 1)])
    return Coalgebra(f, n, Mat.from_cols(f, cols), eps)


def coalgebra_identities(c):
    f, n = c.field, c.dim

    def counit_laws():
        left = chain(f, c.delta, (1, c.eps, n))
        right = chain(f, c.delta, (n, c.eps, 1))
        return (lambda e: left(e) + right(e)), (lambda e: e + e)

    return [
        ("coassoc", (n,),
         lambda: (chain(f, c.delta, (1, c.delta, n)),
                  chain(f, c.delta, (n, c.delta, 1)))),
        ("counit", (n,), counit_laws),
    ]


class TestCoalgebra:
    def test_coalgebra(self):
        cases = []
        for f in FIELDS:
            for c in (group_coalgebra(f, 2), group_coalgebra(f, 3),
                      divided_powers(f, 3)):
                for delta in perturbations(f, c.delta):
                    bad = Coalgebra(f, c.dim, delta, c.eps)
                    cases.append((check_coalgebra, (bad,), f,
                                  coalgebra_identities(bad)))
                for eps in perturbations(f, c.eps):
                    bad = Coalgebra(f, c.dim, c.delta, eps)
                    cases.append((check_coalgebra, (bad,), f,
                                  coalgebra_identities(bad)))
        assert against_loop(cases) == {None, "coassoc", "counit"}

    def test_stacked_counit_laws(self):
        # group-likes with eps = (1, 0): the left and right counit laws
        # both fail first at e_1, so the stacked comparison reports (1,)
        c = group_coalgebra(GF3, 2)
        bad = Coalgebra(GF3, 2, c.delta, Mat.from_rows(GF3, [[1, 0]]))
        assert outcome(check_coalgebra, bad) == ("counit", (1,))


# -- descent data and their morphisms ---------------------------------------


def iotas(f):
    a, b = d2_algebra(f), c2_group_algebra(f)
    return [make_algebra_map(a, a, Mat.identity(f, 2)), unit_map(f, a),
            unit_map(f, b)]


def canonical_datum(iota):
    """The free datum on M = A: f(x) = 1 (x) x."""
    a = iota.target
    return make_descent_datum(iota, right_regular(a),
                              a.unit_col.kron(Mat.identity(a.field, a.dim)))


def free_data(f):
    """The free datum on A for each iota, and on A (+) A."""
    for iota in iotas(f):
        d = canonical_datum(iota)
        com = descent_to_comodule(d)
        yield d, comodule_to_descent(iota, direct_sum_comodule(com, com))


def descent_identities(d):
    a = d.iota.target
    f, na, nm = a.field, a.dim, d.M.dim
    return [
        ("not-A-linear", (nm, na),
         lambda: (chain(f, d.M.act, d.f_lift, d.ma().projection),
                  chain(f, (1, d.f_lift, na), (nm, a.mult_mat, 1),
                        d.ma().projection))),
        ("unit-law", (nm,), lambda: (chain(f, d.f_lift, d.M.act), ident)),
        ("cocycle", (nm,),
         lambda: (chain(f, d.f_lift, (1, d.f_lift, na),
                        _maa_space(d.iota, d.M)),
                  chain(f, d.f_lift, (nm, a.unit_col, na),
                        _maa_space(d.iota, d.M)))),
    ]


def morphism_identities(d1, d2, g):
    f, na, n1 = g.field, d1.iota.target.dim, d1.M.dim
    proj = d2.ma().projection
    return [
        ("not-A-linear", (n1, na),
         lambda: (chain(f, d1.M.act, g), chain(f, (1, g, na), d2.M.act))),
        ("not-descent-map", (n1,),
         lambda: (chain(f, g, d2.f_lift, proj),
                  chain(f, d1.f_lift, (1, g, na), proj))),
    ]


class TestDescent:
    def test_descent_datum(self):
        cases = []
        for f in FIELDS:
            for d in itertools.chain(*free_data(f)):
                for lift in perturbations(f, d.f_lift):
                    bad = DescentDatum(d.iota, d.M, lift)
                    cases.append((check_descent_datum, (bad,), f,
                                  descent_identities(bad)))
        assert against_loop(cases) == {None, "not-A-linear", "unit-law",
                                       "cocycle"}

    def test_descent_morphism(self):
        # the identity of A, and the projection of A (+) A onto its first
        # summand
        cases = []
        for f in FIELDS:
            for d, dd in free_data(f):
                n = d.M.dim
                first = Mat.identity(f, n).kron(Mat.from_rows(f, [[1, 0]]))
                for d1, d2, m in ((d, d, Mat.identity(f, n)),
                                  (dd, d, first)):
                    cases += [(check_descent_morphism, (d1, d2, g), f,
                               morphism_identities(d1, d2, g))
                              for g in [m, *perturbations(f, m)]]
        assert against_loop(cases) == {None, "not-A-linear",
                                       "not-descent-map"}


# -- Cor. 2.8 data -----------------------------------------------------------


def diagonal(f, n):
    """k^n: n orthogonal idempotents."""
    return ref_algebra(f, n, tuple(tuple(tuple(
        f.one if i == j == l else f.zero for l in range(n))
        for j in range(n)) for i in range(n)), (f.one,) * n)


def cor28_fixtures(f):
    """Data for D -> B -> A with B = D2 and A = k^3 under (x, y) ->
    (x, y, y), and for k -> k -> D2.

    Valid: D = k = B, phi(a) = 1 (x) a (x) 1; and D = B, phi likewise.
    Invalid: the second with its action transported along a basis change
    of A, a right module that is not left B-linear, and the same for
    B = D = k[C2], whose unit is basis element 0, under 1, g -> 1, (1, -1,
    -1); and D = k, phi(a) = sum_i 1 (x) a e_i (x) e_i over the idempotents
    e_i of B, which passes the linearity laws and (a) but not (b)."""
    k, b, a = base_algebra(f), d2_algebra(f), diagonal(f, 3)
    iota = make_algebra_map(b, a, Mat.from_rows(f, [[1, 0], [0, 1], [0, 1]]))
    ia, ib = Mat.identity(f, 3), Mat.identity(f, 2)
    rho = a.mult_mat @ iota.matrix.tensor_id(3, 1)
    h, h_inv = elementary(f, 3)
    e = [Mat.from_cols(f, [col]) for col in ((1, 0), (0, 1))]
    separable = Mat.from_cols(f, [
        (a.unit_col.kron(rho @ x.kron(e[0])).kron(e[0]) +
         a.unit_col.kron(rho @ x.kron(e[1])).kron(e[1])).col(0)
        for x in (Mat.from_cols(f, [col]) for col in ia.entries)])
    c2 = c2_group_algebra(f)
    iota_c2 = make_algebra_map(c2, a, Mat.from_rows(
        f, [[1, 1], [1, -1], [1, -1]]))
    rho_c2 = a.mult_mat @ iota_c2.matrix.tensor_id(3, 1)
    return [Cor28Data(make_algebra_map(k, k, Mat.identity(f, 1)),
                      unit_map(f, b), ib,
                      b.unit_col.kron(ib).kron(Mat.identity(f, 1))),
            Cor28Data(make_algebra_map(b, b, ib), iota, rho,
                      a.unit_col.kron(ia).kron(b.unit_col)),
            Cor28Data(make_algebra_map(b, b, ib), iota,
                      h_inv @ rho @ h.kron(ib),
                      a.unit_col.kron(ia).kron(b.unit_col)),
            Cor28Data(make_algebra_map(c2, c2, ib), iota_c2,
                      h_inv @ rho_c2 @ h.kron(ib),
                      a.unit_col.kron(ia).kron(c2.unit_col)),
            Cor28Data(unit_map(f, b), iota, rho, separable),
            *([diagram_c_datum()] if f == GF2 else [])]


def diagram_c_datum():
    """k -> D2 -> M_2 over GF(2), with D2 the diagonal of M_2 and rho_A the
    right multiplication, and a phi that passes the linearity laws, (a) and
    (b) but not (c).  A seeded search over the 72-dim affine space of lifts
    that the linearity laws and (a) leave found it.  Its lift has 8 entries
    1, at (a (x) a' (x) b, basis element of A):
    phi(E11) = E11 (x) E11 (x) e1 + E12 (x) E22 (x) e1, phi(E12) = E11 (x)
    E12 (x) e2 + E12 (x) E21 (x) e2, phi(E21) = E21 (x) E12 (x) e1 + E22
    (x) E21 (x) e1, phi(E22) = E21 (x) E11 (x) e2 + E22 (x) E22 (x) e2."""
    f = GF2
    b, a = d2_algebra(f), matrix_algebra_2(f)
    iota = make_algebra_map(b, a, Mat.from_rows(
        f, [[1, 0], [0, 0], [0, 0], [0, 1]]))
    ones = {0: 0, 3: 1, 13: 1, 14: 0, 17: 3, 18: 2, 28: 2, 31: 3}
    phi = Mat.from_sparse_rows(f, 32, 4, [
        {ones[r]: 1} if r in ones else {} for r in range(32)])
    return Cor28Data(unit_map(f, b), iota,
                     a.mult_mat @ iota.matrix.tensor_id(4, 1), phi)


def ab_factors(data):
    """The factors of (A (x)_B A) (x)_D B, as ``check_cor28`` builds them."""
    return _ab_factors(data.iota_B, regular_along(data.iota_A),
                       regular_along(data.iota_B), data.rho_A)


def aab(data):
    """The projection onto (A (x)_B A) (x)_D B."""
    return _aab_space(*ab_factors(data))


def cor28_identities(data):
    a, b = data.iota_A.target, data.iota_B.target
    dalg = data.iota_B.source
    f, na, nb = a.field, a.dim, b.dim
    rho, phi = data.rho_A, data.phi_lift
    lB = restrict_left(left_regular(a), data.iota_A).act

    def phi_left():
        pab = aab(data)
        return (chain(f, lB, phi, pab),
                chain(f, (nb, phi, 1), (1, lB, na * nb), pab))

    def phi_right():
        pab = aab(data)
        return (chain(f, rho, phi, pab),
                chain(f, (1, phi, nb), (na * na, b.mult_mat, 1), pab))

    def diagram_a():
        q2 = sweedler_space(data.iota_A).projection
        return (chain(f, phi, (na, rho, 1), q2),
                chain(f, (1, a.unit_col, na), q2))

    def diagram_b():
        """In (A (x)_B A) (x)_D B (x)_D B."""
        a_b, a_bd, b_d = ab_factors(data)
        b_dd = Bimodule(dalg, dalg, nb, b_d.act,
                        restrict_right(right_regular(b), data.iota_B).act)
        p4b = tensor_chain(a_b, (a_bd, b_dd), b_d)
        return (chain(f, phi, (na, phi, nb), (1, a.mult_mat, na * nb * nb),
                      p4b),
                chain(f, phi, (na * na, b.unit_col, nb), p4b))

    def diagram_c():
        """In A (x)_B A (x)_B A (x)_D B."""
        a_b, a_bd, b_d = ab_factors(data)
        a_bb = Bimodule(b, b, na, a_bd.lact, a_b.act)
        p4c = tensor_chain(a_b, (a_bb, a_bd), b_d)
        return (chain(f, phi, (1, a.unit_col, na * na * nb), p4c),
                chain(f, phi, (na, a.unit_col, na * nb), p4c))

    return [
        ("rho-not-left-linear", (nb, na, nb),
         lambda: (chain(f, (1, lB, nb), rho), chain(f, (nb, rho, 1), lB))),
        ("phi-not-left-linear", (nb, na), phi_left),
        ("phi-not-right-linear", (na, nb), phi_right),
        ("diagram-a", (na,), diagram_a),
        ("diagram-b", (na,), diagram_b),
        ("diagram-c", (na,), diagram_c),
    ]


class TestCor28:
    def test_cor28(self):
        cases = []
        for f in FIELDS:
            for data in cor28_fixtures(f):
                bads = [data]
                bads += [Cor28Data(data.iota_B, data.iota_A, rho,
                                   data.phi_lift)
                         for rho in perturbations(f, data.rho_A)]
                bads += [Cor28Data(data.iota_B, data.iota_A, data.rho_A,
                                   phi)
                         for phi in perturbations(f, data.phi_lift)]
                cases += [(check_cor28, (bad,), f, cor28_identities(bad))
                          for bad in bads]
        seen = against_loop(cases, prechecks={"unital", "right-assoc"},
                            after="assembled-extension-")
        # (c) is reached through diagram_c_datum; with D = B, (a) implies it
        assert seen == {None, "rho-not-left-linear", "phi-not-left-linear",
                        "phi-not-right-linear", "diagram-a", "diagram-b",
                        "diagram-c"}

    def test_verdict_ignores_the_lift(self):
        """A one-entry change of phi_lift that leaves phi, its image in
        (A (x)_B A) (x)_D B, unchanged leaves the verdict unchanged."""
        changed = 0
        for f in FIELDS:
            for data in cor28_fixtures(f):
                pab = aab(data)
                want = outcome(check_cor28, data)
                for phi in perturbations(f, data.phi_lift):
                    if pab @ phi == pab @ data.phi_lift:
                        bad = Cor28Data(data.iota_B, data.iota_A,
                                        data.rho_A, phi)
                        assert outcome(check_cor28, bad) == want
                        changed += want is None
        # 24 of these lifts (6 over GF(2), 12 over GF(3), 6 over Q) give a
        # sigma that is not balanced as a map into C (x)_k D
        assert changed == 156


def accepted_cor28(f):
    return [data for data in cor28_fixtures(f)
            if outcome(check_cor28, data) is None]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.integers(0, 10 ** 6))
def test_lifts_of_an_accepted_phi_are_accepted(f, which, seed):
    """Kernel vectors of the projection onto (A (x)_B A) (x)_D B, added to
    an accepted lift, give an accepted lift and the same pushed datum."""
    accepted = accepted_cor28(f)
    data = accepted[which % len(accepted)]
    rng = random.Random(seed)
    vals = range(f.p) if f.p is not None else range(-2, 3)
    kern = kernel(aab(data))
    coeffs = Mat.from_sparse_rows(f, data.phi_lift.cols, kern.rows, [
        {r: f.of(c) for r in range(kern.rows) if (c := rng.choice(vals))}
        for _ in range(data.phi_lift.cols)])
    shift = (coeffs @ kern).transpose()
    lifted = Cor28Data(data.iota_B, data.iota_A, data.rho_A,
                       data.phi_lift + shift)
    assert outcome(check_cor28, lifted) is None
    d = canonical_datum(data.iota_A)
    assert descent_functor(lifted, d) == descent_functor(data, d)


# -- corings, comodules, colinear maps and coring maps ----------------------


BIMODULE_KINDS = {"unital", "left-assoc", "right-assoc", "commuting-actions"}


def corings(f):
    return [sw_coring(f), gc2_coring(f), trivial_coring(d2_algebra(f))]


def coring_identities(c):
    a = c.A
    f, na, nc = a.field, a.dim, c.dim
    d, eps, lact, ract = c.delta_lift, c.eps, c.C.lact, c.C.ract
    proj = c.cc().projection
    return [
        ("bilinearity", (na, nc),
         lambda: (chain(f, lact, eps), chain(f, (na, eps, 1), a.mult_mat))),
        ("bilinearity", (nc, na),
         lambda: (chain(f, ract, eps), chain(f, (1, eps, na), a.mult_mat))),
        ("bilinearity", (na, nc),
         lambda: (chain(f, lact, d, proj),
                  chain(f, (na, d, 1), (1, lact, nc), proj))),
        ("bilinearity", (nc, na),
         lambda: (chain(f, ract, d, proj),
                  chain(f, (1, d, na), (nc, ract, 1), proj))),
        ("coassoc", (nc,),
         lambda: (chain(f, d, (1, d, nc), _triple(c.C)),
                  chain(f, d, (nc, d, 1), _triple(c.C)))),
        ("counit-left", (nc,), lambda: (chain(f, d, (1, eps, nc), lact),
                                        ident)),
        ("counit-right", (nc,), lambda: (chain(f, d, (nc, eps, 1), ract),
                                         ident)),
    ]


def comodule_identities(m):
    c = m.coring
    f, na, nc, nm = c.A.field, c.A.dim, c.dim, m.dim
    rho = m.rho_lift
    return [
        ("A-linearity", (nm, na),
         lambda: (chain(f, m.M.act, rho, m.mc().projection),
                  chain(f, (1, rho, na), (nm, c.C.ract, 1),
                        m.mc().projection))),
        ("coassoc", (nm,),
         lambda: (chain(f, rho, (1, rho, nc), _mcc(m.M, c.C)),
                  chain(f, rho, (nm, c.delta_lift, 1), _mcc(m.M, c.C)))),
        ("counit", (nm,),
         lambda: (chain(f, rho, (nm, c.eps, 1), m.M.act), ident)),
    ]


def left_comodule_identities(n):
    c = n.coring
    f, na, nc, nn = c.A.field, c.A.dim, c.dim, n.dim
    lam = n.lambda_lift
    return [
        ("A-linearity", (na, nn),
         lambda: (chain(f, n.N.act, lam, n.cn().projection),
                  chain(f, (na, lam, 1), (1, c.C.lact, nn),
                        n.cn().projection))),
        ("coassoc", (nn,),
         lambda: (chain(f, lam, (1, c.delta_lift, nn), _ccn(c.C, n.N)),
                  chain(f, lam, (nc, lam, 1), _ccn(c.C, n.N)))),
        ("counit", (nn,),
         lambda: (chain(f, lam, (1, c.eps, nn), n.N.act), ident)),
    ]


def colinear_identities(g, m, n):
    c = m.coring
    f, na, nc = c.A.field, c.A.dim, c.dim
    proj = n.mc().projection
    return [
        ("not-A-linear", (m.dim, na),
         lambda: (chain(f, m.M.act, g), chain(f, (1, g, na), n.M.act))),
        ("not-colinear", (m.dim,),
         lambda: (chain(f, g, n.rho_lift, proj),
                  chain(f, m.rho_lift, (1, g, nc), proj))),
    ]


def coring_map_identities(g, c, d):
    """Left and right A-linearity of g both read at a (x) x, the second
    through a plain index flip."""
    f, na, nc = c.A.field, c.A.dim, c.dim
    proj = d.cc().projection

    def flip(vec):
        return [vec[i * nc + x] for x in range(nc) for i in range(na)]

    def bilinearity():
        left = chain(f, c.C.lact, g), chain(f, (na, g, 1), d.C.lact)
        right = chain(f, c.C.ract, g), chain(f, (1, g, na), d.C.ract)
        return ((lambda e: left[0](e) + right[0](flip(e))),
                (lambda e: left[1](e) + right[1](flip(e))))

    return [
        ("coring-map-bilinearity", (na, nc), bilinearity),
        ("coring-map-counit", (nc,),
         lambda: (chain(f, g, d.eps), chain(f, c.eps))),
        ("coring-map-coproduct", (nc,),
         lambda: (chain(f, g, d.delta_lift, proj),
                  chain(f, c.delta_lift, (1, g, nc), (d.dim, g, 1), proj))),
    ]


def comodules(c):
    reg = regular_comodule(c)
    # k through the character of A that is 1 at basis element 0
    chi = [[1] + [0] * (c.A.dim - 1)]
    x = RightModule(c.A, 1, Mat.from_rows(c.A.field, chi))
    return [reg, cofree_comodule(c, x)]


class TestCoring:
    def test_coring(self):
        cases = []
        for f in FIELDS:
            for c in corings(f):
                bads = [Coring(c.A, c.C, d, c.eps)
                        for d in perturbations(f, c.delta_lift)]
                bads += [Coring(c.A, c.C, c.delta_lift, eps)
                         for eps in perturbations(f, c.eps)]
                bads += [Coring(c.A, Bimodule(c.A, c.A, c.dim, lact, c.C.ract),
                                c.delta_lift, c.eps)
                         for lact in perturbations(f, c.C.lact)]
                bads += [Coring(c.A, Bimodule(c.A, c.A, c.dim, c.C.lact, ract),
                                c.delta_lift, c.eps)
                         for ract in perturbations(f, c.C.ract)]
                cases += [(check_coring, (bad,), f, coring_identities(bad))
                          for bad in bads]
        # no one-entry change fails counit-right first: a change of the
        # right action breaks the bimodule first, and a change of delta or
        # eps that breaks the right counit law breaks the left one too
        assert against_loop(cases, prechecks=BIMODULE_KINDS) == {
            None, "bilinearity", "coassoc", "counit-left"}


class TestComodules:
    def test_comodule(self):
        cases = []
        for f in FIELDS:
            for c in corings(f):
                for m in comodules(c):
                    bads = [Comodule(c, m.M, rho)
                            for rho in perturbations(f, m.rho_lift)]
                    bads += [Comodule(c, RightModule(c.A, m.dim, act),
                                      m.rho_lift)
                             for act in perturbations(f, m.M.act)]
                    cases += [(check_comodule, (bad,), f,
                               comodule_identities(bad)) for bad in bads]
        assert against_loop(cases, prechecks={"unital", "right-assoc"}) == {
            None, "A-linearity", "coassoc", "counit"}

    def test_left_comodule(self):
        cases = []
        for f in FIELDS:
            for c in corings(f):
                n = regular_left_comodule(c)
                bads = [LeftComodule(c, n.N, lam)
                        for lam in perturbations(f, n.lambda_lift)]
                bads += [LeftComodule(c, LeftModule(c.A, n.dim, act),
                                      n.lambda_lift)
                         for act in perturbations(f, n.N.act)]
                cases += [(check_left_comodule, (bad,), f,
                           left_comodule_identities(bad)) for bad in bads]
        assert against_loop(cases, prechecks={"unital", "left-assoc"}) == {
            None, "A-linearity", "coassoc", "counit"}

    def test_colinear(self):
        cases = []
        for f in FIELDS:
            for c in corings(f):
                reg = regular_comodule(c)
                ds = direct_sum_comodule(reg, reg)
                n = reg.dim
                inc = Mat.identity(f, n).stack(Mat.identity(f, n))
                for m, t, g in ((reg, reg, Mat.identity(f, n)),
                                (reg, ds, inc)):
                    cases += [(check_colinear, (h, m, t), f,
                               colinear_identities(h, m, t))
                              for h in [g, *perturbations(f, g)]]
        assert against_loop(cases) == {None, "not-A-linear", "not-colinear"}

    def test_coring_map(self):
        cases = []
        for f in FIELDS:
            sw, gc2 = sw_coring(f), gc2_coring(f)
            triv = trivial_coring(d2_algebra(f))
            for g, c, d in ((sw.eps, sw, triv),
                            (Mat.identity(f, sw.dim), sw, sw),
                            (Mat.identity(f, triv.dim), triv, triv),
                            (Mat.identity(f, gc2.dim), gc2, gc2)):
                cases += [(extension_from_coring_map, (h, c, d), f,
                           coring_map_identities(h, c, d))
                          for h in [g, *perturbations(f, g)]]
        assert against_loop(cases) == {
            None, "coring-map-bilinearity", "coring-map-counit",
            "coring-map-coproduct"}


# -- rejections outside the check_* functions -------------------------------


def not_balanced(f, q, m, dims):
    """The reference for a map m on the ambient of q: the first ambient
    tuple v with m(v) != m(section(projection(v)))."""
    return first_failure(f, dims, chain(f, m),
                         chain(f, q.projection, q.section, m))


class TestNotBalanced:
    def test_descend_map(self):
        # maps on A (x)_B A: the counit, the projection, and every
        # one-entry change of them
        kinds = set()
        for f in FIELDS:
            for iota in iotas(f):
                q = sweedler_space(iota)
                n = iota.target.dim
                for m0 in (iota.target.mult_mat, q.projection):
                    for m in [m0, *perturbations(f, m0)]:
                        got = outcome(descend_map, q, m, "k", (n, n))
                        t = not_balanced(f, q, m, (n, n))
                        assert got == (None if t is None else ("k", t))
                        if got is None:
                            assert descend_map(q, m, "k", (n, n)) @ \
                                q.projection == m
                        kinds.add(got)
        assert None in kinds and len(kinds) > 2

    def test_sweedler_counit(self):
        # k -> A for an unchecked, non-associative A: the counit, A's
        # multiplication, is not balanced over k (x) A
        seen = set()
        for f in (GF2, GF3):
            for a0 in (d2_algebra(f), c2_group_algebra(f)):
                n = a0.dim
                for mult in perturbations(f, a0.mult_mat):
                    a = Algebra(f, n, mult, a0.unit_col)
                    iota = AlgebraMap(base_algebra(f), a, a.unit_col)
                    got = outcome(sweedler_coring, iota)
                    if got is None or got[0] in BIMODULE_KINDS:
                        continue
                    assert got == ("sweedler-counit-not-balanced",
                                   not_balanced(f, sweedler_space(iota),
                                                a.mult_mat, (n, n)))
                    seen.add(got[1])
        assert len(seen) > 1


class TestOtherRejections:
    def test_counit_not_left_linear(self):
        # dual_ring of an unchecked coring whose counit has one entry
        # changed; the product table does not involve the counit
        cases = []
        for f in FIELDS:
            for c in corings(f):
                a = c.A
                for eps in perturbations(f, c.eps):
                    bad = Coring(a, c.C, c.delta_lift, eps)
                    cases.append((dual_ring, (bad,), f, [
                        ("counit-not-left-linear", (a.dim, c.dim),
                         lambda f=f, a=a, bad=bad: (
                             chain(f, bad.C.lact, bad.eps),
                             chain(f, (a.dim, bad.eps, 1), a.mult_mat)))]))
        assert against_loop(cases, after=("unitality",)) == {
            "counit-not-left-linear", "unitality"}

    def test_not_in_sigma_star(self):
        # Sigma = A as an unchecked (A, A)-bimodule whose left action has
        # one entry changed: g_t . b_j need not be right A-linear
        seen = set()
        for f in (GF2, GF3):
            for a in (d2_algebra(f), c2_group_algebra(f)):
                n = a.dim
                db = ((ref_unit(a),), (Mat.identity(f, n),))
                for lact in perturbations(f, a.mult_mat):
                    sigma = Bimodule(a, a, n, lact, a.mult_mat)
                    star = _right_linear_basis(sigma)
                    e = Mat.identity(f, n)
                    # a_i . g_t at (i, t), then g_t . b_j at (t, j)
                    maps = [((i, t), a.mult_mat @ Mat.from_cols(
                        f, [e.col(i)]).tensor_id(1, n) @ g)
                        for i in range(n) for t, g in enumerate(star)]
                    maps += [((t, j), g @ lact @ Mat.from_cols(
                        f, [e.col(j)]).tensor_id(1, n))
                        for t, g in enumerate(star) for j in range(n)]
                    # the first that is not right A-linear: h(s a) != h(s) a
                    ref = next((w for w, h in maps if first_failure(
                        f, (n, n), chain(f, a.mult_mat, h),
                        chain(f, (1, h, n), a.mult_mat))), None)
                    got = outcome(comatrix_coring, sigma, *db)
                    if ref is None:
                        assert got is None or got[0] != "not-in-sigma-star"
                    else:
                        assert got == ("not-in-sigma-star", ref)
                        seen.add(ref)
        assert len(seen) > 1

    def test_dual_basis_functionals_lie_in_sigma_star(self):
        # check_dual_basis has required each functional to be right
        # A-linear, so no functional is rejected as not in Sigma*: a
        # one-index not-in-sigma-star never comes
        kinds = set()
        for f in (GF2, GF3):
            for a in (d2_algebra(f), c2_group_algebra(f)):
                n = a.dim
                sigma = Bimodule(a, a, n, a.mult_mat, a.mult_mat)
                e = Mat.identity(f, n)
                # 1 with the identity; for D2 also e_i with s -> e_i s
                bases = [((ref_unit(a),), (e,))]
                if a == d2_algebra(f):
                    bases.append((tuple(e.col(i) for i in range(n)), tuple(
                        a.mult_mat @ Mat.from_cols(f, [e.col(i)]).tensor_id(
                            1, n)
                        for i in range(n))))
                for elements, functionals in bases:
                    for i, g in enumerate(functionals):
                        for h in perturbations(f, g):
                            changed = functionals[:i] + (h,) + \
                                functionals[i + 1:]
                            got = outcome(comatrix_coring, sigma,
                                          elements, changed)
                            assert got is None or \
                                got[0] != "not-in-sigma-star", got
                            kinds.add(got and got[0])
        assert kinds == {None, "functional-not-right-linear",
                         "dual-basis-identity"}

    def test_twisted_convolution_witnesses(self, monkeypatch):
        # no entwining reaches these kinds; a stand-in dual ring reader
        # and algebra map show which basis index each names
        e = ref_flip_entwining(d2_algebra(GF3), group_coalgebra(GF3, 3))
        real_coords = test_constructions.coords
        calls = []

        def coords_failing_at_4(basis, nu):
            calls.append(nu)
            return None if len(calls) == 5 else real_coords(basis, nu)

        monkeypatch.setattr(test_constructions, "coords", coords_failing_at_4)
        assert outcome(ref_twisted_convolution, e) == \
            ("hom-tensor-image-not-left-linear", (4,))

        made = []

        def singular(source, target, m):
            cols = [m.col(j) for j in range(m.cols)]
            cols[4] = tuple(GF3.add(x, y) for x, y in zip(cols[1], cols[3]))
            cols[5] = cols[0]
            made.append(Mat.from_cols(GF3, cols))
            return AlgebraMap(source, target, made[-1])

        monkeypatch.setattr(test_constructions, "coords", real_coords)
        monkeypatch.setattr(test_constructions, "make_algebra_map", singular)
        got = outcome(ref_twisted_convolution, e)
        # the witness is the first column in the span of those before it
        m = made[-1]
        first = next(k for k in range(m.cols)
                     if rref(Mat.from_cols(GF3, [m.col(j) for j in
                                                 range(k + 1)]))[0].rows <= k)
        assert got == ("twisted-convolution-iso-not-bijective", (first,))
        assert first == 4
