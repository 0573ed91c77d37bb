"""Every rejection names a basis tuple at which its axiom really fails.

For measurings, right B-structures on a coring, coalgebras, descent data,
descent morphisms and Cor. 2.8 data, each identity the checker compares is
restated here as a chain of maps ``I_pre (x) m (x) I_post``, applied to
basis vectors one at a time by a plain loop.  The loop over basis tuples in
row-major order is the reference: its first failure must be the reported
kind and witness, and an accepted object must satisfy every identity.  The
objects are small fixtures, each also with one entry changed, for every
entry and every nonzero change in turn.
"""

import itertools

from coringext.errors import AxiomViolation
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.algmod import (Bimodule, left_regular, make_algebra,
                              make_algebra_map, restrict_left,
                              restrict_right, right_regular)
from coringext.constructions import (Coalgebra, base_algebra,
                                     check_coalgebra, coalgebra_to_coring,
                                     group_coalgebra, sweedler_coring,
                                     sweedler_space, trivial_coring)
from coringext.coring import direct_sum_comodule
from coringext.descent import (Cor28Data, DescentDatum, _ab_factors,
                               _maa_space, check_cor28,
                               check_descent_morphism, check_descent_datum,
                               comodule_to_descent, descent_to_comodule,
                               make_descent_datum)
from coringext.extension import (Measuring, action_from_measuring,
                                 check_measuring, check_right_b_structure,
                                 enumerate_measurings)
from coringext.fixtures import (c2_group_algebra, d2_algebra, gc2_coring,
                                sw_coring, unit_map)
from coringext.tensorcat import tensor_chain

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
    deltas = range(1, f.p) if f.is_finite else (1,)
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
    return make_algebra(f, n, tuple(tuple(tuple(
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
    e = [Mat.column(f, col) for col in ((1, 0), (0, 1))]
    separable = Mat.from_cols(f, [
        (a.unit_col.kron(rho @ x.kron(e[0])).kron(e[0]) +
         a.unit_col.kron(rho @ x.kron(e[1])).kron(e[1])).col(0)
        for x in (Mat.column(f, col) for col in ia.entries)])
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
            Cor28Data(unit_map(f, b), iota, rho, separable)]


def cor28_identities(data):
    a, b = data.iota_A.target, data.iota_B.target
    dalg = data.iota_B.source
    f, na, nb = a.field, a.dim, b.dim
    rho, phi = data.rho_A, data.phi_lift
    lB = restrict_left(left_regular(a), data.iota_A).act

    def phi_left():
        pab = data.aab()
        return (chain(f, lB, phi, pab),
                chain(f, (nb, phi, 1), (1, lB, na * nb), pab))

    def phi_right():
        pab = data.aab()
        return (chain(f, rho, phi, pab),
                chain(f, (1, phi, nb), (na * na, b.mult_mat, 1), pab))

    def diagram_a():
        q2 = sweedler_space(data.iota_A).projection
        return (chain(f, phi, (na, rho, 1), q2),
                chain(f, (1, a.unit_col, na), q2))

    def diagram_b():
        """In (A (x)_B A) (x)_D B (x)_D B."""
        a_b, a_bd, b_d = _ab_factors(data)
        b_dd = Bimodule(dalg, dalg, nb, b_d.act,
                        restrict_right(right_regular(b), data.iota_B).act)
        p4b = tensor_chain(a_b, (a_bd, b_dd), b_d)
        return (chain(f, phi, (na, phi, nb), (1, a.mult_mat, na * nb * nb),
                      p4b),
                chain(f, phi, (na * na, b.unit_col, nb), p4b))

    def diagram_c():
        """In A (x)_B A (x)_B A (x)_D B."""
        a_b, a_bd, b_d = _ab_factors(data)
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
        # (c) is never the first failure here: with D = B, (a) implies it,
        # and every datum above with D != B that passes (a) fails (b)
        assert seen == {None, "rho-not-left-linear", "phi-not-left-linear",
                        "phi-not-right-linear", "diagram-a", "diagram-b",
                        "assembled-extension-coaction-not-balanced"}
