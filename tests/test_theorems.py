"""The theorems that let a construction build its record unchecked.

A construction whose output is valid by a theorem, once its inputs are
made, runs no ``check_*`` (``tests/test_check_once.py`` counts them).  The
proof lives here: for each such construction, over GF(2), GF(3) and Q,
its output on seeded inputs equals the record that the ``make_*`` of its
kind returns for the same data.  The ``make_*`` runs the full check and
stores the canonical lift, so the equality says both that the output is
valid and that its lift is the canonical one.

The inputs are fixtures moved along seeded invertible changes of basis
(``invertible`` of ``tests/test_metamorphic.py`` and ``change_algebra`` and
``change_coalgebra`` of ``perfbench/gen.py``): unit maps into D_2 and
k[C_2], the inclusion D_2 -> M_2, trivial corings, group-like coalgebras
and their corings, comatrix corings of a free module of rank two, entwining
corings, and the Cor. 2.8 data of ``tests/test_witness.py``.

Some records are read off, not built from a ``make_*``: the table of
``dual_ring`` at the pivots of its basis, since *C is closed under its
product; the actions on Sigma* of a comatrix coring at the pivots of
Sigma*, which holds a.g and g.b once Sigma is a checked bimodule; and the
coaction of the Cor. 2.8 extension, induced from a map on A (x) A that is
balanced because phi is left B-linear.  Their tests state those facts.
Two notions are read through a theorem: the Cor. 2.8 extension is valid
once its data pass ``check_cor28``, and a morphism of descent data is a
colinear map of the Sweedler comodules.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coringext import constructions
from coringext._search import at_pivots
from coringext.algmod import (Bimodule, make_algebra, make_algebra_map,
                              right_regular)
from coringext.constructions import (_right_linear_basis, base_algebra,
                                     coalgebra_to_coring, comatrix_coring,
                                     entwining_coring, group_coalgebra,
                                     make_coalgebra, sweedler_coring,
                                     sweedler_space, trivial_coring)
from coringext.coring import (check_colinear, direct_sum_comodule,
                              dual_ring, make_colinear_map, make_comodule,
                              make_coring, regular_comodule)
from coringext.descent import (comodule_to_descent, descent_to_comodule,
                               make_cor28, make_descent_datum)
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.extension import (_cd, apply_functor, compose_extensions,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction,
                                 make_extension)
from coringext.fixtures import c2_group_algebra, d2_algebra, matrix_algebra_2

from test_constructions import free_rank_two, ref_flip_entwining
from test_coring import ref_star_product
from test_exactla_sparse import ref_coords
from test_metamorphic import gen, invertible
from test_witness import (cor28_fixtures, cor28_identities,
                          morphism_identities, outcome, ref_outcome)

FIELDS = pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
EXAMPLES = settings(max_examples=6, deadline=None)


def rows(m: Mat):
    return [list(r) for r in m.entries]


def change(field, n: int, rng: random.Random):
    """A seeded invertible n x n matrix and its inverse, as row lists."""
    gf = gen.Field(field.p)
    t = invertible(gf, n, rng)
    return t, gen.inverse(gf, t)


def moved_algebra(a, t):
    """The algebra ``a`` in the basis of the columns of t, made."""
    f = a.field
    mult, unit = gen.change_algebra(gen.Field(f.p), (
        rows(a.mult_mat), list(a.unit_col.col(0))), t)
    return make_algebra(f, a.dim, Mat.from_rows(f, mult),
                        Mat.from_cols(f, [unit]))


def moved_coalgebra(c, s):
    f = c.field
    delta, eps = gen.change_coalgebra(gen.Field(f.p), (
        rows(c.delta), rows(c.eps)), s)
    return make_coalgebra(f, c.dim, Mat.from_rows(f, delta),
                          Mat.from_rows(f, eps))


ALGEBRAS = {"D2": d2_algebra, "k[C2]": c2_group_algebra,
            "M2": matrix_algebra_2}


def moved(field, name: str, rng):
    """The fixture algebra ``name`` moved along a seeded change of basis,
    with the change and its inverse."""
    a = ALGEBRAS[name](field)
    t, t_inv = change(field, a.dim, rng)
    return moved_algebra(a, t), t, t_inv


MAPS = ("k -> D2", "k -> k[C2]", "D2 -> M2")


def algebra_map(field, kind: str, rng):
    """A unit map k -> A, or the inclusion D2 -> M2 of the diagonal, in
    moved bases."""
    source, target = kind.split(" -> ")
    a, t, t_inv = moved(field, target, rng)
    if source == "k":
        return make_algebra_map(base_algebra(field), a, a.unit_col)
    d2, s, _ = moved(field, source, rng)
    incl = [[1, 0], [0, 0], [0, 0], [0, 1]]  # e_1 -> E_11, e_2 -> E_22
    gf = gen.Field(field.p)
    return make_algebra_map(d2, a, Mat.from_rows(field, gen.matmul(
        gf, t_inv, gen.matmul(gf, incl, s))))


def comatrix_inputs(field, over: str, rng):
    """Sigma = A (+) A over A = k or a moved D_2, itself moved along a
    change of basis P, with its dual basis moved with it."""
    a = base_algebra(field) if over == "k" else moved(field, over, rng)[0]
    sigma, (elements, functionals) = free_rank_two(field, a)
    p, p_inv = (Mat.from_rows(field, m)
                for m in change(field, sigma.dim, rng))
    moved_sigma = Bimodule(sigma.algL, a, sigma.dim, sigma.lact,
                           p_inv @ sigma.ract @ p.tensor_id(1, a.dim))
    return (moved_sigma, tuple((p_inv @ Mat.from_cols(field, [e])).col(0)
                               for e in elements),
            tuple(g @ p for g in functionals))


def group_like(field, n: int, rng):
    """The coalgebra of n group-likes, moved."""
    return moved_coalgebra(group_coalgebra(field, n),
                           change(field, n, rng)[0])


CORINGS = tuple(f"sweedler {m}" for m in MAPS) + (
    "comatrix over k", "trivial k[C2]", "trivial M2", "group-like 2",
    "group-like 3", "entwining D2", "entwining k[C2]")
# the 16-dim comatrix coring of A (+) A over D2 is drawn only by
# test_comatrix_coring and test_dual_ring: its extensions take seconds
# over Q


def coring(field, kind: str, rng):
    """The coring ``kind`` on moved inputs; all but the entwining corings
    are built unchecked."""
    name, arg = kind.split(" ", 1)
    if name == "sweedler":
        return sweedler_coring(algebra_map(field, arg, rng))
    if name == "comatrix":
        return comatrix_coring(*comatrix_inputs(field, arg[5:], rng))
    if name == "trivial":
        return trivial_coring(moved(field, arg, rng)[0])
    if name == "group-like":
        return coalgebra_to_coring(group_like(field, int(arg), rng))
    return entwining_coring(*ref_flip_entwining(
        moved(field, arg, rng)[0], group_like(field, 2, rng)))


def remade_coring(c):
    return make_coring(c.A, c.C, c.delta_lift, c.eps)


def remade_extension(e):
    return make_extension(e.c, e.d, e.ract, e.sigma_lift)


def remade_comodule(m):
    return make_comodule(m.coring, m.M, m.rho_lift)


def extensions(c):
    """The identity extension of c, and the extension by its counit onto
    the trivial coring of its algebra (the counit is a coring map)."""
    return [identity_extension(c),
            extension_from_coring_map(c.eps, c, trivial_coring(c.A))]


def drawn(kinds):
    """A seeded draw of one input kind of ``kinds``."""
    return given(st.sampled_from(kinds), st.integers(0, 2 ** 32 - 1))


# -- corings -----------------------------------------------------------------


@FIELDS
@EXAMPLES
@drawn(MAPS)
def test_sweedler_coring(field, kind, seed):
    c = sweedler_coring(algebra_map(field, kind, random.Random(seed)))
    assert remade_coring(c) == c


@FIELDS
@EXAMPLES
@drawn(("k", "D2"))
def test_comatrix_coring(field, over, seed):
    c = comatrix_coring(*comatrix_inputs(field, over, random.Random(seed)))
    assert remade_coring(c) == c


@FIELDS
@EXAMPLES
@drawn(("k", "D2"))
def test_comatrix_reads_sigma_star_at_pivots(field, over, seed):
    # once Sigma is a checked (B, A)-bimodule, a.g, g.b and the
    # functionals lie in Sigma*: their entries at its pivots are their
    # coordinates
    sigma, elements, functionals = comatrix_inputs(field, over,
                                                   random.Random(seed))
    star = _right_linear_basis(sigma)
    reads = []

    def read(piv, m):
        reads.append((piv, m))
        return at_pivots(piv, m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "at_pivots", read)
        comatrix_coring(sigma, elements, functionals)
    assert len(reads) == len(star) * (sigma.algR.dim + sigma.algL.dim) + \
        len(functionals)
    for piv, m in reads:
        x = ref_coords(star, m)
        assert x is not None and at_pivots(piv, m) == x


@FIELDS
@EXAMPLES
@drawn(tuple(ALGEBRAS))
def test_trivial_coring(field, name, seed):
    c = trivial_coring(moved(field, name, random.Random(seed))[0])
    assert remade_coring(c) == c


@FIELDS
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_group_coalgebra(field, n):
    c = group_coalgebra(field, n)
    assert make_coalgebra(field, n, c.delta, c.eps) == c


@FIELDS
@EXAMPLES
@drawn((1, 2, 3))
def test_coalgebra_to_coring(field, n, seed):
    c = coalgebra_to_coring(group_like(field, n, random.Random(seed)))
    assert remade_coring(c) == c


@FIELDS
@EXAMPLES
@drawn(CORINGS + ("comatrix over D2",))
def test_dual_ring(field, kind, seed):
    c = coring(field, kind, random.Random(seed))
    dr = dual_ring(c)
    alg = dr.alg
    assert make_algebra(field, alg.dim, alg.mult_mat, alg.unit_col) == alg
    # *C is closed under its product and holds eps, so the entries at the
    # pivots are the coordinates of each product and of the unit
    n = dr.dim
    for i, f in enumerate(dr.basis):
        for j, g in enumerate(dr.basis):
            x = ref_coords(dr.basis, ref_star_product(c, f, g))
            assert x is not None and x == alg.mult_mat.col(i * n + j)
    x = ref_coords(dr.basis, c.eps)
    assert x is not None and x == alg.unit_col.col(0)


# -- extensions --------------------------------------------------------------


@FIELDS
@EXAMPLES
@drawn(CORINGS)
def test_identity_extension(field, kind, seed):
    e = identity_extension(coring(field, kind, random.Random(seed)))
    assert remade_extension(e) == e


@FIELDS
@EXAMPLES
@drawn(CORINGS)
def test_extension_from_coring_map(field, kind, seed):
    # the counit onto the trivial coring, and the identity
    c = coring(field, kind, random.Random(seed))
    for gamma, d in ((c.eps, trivial_coring(c.A)),
                     (Mat.identity(field, c.dim), c)):
        e = extension_from_coring_map(gamma, c, d)
        assert remade_extension(e) == e


@FIELDS
@EXAMPLES
@drawn(CORINGS)
def test_compose_extensions(field, kind, seed):
    e_id, e_eps = extensions(coring(field, kind, random.Random(seed)))
    for e1, e2 in ((e_id, e_eps), (e_eps, identity_extension(e_eps.d)),
                   (e_id, e_id)):
        e = compose_extensions(e1, e2)
        assert remade_extension(e) == e


# -- the functor M^C -> M^D --------------------------------------------------


@FIELDS
@EXAMPLES
@drawn(CORINGS)
def test_induced_coaction(field, kind, seed):
    c = coring(field, kind, random.Random(seed))
    for e in extensions(c):
        out = induced_coaction(e, regular_comodule(c))
        assert remade_comodule(out) == out


@FIELDS
@EXAMPLES
@drawn(CORINGS)
def test_apply_functor(field, kind, seed):
    # left multiplication by a basis element of A is a colinear
    # endomorphism of the regular comodule
    c = coring(field, kind, random.Random(seed))
    m = regular_comodule(c)
    ea = Mat.identity(field, c.A.dim)
    maps = [make_colinear_map(m, m, c.C.lact @ Mat.from_cols(
        field, [ea.col(i)]).tensor_id(1, c.dim)) for i in range(c.A.dim)]
    for e in extensions(c):
        for g in maps:
            out = apply_functor(e, g)
            assert make_colinear_map(out.source, out.target,
                                     out.matrix) == out


# -- descent data ------------------------------------------------------------


@FIELDS
@EXAMPLES
@drawn(MAPS)
def test_descent_to_comodule(field, kind, seed):
    # A as a descent datum, a |-> 1 (x) a, there and back
    iota = algebra_map(field, kind, random.Random(seed))
    a = iota.target
    d = make_descent_datum(iota, right_regular(a),
                           a.unit_col.tensor_id(1, a.dim))
    m = descent_to_comodule(d)
    assert remade_comodule(m) == m
    assert comodule_to_descent(iota, m) == d


@FIELDS
@EXAMPLES
@drawn(MAPS)
def test_comodule_to_descent(field, kind, seed):
    # the regular comodule of the Sweedler coring, there and back
    iota = algebra_map(field, kind, random.Random(seed))
    m = regular_comodule(sweedler_coring(iota))
    d = comodule_to_descent(iota, m)
    assert make_descent_datum(iota, d.M, d.f_lift) == d
    assert descent_to_comodule(d) == m


@FIELDS
@EXAMPLES
@drawn(MAPS)
def test_descent_morphisms_are_colinear_maps(field, kind, seed):
    # Desc(A|B) is the category of comodules over the Sweedler coring, and
    # M (x)_B A = M (x)_A (A (x)_B A) sends column m to column m: a map
    # fails the identities of a morphism of descent data, read in
    # M2 (x)_B A, first where check_colinear fails on the comodules.  The
    # maps: the identity, left multiplication by each basis element of A
    # (a morphism iff the element lies in B), a seeded matrix, and the
    # inclusion and projection of the first summand of A (+) A
    rng = random.Random(seed)
    iota = algebra_map(field, kind, rng)
    a = iota.target
    n = a.dim
    d = make_descent_datum(iota, right_regular(a), a.unit_col.tensor_id(1, n))
    com = descent_to_comodule(d)
    dd = comodule_to_descent(iota, direct_sum_comodule(com, com))
    ea = Mat.identity(field, n)
    inc = ea.stack(Mat.zero(field, n, n))
    vals = range(field.p) if field.p is not None else range(-2, 3)
    seeded = Mat.from_rows(field, [[rng.choice(vals) for _ in range(n)]
                                   for _ in range(n)])
    cases = [(d, d, a.mult_mat @ Mat.from_cols(field, [x]).tensor_id(1, n))
             for x in ea.entries]
    cases += [(d, d, ea), (d, d, seeded), (d, dd, inc),
              (dd, d, inc.transpose())]
    kinds = set()
    for d1, d2, g in cases:
        got = outcome(check_colinear, g, descent_to_comodule(d1),
                      descent_to_comodule(d2))
        assert got == ref_outcome(field, morphism_identities(d1, d2, g))
        kinds.add(got and got[0])
    assert {None, "not-colinear"} <= kinds


# -- Cor. 2.8 ----------------------------------------------------------------


def moved_cor28(data, rng):
    """Cor. 2.8 data with A moved along a seeded change of basis, made."""
    a, b = data.iota_A.target, data.iota_B.target
    f = a.field
    rows_t, rows_t_inv = change(f, a.dim, rng)
    t, t_inv = Mat.from_rows(f, rows_t), Mat.from_rows(f, rows_t_inv)
    iota = make_algebra_map(data.iota_A.source, moved_algebra(a, rows_t),
                            t_inv @ data.iota_A.matrix)
    ib = Mat.identity(f, b.dim)
    return make_cor28(data.iota_B, iota, t_inv @ data.rho_A @ t.kron(ib),
                      t_inv.kron(t_inv).kron(ib) @ data.phi_lift @ t)


def sigma_on_ambient(data):
    """g(a (x) a') = a phi(a'), with phi(a') in A (x) A (x) B read in
    C (x)_B D through b |-> 1 (x) b: the map on A (x) A that induces
    sigma."""
    a, b = data.iota_A.target, data.iota_B.target
    qd = sweedler_space(data.iota_B)
    e = data.extension
    ab_to_cd = sweedler_space(data.iota_A).projection.kron(
        qd.projection @ b.unit_col.tensor_id(1, b.dim))
    return _cd(b, e.ract, e.d.C).projection @ ab_to_cd @ \
        a.mult_mat.tensor_id(1, a.dim * b.dim) @ \
        data.phi_lift.tensor_id(a.dim, 1)


def cor28_records(field, rng):
    """The Cor. 2.8 fixtures of ``tests/test_witness.py`` that satisfy the
    six identities of its reference loop, made by ``make_cor28``, and each
    also moved along a seeded change of basis of A."""
    made = [make_cor28(d.iota_B, d.iota_A, d.rho_A, d.phi_lift)
            for d in cor28_fixtures(field)
            if ref_outcome(field, cor28_identities(d)) is None]
    assert len(made) >= 2
    return made + [moved_cor28(d, rng) for d in made]


@FIELDS
@EXAMPLES
@given(st.integers(0, 2 ** 32 - 1))
def test_cor28_extension(field, seed):
    # Cor. 2.8: data that pass check_cor28 assemble a coring extension of
    # the Sweedler corings; make_extension checks it with
    # check_coring_extension and keeps sigma's canonical lift
    for data in cor28_records(field, random.Random(seed)):
        e = data.extension
        assert remade_extension(e) == e


@FIELDS
@EXAMPLES
@given(st.integers(0, 2 ** 32 - 1))
def test_assembled_coaction_descends(field, seed):
    # phi is left B-linear, so g vanishes on the balancing relations of
    # C = A (x)_B A: g = g @ section @ projection, where g @ section is the
    # sigma of the record
    for data in cor28_records(field, random.Random(seed)):
        e = data.extension
        qc = sweedler_space(data.iota_A)
        g = sigma_on_ambient(data)
        assert g == _cd(data.iota_B.target, e.ract, e.d.C).projection @ \
            e.sigma_lift @ qc.projection
