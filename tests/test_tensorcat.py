"""Tensor products over an algebra, and iterated tensor products checked
against the quotient by all balancing relations at once."""

import itertools
import random
from math import prod

import pytest

from coringext import tensorcat
from coringext.errors import AxiomViolation, DimensionMismatch, SizeLimit
from coringext.exactla import (DEFAULT_MAX_DIM, GF2, GF3, QQ, Mat,
                               QuotientSpace, kernel, quotient, rref,
                               set_guards)
from coringext.algmod import (Bimodule, LeftModule, RightModule, _require,
                              left_regular, make_algebra_map,
                              regular_along, regular_bimodule, restrict_left,
                              restrict_right, right_regular)
from coringext.tensorcat import balancing_rows, tensor_chain, tensor_over
from coringext.fixtures import (d2_algebra, gc2_coalgebra, gc2_coring,
                                matrix_algebra_2, sw_coring, unit_map)
from coringext.coring import _triple, regular_comodule, regular_left_comodule
from coringext.constructions import (base_algebra, entwining_coring,
                                     sweedler_space, trivial_coring)
from coringext.descent import _aab_space, _ab_factors, make_descent_datum
from coringext.extension import identity_extension

from test_algmod import ref_sub
from test_constructions import ref_flip_entwining
from test_exactla_sparse import check_sparse, dense, rand_rows


def ref_descend_map(q, m, kind, dims):
    """The map that ``m`` on the ambient of ``q`` induces on the quotient.

    The vectors v - section(projection(v)) span the relations, so ``m``
    vanishes on them iff ``m == m @ section @ projection``; if not,
    AxiomViolation(kind) names the first ambient tuple, over the factors
    ``dims``, where the two differ.
    """
    out = m @ q.section
    _require(m, out @ q.projection, kind, dims)
    return out


def ref_balancing_rows(ract, lact, dim_a):
    """Rows spanning { (x.a)(x)y - x(x)(a.y) } inside X (x) Y, one per
    (i, j, k), built entry by entry from the actions' columns."""
    f = ract.field
    dx, dy = ract.rows, lact.rows
    rows = []
    for i in range(dx):
        for j in range(dim_a):
            for k in range(dy):
                row = [f.zero] * (dx * dy)
                for m in range(dx):
                    row[m * dy + k] = ract.entries[m][i * dim_a + j]
                for n in range(dy):
                    row[i * dy + n] = ref_sub(
                        f, row[i * dy + n], lact.entries[n][j * dy + k])
                rows.append(row)
    return Mat(f, len(rows), dx * dy, tuple(map(tuple, rows)))


def ref_relations(field, dims, balancings):
    """The full-block construction: every raw balancing row of each slot,
    lifted by ``I_pre (x) rows (x) I_post`` through ``kron``, in echelon
    form."""
    rel = Mat.zero(field, 0, prod(dims))
    for s, (ract, lact, dim_a) in sorted(balancings.items()):
        block = Mat.identity(field, prod(dims[:s])).kron(
            ref_balancing_rows(ract, lact, dim_a)).kron(
            Mat.identity(field, prod(dims[s + 2:])))
        rel = rel.stack(block)
    return rref(rel)[0]


def slots_of(m, mids, n):
    """``tensor_chain``'s factors as ``ref_relations`` arguments:
    the factor dimensions and the balancing actions of each adjacent pair,
    with the dimension of the algebra between them."""
    dims = (m.dim, *(b.dim for b in mids), n.dim)
    racts = [(m.act, m.alg.dim)] + [(b.ract, b.algR.dim) for b in mids]
    lacts = [b.lact for b in mids] + [n.act]
    return dims, {s: (ract, lact, dim_a)
                  for s, ((ract, dim_a), lact) in enumerate(zip(racts, lacts))}


def ref_kernel(m, mids, n):
    """The balancing relations of all pairs at once, in echelon form."""
    return ref_relations(m.alg.field, *slots_of(m, mids, n))


def towers(field):
    """Algebra maps D -> B -> A, each with A's right multiplication through
    B as rho_A: the shapes of the Cor. 2.8 checks."""
    k = base_algebra(field)
    d2 = d2_algebra(field)
    ident = make_algebra_map(d2, d2, Mat.identity(field, 2))
    diag = make_algebra_map(d2, matrix_algebra_2(field), Mat.from_cols(
        field, [(1, 0, 0, 0), (0, 0, 0, 1)]))
    return [(make_algebra_map(k, k, Mat.identity(field, 1)),
             unit_map(field, d2)),
            (ident, ident),
            (unit_map(field, d2), diag)]


def cor28_chains(iota_b, iota_a):
    """(A (x)_B A) (x)_D B, ((A (x)_B A) (x)_D B) (x)_D B and
    ((A (x)_B A) (x)_B A) (x)_D B as ``tensor_chain`` arguments."""
    a, b, d = iota_a.target, iota_b.target, iota_b.source
    na, nb = a.dim, b.dim
    rho = a.mult_mat @ iota_a.matrix.tensor_id(na, 1)        # a . b
    lact_b = a.mult_mat @ iota_a.matrix.tensor_id(1, na)     # b . a
    ract_d = rho @ iota_b.matrix.tensor_id(na, 1)            # a . d
    lact_d = b.mult_mat @ iota_b.matrix.tensor_id(1, nb)     # d . b
    ract_db = b.mult_mat @ iota_b.matrix.tensor_id(nb, 1)    # b . d
    a_b = RightModule(b, na, rho)
    a_bb = Bimodule(b, b, na, lact_b, rho)
    a_bd = Bimodule(b, d, na, lact_b, ract_d)
    b_dd = Bimodule(d, d, nb, lact_d, ract_db)
    b_d = LeftModule(d, nb, lact_d)
    return rho, [(a_b, (a_bd,), b_d), (a_b, (a_bd, b_dd), b_d),
                 (a_b, (a_bb, a_bd), b_d)]


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
def test_balancing_rows_match_reference(field):
    # any ract: X (x) A -> X and lact: A (x) Y -> Y, not only module actions
    rng = random.Random(0)
    for dx, dy, na in itertools.product(range(4), repeat=3):
        for density in (0.2, 0.5, 1.0):
            ract = Mat(field, dx, dx * na,
                       dense(rand_rows(field, dx, dx * na, density, rng)))
            lact = Mat(field, dy, na * dy,
                       dense(rand_rows(field, dy, na * dy, density, rng)))
            assert check_sparse(balancing_rows(ract, lact)) == \
                ref_balancing_rows(ract, lact, na)


class TestTensorOver:
    def test_a_tensor_a_over_a(self):
        # A (x)_A A collapses to A: balancing has full complement rank
        for field in (GF2, GF3, QQ):
            a = d2_algebra(field)
            t = tensor_over(right_regular(a), left_regular(a))
            assert t.quo_dim == 2
            assert rref(kernel(t.projection))[0].rows == 2

    def test_multiplication_descends_over_base(self):
        # over B = k there are no relations, so mult always descends
        a = d2_algebra(GF2)
        k = base_algebra(GF2)
        u = unit_map(GF2, a)
        t = tensor_over(restrict_right(right_regular(a), u),
                        restrict_left(left_regular(a), u))
        assert ref_descend_map(t, a.mult_mat, "k", (2, 2)) == a.mult_mat
        assert t.quo_dim == 4

    def test_cached_identity(self):
        a = d2_algebra(GF2)
        t1 = tensor_over(right_regular(a), left_regular(a))
        t2 = tensor_over(right_regular(a), left_regular(a))
        assert t1 is t2

    def test_projection_section(self):
        a = d2_algebra(GF3)
        t = tensor_over(right_regular(a), left_regular(a))
        assert t.projection @ t.section == Mat.identity(GF3, t.quo_dim)

    def test_modules_over_different_algebras(self):
        # the algebra is read off the modules, which must share it
        a, k = d2_algebra(GF2), base_algebra(GF2)
        for m, n in ((right_regular(a), left_regular(k)),
                     (right_regular(k), left_regular(a))):
            with pytest.raises(DimensionMismatch) as err:
                tensor_over(m, n)
            assert str(err.value) == "modules are not over one algebra"


class TestOneType:
    """Every balanced product M (x)_A N is the memoised ``QuotientSpace``
    that ``tensor_over`` returns for its two factors."""

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_homes_are_tensor_over(self, field):
        a = d2_algebra(field)
        for c in (sw_coring(field), gc2_coring(field), trivial_coring(a)):
            cc = tensor_over(c.C.right_module(), c.C.left_module())
            e = identity_extension(c)
            cd = tensor_over(RightModule(c.A, c.dim, e.ract),
                             c.C.left_module())
            for got, want in ((c.cc(), cc), (regular_comodule(c).mc(), cc),
                              (regular_left_comodule(c).cn(), cc),
                              (e.cd(), cd)):
                assert isinstance(got, QuotientSpace)
                assert got is want
        iota = unit_map(field, a)
        a_b = restrict_right(right_regular(a), iota)
        b_a = restrict_left(left_regular(a), iota)
        ab = tensor_over(a_b, b_a)
        d = make_descent_datum(iota, right_regular(a), a.unit_col.kron(
            Mat.identity(field, a.dim)))
        for got in (sweedler_space(iota), d.ma()):
            assert isinstance(got, QuotientSpace)
            assert got is ab


class TestInducedMap:
    def test_descends_iff_relations_preserved(self):
        a = d2_algebra(GF2)
        t = tensor_over(right_regular(a), left_regular(a))
        ident = Mat.identity(GF2, 4)
        got = ref_descend_map(t, t.projection @ ident, "k", (2, 2))
        assert got == Mat.identity(GF2, t.quo_dim)
        # a rank-one map smearing everything does not descend: it does not
        # vanish on e_0 (x) e_1 = (e_0 . e_0) (x) e_1 - e_0 (x) (e_0 . e_1)
        smear = Mat.from_rows(GF2, [[1, 1, 1, 1]] * 4)
        assert kernel(t.projection).entries[0] == (0, 1, 0, 0)
        with pytest.raises(AxiomViolation) as err:
            ref_descend_map(t, t.projection @ smear, "k", (2, 2))
        assert (err.value.kind, err.value.witness) == ("k", (0, 1))
        # a map whose domain is not the ambient space has no induced map
        with pytest.raises(DimensionMismatch):
            ref_descend_map(t, Mat.identity(GF2, 3), "k", (3,))


class TestTensorChain:
    def test_triple_over_d2(self):
        for field in (GF2, QQ):
            a = d2_algebra(field)
            args = (right_regular(a), (regular_bimodule(a),), left_regular(a))
            p = tensor_chain(*args)
            assert (p.rows, p.cols) == (2, 8)
            assert rref(p)[0].rows == 2
            assert kernel(p) == ref_kernel(*args)

    def test_multi_slot(self):
        a = d2_algebra(GF2)
        bim = regular_bimodule(a)
        args = (right_regular(a), (bim, bim), left_regular(a))
        p = tensor_chain(*args)
        assert (p.rows, p.cols) == (2, 16)
        assert kernel(p) == ref_kernel(*args)

    def test_no_middle_factor_is_tensor_over(self):
        a = d2_algebra(GF3)
        p = tensor_chain(right_regular(a), (), left_regular(a))
        assert p == tensor_over(right_regular(a), left_regular(a)).projection


class TestReducedBlocks:
    """Every middle factor is a bimodule, so the kernel of the iterated
    projection is the span of the full balancing blocks of all pairs."""

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_iterated_quotients_match_full_blocks(self, field):
        a = d2_algebra(field)
        corings = (sw_coring(field), trivial_coring(a),
                   entwining_coring(*ref_flip_entwining(
                       a, gc2_coalgebra(field))))
        for c in corings:
            ra, la = right_regular(c.A), left_regular(c.A)
            cases = [
                (c.C.right_module(), (c.C,), c.C.left_module()),  # C C C
                (c.C.right_module(), (c.C,), la),                 # C C A
                (ra, (c.C, c.C), la)]                             # A C C A
            for args in cases:
                assert kernel(tensor_chain(*args)) == ref_kernel(*args)
            assert kernel(_triple(c.C)) == ref_kernel(*cases[0])
        for iota_b, iota_a in towers(field):
            rho, chains = cor28_chains(iota_b, iota_a)
            for args in chains:
                assert kernel(tensor_chain(*args)) == ref_kernel(*args)
            factors = _ab_factors(iota_b, regular_along(iota_a),
                                  regular_along(iota_b), rho)
            assert kernel(_aab_space(*factors)) == ref_kernel(*chains[0])

    def test_guard_checked_before_relations(self, monkeypatch):
        built = []
        monkeypatch.setattr(tensorcat, "balancing_rows",
                            lambda *args: built.append(args))
        a = d2_algebra(GF2)
        bim = regular_bimodule(a)
        set_guards(max_dim=7)
        try:
            with pytest.raises(SizeLimit) as ref:
                quotient(GF2, 8, Mat.zero(GF2, 0, 8))
            with pytest.raises(SizeLimit) as err:
                tensor_chain(right_regular(a), (bim,), left_regular(a))
            set_guards(max_dim=3)
            with pytest.raises(SizeLimit) as pair:
                tensor_over(right_regular(a), left_regular(a))
        finally:
            set_guards(max_dim=DEFAULT_MAX_DIM)
        assert str(err.value) == str(ref.value)
        assert str(pair.value) == "ambient dimension 4 exceeds 3"
        assert built == []
