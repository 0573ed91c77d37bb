"""Tensor products over an algebra and associativity normalization."""

from math import prod

import pytest

from coringext import tensorcat
from coringext.errors import DimensionMismatch, SizeLimit
from coringext.exactla import (DEFAULT_MAX_DIM, GF2, GF3, QQ, Mat, quotient,
                               rank, set_guards)
from coringext.algmod import (LeftModule, RightModule, left_regular,
                              regular_bimodule, restrict_left,
                              restrict_right, right_regular)
from coringext.tensorcat import (assoc_normalizer, balanced_quotient,
                                 balancing_rows, induced_map, tensor_k,
                                 tensor_over)
from coringext.fixtures import d2_algebra, gc2_coalgebra, sw_coring, unit_map
from coringext.constructions import (base_algebra, entwining_coring,
                                     flip_entwining, trivial_coring)


def ref_balanced_quotient(field, dims, balancings):
    """The full-block construction: every raw balancing row of each slot,
    lifted by ``I_pre (x) rows (x) I_post`` through ``kron``."""
    ambient = prod(dims)
    rel = Mat.zero(field, 0, ambient)
    for s, (ract, lact, alg) in sorted(balancings.items()):
        block = Mat.identity(field, prod(dims[:s])).kron(
            balancing_rows(ract, lact, alg)).kron(
            Mat.identity(field, prod(dims[s + 2:])))
        rel = rel.stack(block)
    return quotient(field, ambient, rel)


class TestTensorIndex:
    def test_row_major(self):
        t = tensor_k(3, 4)
        assert t.index(2, 1) == 9
        assert t.pair(9) == (2, 1)
        assert t.dim == 12

    def test_range_check(self):
        with pytest.raises(DimensionMismatch):
            tensor_k(2, 2).index(2, 0)


class TestTensorOver:
    def test_a_tensor_a_over_a(self):
        # A (x)_A A collapses to A: balancing has full complement rank
        for field in (GF2, GF3, QQ):
            a = d2_algebra(field)
            t = tensor_over(a, right_regular(a), left_regular(a))
            assert t.dim == 2
            assert rank(t.q.relations) == 2

    def test_multiplication_descends_over_base(self):
        # over B = k there are no relations, so mult always descends
        a = d2_algebra(GF2)
        k = base_algebra(GF2)
        u = unit_map(GF2, a)
        t = tensor_over(k, restrict_right(right_regular(a), u),
                        restrict_left(left_regular(a), u))
        assert t.q.descends(a.mult_mat) is not None
        assert t.dim == 4

    def test_cached_identity(self):
        a = d2_algebra(GF2)
        t1 = tensor_over(a, right_regular(a), left_regular(a))
        t2 = tensor_over(a, right_regular(a), left_regular(a))
        assert t1 is t2

    def test_projection_section(self):
        a = d2_algebra(GF3)
        t = tensor_over(a, right_regular(a), left_regular(a))
        assert t.proj @ t.sect == Mat.identity(GF3, t.dim)


class TestInducedMap:
    def test_descends_iff_relations_preserved(self):
        a = d2_algebra(GF2)
        t = tensor_over(a, right_regular(a), left_regular(a))
        ident = Mat.identity(GF2, 4)
        got = induced_map(ident, t.q, t.q)
        assert got == Mat.identity(GF2, t.dim)
        # a rank-one map smearing everything does not descend
        smear = Mat.from_rows(GF2, [[1, 1, 1, 1]] * 4)
        assert induced_map(smear, t.q, t.q) is None


class TestAssocNormalizer:
    def test_triple_over_d2(self):
        for field in (GF2, QQ):
            a = d2_algebra(field)
            norm = assoc_normalizer(a, right_regular(a),
                                    regular_bimodule(a), left_regular(a))
            assert norm.single.quo_dim == 2
            assert norm.left_iterated.quo_dim == 2
            assert norm.right_iterated.quo_dim == 2
            ident = Mat.identity(field, 2)
            # the normalizing isomorphisms are verified internally; spot
            # check they are inverse to the projected identities
            assert rank(norm.from_left) == 2
            assert rank(norm.from_right) == 2

    def test_balanced_quotient_multi_slot(self):
        a = d2_algebra(GF2)
        q = balanced_quotient(GF2, (2, 2, 2), {
            0: (a.mult_mat, a.mult_mat, a),
            1: (a.mult_mat, a.mult_mat, a)})
        assert q.quo_dim == 2


class TestReducedBlocks:
    """The pair's reduced relations span the same lifted row space as its
    raw balancing rows, so every quotient matrix is unchanged."""

    @pytest.mark.parametrize("field", [GF2, GF3, QQ])
    def test_iterated_quotients_match_full_blocks(self, field):
        a = d2_algebra(field)
        corings = (sw_coring(field), trivial_coring(a),
                   entwining_coring(flip_entwining(a, gc2_coalgebra(field))))
        for c in corings:
            na, nc, mult = c.A.dim, c.dim, c.A.mult_mat
            cc = (c.C.ract, c.C.lact, c.A)
            cases = [
                ((nc, nc, nc), {0: cc, 1: cc}),  # C (x)_A C (x)_A C
                ((nc, nc, na), {0: cc, 1: (c.C.ract, mult, c.A)}),
                ((na, nc, nc, na), {0: (mult, c.C.lact, c.A), 1: cc,
                                    2: (c.C.ract, mult, c.A)})]
            for dims, slots in cases:
                got = balanced_quotient(field, dims, slots)
                want = ref_balanced_quotient(field, dims, slots)
                assert got.relations == want.relations
                assert got.projection == want.projection
                assert got.section == want.section
            assert c.ccc() == ref_balanced_quotient(field, *cases[0])

    def test_guard_checked_before_relations(self, monkeypatch):
        built = []
        monkeypatch.setattr(tensorcat, "balancing_rows",
                            lambda *args: built.append(args))
        a = d2_algebra(GF2)
        pair = (a.mult_mat, a.mult_mat, a)
        with pytest.raises(SizeLimit) as ref:
            quotient(GF2, 8, Mat.zero(GF2, 0, 8), max_dim=7)
        set_guards(max_dim=7)
        try:
            with pytest.raises(SizeLimit) as err:
                balanced_quotient(GF2, (2, 2, 2), {0: pair, 1: pair})
        finally:
            set_guards(max_dim=DEFAULT_MAX_DIM)
        assert str(err.value) == str(ref.value)
        assert built == []
