"""Descent data, the Sweedler comodule correspondence, and pushforward."""

import itertools

import pytest

from coringext import algmod, constructions, descent
from coringext.errors import AxiomViolation, DimensionMismatch
from coringext.exactla import GF2, GF3, Mat
from coringext.algmod import make_algebra_map, right_regular
from coringext.coring import check_colinear, check_comodule, regular_comodule
from coringext.constructions import base_algebra, sweedler_coring
from coringext.descent import (Cor28Data, DescentDatum, check_cor28,
                               check_descent_datum, comodule_to_descent,
                               descent_functor, descent_to_comodule,
                               make_cor28, make_descent_datum)
from coringext.extension import check_coring_extension
from coringext.fixtures import c2_group_algebra, d2_algebra, unit_map

from test_algmod import ref_add, ref_holds


def iota_cases():
    a = d2_algebra(GF2)
    b = c2_group_algebra(GF2)
    return [
        make_algebra_map(a, a, Mat.identity(GF2, 2)),
        unit_map(GF2, a),
        unit_map(GF2, b),
    ]


def canonical_datum(iota):
    """The free datum on M = A: f(x) = 1 (x) x."""
    a = iota.target
    ia = Mat.identity(a.field, a.dim)
    return make_descent_datum(iota, right_regular(a), a.unit_col.kron(ia))


class TestDescentData:
    def test_canonical_data_valid(self):
        for iota in iota_cases():
            d = canonical_datum(iota)
            assert check_descent_datum(d) is None

    def test_unit_law_violation(self):
        iota = iota_cases()[1]
        a = iota.target
        bad = DescentDatum(iota, right_regular(a),
                           Mat.zero(GF2, a.dim * a.dim, a.dim))
        with pytest.raises(AxiomViolation) as err:
            check_descent_datum(bad)
        assert (err.value.kind, err.value.witness) == ("unit-law", (0,))

    def test_cocycle_violation(self):
        iota = iota_cases()[1]
        a = iota.target
        ia = Mat.identity(GF2, 2)
        # f(x) = x (x) 1 splits the action but breaks the cocycle
        cand = DescentDatum(iota, right_regular(a), ia.kron(a.unit_col))
        with pytest.raises(AxiomViolation) as err:
            check_descent_datum(cand)
        assert err.value.kind in ("not-A-linear", "cocycle")


class TestCorrespondence:
    def test_datum_to_comodule_and_back(self):
        for iota in iota_cases():
            d = canonical_datum(iota)
            com = descent_to_comodule(d)
            assert check_comodule(com) is None
            back = comodule_to_descent(iota, com)
            assert back.M == d.M
            assert back.f_lift == d.f_lift

    def test_comodule_to_datum_and_back(self):
        for iota in iota_cases():
            c = sweedler_coring(iota)
            reg = regular_comodule(c)
            d = comodule_to_descent(iota, reg)
            assert check_descent_datum(d) is None
            again = descent_to_comodule(d)
            assert again.rho_lift == reg.rho_lift
            assert again.M == reg.M

    def test_morphisms_transported(self):
        # a morphism of descent data is a colinear map of the Sweedler
        # comodules, with the same matrix
        iota = iota_cases()[1]
        com = descent_to_comodule(canonical_datum(iota))
        ident = Mat.identity(GF2, com.dim)
        assert check_colinear(ident, com, com) is None

    def test_wrong_coring_rejected(self):
        iota = iota_cases()[1]
        other = iota_cases()[2]
        c = sweedler_coring(other)
        reg = regular_comodule(c)
        with pytest.raises(DimensionMismatch):
            comodule_to_descent(iota, reg)


def cor28_accept():
    """D = B = k chain under k -> D2 with scalar action and phi(a)=1(x)a(x)1."""
    a = d2_algebra(GF2)
    k = base_algebra(GF2)
    iota_b = make_algebra_map(k, k, Mat.identity(GF2, 1))
    iota_a = unit_map(GF2, a)
    rho = Mat.identity(GF2, a.dim)
    ia = Mat.identity(GF2, a.dim)
    phi = a.unit_col.kron(ia).kron(Mat.identity(GF2, 1))
    return Cor28Data(iota_b, iota_a, rho, phi)


def cor28_collapse():
    """D = B = A with identity maps."""
    a = d2_algebra(GF2)
    ident = make_algebra_map(a, a, Mat.identity(GF2, a.dim))
    ia = Mat.identity(GF2, a.dim)
    phi = a.unit_col.kron(ia).kron(a.unit_col)
    return Cor28Data(ident, ident, a.mult_mat, phi)


def made(data: Cor28Data) -> Cor28Data:
    """``data`` as ``make_cor28`` returns it."""
    return make_cor28(data.iota_B, data.iota_A, data.rho_A, data.phi_lift)


class TestCor28:
    def test_accept_fixtures(self):
        for data in (cor28_accept(), cor28_collapse()):
            assert check_cor28(data) is None

    def test_assembled_extension_valid(self):
        for data in (cor28_accept(), cor28_collapse()):
            ext = made(data).extension
            assert check_coring_extension(ext) is None

    def test_reject_wrong_slot(self):
        good = cor28_accept()
        a = good.iota_A.target
        ia = Mat.identity(GF2, a.dim)
        phi = ia.kron(a.unit_col).kron(Mat.identity(GF2, 1))
        with pytest.raises(AxiomViolation) as err:
            check_cor28(Cor28Data(good.iota_B, good.iota_A, good.rho_A, phi))
        assert err.value.kind == "diagram-a"

    def test_reject_zero_phi(self):
        good = cor28_accept()
        phi = Mat.zero(GF2, 4, 2)
        with pytest.raises(AxiomViolation) as err:
            check_cor28(Cor28Data(good.iota_B, good.iota_A, good.rho_A, phi))
        assert err.value.kind == "diagram-a"

    def test_accept_iff_extension_valid(self):
        # Cor. 2.8: accepted data assemble a valid extension, which
        # check_cor28 does not check itself
        for data in (cor28_accept(), cor28_collapse()):
            assert check_cor28(data) is None
            assert check_coring_extension(data.extension) is None

    def test_aab_memo_ignores_phi(self):
        # (A (x)_B A) (x)_D B does not depend on phi: data that differ in
        # phi alone share one memo entry
        from coringext.descent import _aab_space
        a = d2_algebra(GF3)
        ident = make_algebra_map(a, a, Mat.identity(GF3, 2))
        phi = a.unit_col.kron(Mat.identity(GF3, 2)).kron(a.unit_col)
        _aab_space.cache_clear()
        changed = []
        for r, c, d in itertools.product(range(phi.rows), range(phi.cols),
                                         (1, 2)):
            rows = [list(x) for x in phi.entries]
            rows[r][c] = ref_add(GF3, rows[r][c], GF3.of(d))
            changed.append(Mat.from_rows(GF3, rows))
        for p in changed[:20]:
            ref_holds(check_cor28, Cor28Data(ident, ident, a.mult_mat, p))
        assert _aab_space.cache_info().currsize == 1

    def test_builds_a_over_b_and_b_over_d_once(self, monkeypatch):
        # once the Sweedler spaces are memoised, a check builds A over B
        # along iota_A and B over D along iota_B, and reads every tensor
        # product of the diagrams from them, on a miss of the (A (x)_B A)
        # (x)_D B memo as on a hit
        real = algmod.regular_along
        calls = []

        def counting(f):
            calls.append(f)
            return real(f)

        for module in (algmod, constructions, descent):
            if vars(module).get("regular_along") is real:
                monkeypatch.setattr(module, "regular_along", counting)
        for data in (cor28_accept(), cor28_collapse()):
            check_cor28(data)
            for aab_memoised in (False, True):
                if not aab_memoised:
                    descent._aab_space.cache_clear()
                calls.clear()
                check_cor28(Cor28Data(data.iota_B, data.iota_A, data.rho_A,
                                      data.phi_lift))
                assert calls == [data.iota_A, data.iota_B]


class TestDescentFunctor:
    def test_collapse_is_identity_like(self):
        data = made(cor28_collapse())
        d = canonical_datum(data.iota_A)
        out = descent_functor(data, d)
        assert out.M.dim == d.M.dim
        assert out.f_lift == d.f_lift

    def test_k_chain_on_d2(self):
        data = made(cor28_accept())
        d = canonical_datum(data.iota_A)
        out = descent_functor(data, d)
        assert check_descent_datum(out) is None
        assert out.M.dim == d.M.dim  # underlying k-space unchanged

    def test_morphisms_carried(self):
        data = made(cor28_accept())
        d = canonical_datum(data.iota_A)
        com = descent_to_comodule(descent_functor(data, d))
        ident = Mat.identity(GF2, d.M.dim)
        assert check_colinear(ident, com, com) is None

    def test_unchecked_data_rejected(self):
        # descent_functor takes a made record: make_cor28 rejects the data
        good = cor28_accept()
        with pytest.raises(AxiomViolation) as err:
            make_cor28(good.iota_B, good.iota_A, good.rho_A,
                       Mat.zero(GF2, 4, 2))
        assert (err.value.kind, err.value.witness) == ("diagram-a", (0,))

    def test_wrong_iota_rejected(self):
        data = made(cor28_accept())
        other = canonical_datum(iota_cases()[2])
        with pytest.raises(DimensionMismatch):
            descent_functor(data, other)
