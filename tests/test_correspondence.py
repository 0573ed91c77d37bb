"""The paper's correspondence between a coring extension and its functor.

An extension e of C by D induces a functor F_e: M^C -> M^D that keeps
every underlying space (``extension.induced_coaction``).  The first fact
of the way back: the regular comodule C goes to C with e's own right
B-action and D-coaction, F_e(C) = e.  Applying the counit of C to the
bicomodule identity (Delta (x) D) sigma = (C (x) sigma) Delta gives it.

The second fact: F_e is determined by F_e(C).  The coaction rho_M: M ->
M (x)_A C of a right C-comodule is injective, split by the counit, so the
B-action and D-coaction of F_e(M) are the unique ones that make rho_M
B-linear and D-colinear into M (x)_A F_e(C).  They are solved for here
as linear laws, apart from ``_induced``.
"""

import pytest

from coringext._search import affine_solutions
from coringext.algmod import Bimodule, RightModule
from coringext.constructions import trivial_coring
from coringext.coring import (cofree_comodule, direct_sum_comodule,
                              regular_comodule)
from coringext.exactla import GF2, GF3, QQ, Mat
from coringext.extension import (compose_extensions,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction)
from coringext.fixtures import d2_algebra, sw_coring
from coringext.tensorcat import tensor_chain, tensor_over


def sw_extensions(field):
    """The identity extension of FIX.SW, the extension by its counit onto
    the trivial coring of FIX.D2, and their composite."""
    sw = sw_coring(field)
    by_counit = extension_from_coring_map(sw.eps, sw,
                                          trivial_coring(d2_algebra(field)))
    ident = identity_extension(sw)
    return {"identity": ident, "counit": by_counit,
            "composite": compose_extensions(ident, by_counit)}


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
@pytest.mark.parametrize("kind", ["identity", "counit", "composite"])
def test_functor_sends_the_regular_comodule_to_the_extension(field, kind):
    e = sw_extensions(field)[kind]
    image = induced_coaction(e, regular_comodule(e.c))
    assert (image.coring, image.M.alg) == (e.d, e.d.A)
    assert image.M.act == e.ract
    assert image.rho_lift == e.sigma_lift


def comodules(c):
    """The regular comodule C, the cofree comodule on C_A, and C (+) C."""
    reg = regular_comodule(c)
    return {"regular": reg, "cofree": cofree_comodule(c, c.C.right_module()),
            "sum": direct_sum_comodule(reg, reg)}


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=repr)
@pytest.mark.parametrize("kind", ["identity", "counit", "composite"])
@pytest.mark.parametrize("com", ["regular", "cofree", "sum"])
def test_functor_is_determined_by_its_value_on_c(field, kind, com):
    e = sw_extensions(field)[kind]
    c, d = e.c, e.d
    m = comodules(c)[com]
    n, nb, nd = m.dim, d.A.dim, d.dim
    rho = m.rho_lift
    # X: M (x) B -> M with rho(m.b) = rho(m).b in M (x)_A C
    proj_mc = m.mc().projection
    act_rhs = proj_mc @ e.ract.tensor_id(n, 1) @ rho.tensor_id(1, nb)
    act, basis = affine_solutions(field, (n, n * nb),
                                  lambda x: proj_mc @ rho @ x - act_rhs)
    assert basis == []
    # L: M -> M (x) D with (rho (x) D) L = (M (x) sigma) rho in
    # (M (x)_A C) (x)_B D
    p3 = tensor_chain(m.M, (Bimodule(c.A, d.A, c.dim, c.C.lact, e.ract),),
                      d.C.left_module())
    lift_rhs = p3 @ e.sigma_lift.tensor_id(n, 1) @ rho
    lift, basis = affine_solutions(
        field, (n * nd, n), lambda x: p3 @ rho.tensor_id(1, nd) @ x - lift_rhs)
    # unique up to the balancing relations of M (x)_B D under X
    md = tensor_over(RightModule(d.A, n, act), d.C.left_module())
    assert all(md.projection @ v == Mat.zero(field, md.quo_dim, n)
               for v in basis)
    image = induced_coaction(e, m)
    assert image.M.act == act
    assert image.rho_lift == md.canonical_lift(lift)
