"""The paper's correspondence between a coring extension and its functor.

An extension e of C by D induces a functor F_e: M^C -> M^D that keeps
every underlying space (``extension.induced_coaction``).  The first fact
of the way back: the regular comodule C goes to C with e's own right
B-action and D-coaction, F_e(C) = e.  Applying the counit of C to the
bicomodule identity (Delta (x) D) sigma = (C (x) sigma) Delta gives it.
"""

import pytest

from coringext.constructions import trivial_coring
from coringext.coring import regular_comodule
from coringext.exactla import GF2, GF3, QQ
from coringext.extension import (compose_extensions,
                                 extension_from_coring_map,
                                 identity_extension, induced_coaction)
from coringext.fixtures import d2_algebra, sw_coring


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
