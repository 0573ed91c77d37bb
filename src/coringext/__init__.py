"""Exact computational algebra for corings, comodules and their extensions.

Finite-dimensional algebras, corings and comodules over a prime field or
the rationals, presented by structure constants and verified with exact
arithmetic: axiom checkers, dual rings, measurings and their
classification, induced functors between comodule categories, and descent
data.

Every name in ``__all__`` is importable from the package, and each is
resolved on first use: ``import coringext`` loads no submodule, and
``coringext.dual_ring`` loads only ``coring`` and the layers it needs.
"""

import importlib

# The defining module of each public name, in export order.  A name that
# equals its module's name is the module itself.
_MODULE_OF = {name: mod for mod, names in (
    ("exactla", "GF2 GF3 QQ FieldSpec Mat QuotientSpace kernel quotient rref "
                "set_guards"),
    ("algmod", "Algebra AlgebraMap Bimodule LeftModule RightModule "
               "check_algebra check_algebra_map check_bimodule "
               "check_left_module check_right_module make_algebra "
               "make_algebra_map regular_bimodule"),
    ("tensorcat", "tensor_chain tensor_over"),
    ("coring", "ColinearMap Comodule Coring DualRing LeftComodule "
               "check_bicomodule check_colinear check_comodule check_coring "
               "check_left_comodule cofree_comodule cotensor_basis "
               "direct_sum_comodule dual_ring make_colinear_map "
               "make_comodule make_coring make_left_comodule "
               "regular_comodule"),
    ("constructions", "Coalgebra base_algebra check_dual_basis "
                      "coalgebra_to_coring comatrix_coring entwining_coring "
                      "group_coalgebra make_coalgebra sweedler_coring "
                      "trivial_coring"),
    ("extension", "CoringExtension Measuring action_from_measuring "
                  "apply_functor check_coring_extension check_measuring "
                  "check_right_b_structure compose_extensions "
                  "enumerate_measurings extension_from_coring_map "
                  "identity_extension induced_coaction "
                  "make_extension make_measuring measuring_from_action"),
    ("descent", "Cor28Data DescentDatum check_cor28 check_descent_datum "
                "comodule_to_descent descent_functor descent_to_comodule "
                "make_cor28 make_descent_datum"),
    ("errors", "errors"),
    ("fixtures", "fixtures"),
) for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{mod}", __name__)
    value = module if name == mod else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
