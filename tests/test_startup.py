"""Start-up: a call loads only the layers its command and objects use, and
the package resolves its public names on first access."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import coringext
from coringext import fixtures

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# The export list of the package, by defining module, in export order.
EXPORTS = {
    "exactla": ["GF2", "GF3", "QQ", "FieldSpec", "Mat", "QuotientSpace",
                "kernel", "quotient", "rank", "rref", "set_guards", "solve"],
    "algmod": ["Algebra", "AlgebraMap", "Bimodule", "LeftModule",
               "RightModule", "check_algebra", "check_algebra_map",
               "check_bimodule", "check_left_module", "check_right_module",
               "enumerate_algebra_maps", "is_isomorphism", "make_algebra",
               "make_algebra_map", "opposite",
               "regular_bimodule"],
    "tensorcat": ["tensor_chain", "tensor_over"],
    "coring": ["ColinearMap", "Comodule", "Coring", "DualRing",
               "LeftComodule", "check_bicomodule", "check_colinear",
               "check_comodule", "check_coring", "check_left_comodule",
               "cofree_comodule", "cotensor_basis", "direct_sum_comodule",
               "dual_coords", "dual_element", "dual_ring",
               "make_colinear_map", "make_comodule", "make_coring",
               "make_left_comodule", "regular_comodule", "star_product"],
    "constructions": ["Coalgebra", "DualBasis", "Entwining",
                      "TwistedConvolution", "base_algebra", "check_coalgebra",
                      "check_dual_basis", "coalgebra_to_coring",
                      "comatrix_coring", "entwining_coring",
                      "enumerate_entwined_measurings", "flip_entwining",
                      "group_coalgebra", "make_coalgebra", "sweedler_coring",
                      "trivial_coring", "twisted_convolution",
                      "twisted_product"],
    "extension": ["CoringExtension", "Measuring", "action_from_measuring",
                  "algebra_map_to_measuring", "apply_functor",
                  "check_coring_extension", "check_measuring",
                  "check_right_b_structure", "compose_extensions",
                  "enumerate_measurings", "extension_from_coring_map",
                  "identity_extension", "induced_coaction",
                  "make_extension", "make_measuring", "measuring_from_action",
                  "measuring_to_algebra_map"],
    "descent": ["Cor28Data", "DescentDatum", "check_cor28",
                "check_descent_datum", "check_descent_morphism",
                "comodule_to_descent", "descent_functor",
                "descent_to_comodule", "make_cor28", "make_descent_datum"],
    "errors": ["errors"],
    "fixtures": ["fixtures"],
}

CORE = ["coringext", "coringext._record", "coringext.cli",
        "coringext.errors", "coringext.exactla"]

D2 = {"type": "algebra", "dim": 2,
      "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 1]}


def cli_in_fresh_process(workspace: dict, argv):
    """Exit code, report and loaded package modules of one CLI call."""
    code = ("import io, json, sys; sys.path.insert(0, sys.argv[1]); "
            "import coringext.cli as cli; out = io.StringIO(); "
            "rc = cli.run(sys.argv[3:], io.StringIO(sys.argv[2]), out); "
            "mods = sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'coringext'); "
            "print(json.dumps([rc, json.loads(out.getvalue()), mods]))")
    # -I -S: no user or site packages; -B: write no bytecode into src/
    cmd = [sys.executable, "-I", "-S", "-B", "-c", code, SRC,
           json.dumps(workspace), *argv]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=60)
    return json.loads(out.stdout)


def test_noop_check_loads_only_the_core():
    rc, report, mods = cli_in_fresh_process(
        {"field": {"type": "Q"}, "objects": {}}, ["check"])
    assert (rc, report["results"]) == (0, [])
    assert mods == CORE


def test_algebra_check_loads_no_coring_layers():
    rc, report, mods = cli_in_fresh_process(
        {"field": {"type": "Fp", "p": 2}, "objects": {"d2": D2}}, ["check"])
    assert (rc, report["results"][0]["kind"]) == (0, "Algebra")
    assert "coringext.algmod" in mods
    for layer in ("coring", "constructions", "extension", "descent",
                  "fixtures"):
        assert f"coringext.{layer}" not in mods


def test_sweedler_dualring_loads_no_extension_layers():
    objects = {
        "k": {"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]},
        "a": D2,
        "u": {"type": "algebra_map", "source": "k", "target": "a",
              "matrix": [[1], [1]]},
        "c": {"type": "sweedler_coring", "iota": "u"}}
    rc, report, mods = cli_in_fresh_process(
        {"field": {"type": "Fp", "p": 2}, "objects": objects},
        ["dualring", "--coring", "c"])
    assert (rc, report["dim"]) == (0, 4)
    assert "coringext.coring" in mods
    for layer in ("extension", "descent", "fixtures"):
        assert f"coringext.{layer}" not in mods


def test_all_is_the_export_list():
    assert coringext.__all__ == [n for names in EXPORTS.values()
                                 for n in names]


@pytest.mark.parametrize("module", EXPORTS)
def test_each_name_is_its_defining_attribute(module):
    mod = importlib.import_module(f"coringext.{module}")
    for name in EXPORTS[module]:
        want = mod if name == module else getattr(mod, name)
        assert getattr(coringext, name) is want


def test_dir_lists_every_name():
    assert set(coringext.__all__) <= set(dir(coringext))
    assert "__version__" in dir(coringext)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        coringext.no_such_name


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from coringext import *", namespace)
    assert set(coringext.__all__) <= set(namespace)


def test_reserved_fixture_names_share_the_prefix():
    # the CLI imports ``fixtures`` only for a missing name with this prefix
    names = set(fixtures.CORING_FIXTURES) | set(fixtures.ALGEBRA_FIXTURES)
    assert names and all(n.startswith("FIX.") for n in names)
