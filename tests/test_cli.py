"""CLI contract: schema validation, commands, exit codes, determinism."""

import io
import json
import sys
import time

import pytest

from coringext.errors import SchemaError, UnknownReference
from coringext.cli import COMMANDS, parse_workspace, run
from coringext.exactla import (DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM, GF2, Mat,
                               set_guards)
from coringext.fixtures import d2_algebra, matrix_algebra_2, sw_coring
from coringext.coring import regular_comodule
from coringext.constructions import trivial_coring


def run_cli(argv, text):
    out = io.StringIO()
    code = run(argv, stdin=io.StringIO(text), stdout=out)
    return code, out.getvalue()


def ws(field=None, **objects):
    return json.dumps({
        "field": field or {"type": "Fp", "p": 2},
        "objects": objects})


MINIMAL = ws(k={"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]})


def render(m):
    return [[int(x) for x in row] for row in m.entries]


class TestParsing:
    def test_minimal(self):
        w = parse_workspace(MINIMAL)
        assert list(w.objects) == ["k"]

    def test_fixture_materialized(self):
        w = parse_workspace(ws(sw={"fixture": "FIX.SW"}))
        assert w.objects["sw"].dim == 4

    def test_nonprime_modulus(self):
        with pytest.raises(SchemaError) as err:
            parse_workspace(ws(field={"type": "Fp", "p": 4}))
        assert err.value.path == "$.field.p"

    def test_rationals(self):
        text = json.dumps({
            "field": {"type": "Q"},
            "objects": {"k": {"type": "algebra", "dim": 1,
                              "mult": [[["1/1"]]], "unit": ["2/2"]}}})
        w = parse_workspace(text)
        assert w.field.p is None

    @pytest.mark.parametrize("field", [{"type": "Fp", "p": 2},
                                       {"type": "Fp", "p": 3}, {"type": "Q"}])
    def test_m2_tensor_parses_to_the_fixture(self, field):
        # mult[i][j] holds e_i e_j, E_rc E_cs = E_rs; M_2 is not
        # commutative, so a reader that swapped i and j would build M_2^op
        def unit_matrix(r, c):
            return [int(i == 2 * r + c) for i in range(4)]
        mult = [[unit_matrix(r, s) if c == c2 else [0] * 4
                 for c2 in range(2) for s in range(2)]
                for r in range(2) for c in range(2)]
        w = parse_workspace(ws(field, m={"type": "algebra", "dim": 4,
                                         "mult": mult, "unit": [1, 0, 0, 1]}))
        assert w.objects["m"] == matrix_algebra_2(w.field)

    def test_unknown_reference(self):
        with pytest.raises(UnknownReference) as err:
            parse_workspace(ws(f={"type": "algebra_map", "source": "nope",
                                  "target": "nope", "matrix": [[1]]}))
        assert err.value.name == "nope"

    def test_bad_matrix_shape_path(self):
        with pytest.raises(SchemaError) as err:
            parse_workspace(ws(a={"type": "algebra", "dim": 2,
                                  "mult": [[[1]]], "unit": [1, 0]}))
        assert "$.objects.a" in err.value.path

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_workspace("{not json")

    def test_duplicate_key(self):
        # without the check, the second field would win
        text = ('{"field": {"type": "Fp", "p": 2}, "objects": {}, '
                '"field": {"type": "Q"}}')
        with pytest.raises(SchemaError) as err:
            parse_workspace(text)
        assert err.value.path == "$"
        assert err.value.message == "invalid JSON: duplicate key 'field'"
        nested = ws(a={"type": "algebra", "dim": 1, "mult": [[[1]]],
                       "unit": [1]}).replace('"unit"', '"dim": 1, "unit"')
        code, out = run_cli(["check"], nested)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SchemaError" and err["path"] == "$"
        assert "duplicate key 'dim'" in err["message"]


class TestExitCodes:
    def test_check_pass(self):
        code, out = run_cli(["check"], MINIMAL)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["results"][0]["object"] == "k"

    def test_math_failure(self):
        bad = ws(a={"type": "algebra", "dim": 2,
                    "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                    "unit": [1, 0]})
        code, out = run_cli(["check"], bad)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["kind"] == "unitality"
        assert report["error"]["witness"] == [1]

    def test_schema_failure(self):
        code, out = run_cli(["check"], ws(field={"type": "Fp", "p": 6}))
        assert code == 2
        assert json.loads(out)["error"]["type"] == "SchemaError"

    def test_size_guard(self):
        text = ws(sw={"fixture": "FIX.SW"}, d2={"fixture": "FIX.D2"})
        code, out = run_cli(
            ["--max-enum", "2", "enumerate-measurings",
             "--coring", "sw", "--algebra", "d2"], text)
        assert code == 3
        assert json.loads(out)["error"]["type"] == "SizeLimit"

    def test_zero_max_dim_is_a_guard(self):
        # GF(13) keeps this trivial coring out of every cached quotient
        text = ws(field={"type": "Fp", "p": 13},
                  k={"type": "algebra", "dim": 1, "mult": [[[1]]],
                     "unit": [1]},
                  t={"type": "trivial_coring", "algebra": "k"})
        try:
            code, out = run_cli(["--max-dim", "0", "check"], text)
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
        assert code == 3
        assert json.loads(out)["error"]["type"] == "SizeLimit"

    def test_guard_precedes_triple_relations(self):
        # the trivial coring of a 40-dim diagonal algebra: C (x) C (x) C
        # has ambient dimension 64000, refused before a relation is built
        n = 40
        mult = [[[int(i == j == k) for k in range(n)] for j in range(n)]
                for i in range(n)]
        text = ws(a={"type": "algebra", "dim": n, "mult": mult,
                     "unit": [1] * n},
                  t={"type": "trivial_coring", "algebra": "a"})
        t0 = time.perf_counter()
        code, out = run_cli(["check"], text)
        assert time.perf_counter() - t0 < 5.0  # building them took 7-8 s
        assert code == 3
        err = json.loads(out)["error"]
        assert err["type"] == "SizeLimit"
        assert err["message"] == "ambient dimension 64000 exceeds 4096"

    def test_guard_independent_of_cache(self):
        text = ws(sw={"fixture": "FIX.SW"})
        try:
            codes = [run_cli(argv, text)[0] for argv in (
                ["--max-dim", "4", "dualring", "--coring", "sw"],
                ["dualring", "--coring", "sw"],
                ["--max-dim", "4", "dualring", "--coring", "sw"])]
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
        assert codes == [3, 0, 3]

    def test_exponent_scalar_rejected_quickly(self):
        text = json.dumps({
            "field": {"type": "Q"},
            "objects": {"k": {"type": "algebra", "dim": 1,
                              "mult": [[["1.5"]]], "unit": ["1e5000000"]}}})
        t0 = time.perf_counter()
        code, out = run_cli(["check"], text)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SchemaError"
        assert err["path"] == "$.objects.k.unit[0]"

    @pytest.mark.parametrize("text", ["1_000/1_000", "1/ 2"])
    def test_scalar_grammar_report(self, text):
        # Fraction() of some Python versions accepts these; no report may
        # depend on the version
        code, out = run_cli(["check"], ws(
            field={"type": "Q"},
            a={"type": "algebra", "dim": 1, "mult": [[[1]]],
               "unit": [text]}))
        assert code == 2
        assert out == (
            '{"command":"check","error":{"message":"$.objects.a.unit[0]: '
            'Invalid literal for Fraction: \'%s\'","path":"$.objects.a.'
            'unit[0]","type":"SchemaError"},"exit_code":2,"ok":false}\n'
            % text)

    def test_huge_prime_accepted(self):
        code, out = run_cli(["check"], ws(
            field={"type": "Fp", "p": 10 ** 18 + 3},
            k={"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]}))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_prime_beyond_bound_rejected(self):
        code, out = run_cli(["check"], ws(field={"type": "Fp",
                                                 "p": 2 ** 89 - 1}))
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SchemaError" and err["path"] == "$.field.p"

    def test_deeply_nested_json(self):
        code, out = run_cli(["check"], "[" * 100000 + "]" * 100000)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SchemaError" and err["path"] == "$"

    def test_oversized_integer_literal(self):
        # beyond the 4300-digit limit on int conversion of Python 3.10.7
        # on, which earlier versions lack: the report is the same on all
        text = '{"field": {"type": "Fp", "p": %s}, "objects": {}}' % (
            "7" * 5000)
        report = (
            '{"command":"check","error":{"message":"$: invalid JSON: an '
            'integer literal has more than 4300 digits","path":"$",'
            '"type":"SchemaError"},"exit_code":2,"ok":false}\n')
        assert run_cli(["check"], text) == (2, report)
        if hasattr(sys, "set_int_max_str_digits"):
            # no limit, as before Python 3.10.7
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                assert run_cli(["check"], text) == (2, report)
            finally:
                sys.set_int_max_str_digits(limit)
        # the limit counts digits, not the sign
        for literal in ("-" + "7" * 4300, "7" * 4300):
            _, out = run_cli(["check"], text.replace("7" * 5000, literal))
            assert json.loads(out)["error"]["path"] == "$.field.p"
        code, out = run_cli(["check"], MINIMAL.replace(
            '"objects"', '"n": -%s, "objects"' % ("1" * 4301)))
        assert code == 2 and "more than 4300 digits" in out

    def test_oversized_string_scalar(self):
        # a string scalar reaches int() or Fraction(): the same report on
        # every Python, with or without the limit on int conversion
        ws = ('{"field": {"type": "%s"%s}, "objects": {"a": {"type": '
              '"algebra", "dim": 1, "mult": [[[1]]], "unit": ["%s"]}}}')
        report = (
            '{"command":"check","error":{"message":"$.objects.a.unit[0]: a '
            'scalar has a run of more than 4300 digits","path":'
            '"$.objects.a.unit[0]","type":"SchemaError"},"exit_code":2,'
            '"ok":false}\n')
        texts = [ws % ("Fp", ', "p": 3', "7" * 5000),
                 ws % ("Q", "", "1/" + "7" * 5000),
                 ws % ("Q", "", "0." + "7" * 5000)]
        for text in texts:
            assert run_cli(["check"], text) == (2, report)
        if hasattr(sys, "set_int_max_str_digits"):
            # no limit, as before Python 3.10.7
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                for text in texts:
                    assert run_cli(["check"], text) == (2, report)
            finally:
                sys.set_int_max_str_digits(limit)

    def test_workspace_not_utf8(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_bytes(MINIMAL.encode() + b"\xff")
        out = io.StringIO()
        code = run(["--workspace", str(path), "check"], stdout=out)
        assert code == 2
        err = json.loads(out.getvalue())["error"]
        assert err["type"] == "SchemaError" and err["path"] == "$"

    def test_stdin_not_utf8(self):
        # where stdin is decoded with surrogateescape, a byte 0xff in an
        # object name arrives as the lone surrogate U+DCFF
        text = MINIMAL.replace('"k":', '"k\udcff":')
        assert text != MINIMAL
        code, out = run_cli(["check"], text)
        assert code == 2
        err = json.loads(out)["error"]
        assert err["type"] == "SchemaError" and err["path"] == "$"

    def test_unknown_object_in_command(self):
        code, out = run_cli(["dualring", "--coring", "nope"], MINIMAL)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnknownReference"

    def test_unknown_name_with_fixture_prefix(self):
        code, out = run_cli(["dualring", "--coring", "FIX.NOPE"], MINIMAL)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "UnknownReference"

    def test_check_object_loads_a_fixture(self):
        # --object resolves a name as every other option does
        code, out = run_cli(["check", "--object", "FIX.SW"], MINIMAL)
        assert code == 0
        assert json.loads(out)["results"] == [
            {"kind": "Coring", "object": "FIX.SW", "ok": True}]

    def test_gc2_is_a_coring(self):
        # FIX.GC2 names the coring of the group-like coalgebra on two
        # points, not the coalgebra itself
        code, out = run_cli(["check", "--object", "FIX.GC2"], MINIMAL)
        assert code == 0
        assert json.loads(out)["results"] == [
            {"kind": "Coring", "object": "FIX.GC2", "ok": True}]
        code, out = run_cli(["check"], ws(
            c={"type": "coalgebra_coring", "coalgebra": "FIX.GC2"}))
        assert code == 2
        err = json.loads(out)["error"]
        assert (err["type"], err["path"], err["message"]) == (
            "SchemaError", "$.objects.c",
            "$.objects.c: 'FIX.GC2' is not a Coalgebra")

    def test_check_object_unknown(self):
        assert run_cli(["check", "--object", "nope"], MINIMAL) == (2, (
            '{"command":"check","error":{"message":"$: unknown object '
            '\'nope\'","name":"nope","path":"$","type":"UnknownReference"},'
            '"exit_code":2,"ok":false}\n'))


class NoStdin:
    """A stdin that fails the test if it is read."""

    def read(self):
        raise AssertionError("stdin was read")


class TestArgv:
    """Every fault in argv is one JSON report with exit 2, made before the
    workspace is read."""

    @pytest.mark.parametrize("argv, path, command", [
        (["bogus"], "argv[0]", None),
        (["--max-dim", "5", "bogus"], "argv[2]", None),
        ([], "argv", None),
        (["--max-dim", "5"], "argv", None),
        (["dualring", "--nope", "x"], "argv[1]", "dualring"),
        (["--nope", "check"], "argv[0]", None),
        (["-x", "check"], "argv[0]", None),
        (["dualring", "--cor", "sw"], "argv[1]", "dualring"),
        (["--max-d", "5", "check"], "argv[0]", None),
        (["check", "--workspace", "ws.json"], "argv[1]", "check"),
        (["dualring", "--coring"], "argv[1]", "dualring"),
        (["dualring", "--coring", "--algebra"], "argv[1]", "dualring"),
        (["dualring"], "argv", "dualring"),
        (["enumerate-measurings", "--algebra=b"], "argv",
         "enumerate-measurings"),
        (["check", "--object", "a", "--object=b"], "argv[3]", "check"),
        (["--max-dim", "5", "--max-dim", "6", "check"], "argv[2]", None),
        (["check", "stray"], "argv[1]", "check"),
        (["dualring", "--coring", "sw", "sw"], "argv[3]", "dualring"),
        (["--max-dim", "x", "check"], "argv[1]", None),
        (["--max-enum=x", "check"], "argv[0]", None),
        (["--max-dim", "7" * 4301, "check"], "argv[1]", None),
        (["--max-enum=-" + "7" * 4301, "check"], "argv[0]", None),
    ] + [
        # a guard value follows the scalar grammar [+-]?[0-9]+
        case for value in ("1_000", " 5", "\u0663")
        for name in ("--max-dim", "--max-enum")
        for case in (([name, value, "check"], "argv[1]", None),
                     ([f"{name}={value}", "check"], "argv[0]", None))
    ])
    def test_fault_report(self, argv, path, command):
        out = io.StringIO()
        assert run(argv, stdin=NoStdin(), stdout=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report == {"command": command, "ok": False, "exit_code": 2,
                          "error": {"type": "SchemaError", "path": path,
                                    "message": report["error"]["message"]}}
        assert report["error"]["message"].startswith(path + ": ")

    def test_long_guard_value_same_report_without_int_limit(self):
        argv = ["--max-dim", "7" * 5000, "check"]
        first = run_cli(argv, "")
        assert "more than 4300 digits" in first[1]
        if hasattr(sys, "set_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                assert run_cli(argv, "") == first
            finally:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("value", ["05", "+5"])
    def test_guard_value_with_a_zero_or_a_sign(self, value):
        text = ws(sw={"fixture": "FIX.SW"}, d2={"fixture": "FIX.D2"})
        try:
            runs = [run_cli(argv, text) for argv in (
                ["--max-dim", value, "dualring", "--coring", "sw"],
                [f"--max-dim={value}", "dualring", "--coring", "sw"],
                ["--max-enum", value, "enumerate-measurings", "--coring",
                 "sw", "--algebra", "d2"])]
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
        assert runs[0] == runs[1]
        for code, out in runs[1:]:
            message = json.loads(out)["error"]["message"]
            assert code == 3 and message.endswith(("exceeds 5",
                                                   "the guard 5"))

    def test_both_spellings_and_global_options_before_the_command(
            self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(ws(sw={"fixture": "FIX.SW"}))
        try:
            runs = [run_cli(argv, "") for argv in (
                ["--workspace", str(path), "--max-dim", "4",
                 "dualring", "--coring", "sw"],
                [f"--workspace={path}", "--max-dim=4",
                 "dualring", "--coring=sw"])]
        finally:
            set_guards(DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM)
        assert runs[0] == runs[1]
        assert runs[0][0] == 3
        code, out = run_cli([f"--workspace={path}", "dualring",
                             "--coring=sw"], "")
        assert code == 0 and json.loads(out)["dim"] == 4

    def test_value_with_equals_sign(self):
        text = ws(**{"a=b": {"fixture": "FIX.SW"}})
        code, out = run_cli(["dualring", "--coring=a=b"], text)
        assert code == 0 and json.loads(out)["coring"] == "a=b"

    @pytest.mark.parametrize("argv", [
        ["-h"], ["--help"], ["check", "-h"], ["bogus", "--help"],
        ["--max-dim", "x", "-h"]])
    def test_help(self, argv):
        out = io.StringIO()
        assert run(argv, stdin=NoStdin(), stdout=out) == 0
        report = json.loads(out.getvalue())
        assert report["ok"] is True
        assert sorted(report["commands"]) == sorted(COMMANDS)
        assert report["commands"]["descent"] == {
            "required": ["--cor28"], "optional": ["--datum"]}
        assert report["global_options"] == [
            "--workspace", "--max-dim", "--max-enum"]


K = {"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [1]}
GF3 = {"type": "Fp", "p": 3}
GROUP2 = {"delta": [[1, 0], [0, 0], [0, 0], [0, 1]], "eps": [[1, 0]]}
UNIT_D2 = {"type": "algebra_map", "source": "k", "target": "d2",
           "matrix": [[1], [1]]}

# One workspace per object kind whose checker can reject it, each with one
# broken constant, and the exact report of ``check`` on it.
REJECTS = {
    "algebra": (
        ws(a={"type": "algebra", "dim": 1, "mult": [[[1]]], "unit": [0]}),
        '{"command":"check","error":{"kind":"unitality",'
        '"message":"unitality at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "algebra_map": (
        ws(k=K, d2={"fixture": "FIX.D2"},
           f={"type": "algebra_map", "source": "k", "target": "d2",
              "matrix": [[1], [0]]}),
        '{"command":"check","error":{"kind":"unit-not-preserved",'
        '"message":"unit-not-preserved at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "coalgebra": (
        ws(c={"type": "coalgebra", "dim": 2, **GROUP2}),
        '{"command":"check","error":{"kind":"counit",'
        '"message":"counit at (1,)","type":"AxiomViolation",'
        '"witness":[1]},"exit_code":1,"ok":false}\n'),
    "coring": (
        ws(k=K, c={"type": "coring", "algebra": "k", "dim": 2,
                   "lact": [[1, 0], [0, 1]], "ract": [[1, 0], [0, 1]],
                   "delta_lift": GROUP2["delta"], "eps": GROUP2["eps"]}),
        '{"command":"check","error":{"kind":"counit-left",'
        '"message":"counit-left at (1,)","type":"AxiomViolation",'
        '"witness":[1]},"exit_code":1,"ok":false}\n'),
    "comodule": (
        ws(gc2={"fixture": "FIX.GC2"},
           m={"type": "comodule", "coring": "gc2", "dim": 1, "act": [[1]],
              "rho_lift": [[0], [0]]}),
        '{"command":"check","error":{"kind":"counit",'
        '"message":"counit at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "colinear_map": (
        ws(gc2={"fixture": "FIX.GC2"},
           g={"type": "comodule", "coring": "gc2", "dim": 1, "act": [[1]],
              "rho_lift": [[1], [0]]},
           h={"type": "comodule", "coring": "gc2", "dim": 1, "act": [[1]],
              "rho_lift": [[0], [1]]},
           f={"type": "colinear_map", "source": "g", "target": "h",
              "matrix": [[1]]}),
        '{"command":"check","error":{"kind":"not-colinear",'
        '"message":"not-colinear at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "measuring": (
        ws(GF3, gc2={"fixture": "FIX.GC2"}, bc2={"fixture": "FIX.BC2"},
           nu={"type": "measuring", "coring": "gc2", "algebra": "bc2",
               "nu": [[1, 0, 1, 1]]}),
        '{"command":"check","error":{"kind":"multiplication-diagram",'
        '"message":"multiplication-diagram at (0, 1, 1)",'
        '"type":"AxiomViolation","witness":[0,1,1]},"exit_code":1,'
        '"ok":false}\n'),
    "extension": (
        ws(GF3, gc2={"fixture": "FIX.GC2"},
           e={"type": "extension", "c": "gc2", "d": "gc2",
              "ract": [[1, 0], [0, 1]],
              "sigma_lift": [[1, 0], [0, 0], [1, 0], [2, 1]]}),
        '{"command":"check","error":{"kind":"not-bicomodule",'
        '"message":"not-bicomodule at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "extension_from_coring_map": (
        ws(sw={"fixture": "FIX.SW"},
           e={"type": "extension_from_coring_map", "c": "sw", "d": "sw",
              "gamma": [[0] * 4] * 4}),
        '{"command":"check","error":{"kind":"coring-map-counit",'
        '"message":"coring-map-counit at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "descent_datum": (
        ws(k=K, d2={"fixture": "FIX.D2"}, u=UNIT_D2,
           dat={"type": "descent_datum", "iota": "u", "dim": 2,
                "act": [[1, 0, 0, 0], [0, 0, 0, 1]],
                "f_lift": [[0, 0]] * 4}),
        '{"command":"check","error":{"kind":"unit-law",'
        '"message":"unit-law at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
    "cor28": (
        ws(k=K, d2={"fixture": "FIX.D2"}, u=UNIT_D2,
           uid={"type": "algebra_map", "source": "k", "target": "k",
                "matrix": [[1]]},
           c28={"type": "cor28", "iota_B": "uid", "iota_A": "u",
                "rho_A": [[1, 0], [0, 1]], "phi_lift": [[0, 0]] * 4}),
        '{"command":"check","error":{"kind":"diagram-a",'
        '"message":"diagram-a at (0,)","type":"AxiomViolation",'
        '"witness":[0]},"exit_code":1,"ok":false}\n'),
}


class TestRejectReports:
    """The report of a rejected object is pinned byte for byte, for every
    kind; each names a nonempty witness."""

    @pytest.mark.parametrize("kind", sorted(REJECTS))
    def test_exact_report(self, kind):
        text, expected = REJECTS[kind]
        assert run_cli(["check"], text) == (1, expected)


class TestCommands:
    def test_dualring(self):
        code, out = run_cli(["dualring", "--coring", "FIX.SW"],
                            ws(sw={"fixture": "FIX.SW"}))
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 4
        assert len(report["mult"]) == 4

    def test_dualring_zero_algebra(self):
        code, out = run_cli(["dualring", "--coring", "t"], ws(
            z={"type": "algebra", "dim": 0, "mult": [], "unit": []},
            t={"type": "trivial_coring", "algebra": "z"}))
        assert code == 0
        report = json.loads(out)
        assert report["dim"] == 0
        assert report["basis"] == report["mult"] == report["unit"] == []

    def test_enumerate_measurings(self):
        text = json.dumps({
            "field": {"type": "Fp", "p": 3},
            "objects": {
                "gc2": {"fixture": "FIX.GC2"},
                "bc2": {"fixture": "FIX.BC2"}}})
        code, out = run_cli(["enumerate-measurings", "--coring", "gc2",
                             "--algebra", "bc2"], text)
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 4
        assert len(report["measurings"]) == 4

    def _extension_ws(self):
        sw = sw_coring(GF2)
        reg = regular_comodule(sw)
        return json.dumps({
            "field": {"type": "Fp", "p": 2},
            "objects": {
                "D2": {"fixture": "FIX.D2"},
                "SW": {"fixture": "FIX.SW"},
                "triv": {"type": "trivial_coring", "algebra": "D2"},
                "E": {"type": "extension_from_coring_map",
                      "c": "SW", "d": "triv", "gamma": render(sw.eps)},
                "Eid": {"type": "identity_extension", "coring": "SW"},
                "reg": {"type": "comodule", "coring": "SW", "dim": 4,
                        "act": render(reg.M.act),
                        "rho_lift": render(reg.rho_lift)},
                "idmap": {"type": "colinear_map", "source": "reg",
                          "target": "reg",
                          "matrix": render(Mat.identity(GF2, 4))},
            }})

    def test_induce(self):
        code, out = run_cli(["induce", "--extension", "E",
                             "--comodule", "reg"], self._extension_ws())
        assert code == 0
        assert json.loads(out)["result"]["dim"] == 4

    def test_apply(self):
        code, out = run_cli(["apply", "--extension", "E", "--map", "idmap"],
                            self._extension_ws())
        assert code == 0
        assert json.loads(out)["matrix"] == render(Mat.identity(GF2, 4))

    def test_apply_checks_colinearity_twice(self, monkeypatch):
        # once over C when the parser makes the map, once over D when
        # apply_functor makes its image; both through make_colinear_map
        import coringext.coring as coring
        real = coring.check_colinear
        calls = []

        def counting(f, m, n):
            calls.append(m.coring)
            return real(f, m, n)

        monkeypatch.setattr(coring, "check_colinear", counting)
        text = self._extension_ws()
        code, _ = run_cli(["apply", "--extension", "E", "--map", "idmap"],
                          text)
        assert code == 0
        c, d = sw_coring(GF2), trivial_coring(d2_algebra(GF2))
        assert calls == [c, d]

    def test_compose(self):
        code, out = run_cli(["compose", "--first", "Eid", "--second", "E"],
                            self._extension_ws())
        assert code == 0
        assert "sigma_lift" in json.loads(out)

    def test_compose_middle_mismatch(self):
        # E extends SW by the trivial coring, so E then E has no middle
        code, out = run_cli(["compose", "--first", "E", "--second", "E"],
                            self._extension_ws())
        assert code == 2
        assert json.loads(out)["error"] == {
            "message": "middle corings do not agree",
            "type": "DimensionMismatch"}

    def _descent_ws(self):
        a = d2_algebra(GF2)
        ia = Mat.identity(GF2, 2)
        return json.dumps({
            "field": {"type": "Fp", "p": 2},
            "objects": {
                "D2": {"fixture": "FIX.D2"},
                "k": {"type": "algebra", "dim": 1, "mult": [[[1]]],
                      "unit": [1]},
                "u": {"type": "algebra_map", "source": "k", "target": "D2",
                      "matrix": [[1], [1]]},
                "uid": {"type": "algebra_map", "source": "k", "target": "k",
                        "matrix": [[1]]},
                "C28": {"type": "cor28", "iota_B": "uid", "iota_A": "u",
                        "rho_A": render(ia),
                        "phi_lift": render(a.unit_col.kron(ia))},
                "dat": {"type": "descent_datum", "iota": "u", "dim": 2,
                        "act": render(a.mult_mat),
                        "f_lift": render(a.unit_col.kron(ia))},
            }})

    def test_descent(self):
        code, out = run_cli(["descent", "--cor28", "C28", "--datum", "dat"],
                            self._descent_ws())
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "accept"
        assert report["result"]["dim"] == 2

    def test_descent_checks_cor28_once(self, monkeypatch):
        # make_cor28 checks the data when the parser makes it;
        # descent_functor trusts the made record
        import coringext.descent as descent
        real = descent.check_cor28
        calls = []

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(descent, "check_cor28", counting)
        code, _ = run_cli(["descent", "--cor28", "C28", "--datum", "dat"],
                          self._descent_ws())
        assert code == 0
        assert len(calls) == 1

    def test_descent_assembles_the_extension_once(self, monkeypatch):
        # check_cor28 assembles it as data.extension, and descent_functor
        # pushes along that same extension
        import coringext.descent as descent
        real = descent._assemble
        calls = []

        def counting(data):
            calls.append(data)
            return real(data)

        monkeypatch.setattr(descent, "_assemble", counting)
        code, _ = run_cli(["descent", "--cor28", "C28", "--datum", "dat"],
                          self._descent_ws())
        assert code == 0
        assert len(calls) == 1


class TestDeterminism:
    def test_byte_identical_reports(self):
        text = ws(sw={"fixture": "FIX.SW"})
        _, out1 = run_cli(["dualring", "--coring", "sw"], text)
        _, out2 = run_cli(["dualring", "--coring", "sw"], text)
        assert out1 == out2

    def test_rational_scalars_rendered_canonically(self):
        text = json.dumps({
            "field": {"type": "Q"},
            "objects": {"t": {"type": "trivial_coring", "algebra": "a"},
                        "a": {"type": "algebra", "dim": 1,
                              "mult": [[["1/1"]]], "unit": [1]}}})
        # forward reference: objects are parsed in declaration order
        code, out = run_cli(["check"], text)
        assert code == 2  # "t" refers to "a" before it is defined

    def test_rationals_dualring(self):
        text = json.dumps({
            "field": {"type": "Q"},
            "objects": {"a": {"type": "algebra", "dim": 1,
                              "mult": [[["2/2"]]], "unit": [1]},
                        "t": {"type": "trivial_coring", "algebra": "a"}}})
        code, out = run_cli(["dualring", "--coring", "t"], text)
        assert code == 0
        assert json.loads(out)["unit"] == ["1/1"]
