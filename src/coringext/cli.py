"""Command-line front end: JSON workspaces in, deterministic reports out.

Workspace schema: ``{"field": {"type": "Fp", "p": <prime>} | {"type": "Q"},
"objects": {<name>: <object>}}``.  Matrices are row-major nested arrays,
3-tensors are arrays of matrices indexed by the first slot, and coproducts
and coactions are given as lifts into tensor-over-k coordinates.  Reserved
fixture names (FIX.D2, FIX.BC2, FIX.GC2, FIX.SW) may be declared as
``{"fixture": "FIX.SW"}`` or referenced directly by name.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
schema error, 3 size guard exceeded.
"""

import argparse
import json
import sys
from typing import Dict

from ._record import frozen
from .errors import (AxiomViolation, CoringError, DimensionMismatch,
                     DualBasisInvalid, MiddleMismatch, NonFiniteField,
                     NotColinear, NotCoringMorphism, SchemaError, SizeLimit,
                     UnknownReference)
from .exactla import (DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM,
                      FieldSpec, Mat, set_guards)
from .algmod import (Algebra, AlgebraMap, RightModule, make_algebra,
                     make_algebra_map)
from .coring import (Comodule, Coring, dual_ring, make_comodule, make_coring,
                     check_colinear)
from .algmod import bimodule_from_actions
from .constructions import (Coalgebra, Entwining, coalgebra_to_coring,
                            entwining_coring, make_coalgebra, sweedler_coring,
                            trivial_coring)
from .descent import (Cor28Data, DescentDatum, check_cor28, descent_functor,
                      make_descent_datum)
from .extension import (CoringExtension, Measuring, apply_functor,
                        compose_extensions, enumerate_measurings,
                        extension_from_coring_map, identity_extension,
                        induced_coaction, make_extension, make_measuring)
from . import fixtures as fx

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_SIZE = 3

INPUT_ERRORS = (SchemaError, UnknownReference, DimensionMismatch,
                NonFiniteField, MiddleMismatch)
MATH_ERRORS = (AxiomViolation, NotCoringMorphism, NotColinear,
               DualBasisInvalid)


@frozen
class ColinearMap:
    source: Comodule
    target: Comodule
    matrix: Mat


class Workspace:
    """Named, validated objects over one base field."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.objects: Dict[str, object] = {}

    def get(self, name: str, kinds, path: str):
        if name not in self.objects:
            if name in fx.CORING_FIXTURES or name in fx.ALGEBRA_FIXTURES:
                self.objects[name] = fx.fixture(name, self.field, path)
            else:
                raise UnknownReference(path, name)
        obj = self.objects[name]
        if not isinstance(obj, kinds):
            want = "/".join(k.__name__ for k in
                            (kinds if isinstance(kinds, tuple) else (kinds,)))
            raise SchemaError(path, f"{name!r} is not a {want}")
        return obj


# -- parsing -----------------------------------------------------------


def _expect(obj, key, path, typ=None):
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected a JSON object")
    if key not in obj:
        raise SchemaError(path, f"missing key {key!r}")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{path}.{key}", f"expected {typ.__name__}")
    return val


def _scalar(field, x, path):
    try:
        if isinstance(x, (dict, list, bool)) or x is None:
            raise ValueError(f"bad scalar {x!r}")
        return field.of(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, str(exc))


def _matrix(field, data, rows, cols, path) -> Mat:
    if not isinstance(data, list) or len(data) != rows:
        raise SchemaError(path, f"expected {rows} rows")
    ent = []
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{path}[{i}]", f"expected {cols} entries")
        ent.append(tuple(_scalar(field, x, f"{path}[{i}][{j}]")
                         for j, x in enumerate(row)))
    return Mat(field, rows, cols, tuple(ent))


def _tensor3(field, data, d0, d1, d2, path):
    if not isinstance(data, list) or len(data) != d0:
        raise SchemaError(path, f"expected {d0} slices")
    return tuple(tuple(_matrix(field, sl, d1, d2, f"{path}[{i}]").entries)
                 for i, sl in enumerate(data))


def _dim(obj, path, key="dim") -> int:
    d = _expect(obj, key, path)
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise SchemaError(f"{path}.{key}", "expected a nonnegative integer")
    return d


def parse_field(data, path="$.field") -> FieldSpec:
    kind = _expect(data, "type", path, str)
    if kind == "Q":
        return FieldSpec(None)
    if kind == "Fp":
        p = _expect(data, "p", path)
        if not isinstance(p, int) or isinstance(p, bool):
            raise SchemaError(f"{path}.p", "expected an integer")
        try:
            return FieldSpec(p)
        except ValueError as exc:
            raise SchemaError(f"{path}.p", str(exc))
    raise SchemaError(f"{path}.type", f"unknown field type {kind!r}")


def _parse_object(ws: Workspace, name: str, data, path: str):
    f = ws.field
    if not isinstance(data, dict):
        raise SchemaError(path, "expected a JSON object")
    if "fixture" in data:
        fixname = _expect(data, "fixture", path, str)
        return fx.fixture(fixname, f, f"{path}.fixture")
    kind = _expect(data, "type", path, str)
    if kind == "algebra":
        dim = _dim(data, path)
        mult = _tensor3(f, _expect(data, "mult", path), dim, dim, dim,
                        f"{path}.mult")
        unit = _expect(data, "unit", path, list)
        if len(unit) != dim:
            raise SchemaError(f"{path}.unit", f"expected {dim} entries")
        unit = tuple(_scalar(f, x, f"{path}.unit[{i}]")
                     for i, x in enumerate(unit))
        return make_algebra(f, dim, mult, unit)
    if kind == "algebra_map":
        src = ws.get(_expect(data, "source", path, str), Algebra, path)
        tgt = ws.get(_expect(data, "target", path, str), Algebra, path)
        mat = _matrix(f, _expect(data, "matrix", path), tgt.dim, src.dim,
                      f"{path}.matrix")
        return make_algebra_map(src, tgt, mat)
    if kind == "coalgebra":
        dim = _dim(data, path)
        delta = _matrix(f, _expect(data, "delta", path), dim * dim, dim,
                        f"{path}.delta")
        eps = _matrix(f, _expect(data, "eps", path), 1, dim, f"{path}.eps")
        return make_coalgebra(f, dim, delta, eps)
    if kind == "coring":
        a = ws.get(_expect(data, "algebra", path, str), Algebra, path)
        dim = _dim(data, path)
        lact = _matrix(f, _expect(data, "lact", path), dim, a.dim * dim,
                       f"{path}.lact")
        ract = _matrix(f, _expect(data, "ract", path), dim, dim * a.dim,
                       f"{path}.ract")
        delta_lift = _matrix(f, _expect(data, "delta_lift", path),
                             dim * dim, dim, f"{path}.delta_lift")
        eps = _matrix(f, _expect(data, "eps", path), a.dim, dim,
                      f"{path}.eps")
        cbim = bimodule_from_actions(a, a, dim, lact, ract)
        return make_coring(a, cbim, delta_lift, eps)
    if kind == "trivial_coring":
        a = ws.get(_expect(data, "algebra", path, str), Algebra, path)
        return trivial_coring(a)
    if kind == "sweedler_coring":
        iota = ws.get(_expect(data, "iota", path, str), AlgebraMap, path)
        return sweedler_coring(iota)
    if kind == "coalgebra_coring":
        cg = ws.get(_expect(data, "coalgebra", path, str), Coalgebra, path)
        return coalgebra_to_coring(cg)
    if kind == "entwining_coring":
        a = ws.get(_expect(data, "algebra", path, str), Algebra, path)
        cg = ws.get(_expect(data, "coalgebra", path, str), Coalgebra, path)
        psi = _matrix(f, _expect(data, "psi", path), a.dim * cg.dim,
                      cg.dim * a.dim, f"{path}.psi")
        return entwining_coring(Entwining(a, cg, psi))
    if kind == "comodule":
        c = ws.get(_expect(data, "coring", path, str), Coring, path)
        dim = _dim(data, path)
        act = _matrix(f, _expect(data, "act", path), dim, dim * c.A.dim,
                      f"{path}.act")
        rho = _matrix(f, _expect(data, "rho_lift", path), dim * c.dim, dim,
                      f"{path}.rho_lift")
        return make_comodule(c, RightModule(c.A, dim, act), rho)
    if kind == "colinear_map":
        src = ws.get(_expect(data, "source", path, str), Comodule, path)
        tgt = ws.get(_expect(data, "target", path, str), Comodule, path)
        mat = _matrix(f, _expect(data, "matrix", path), tgt.dim, src.dim,
                      f"{path}.matrix")
        check_colinear(mat, src, tgt).raise_if_failed()
        return ColinearMap(src, tgt, mat)
    if kind == "measuring":
        c = ws.get(_expect(data, "coring", path, str), Coring, path)
        b = ws.get(_expect(data, "algebra", path, str), Algebra, path)
        nu = _matrix(f, _expect(data, "nu", path), c.A.dim, c.dim * b.dim,
                     f"{path}.nu")
        return make_measuring(c, b, nu)
    if kind == "extension":
        c = ws.get(_expect(data, "c", path, str), Coring, path)
        d = ws.get(_expect(data, "d", path, str), Coring, path)
        ract = _matrix(f, _expect(data, "ract", path), c.dim,
                       c.dim * d.A.dim, f"{path}.ract")
        sigma = _matrix(f, _expect(data, "sigma_lift", path),
                        c.dim * d.dim, c.dim, f"{path}.sigma_lift")
        return make_extension(c, d, ract, sigma)
    if kind == "identity_extension":
        c = ws.get(_expect(data, "coring", path, str), Coring, path)
        return identity_extension(c)
    if kind == "extension_from_coring_map":
        c = ws.get(_expect(data, "c", path, str), Coring, path)
        d = ws.get(_expect(data, "d", path, str), Coring, path)
        gamma = _matrix(f, _expect(data, "gamma", path), d.dim, c.dim,
                        f"{path}.gamma")
        return extension_from_coring_map(gamma, c, d)
    if kind == "descent_datum":
        iota = ws.get(_expect(data, "iota", path, str), AlgebraMap, path)
        dim = _dim(data, path)
        a = iota.target
        act = _matrix(f, _expect(data, "act", path), dim, dim * a.dim,
                      f"{path}.act")
        flift = _matrix(f, _expect(data, "f_lift", path), dim * a.dim, dim,
                        f"{path}.f_lift")
        return make_descent_datum(iota, RightModule(a, dim, act), flift)
    if kind == "cor28":
        iota_b = ws.get(_expect(data, "iota_B", path, str), AlgebraMap, path)
        iota_a = ws.get(_expect(data, "iota_A", path, str), AlgebraMap, path)
        a = iota_a.target
        b = iota_a.source
        rho = _matrix(f, _expect(data, "rho_A", path), a.dim, a.dim * b.dim,
                      f"{path}.rho_A")
        phi = _matrix(f, _expect(data, "phi_lift", path),
                      a.dim * a.dim * b.dim, a.dim, f"{path}.phi_lift")
        data28 = Cor28Data(iota_b, iota_a, rho, phi)
        check_cor28(data28).raise_if_failed()
        return data28
    raise SchemaError(f"{path}.type", f"unknown object type {kind!r}")


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate a workspace; raises on the first error."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long
        raise SchemaError("$", f"invalid JSON: {exc}")
    except RecursionError:
        raise SchemaError("$", "invalid JSON: nested too deeply")
    if not isinstance(data, dict):
        raise SchemaError("$", "expected a JSON object")
    ws = Workspace(parse_field(_expect(data, "field", "$")))
    objects = _expect(data, "objects", "$")
    if not isinstance(objects, dict):
        raise SchemaError("$.objects", "expected a JSON object")
    for name, obj in objects.items():
        ws.objects[name] = _parse_object(ws, name, obj,
                                         f"$.objects.{name}")
    return ws


# -- rendering ---------------------------------------------------------


def _render_matrix(field, m: Mat):
    return [[field.render(x) for x in row] for row in m.entries]


def _render_vec(field, v):
    return [field.render(x) for x in v]


def _render_tensor3(field, t):
    return [[[field.render(x) for x in row] for row in sl] for sl in t]


def _comodule_report(field, m: Comodule):
    return {"dim": m.dim,
            "act": _render_matrix(field, m.M.act),
            "rho_lift": _render_matrix(field, m.rho_lift)}


# -- commands ----------------------------------------------------------


def _kind_name(obj) -> str:
    return type(obj).__name__


def cmd_check(ws: Workspace, args) -> dict:
    names = sorted(ws.objects) if args.object is None else [args.object]
    results = []
    for name in names:
        if name not in ws.objects:
            raise UnknownReference("$", name)
        results.append({"object": name,
                        "kind": _kind_name(ws.objects[name]),
                        "ok": True})
    return {"command": "check", "ok": True, "results": results}


def cmd_dualring(ws: Workspace, args) -> dict:
    c = ws.get(args.coring, Coring, "--coring")
    dr = dual_ring(c)
    f = ws.field
    return {"command": "dualring", "coring": args.coring,
            "dim": dr.dim,
            "mult": _render_tensor3(f, dr.alg.mult),
            "unit": _render_vec(f, dr.alg.unit),
            "basis": [_render_matrix(f, b) for b in dr.basis]}


def cmd_enumerate_measurings(ws: Workspace, args) -> dict:
    c = ws.get(args.coring, Coring, "--coring")
    b = ws.get(args.algebra, Algebra, "--algebra")
    ms = enumerate_measurings(c, b)
    f = ws.field
    return {"command": "enumerate-measurings", "coring": args.coring,
            "algebra": args.algebra, "count": len(ms),
            "measurings": [_render_matrix(f, m.nu) for m in ms]}


def cmd_induce(ws: Workspace, args) -> dict:
    e = ws.get(args.extension, CoringExtension, "--extension")
    m = ws.get(args.comodule, Comodule, "--comodule")
    out = induced_coaction(e, m)
    return {"command": "induce", "extension": args.extension,
            "comodule": args.comodule,
            "result": _comodule_report(ws.field, out)}


def cmd_apply(ws: Workspace, args) -> dict:
    e = ws.get(args.extension, CoringExtension, "--extension")
    g = ws.get(args.map, ColinearMap, "--map")
    out = apply_functor(e, g.matrix, g.source, g.target)
    return {"command": "apply", "extension": args.extension,
            "map": args.map, "ok": True,
            "matrix": _render_matrix(ws.field, out)}


def cmd_compose(ws: Workspace, args) -> dict:
    e1 = ws.get(args.first, CoringExtension, "--first")
    e2 = ws.get(args.second, CoringExtension, "--second")
    out = compose_extensions(e1, e2)
    f = ws.field
    return {"command": "compose", "first": args.first,
            "second": args.second,
            "ract": _render_matrix(f, out.ract),
            "sigma_lift": _render_matrix(f, out.sigma_lift)}


def cmd_descent(ws: Workspace, args) -> dict:
    data = ws.get(args.cor28, Cor28Data, "--cor28")
    report = {"command": "descent", "cor28": args.cor28,
              "verdict": "accept"}
    if args.datum is not None:
        d = ws.get(args.datum, DescentDatum, "--datum")
        out = descent_functor(data, d)
        f = ws.field
        report["datum"] = args.datum
        report["result"] = {"dim": out.M.dim,
                            "act": _render_matrix(f, out.M.act),
                            "f_lift": _render_matrix(f, out.f_lift)}
    return report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="coringext",
        description="Exact verification of coring and comodule structures.")
    p.add_argument("--workspace", help="JSON workspace file (default stdin)")
    p.add_argument("--max-dim", type=int, default=None,
                   help="ambient dimension guard")
    p.add_argument("--max-enum", type=int, default=None,
                   help="brute-force candidate guard")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="validate workspace objects")
    c.add_argument("--object", default=None)

    c = sub.add_parser("dualring", help="structure constants of *C")
    c.add_argument("--coring", required=True)

    c = sub.add_parser("enumerate-measurings",
                       help="all measurings of a coring by an algebra")
    c.add_argument("--coring", required=True)
    c.add_argument("--algebra", required=True)

    c = sub.add_parser("induce", help="induced comodule along an extension")
    c.add_argument("--extension", required=True)
    c.add_argument("--comodule", required=True)

    c = sub.add_parser("apply", help="transport a colinear map")
    c.add_argument("--extension", required=True)
    c.add_argument("--map", required=True)

    c = sub.add_parser("compose", help="compose two coring extensions")
    c.add_argument("--first", required=True)
    c.add_argument("--second", required=True)

    c = sub.add_parser("descent", help="verify and push descent data")
    c.add_argument("--cor28", required=True)
    c.add_argument("--datum", default=None)
    return p


COMMANDS = {
    "check": cmd_check,
    "dualring": cmd_dualring,
    "enumerate-measurings": cmd_enumerate_measurings,
    "induce": cmd_induce,
    "apply": cmd_apply,
    "compose": cmd_compose,
    "descent": cmd_descent,
}


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, sort_keys=True,
                            separators=(",", ":")) + "\n")


def _error_report(command, exc, code) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("kind", "witness", "path", "name", "identity"):
        val = getattr(exc, attr, None)
        if val is not None:
            info[attr] = list(val) if isinstance(val, tuple) else val
    return {"command": command, "ok": False, "error": info,
            "exit_code": code}


def _read_workspace(path, stdin) -> str:
    """The workspace text from ``path``, or from stdin if it is None.

    Bytes that do not decode are a schema error at ``$``.
    """
    try:
        if path is None:
            return stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError("$", f"invalid UTF-8: {exc}")


def run(argv=None, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    set_guards(DEFAULT_MAX_DIM if args.max_dim is None else args.max_dim,
               DEFAULT_MAX_ENUM if args.max_enum is None else args.max_enum)
    command = args.command
    try:
        ws = parse_workspace(_read_workspace(args.workspace, stdin))
        report = COMMANDS[command](ws, args)
        report["ok"] = report.get("ok", True)
        _emit(report, stdout)
        return EXIT_OK
    except SizeLimit as exc:
        _emit(_error_report(command, exc, EXIT_SIZE), stdout)
        return EXIT_SIZE
    except MATH_ERRORS as exc:
        _emit(_error_report(command, exc, EXIT_MATH), stdout)
        return EXIT_MATH
    except INPUT_ERRORS as exc:
        _emit(_error_report(command, exc, EXIT_INPUT), stdout)
        return EXIT_INPUT
    except OSError as exc:
        _emit(_error_report(command, exc, EXIT_INPUT), stdout)
        return EXIT_INPUT
    except CoringError as exc:
        _emit(_error_report(command, exc, EXIT_MATH), stdout)
        return EXIT_MATH


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
