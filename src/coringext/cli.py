"""Command-line front end: JSON workspaces in, deterministic reports out.

Workspace schema: ``{"field": {"type": "Fp", "p": <prime>} | {"type": "Q"},
"objects": {<name>: <object>}}``.  Matrices are row-major nested arrays,
3-tensors are arrays of matrices indexed by the first slot, and coproducts
and coactions are given as lifts into tensor-over-k coordinates.  Reserved
fixture names (FIX.D2, FIX.BC2, FIX.GC2, FIX.SW) may be declared as
``{"fixture": "FIX.SW"}`` or referenced directly by name.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
schema error, 3 size guard exceeded.

Only ``errors``, ``exactla`` and ``_record`` load with this module.  Each
object kind and each command imports the layers it uses when it runs, so a
call loads only what its workspace and command need: a no-op ``check``
loads no algebra, coring or extension code.
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

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_SIZE = 3

# The exit code of an error is that of the first entry it is an instance of.
EXIT_CODES = (
    ((SizeLimit,), EXIT_SIZE),
    ((AxiomViolation, NotCoringMorphism, NotColinear, DualBasisInvalid),
     EXIT_MATH),
    ((SchemaError, UnknownReference, DimensionMismatch, NonFiniteField,
      MiddleMismatch, OSError), EXIT_INPUT),
    ((CoringError,), EXIT_MATH),
)


@frozen
class ColinearMap:
    # string annotations: defining the class must not import ``coring``
    source: "Comodule"
    target: "Comodule"
    matrix: Mat


class Workspace:
    """Named, validated objects over one base field."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.objects: Dict[str, object] = {}

    def get(self, name: str, kinds, path: str):
        obj = self.objects.get(name)
        # every reserved fixture name starts with "FIX."
        if obj is None and name.startswith("FIX."):
            from . import fixtures as fx
            if name in fx.CORING_FIXTURES or name in fx.ALGEBRA_FIXTURES:
                obj = self.objects[name] = fx.fixture(name, self.field, path)
        if obj is None:
            raise UnknownReference(path, name)
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


def _array(field, data, shape, path):
    """Nested tuples of scalars of the given shape, from nested JSON arrays."""
    if not shape:
        return _scalar(field, data, path)
    if not isinstance(data, list) or len(data) != shape[0]:
        axis = ("entries", "rows", "slices")[len(shape) - 1]
        raise SchemaError(path, f"expected {shape[0]} {axis}")
    return tuple(_array(field, x, shape[1:], f"{path}[{i}]")
                 for i, x in enumerate(data))


def _dim(obj, path) -> int:
    d = _expect(obj, "dim", path)
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise SchemaError(f"{path}.dim", "expected a nonnegative integer")
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


def _parse_object(ws: Workspace, data, path: str):
    f = ws.field
    if not isinstance(data, dict):
        raise SchemaError(path, "expected a JSON object")
    if "fixture" in data:
        fixname = _expect(data, "fixture", path, str)
        from .fixtures import fixture
        return fixture(fixname, f, f"{path}.fixture")
    kind = _expect(data, "type", path, str)

    # Each field is read through one of these, in the order the branch
    # names it: the first bad field decides the error.
    def ref(key, kinds):
        return ws.get(_expect(data, key, path, str), kinds, path)

    def arr(key, *shape, typ=None):
        return _array(f, _expect(data, key, path, typ), shape,
                      f"{path}.{key}")

    def mat(key, rows, cols):
        return Mat(f, rows, cols, arr(key, rows, cols))

    if kind == "algebra":
        from .algmod import make_algebra
        dim = _dim(data, path)
        return make_algebra(f, dim, arr("mult", dim, dim, dim),
                            arr("unit", dim, typ=list))
    if kind == "algebra_map":
        from .algmod import Algebra, make_algebra_map
        src, tgt = ref("source", Algebra), ref("target", Algebra)
        return make_algebra_map(src, tgt, mat("matrix", tgt.dim, src.dim))
    if kind == "coalgebra":
        from .constructions import make_coalgebra
        dim = _dim(data, path)
        return make_coalgebra(f, dim, mat("delta", dim * dim, dim),
                              mat("eps", 1, dim))
    if kind == "coring":
        from .algmod import Algebra, bimodule_from_actions
        from .coring import make_coring
        a = ref("algebra", Algebra)
        dim = _dim(data, path)
        lact = mat("lact", dim, a.dim * dim)
        ract = mat("ract", dim, dim * a.dim)
        delta_lift = mat("delta_lift", dim * dim, dim)
        eps = mat("eps", a.dim, dim)
        cbim = bimodule_from_actions(a, a, dim, lact, ract)
        return make_coring(a, cbim, delta_lift, eps)
    if kind == "trivial_coring":
        from .algmod import Algebra
        from .constructions import trivial_coring
        return trivial_coring(ref("algebra", Algebra))
    if kind == "sweedler_coring":
        from .algmod import AlgebraMap
        from .constructions import sweedler_coring
        return sweedler_coring(ref("iota", AlgebraMap))
    if kind == "coalgebra_coring":
        from .constructions import Coalgebra, coalgebra_to_coring
        return coalgebra_to_coring(ref("coalgebra", Coalgebra))
    if kind == "entwining_coring":
        from .algmod import Algebra
        from .constructions import Coalgebra, Entwining, entwining_coring
        a, cg = ref("algebra", Algebra), ref("coalgebra", Coalgebra)
        psi = mat("psi", a.dim * cg.dim, cg.dim * a.dim)
        return entwining_coring(Entwining(a, cg, psi))
    if kind == "comodule":
        from .algmod import RightModule
        from .coring import Coring, make_comodule
        c = ref("coring", Coring)
        dim = _dim(data, path)
        act = mat("act", dim, dim * c.A.dim)
        rho = mat("rho_lift", dim * c.dim, dim)
        return make_comodule(c, RightModule(c.A, dim, act), rho)
    if kind == "colinear_map":
        from .coring import Comodule, check_colinear
        src, tgt = ref("source", Comodule), ref("target", Comodule)
        m = mat("matrix", tgt.dim, src.dim)
        check_colinear(m, src, tgt).raise_if_failed()
        return ColinearMap(src, tgt, m)
    if kind == "measuring":
        from .algmod import Algebra
        from .coring import Coring
        from .extension import make_measuring
        c, b = ref("coring", Coring), ref("algebra", Algebra)
        return make_measuring(c, b, mat("nu", c.A.dim, c.dim * b.dim))
    if kind == "extension":
        from .coring import Coring
        from .extension import make_extension
        c, d = ref("c", Coring), ref("d", Coring)
        ract = mat("ract", c.dim, c.dim * d.A.dim)
        return make_extension(c, d, ract,
                              mat("sigma_lift", c.dim * d.dim, c.dim))
    if kind == "identity_extension":
        from .coring import Coring
        from .extension import identity_extension
        return identity_extension(ref("coring", Coring))
    if kind == "extension_from_coring_map":
        from .coring import Coring
        from .extension import extension_from_coring_map
        c, d = ref("c", Coring), ref("d", Coring)
        return extension_from_coring_map(mat("gamma", d.dim, c.dim), c, d)
    if kind == "descent_datum":
        from .algmod import AlgebraMap, RightModule
        from .descent import make_descent_datum
        iota = ref("iota", AlgebraMap)
        dim = _dim(data, path)
        a = iota.target
        act = mat("act", dim, dim * a.dim)
        flift = mat("f_lift", dim * a.dim, dim)
        return make_descent_datum(iota, RightModule(a, dim, act), flift)
    if kind == "cor28":
        from .algmod import AlgebraMap
        from .descent import Cor28Data, check_cor28
        iota_b, iota_a = ref("iota_B", AlgebraMap), ref("iota_A", AlgebraMap)
        a, b = iota_a.target, iota_a.source
        rho = mat("rho_A", a.dim, a.dim * b.dim)
        phi = mat("phi_lift", a.dim * a.dim * b.dim, a.dim)
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
        ws.objects[name] = _parse_object(ws, obj, f"$.objects.{name}")
    return ws


# -- rendering ---------------------------------------------------------


def _render(field, x):
    """JSON form of a scalar, or of a ``Mat`` or tuple, entry by entry."""
    if isinstance(x, Mat):
        x = x.entries
    if isinstance(x, tuple):
        return [_render(field, y) for y in x]
    return field.render(x)


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
    from .coring import Coring, dual_ring
    c = ws.get(args.coring, Coring, "--coring")
    dr = dual_ring(c)
    f = ws.field
    return {"command": "dualring", "coring": args.coring,
            "dim": dr.dim,
            "mult": _render(f, dr.alg.mult),
            "unit": _render(f, dr.alg.unit),
            "basis": _render(f, dr.basis)}


def cmd_enumerate_measurings(ws: Workspace, args) -> dict:
    from .algmod import Algebra
    from .coring import Coring
    from .extension import enumerate_measurings
    c = ws.get(args.coring, Coring, "--coring")
    b = ws.get(args.algebra, Algebra, "--algebra")
    ms = enumerate_measurings(c, b)
    return {"command": "enumerate-measurings", "coring": args.coring,
            "algebra": args.algebra, "count": len(ms),
            "measurings": [_render(ws.field, m.nu) for m in ms]}


def cmd_induce(ws: Workspace, args) -> dict:
    from .coring import Comodule
    from .extension import CoringExtension, induced_coaction
    e = ws.get(args.extension, CoringExtension, "--extension")
    m = ws.get(args.comodule, Comodule, "--comodule")
    out = induced_coaction(e, m)
    f = ws.field
    return {"command": "induce", "extension": args.extension,
            "comodule": args.comodule,
            "result": {"dim": out.dim, "act": _render(f, out.M.act),
                       "rho_lift": _render(f, out.rho_lift)}}


def cmd_apply(ws: Workspace, args) -> dict:
    from .extension import CoringExtension, apply_functor
    e = ws.get(args.extension, CoringExtension, "--extension")
    g = ws.get(args.map, ColinearMap, "--map")
    out = apply_functor(e, g.matrix, g.source, g.target)
    return {"command": "apply", "extension": args.extension,
            "map": args.map, "ok": True,
            "matrix": _render(ws.field, out)}


def cmd_compose(ws: Workspace, args) -> dict:
    from .extension import CoringExtension, compose_extensions
    e1 = ws.get(args.first, CoringExtension, "--first")
    e2 = ws.get(args.second, CoringExtension, "--second")
    out = compose_extensions(e1, e2)
    f = ws.field
    return {"command": "compose", "first": args.first,
            "second": args.second,
            "ract": _render(f, out.ract),
            "sigma_lift": _render(f, out.sigma_lift)}


def cmd_descent(ws: Workspace, args) -> dict:
    from .descent import Cor28Data, DescentDatum, _descend
    data = ws.get(args.cor28, Cor28Data, "--cor28")
    report = {"command": "descent", "cor28": args.cor28,
              "verdict": "accept"}
    if args.datum is not None:
        d = ws.get(args.datum, DescentDatum, "--datum")
        out = _descend(data, d)  # the parser checked data
        f = ws.field
        report["datum"] = args.datum
        report["result"] = {"dim": out.M.dim,
                            "act": _render(f, out.M.act),
                            "f_lift": _render(f, out.f_lift)}
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

    Text that is not strict UTF-8 is a schema error at ``$``: undecodable
    file bytes, and the surrogate escapes that stdin yields for them where
    Python reads it with ``surrogateescape``.
    """
    try:
        if path is None:
            text = stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        text.encode("utf-8")
        return text
    except UnicodeError as exc:
        raise SchemaError("$", f"invalid UTF-8: {exc}")


def run(argv=None, stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    set_guards(DEFAULT_MAX_DIM if args.max_dim is None else args.max_dim,
               DEFAULT_MAX_ENUM if args.max_enum is None else args.max_enum)
    command = args.command
    try:
        ws = parse_workspace(_read_workspace(args.workspace, stdin))
        report = COMMANDS[command](ws, args)
        report["ok"] = report.get("ok", True)
        _emit(report, stdout)
        return EXIT_OK
    except (CoringError, OSError) as exc:
        code = next(c for types, c in EXIT_CODES if isinstance(exc, types))
        _emit(_error_report(command, exc, code), stdout)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
