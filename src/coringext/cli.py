"""Command-line front end: JSON workspaces in, deterministic reports out.

Usage: ``coringext [GLOBAL OPTION ...] COMMAND [OPTION ...]``; ``-h`` or
``--help`` anywhere reports the commands and options.  Each option is
``--name value`` or ``--name=value``, with its exact name, at most once.  A
fault in argv is a ``SchemaError`` at ``argv[i]`` or ``argv``, reported
before the workspace is read.

Workspace schema: ``{"field": {"type": "Fp", "p": <prime>} | {"type": "Q"},
"objects": {<name>: <object>}}``.  Matrices are row-major nested arrays;
only here is an algebra a 3-tensor, ``mult[i][j]`` = e_i e_j.  Coproducts
and coactions are given as lifts into tensor-over-k coordinates.  Reserved
fixture names (FIX.D2, FIX.BC2, FIX.GC2, FIX.SW) may be declared as
``{"fixture": "FIX.SW"}`` or referenced directly by name.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
schema error, 3 size guard exceeded.

Only ``errors`` and ``exactla`` load with this module.  Every other layer
is reached through the package's lazy names (``lib.Coring``, ...), so a
call loads only what its workspace and command need.  Each object is made
and checked by one library constructor, and each command is one call.
"""

import json
import sys

import coringext as lib

from .errors import (AxiomViolation, CoringError, DimensionMismatch,
                     NonFiniteField, SchemaError, SizeLimit, UnknownReference)
from .exactla import (DEFAULT_MAX_DIM, DEFAULT_MAX_ENUM, _INTEGER,
                      FieldSpec, Mat, set_guards)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_SIZE = 3

# The exit code of an error is that of the first entry it is an instance of.
EXIT_CODES = (
    ((SizeLimit,), EXIT_SIZE),
    ((AxiomViolation,), EXIT_MATH),
    ((SchemaError, UnknownReference, DimensionMismatch, NonFiniteField,
      OSError), EXIT_INPUT),
    ((CoringError,), EXIT_MATH),
)


class Workspace:
    """Named, validated objects over one base field."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.objects = {}

    def get(self, name: str, cls: type, path: str):
        obj = self.objects.get(name)
        # every reserved fixture name starts with "FIX."
        if obj is None and name.startswith("FIX."):
            fx = lib.fixtures
            if name in fx.FIXTURES:
                obj = self.objects[name] = fx.fixture(name, self.field, path)
        if obj is None:
            raise UnknownReference(path, name)
        if not isinstance(obj, cls):
            raise SchemaError(path, f"{name!r} is not a {cls.__name__}")
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
        return lib.fixtures.fixture(fixname, f, f"{path}.fixture")
    kind = _expect(data, "type", path, str)

    # Each field is read through one of these, in the order the branch
    # names it: the first bad field decides the error.
    def ref(key, cls):
        return ws.get(_expect(data, key, path, str), cls, path)

    def arr(key, *shape, typ=None):
        return _array(f, _expect(data, key, path, typ), shape,
                      f"{path}.{key}")

    def mat(key, rows, cols):
        return Mat(f, rows, cols, arr(key, rows, cols))

    if kind == "algebra":
        dim = _dim(data, path)
        cols = [c for sl in arr("mult", dim, dim, dim) for c in sl]
        mult = Mat(f, dim, dim * dim, tuple(zip(*cols)))
        unit = Mat(f, dim, 1, tuple(zip(arr("unit", dim, typ=list))))
        return lib.make_algebra(f, dim, mult, unit)
    if kind == "algebra_map":
        src, tgt = ref("source", lib.Algebra), ref("target", lib.Algebra)
        return lib.make_algebra_map(src, tgt, mat("matrix", tgt.dim, src.dim))
    if kind == "coalgebra":
        dim = _dim(data, path)
        return lib.make_coalgebra(f, dim, mat("delta", dim * dim, dim),
                                  mat("eps", 1, dim))
    if kind == "coring":
        a = ref("algebra", lib.Algebra)
        dim = _dim(data, path)
        cbim = lib.Bimodule(a, a, dim, mat("lact", dim, a.dim * dim),
                            mat("ract", dim, dim * a.dim))
        return lib.make_coring(a, cbim, mat("delta_lift", dim * dim, dim),
                               mat("eps", a.dim, dim))
    if kind == "trivial_coring":
        return lib.trivial_coring(ref("algebra", lib.Algebra))
    if kind == "sweedler_coring":
        return lib.sweedler_coring(ref("iota", lib.AlgebraMap))
    if kind == "coalgebra_coring":
        return lib.coalgebra_to_coring(ref("coalgebra", lib.Coalgebra))
    if kind == "entwining_coring":
        a, cg = ref("algebra", lib.Algebra), ref("coalgebra", lib.Coalgebra)
        return lib.entwining_coring(
            a, cg, mat("psi", a.dim * cg.dim, cg.dim * a.dim))
    if kind == "comodule":
        c = ref("coring", lib.Coring)
        dim = _dim(data, path)
        act = mat("act", dim, dim * c.A.dim)
        rho = mat("rho_lift", dim * c.dim, dim)
        return lib.make_comodule(c, lib.RightModule(c.A, dim, act), rho)
    if kind == "colinear_map":
        src, tgt = ref("source", lib.Comodule), ref("target", lib.Comodule)
        return lib.make_colinear_map(src, tgt,
                                     mat("matrix", tgt.dim, src.dim))
    if kind == "measuring":
        c, b = ref("coring", lib.Coring), ref("algebra", lib.Algebra)
        return lib.make_measuring(c, b, mat("nu", c.A.dim, c.dim * b.dim))
    if kind == "extension":
        c, d = ref("c", lib.Coring), ref("d", lib.Coring)
        ract = mat("ract", c.dim, c.dim * d.A.dim)
        return lib.make_extension(c, d, ract,
                                  mat("sigma_lift", c.dim * d.dim, c.dim))
    if kind == "identity_extension":
        return lib.identity_extension(ref("coring", lib.Coring))
    if kind == "extension_from_coring_map":
        c, d = ref("c", lib.Coring), ref("d", lib.Coring)
        return lib.extension_from_coring_map(mat("gamma", d.dim, c.dim), c, d)
    if kind == "descent_datum":
        iota = ref("iota", lib.AlgebraMap)
        dim = _dim(data, path)
        a = iota.target
        act = mat("act", dim, dim * a.dim)
        return lib.make_descent_datum(iota, lib.RightModule(a, dim, act),
                                      mat("f_lift", dim * a.dim, dim))
    if kind == "cor28":
        iota_b = ref("iota_B", lib.AlgebraMap)
        iota_a = ref("iota_A", lib.AlgebraMap)
        a, b = iota_a.target, iota_a.source
        rho = mat("rho_A", a.dim, a.dim * b.dim)
        return lib.make_cor28(iota_b, iota_a, rho,
                              mat("phi_lift", a.dim * a.dim * b.dim, a.dim))
    raise SchemaError(f"{path}.type", f"unknown object type {kind!r}")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key that it names twice is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        dup = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise SchemaError("$", f"invalid JSON: duplicate key {dup!r}")
    return obj


def _parse_int(literal: str, path="$",
               what="invalid JSON: an integer literal") -> int:
    """An integer in the scalar grammar ``[+-]?[0-9]+`` of at most 4300
    digits, the limit of Python 3.10.7 on; earlier versions have none, so
    the report is the same on every one."""
    if len(literal.strip().lstrip("+-")) > 4300:
        raise SchemaError(path, f"{what} has more than 4300 digits")
    if not _INTEGER.fullmatch(literal):
        raise SchemaError(path, f"{what} is not an integer")
    return int(literal)


def parse_workspace(text: str) -> Workspace:
    """Parse and fully validate a workspace; raises on the first error."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys,
                          parse_int=_parse_int)
    except ValueError as exc:  # JSONDecodeError
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

# A handler takes the workspace and the options given, by name, and
# returns the body of its report.


def cmd_check(ws: Workspace, args) -> dict:
    names = [args["--object"]] if "--object" in args else sorted(ws.objects)
    return {"results": [{"object": n, "ok": True,
                         "kind": type(ws.get(n, object, "$")).__name__}
                        for n in names]}


def cmd_dualring(ws: Workspace, args) -> dict:
    dr = lib.dual_ring(ws.get(args["--coring"], lib.Coring, "--coring"))
    n, f, t = dr.dim, ws.field, dr.alg.mult_mat.transpose().entries
    return {"coring": args["--coring"], "dim": n,
            "mult": _render(f, tuple(t[i * n:i * n + n] for i in range(n))),
            "unit": _render(f, dr.alg.unit_col.col(0)),
            "basis": _render(f, dr.basis)}


def cmd_enumerate_measurings(ws: Workspace, args) -> dict:
    c = ws.get(args["--coring"], lib.Coring, "--coring")
    b = ws.get(args["--algebra"], lib.Algebra, "--algebra")
    ms = lib.enumerate_measurings(c, b)
    return {"coring": args["--coring"], "algebra": args["--algebra"],
            "count": len(ms),
            "measurings": [_render(ws.field, m.nu) for m in ms]}


def cmd_induce(ws: Workspace, args) -> dict:
    e = ws.get(args["--extension"], lib.CoringExtension, "--extension")
    m = ws.get(args["--comodule"], lib.Comodule, "--comodule")
    out = lib.induced_coaction(e, m)
    f = ws.field
    return {"extension": args["--extension"], "comodule": args["--comodule"],
            "result": {"dim": out.dim, "act": _render(f, out.M.act),
                       "rho_lift": _render(f, out.rho_lift)}}


def cmd_apply(ws: Workspace, args) -> dict:
    e = ws.get(args["--extension"], lib.CoringExtension, "--extension")
    g = ws.get(args["--map"], lib.ColinearMap, "--map")
    return {"extension": args["--extension"], "map": args["--map"],
            "matrix": _render(ws.field, lib.apply_functor(e, g).matrix)}


def cmd_compose(ws: Workspace, args) -> dict:
    e1 = ws.get(args["--first"], lib.CoringExtension, "--first")
    e2 = ws.get(args["--second"], lib.CoringExtension, "--second")
    out = lib.compose_extensions(e1, e2)
    return {"first": args["--first"], "second": args["--second"],
            "ract": _render(ws.field, out.ract),
            "sigma_lift": _render(ws.field, out.sigma_lift)}


def cmd_descent(ws: Workspace, args) -> dict:
    data = ws.get(args["--cor28"], lib.Cor28Data, "--cor28")
    report = {"cor28": args["--cor28"], "verdict": "accept"}
    if "--datum" in args:
        out = lib.descent_functor(
            data, ws.get(args["--datum"], lib.DescentDatum, "--datum"))
        report["datum"] = args["--datum"]
        report["result"] = {"dim": out.M.dim,
                            "act": _render(ws.field, out.M.act),
                            "f_lift": _render(ws.field, out.f_lift)}
    return report


# -- argv --------------------------------------------------------------

_GLOBAL_OPTIONS = ("--workspace", "--max-dim", "--max-enum")

# Each command's handler, required options and optional options.
_COMMAND_TABLE = {
    "check": (cmd_check, (), ("--object",)),
    "dualring": (cmd_dualring, ("--coring",), ()),
    "enumerate-measurings": (cmd_enumerate_measurings,
                             ("--coring", "--algebra"), ()),
    "induce": (cmd_induce, ("--extension", "--comodule"), ()),
    "apply": (cmd_apply, ("--extension", "--map"), ()),
    "compose": (cmd_compose, ("--first", "--second"), ()),
    "descent": (cmd_descent, ("--cor28",), ("--datum",)),
}
COMMANDS = {name: row[0] for name, row in _COMMAND_TABLE.items()}


def _parse_argv(argv, args: dict) -> None:
    """Read argv into ``args``: each option given, and the command under
    "command" as soon as it is read, so that a later fault can name it."""
    known, i = _GLOBAL_OPTIONS, 0
    while i < len(argv):
        at, token = f"argv[{i}]", argv[i]
        i += 1
        if not token.startswith("-"):
            if "command" in args:
                raise SchemaError(at, f"unexpected argument {token!r}")
            if token not in COMMANDS:
                raise SchemaError(at, f"unknown command {token!r}")
            args["command"] = token
            known = _COMMAND_TABLE[token][1] + _COMMAND_TABLE[token][2]
            continue
        name, eq, value = token.partition("=")
        if name not in known:
            raise SchemaError(at, f"unknown option {name!r}")
        if name in args:
            raise SchemaError(at, f"option {name} is given twice")
        if not eq:
            if i == len(argv) or argv[i].startswith("--"):
                raise SchemaError(at, f"option {name} expects a value")
            at, value, i = f"argv[{i}]", argv[i], i + 1
        if name in ("--max-dim", "--max-enum"):
            value = _parse_int(value, at, f"the value of {name}")
        args[name] = value
    if "command" not in args:
        raise SchemaError("argv", "missing command")
    for name in _COMMAND_TABLE[args["command"]][1]:
        if name not in args:
            raise SchemaError("argv", f"missing option {name}")


def _emit(report: dict, stream) -> None:
    stream.write(json.dumps(report, sort_keys=True,
                            separators=(",", ":")) + "\n")


def _error_report(command, exc, code) -> dict:
    info = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("kind", "witness", "path", "name"):
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
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        usage = {name: {"required": req, "optional": opt}
                 for name, (_, req, opt) in _COMMAND_TABLE.items()}
        _emit({"command": None, "ok": True, "commands": usage,
               "global_options": _GLOBAL_OPTIONS}, stdout)
        return EXIT_OK
    args = {}
    try:
        _parse_argv(argv, args)
        set_guards(args.get("--max-dim", DEFAULT_MAX_DIM),
                   args.get("--max-enum", DEFAULT_MAX_ENUM))
        ws = parse_workspace(_read_workspace(args.get("--workspace"), stdin))
        report = COMMANDS[args["command"]](ws, args)
        _emit({"command": args["command"], "ok": True, **report}, stdout)
        return EXIT_OK
    except (CoringError, OSError) as exc:
        code = next(c for types, c in EXIT_CODES if isinstance(exc, types))
        _emit(_error_report(args.get("command"), exc, code), stdout)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
