"""Seeded workspace generator for the coringext benchmark.

Every workload is a list of ``Call``s: the CLI arguments, the workspace
JSON the program reads on stdin, and the facts its report must show.  The
same (workload, seed) always gives the same bytes.  This module does not
import coringext: structure constants are written out here from their
definitions, so the program under test sees only the generated JSON.

Basis changes keep every instance mathematically the same object, so
basis-free facts (dual ring dimension, measuring counts) are known in
closed form for any seed.
"""

import json
import random
from fractions import Fraction
from typing import List, NamedTuple, Optional


class Call(NamedTuple):
    label: str
    argv: tuple
    workspace: str
    expect: dict  # "exit" plus the facts the report must carry


class Field:
    """GF(p) for a prime p, or the rationals when p is None."""

    def __init__(self, p: Optional[int]):
        self.p = p

    def of(self, x):
        return x % self.p if self.p else Fraction(x)

    def inv(self, x):
        return pow(x, self.p - 2, self.p) if self.p else 1 / x

    def render(self, x):
        if self.p:
            return int(x)
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"

    def spec(self) -> dict:
        return {"type": "Fp", "p": self.p} if self.p else {"type": "Q"}

    def __str__(self):
        return f"GF{self.p}" if self.p else "Q"

    def units(self):
        return range(1, self.p) if self.p else (1, -1)


# -- dense exact matrices as lists of rows ------------------------------


def identity(f: Field, n: int):
    return [[f.of(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(f: Field, a, b):
    cols = list(zip(*b))
    return [[f.of(sum(x * y for x, y in zip(row, col))) for col in cols]
            for row in a]


def kron(f: Field, a, b):
    return [[f.of(x * y) for x in ra for y in rb] for ra in a for rb in b]


def inverse(f: Field, m):
    n = len(m)
    aug = [list(row) + identity(f, n)[i] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = f.inv(aug[c][c])
        aug[c] = [f.of(x * inv) for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                k = aug[r][c]
                aug[r] = [f.of(x - k * y) for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def render(f: Field, m):
    return [[f.render(x) for x in row] for row in m]


# -- basis changes ------------------------------------------------------


def monomial(f: Field, n: int, rng: random.Random):
    """Permutation times invertible diagonal: keeps the sparsity pattern."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[f.of(0)] * n for _ in range(n)]
    for j, i in enumerate(perm):
        m[i][j] = f.of(rng.choice(list(f.units())))
    return m


def dense_unimodular(f: Field, n: int, rng: random.Random):
    """The dense matrix (min(i, j) + 1), the all-ones lower times upper
    unitriangular one, times a seeded monomial matrix.

    It has determinant +-1 and small integer entries both ways.  The seed
    only permutes and signs the new basis, so every seed gives structure
    constants of the same sizes, and so the same cost and memory.
    """
    dense = [[f.of(min(i, j) + 1) for j in range(n)] for i in range(n)]
    return matmul(f, dense, monomial(f, n, rng))


# -- algebras and coalgebras as structure-constant matrices --------------
#
# An algebra is (mult, unit): mult is the dim x dim^2 matrix of
# A (x) A -> A (column i*dim + j holds e_i e_j), unit a coordinate list.
# A coalgebra is (delta, eps): delta is dim^2 x dim, eps is 1 x dim.


def diagonal_algebra(f: Field, n: int):
    mult = [[f.of(int(i == j == l)) for i in range(n) for j in range(n)]
            for l in range(n)]
    return mult, [f.of(1)] * n


def matrix_algebra(f: Field, n: int):
    """M_n(k) with basis E_rc in row-major order."""
    d = n * n
    mult = [[f.of(0)] * (d * d) for _ in range(d)]
    for r in range(n):
        for c in range(n):
            for c2 in range(n):
                mult[r * n + c2][(r * n + c) * d + c * n + c2] = f.of(1)
    return mult, [f.of(int(i % (n + 1) == 0)) for i in range(d)]


def group_algebra_c2(f: Field):
    """k[C2] with basis 1, g."""
    mult = [[f.of(1), f.of(0), f.of(0), f.of(1)],
            [f.of(0), f.of(1), f.of(1), f.of(0)]]
    return mult, [f.of(1), f.of(0)]


def base_algebra(f: Field):
    return [[f.of(1)]], [f.of(1)]


def group_coalgebra(f: Field, n: int):
    delta = [[f.of(int(r == g * n + g)) for g in range(n)]
             for r in range(n * n)]
    return delta, [[f.of(1)] * n]


def change_algebra(f: Field, alg, t):
    """Structure constants of the same algebra in the basis t's columns."""
    mult, unit = alg
    ti = inverse(f, t)
    new = matmul(f, ti, matmul(f, mult, kron(f, t, t)))
    return new, [row[0] for row in matmul(f, ti, [[u] for u in unit])]


def change_coalgebra(f: Field, coalg, s):
    delta, eps = coalg
    si = inverse(f, s)
    return (matmul(f, kron(f, si, si), matmul(f, delta, s)),
            matmul(f, eps, s))


def flip_psi(f: Field, da: int, dc: int):
    """C (x) A -> A (x) C, c (x) a -> a (x) c."""
    psi = [[f.of(0)] * (dc * da) for _ in range(da * dc)]
    for j in range(dc):
        for i in range(da):
            psi[i * dc + j][j * da + i] = f.of(1)
    return psi


def algebra_obj(f: Field, alg) -> dict:
    mult, unit = alg
    n = len(unit)
    return {"type": "algebra", "dim": n,
            "mult": [[[f.render(mult[l][i * n + j]) for l in range(n)]
                      for j in range(n)] for i in range(n)],
            "unit": [f.render(u) for u in unit]}


def coalgebra_obj(f: Field, coalg) -> dict:
    delta, eps = coalg
    return {"type": "coalgebra", "dim": len(eps[0]),
            "delta": render(f, delta), "eps": render(f, eps)}


def unit_map_obj(f: Field, alg, target: str) -> dict:
    return {"type": "algebra_map", "source": "k", "target": target,
            "matrix": [[f.render(u)] for u in alg[1]]}


def workspace(f: Field, objects: dict) -> str:
    return json.dumps({"field": f.spec(), "objects": objects},
                      separators=(",", ":"))


# -- construct workload: dualring on changed bases -----------------------


def _sweedler(f, alg, change, rng) -> Call:
    """Sweedler coring of the unit map k -> A."""
    n = len(alg[1])
    alg = change_algebra(f, alg, change(f, n, rng))
    ws = workspace(f, {"k": algebra_obj(f, base_algebra(f)),
                       "a": algebra_obj(f, alg),
                       "u": unit_map_obj(f, alg, "a"),
                       "c": {"type": "sweedler_coring", "iota": "u"}})
    # *C = End_k(A), as C = A (x) A is free of rank dim A over A
    return Call(f"sweedler-{n}-{f}", ("dualring", "--coring", "c"), ws,
                {"exit": 0, "dim": n * n})


def _trivial(f, alg, change, rng) -> Call:
    n = len(alg[1])
    alg = change_algebra(f, alg, change(f, n, rng))
    ws = workspace(f, {"a": algebra_obj(f, alg),
                       "c": {"type": "trivial_coring", "algebra": "a"}})
    return Call(f"trivial-{n}-{f}", ("dualring", "--coring", "c"), ws,
                {"exit": 0, "dim": n})


def _entwining(f, alg, points, change, rng) -> Call:
    """A (x) C for the group coalgebra C on ``points`` and the flip."""
    da = len(alg[1])
    t, s = change(f, da, rng), change(f, points, rng)
    psi = matmul(f, kron(f, inverse(f, t), inverse(f, s)),
                 matmul(f, flip_psi(f, da, points), kron(f, s, t)))
    coalg = change_coalgebra(f, group_coalgebra(f, points), s)
    ws = workspace(f, {"a": algebra_obj(f, change_algebra(f, alg, t)),
                       "cg": coalgebra_obj(f, coalg),
                       "c": {"type": "entwining_coring", "algebra": "a",
                             "coalgebra": "cg", "psi": render(f, psi)}})
    # *C = Hom_A(A (x) C, A) = Hom_k(C, A)
    return Call(f"entwining-{da}x{points}-{f}",
                ("dualring", "--coring", "c"),
                ws, {"exit": 0, "dim": da * points})


def construct(seed: int) -> List[Call]:
    rng = random.Random(f"construct:{seed}")
    gf2, gf3, q = Field(2), Field(3), Field(None)
    return [
        # GF(p) in seeded monomial bases, which keep the natural sparsity
        _sweedler(gf3, diagonal_algebra(gf3, 3), monomial, rng),
        _entwining(gf2, matrix_algebra(gf2, 2), 2, monomial, rng),
        _trivial(gf3, matrix_algebra(gf3, 3), monomial, rng),
        # Q in seeded dense bases
        _trivial(q, matrix_algebra(q, 2), dense_unimodular, rng),
        _entwining(q, diagonal_algebra(q, 2), 3, dense_unimodular, rng),
        _sweedler(q, diagonal_algebra(q, 2), dense_unimodular, rng)]


# -- enumerations: measurings on changed bases ---------------------------


def _coalgebra_coring_ws(f, coalg, extra: dict) -> str:
    return workspace(f, {"cg": coalgebra_obj(f, coalg),
                         "c": {"type": "coalgebra_coring", "coalgebra": "cg"},
                         **extra})


def _measurings(f, points, n, rng) -> Call:
    """Group-coalgebra coring on ``points`` measured by B = k^n."""
    coalg = change_coalgebra(f, group_coalgebra(f, points),
                             monomial(f, points, rng))
    alg = change_algebra(f, diagonal_algebra(f, n), monomial(f, n, rng))
    ws = _coalgebra_coring_ws(f, coalg, {"b": algebra_obj(f, alg)})
    # measurings <-> algebra maps B -> *C = k^points, and k^n has n
    # algebra maps to k
    return Call(f"gc{points}-by-k{n}", ("enumerate-measurings", "--coring",
                                        "c", "--algebra", "b"), ws,
                {"exit": 0, "count": n ** points})


def _enumerations(rng) -> List[Call]:
    gf5 = Field(5)
    calls = [_measurings(Field(3), 6, 2, rng),
             _measurings(Field(2), 5, 3, rng)]
    a = change_algebra(gf5, diagonal_algebra(gf5, 2), monomial(gf5, 2, rng))
    b = change_algebra(gf5, group_algebra_c2(gf5), monomial(gf5, 2, rng))
    ws = workspace(gf5, {"k": algebra_obj(gf5, base_algebra(gf5)),
                         "a": algebra_obj(gf5, a),
                         "u": unit_map_obj(gf5, a, "a"),
                         "c": {"type": "sweedler_coring", "iota": "u"},
                         "b": algebra_obj(gf5, b)})
    # *C = M_2(k); algebra maps k[C2] -> M_2(k) over GF(p), p odd, are
    # +-1 and the p(p+1) conjugates of diag(1, -1)
    calls.append(Call("sw-by-bc2", ("enumerate-measurings", "--coring", "c",
                                    "--algebra", "b"), ws,
                      {"exit": 0, "count": 2 + 5 * 6}))
    return calls


# -- cli-mix workload: every command, many short calls rejected ---------


def _sweedler_regular_comodule(f):
    """Right action and coaction lift of C = A (x) A, A = k x k, over
    itself."""
    n = 2
    mult, _ = diagonal_algebra(f, n)
    d = n * n
    act = [[f.of(0)] * (d * n) for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    act[i * n + l][(i * n + j) * n + k] = mult[l][j * n + k]
    # x (x) y -> sum_{k,l} (x (x) e_k) (x) (e_l (x) y)
    rho = [[f.of(0)] * d for _ in range(d * d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    rho[(i * n + k) * d + l * n + j][i * n + j] = f.of(1)
    return act, rho


def _extension_ws(f) -> str:
    """FIX.SW with the extension given by its counit to the trivial coring
    of FIX.D2, its identity extension, the regular comodule and the
    identity colinear map on it."""
    act, rho = _sweedler_regular_comodule(f)
    return workspace(f, {
        "D2": {"fixture": "FIX.D2"},
        "SW": {"fixture": "FIX.SW"},
        "triv": {"type": "trivial_coring", "algebra": "D2"},
        "E": {"type": "extension_from_coring_map", "c": "SW", "d": "triv",
              "gamma": [[1, 0, 0, 0], [0, 0, 0, 1]]},
        "Eid": {"type": "identity_extension", "coring": "SW"},
        "reg": {"type": "comodule", "coring": "SW", "dim": 4,
                "act": render(f, act), "rho_lift": render(f, rho)},
        "idmap": {"type": "colinear_map", "source": "reg", "target": "reg",
                  "matrix": render(f, identity(f, 4))}})


def _descent_ws(f) -> str:
    """Descent along k -> k x k, pushed down the tower k -> k -> k x k.
    (Along k -> k^3 one call takes seconds: not a short call.)"""
    n = 2
    alg = diagonal_algebra(f, n)
    unit_x_id = kron(f, [[u] for u in alg[1]], identity(f, n))
    return workspace(f, {
        "a": algebra_obj(f, alg),
        "k": algebra_obj(f, base_algebra(f)),
        "u": unit_map_obj(f, alg, "a"),
        "uid": {"type": "algebra_map", "source": "k", "target": "k",
                "matrix": [[1]]},
        "C28": {"type": "cor28", "iota_B": "uid", "iota_A": "u",
                "rho_A": render(f, identity(f, n)),
                "phi_lift": render(f, unit_x_id)},
        "dat": {"type": "descent_datum", "iota": "u", "dim": n,
                "act": render(f, alg[0]), "f_lift": render(f, unit_x_id)}})


def _valid_calls(rng) -> List[Call]:
    gf2, gf3 = Field(2), Field(3)
    calls = []
    for f, n in ((gf2, 2), (gf3, 3), (gf3, 2)):
        a = change_algebra(f, diagonal_algebra(f, n), monomial(f, n, rng))
        m = change_algebra(f, matrix_algebra(f, 2), monomial(f, 4, rng))
        ws = workspace(f, {"a": algebra_obj(f, a), "m2": algebra_obj(f, m),
                           "bc2": {"fixture": "FIX.BC2"}})
        calls.append(Call(f"check-algebras-{f.p}-{n}", ("check",), ws,
                          {"exit": 0, "objects": ["a", "bc2", "m2"]}))
        calls.append(Call(f"check-object-{f.p}", ("check", "--object", "sw"),
                          workspace(f, {"sw": {"fixture": "FIX.SW"}}),
                          {"exit": 0, "objects": ["sw"]}))
        calls.append(Call(f"dualring-sw-{f.p}", ("dualring", "--coring",
                                                 "FIX.SW"),
                          workspace(f, {}), {"exit": 0, "dim": 4}))
        tr = change_algebra(f, diagonal_algebra(f, n), monomial(f, n, rng))
        ws = workspace(f, {"a": algebra_obj(f, tr),
                           "t": {"type": "trivial_coring", "algebra": "a"}})
        calls.append(Call(f"dualring-trivial-{f.p}-{n}",
                          ("dualring", "--coring", "t"), ws,
                          {"exit": 0, "dim": n}))
        cg = change_coalgebra(f, group_coalgebra(f, 3), monomial(f, 3, rng))
        calls.append(Call(f"dualring-gc3-{f.p}", ("dualring", "--coring", "c"),
                          _coalgebra_coring_ws(f, cg, {}),
                          {"exit": 0, "dim": 3}))
    for f in (gf2, gf3):
        cg = change_coalgebra(f, group_coalgebra(f, 3), monomial(f, 3, rng))
        ws = _coalgebra_coring_ws(f, cg, {"d2": {"fixture": "FIX.D2"}})
        calls.append(Call(f"measurings-gc3-{f.p}", ("enumerate-measurings",
                                                    "--coring", "c",
                                                    "--algebra", "d2"),
                          ws, {"exit": 0, "count": 8}))
    calls.append(Call("measurings-gc2-bc2", ("enumerate-measurings",
                                             "--coring", "FIX.GC2",
                                             "--algebra", "FIX.BC2"),
                      workspace(gf3, {}), {"exit": 0, "count": 4}))
    ext = _extension_ws(gf2)
    calls.append(Call("check-extension", ("check",), ext,
                      {"exit": 0, "objects": ["D2", "E", "Eid", "SW", "idmap",
                                              "reg", "triv"]}))
    calls.append(Call("check-cor28", ("check", "--object", "C28"),
                      _descent_ws(gf3), {"exit": 0, "objects": ["C28"]}))
    for _ in range(3):
        calls.append(Call("induce", ("induce", "--extension", "E",
                                     "--comodule", "reg"), ext,
                          {"exit": 0, "result_dim": 4}))
        calls.append(Call("apply", ("apply", "--extension", "E",
                                    "--map", "idmap"), ext,
                          {"exit": 0,
                           "matrix": render(gf2, identity(gf2, 4))}))
        calls.append(Call("compose", ("compose", "--first", "Eid",
                                      "--second", "E"), ext, {"exit": 0}))
    for f in (gf2, gf3, gf2):
        calls.append(Call(f"descent-{f.p}", ("descent", "--cor28", "C28",
                                             "--datum", "dat"),
                          _descent_ws(f),
                          {"exit": 0, "verdict": "accept", "result_dim": 2}))
    return calls


def _math_reject(rng) -> Call:
    """Break one structure constant; the first failing basis index is the
    broken one, so the witness is known."""
    f = Field(rng.choice((2, 3, 5)))
    n = rng.randint(2, 4)
    i = rng.randrange(n)
    bad = f.of(rng.choice([x for x in range(f.p) if x != 1]))
    if rng.random() < 0.5:
        mult, unit = diagonal_algebra(f, n)
        mult[i][i * n + i] = bad
        return Call(f"reject-unitality-{i}", ("check",),
                    workspace(f, {"a": algebra_obj(f, (mult, unit))}),
                    {"exit": 1, "kind": "unitality", "witness": [i]})
    delta, eps = group_coalgebra(f, n)
    eps[0][i] = bad
    ident = render(f, identity(f, n))
    ws = workspace(f, {"k": algebra_obj(f, base_algebra(f)),
                       "c": {"type": "coring", "algebra": "k", "dim": n,
                             "lact": ident, "ract": ident,
                             "delta_lift": render(f, delta),
                             "eps": render(f, eps)}})
    return Call(f"reject-counit-{i}", ("check",), ws,
                {"exit": 1, "kind": "counit-left", "witness": [i]})


def _schema_reject(rng) -> Call:
    f = Field(rng.choice((2, 3)))
    n = rng.randint(2, 3)
    obj = algebra_obj(f, diagonal_algebra(f, n))
    i, j = rng.randrange(n), rng.randrange(n)
    if rng.random() < 0.5:
        obj["mult"][i][j].append(0)
        path = f"$.objects.a.mult[{i}][{j}]"
    else:
        l = rng.randrange(n)
        obj["mult"][i][j][l] = "x"
        path = f"$.objects.a.mult[{i}][{j}][{l}]"
    return Call("reject-schema", ("check",), workspace(f, {"a": obj}),
                {"exit": 2, "path": path})


def _guard_reject(rng) -> Call:
    f = Field(rng.choice((2, 3)))
    if rng.random() < 0.5:
        points = rng.randint(2, 4)
        cg = change_coalgebra(f, group_coalgebra(f, points),
                              monomial(f, points, rng))
        ws = _coalgebra_coring_ws(f, cg, {"d2": {"fixture": "FIX.D2"}})
        argv = ("--max-enum", "2", "enumerate-measurings", "--coring", "c",
                "--algebra", "d2")
    else:
        # C (x)_k C of the trivial coring of M_2 has ambient dimension 16
        a = change_algebra(f, matrix_algebra(f, 2), monomial(f, 4, rng))
        ws = workspace(f, {"a": algebra_obj(f, a),
                           "t": {"type": "trivial_coring", "algebra": "a"}})
        argv = ("--max-dim", str(rng.randint(4, 15)), "check")
    return Call("reject-guard", argv, ws,
                {"exit": 3, "error_type": "SizeLimit"})


def cli_mix(seed: int) -> List[Call]:
    """48 short calls, a third of them rejects, and three enumerations of
    seconds each."""
    rng = random.Random(f"cli-mix:{seed}")
    calls = _valid_calls(rng) + _enumerations(rng)
    for make, count in ((_math_reject, 6), (_schema_reject, 5),
                        (_guard_reject, 5)):
        calls += [make(rng) for _ in range(count)]
    rng.shuffle(calls)
    return calls


def noop(field: Field) -> Call:
    """Interpreter start-up, import and argument parsing, and nothing else."""
    return Call("noop", ("check",), workspace(field, {}),
                {"exit": 0, "objects": []})


WORKLOADS = {
    "construct": (construct, Field(3)),
    "cli-mix": (cli_mix, Field(2)),
}
