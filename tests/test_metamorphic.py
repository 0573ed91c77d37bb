"""A verdict does not depend on the basis an object is written in.

Whether an axiom holds is a basis-free fact, and ``check`` tests the
axioms of a kind in a fixed order.  So an object and its transport along
an invertible change of basis get the same exit code and, on a rejection,
the same error kind; only the witness may move.

The objects are the algebras and coalgebras of the base workspaces of
``tests/kinds_workspaces.json`` (``KINDS_BASES``; the literal workspaces
only repeat their algebras) and every one-entry change of their arrays.
Each is transported along seeded changes of basis by ``change_algebra``
and ``change_coalgebra`` of ``perfbench/gen.py``, and each version is
checked alone in a workspace of its own.
"""

import io
import json
import random

import pytest

from coringext.cli import run
from test_corpus import KINDS_BASES, KINDS_WORKSPACES, _mutations, load_gen

gen = load_gen()
SEEDS = range(3)
KINDS = ("algebra", "coalgebra")

with open(KINDS_WORKSPACES, encoding="utf-8") as fh:
    BASES = json.load(fh)


def cases(key: str):
    """Each algebra and coalgebra of one workspace, then each one-entry
    change of it, as ``(label, object)``."""
    base = BASES[key]
    names = [n for n, obj in base["objects"].items()
             if obj.get("type") in KINDS]
    found = [(f"{n} base", base["objects"][n]) for n in names]
    for path, objects in _mutations(base, base["field"]["p"]):
        found += [(path, objects[n]) for n in names
                  if path.startswith(f"$.objects.{n}.")]
    return found


def invertible(f, n: int, rng: random.Random):
    """A seeded invertible matrix: lower times upper unitriangular, times
    a monomial matrix.  Over Q the entries below the diagonal are in
    -2..2."""
    def entry(i, j):
        if j >= i:
            return f.of(int(i == j))
        return f.of(rng.randrange(f.p) if f.p else rng.randrange(-2, 3))
    lower = [[entry(i, j) for j in range(n)] for i in range(n)]
    upper = [list(col) for col in zip(*[[entry(i, j) for j in range(n)]
                                        for i in range(n)])]
    return gen.matmul(f, lower, gen.matmul(f, upper, gen.monomial(f, n, rng)))


def transport(f, obj: dict, t) -> dict:
    """The same object in the basis given by the columns of t."""
    n = obj["dim"]
    if obj["type"] == "algebra":
        mult = [[f.of(obj["mult"][i][j][l]) for i in range(n)
                 for j in range(n)] for l in range(n)]
        unit = [f.of(u) for u in obj["unit"]]
        return gen.algebra_obj(f, gen.change_algebra(f, (mult, unit), t))
    delta, eps = ([[f.of(x) for x in row] for row in obj[key]]
                  for key in ("delta", "eps"))
    return gen.coalgebra_obj(f, gen.change_coalgebra(f, (delta, eps), t))


def verdict(f, obj: dict):
    """The exit code of ``check`` on the object alone, and the kind of
    the error it reports, if any."""
    out = io.StringIO()
    text = gen.workspace(f, {"x": obj})
    code = run(["check"], stdin=io.StringIO(text), stdout=out)
    return code, json.loads(out.getvalue()).get("error", {}).get("kind")


@pytest.mark.parametrize("key", sorted(key for key, _ in KINDS_BASES))
def test_verdict_is_invariant_under_change_of_basis(key):
    f = gen.Field(BASES[key]["field"]["p"])
    found, verdicts = [], set()
    for label, obj in cases(key):
        want = verdict(f, obj)
        verdicts.add(want)
        for seed in SEEDS:
            t = invertible(f, obj["dim"], random.Random(f"{label}:{seed}"))
            got = verdict(f, transport(f, obj, t))
            if got != want:
                found.append((label, seed, want, got))
    assert found == []
    # every base object passes, and the changes reach rejections
    assert (0, None) in verdicts and any(code == 1 for code, _ in verdicts)


def test_transport_changes_the_bytes():
    # the sweep would test nothing if each basis change were the identity
    f = gen.Field(3)
    obj = BASES["cor28-3"]["objects"]["a"]
    moved = [transport(f, obj, invertible(f, obj["dim"],
                                          random.Random(f"a:{seed}")))
             for seed in SEEDS]
    assert all(m != obj for m in moved)
