"""Reserved named fixtures in one table, ``FIXTURES``, materialized over
any base field.  Each fixture is valid by a theorem, proved in
``tests/test_theorems.py``, so its record is built unchecked."""

from itertools import product

from .errors import SchemaError
from .exactla import FieldSpec, Mat, memoised
from .algmod import Algebra, AlgebraMap
from .coring import Coring
from .constructions import (Coalgebra, base_algebra, coalgebra_to_coring,
                            group_coalgebra, sweedler_coring)


@memoised
def d2_algebra(field: FieldSpec) -> Algebra:
    """k x k: two orthogonal idempotents, unit e1 + e2."""
    o, z = field.one, field.zero
    mult = Mat(field, 2, 4, ((o, z, z, z), (z, z, z, o)))
    return Algebra(field, 2, mult, Mat(field, 2, 1, ((o,), (o,))))


@memoised
def c2_group_algebra(field: FieldSpec) -> Algebra:
    """Group algebra k[C2]: basis 1, g with g^2 = 1."""
    o, z = field.one, field.zero
    mult = Mat(field, 2, 4, ((o, z, z, o), (z, o, o, z)))
    return Algebra(field, 2, mult, Mat(field, 2, 1, ((o,), (z,))))


@memoised
def matrix_algebra_2(field: FieldSpec) -> Algebra:
    """2 x 2 matrices over k, basis E11, E12, E21, E22 (row-major)."""
    o, z = field.one, field.zero
    mult = [[z] * 16 for _ in range(4)]
    for r, c, s in product((0, 1), repeat=3):  # E_rc E_cs = E_rs
        mult[2 * r + s][(2 * r + c) * 4 + 2 * c + s] = o
    return Algebra(field, 4, Mat(field, 4, 16, mult),
                   Mat(field, 4, 1, ((o,), (z,), (z,), (o,))))


@memoised
def unit_map(field: FieldSpec, a: Algebra) -> AlgebraMap:
    """The unique algebra map from the base field into a."""
    return AlgebraMap(base_algebra(field), a, a.unit_col)


@memoised
def gc2_coalgebra(field: FieldSpec) -> Coalgebra:
    return group_coalgebra(field, 2)


@memoised
def sw_coring(field: FieldSpec) -> Coring:
    """Sweedler coring of the unit map k -> (k x k)."""
    return sweedler_coring(unit_map(field, d2_algebra(field)))


@memoised
def gc2_coring(field: FieldSpec) -> Coring:
    """FIX.GC2: the coring over k of the group-like coalgebra on two points."""
    return coalgebra_to_coring(gc2_coalgebra(field))


FIXTURES = {
    "FIX.D2": d2_algebra,
    "FIX.BC2": c2_group_algebra,
    "FIX.SW": sw_coring,
    "FIX.GC2": gc2_coring,
}


def fixture(name: str, field: FieldSpec, path: str = "$"):
    """The reserved fixture ``name`` of ``FIXTURES``, materialized over
    ``field``; SchemaError at ``path`` for a name that is not reserved."""
    if name not in FIXTURES:
        raise SchemaError(path, f"unknown fixture {name!r}")
    return FIXTURES[name](field)
