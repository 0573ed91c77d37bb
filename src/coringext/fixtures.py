"""Reserved named fixtures in one table, ``FIXTURES``, materialized over
any base field."""

from .errors import SchemaError
from .exactla import FieldSpec, memoised
from .algmod import Algebra, AlgebraMap, make_algebra, make_algebra_map
from .coring import Coring
from .constructions import (Coalgebra, base_algebra, coalgebra_to_coring,
                            group_coalgebra, sweedler_coring)


@memoised
def d2_algebra(field: FieldSpec) -> Algebra:
    """k x k: two orthogonal idempotents, unit e1 + e2."""
    o, z = field.one, field.zero
    mult = (((o, z), (z, z)), ((z, z), (z, o)))
    return make_algebra(field, 2, mult, (o, o))


@memoised
def c2_group_algebra(field: FieldSpec) -> Algebra:
    """Group algebra k[C2]: basis 1, g with g^2 = 1."""
    o, z = field.one, field.zero
    mult = (((o, z), (z, o)), ((z, o), (o, z)))
    return make_algebra(field, 2, mult, (o, z))


@memoised
def matrix_algebra_2(field: FieldSpec) -> Algebra:
    """2 x 2 matrices over k, basis E11, E12, E21, E22 (row-major)."""
    f = field
    mult = []
    for r in range(2):
        for c in range(2):
            row = []
            for r2 in range(2):
                for c2 in range(2):
                    out = [f.zero] * 4
                    if c == r2:
                        out[r * 2 + c2] = f.one
                    row.append(tuple(out))
            mult.append(tuple(row))
    return make_algebra(f, 4, tuple(mult), (f.one, f.zero, f.zero, f.one))


@memoised
def unit_map(field: FieldSpec, a: Algebra) -> AlgebraMap:
    """The unique algebra map from the base field into a."""
    return make_algebra_map(base_algebra(field), a, a.unit_col)


@memoised
def gc2_coalgebra(field: FieldSpec) -> Coalgebra:
    return group_coalgebra(field, 2)


@memoised
def sw_coring(field: FieldSpec) -> Coring:
    """Sweedler coring of the unit map k -> (k x k)."""
    return sweedler_coring(unit_map(field, d2_algebra(field)))


@memoised
def gc2_coring(field: FieldSpec) -> Coring:
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
