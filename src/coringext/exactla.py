"""Deterministic exact linear algebra over prime fields and the rationals.

Scalars are plain ints in ``range(p)`` for GF(p) and ``fractions.Fraction``
for the rationals, so every computation in the library is exact.  A matrix
is stored as sparse rows, one ``{column: value}`` dict per row that never
holds a zero, and every operation touches nonzeros only; the dense
row-major ``entries`` tuple is derived from the rows on demand.  Over the
rationals, ``@`` and ``rref`` run on integer rows (a row times the lcm of
its denominators) and build one ``Fraction`` per nonzero output entry.  All
echelon forms use lowest-index pivot selection, which makes every output
canonical: two inputs with the same row space produce bit-identical
results.

Linear maps follow the column-vector convention: a map V -> W with
dim V = n and dim W = m is an m x n matrix, and composition is ``@``.
Tensor indices are flattened row-major, so ``kron`` realises the tensor
product of maps; ``tensor_id`` forms ``I (x) X (x) I`` by moving indices,
without multiplying a scalar.  Operands over two fields, like operands of
mismatched shapes, are a DimensionMismatch.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Union

from ._record import frozen
from .errors import DimensionMismatch, NonFiniteField, SizeLimit

DEFAULT_MAX_DIM = 4096
DEFAULT_MAX_ENUM = 2_000_000

_GUARDS = {"max_dim": DEFAULT_MAX_DIM, "max_enum": DEFAULT_MAX_ENUM}
_MEMOS = []


def memoised(fn):
    """``lru_cache(maxsize=None)`` whose results ``set_guards`` discards."""
    cached = lru_cache(maxsize=None)(fn)
    _MEMOS.append(cached)
    return cached


def set_guards(max_dim=None, max_enum=None):
    """Override the process-wide size guards, the only guard setting in
    the library (the CLI flags ``--max-dim``/``--max-enum`` call it).

    A change of either guard discards every memoised result: a result
    computed under one guard would otherwise skip the check of the next.
    """
    new = dict(_GUARDS)
    if max_dim is not None:
        new["max_dim"] = max_dim
    if max_enum is not None:
        new["max_enum"] = max_enum
    if new != _GUARDS:
        _GUARDS.update(new)
        for cached in _MEMOS:
            cached.cache_clear()


def current_max_dim() -> int:
    return _GUARDS["max_dim"]


def current_max_enum() -> int:
    return _GUARDS["max_enum"]


# Miller-Rabin with the first 13 primes as bases is exact below MAX_PRIME
# (Sorenson and Webster, 2015).
MAX_PRIME = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < MAX_PRIME."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_Q0, _Q1 = Fraction(0), Fraction(1)  # immutable, so shared
_DIGIT_RUN = re.compile(r"[\d_]+")  # int() refuses >4300 digits from 3.10.7
# The scalar strings, in ASCII digits only: what int() and Fraction() accept
# beyond these (underscores, whitespace, other digits) varies by version.  A
# string outside them is rejected with the text int() or Fraction() gives.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|[0-9]+\.?[0-9]*|\.[0-9]+)")


@frozen
class FieldSpec:
    """Base field: GF(p) for a prime p, or the rationals (p is None).

    The modulus must be below ``MAX_PRIME`` (about 3.3e24), the bound up to
    which the primality test is exact; larger moduli raise ValueError.
    """

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and self.p >= MAX_PRIME:
            raise ValueError(f"modulus {self.p} exceeds the supported bound "
                             f"{MAX_PRIME}")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def zero(self):
        return 0 if self.p is not None else _Q0

    @property
    def one(self):
        return 1 if self.p is not None else _Q1

    def of(self, x) -> Union[int, Fraction]:
        """Coerce an int, Fraction or string into the field.

        A string is an optional sign and ASCII digits; over the rationals
        also ``num/den`` or a plain decimal such as ``-1.25``, ``.5`` or
        ``1.``.  Underscores, whitespace and non-ASCII digits are
        rejected, whatever the Python version would accept.  Exponent
        notation (``1e5``) is rejected: parsing it would build the power
        of ten, so the time would grow with the exponent rather than with
        the length of the input.
        """
        if isinstance(x, str) and len(x) > 4300 and any(
                len(r) - r.count("_") > 4300 for r in _DIGIT_RUN.findall(x)):
            raise ValueError("a scalar has a run of more than 4300 digits")
        if self.p is not None:
            if type(x) is int:
                return x % self.p
            if isinstance(x, bool):
                raise ValueError(f"bad scalar {x!r} for GF({self.p})")
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError(f"{x} is not an integer")
                x = x.numerator
            if isinstance(x, str):
                if not _INTEGER.fullmatch(x):
                    raise ValueError(
                        f"invalid literal for int() with base 10: {x!r}")
                x = int(x)
            if not isinstance(x, int):
                raise ValueError(f"bad scalar {x!r} for GF({self.p})")
            return x % self.p
        if isinstance(x, bool):
            raise ValueError(f"bad scalar {x!r}")
        if isinstance(x, str):
            if "e" in x or "E" in x:
                raise ValueError(f"exponent notation in scalar {x!r}")
            if not _RATIONAL.fullmatch(x):
                raise ValueError(f"Invalid literal for Fraction: {x!r}")
        if isinstance(x, (int, str, Fraction)):
            return Fraction(x)
        raise ValueError(f"bad scalar {x!r} for the rationals")

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, self.p - 2, self.p)
        return _Q1 / a

    def elements(self):
        """All field elements in canonical order 0 < 1 < ... < p-1."""
        if self.p is None:
            raise NonFiniteField("the rationals cannot be enumerated")
        return range(self.p)

    def render(self, a) -> Union[int, str]:
        """Canonical JSON form of a scalar."""
        if self.p is not None:
            return int(a)
        return f"{a.numerator}/{a.denominator}"

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
QQ = FieldSpec(None)


def _new(field: FieldSpec, rows: int, cols: int, data: tuple) -> "Mat":
    """A Mat on sparse rows that hold no zeros, without validation."""
    m = Mat.__new__(Mat)
    m.field, m.rows, m.cols, m.sparse_rows = field, rows, cols, data
    m._entries = m._hash = None
    return m


def _addmul(acc: dict, c, row: dict, p: Optional[int]) -> None:
    """``acc += c * row`` in place, dropping the entries that cancel."""
    get = acc.get
    for k, x in row.items():
        y = get(k, 0) + c * x
        if p is not None:
            y %= p
        if y:
            acc[k] = y
        else:
            del acc[k]


def _field_of(a: "Mat", b: "Mat") -> FieldSpec:
    """The field of two operands: DimensionMismatch if theirs differ."""
    f = a.field
    if b.field is not f and b.field != f:
        raise DimensionMismatch(f"operands over {f!r} and {b.field!r}")
    return f


def _combine(m: "Mat", coeffs, basis) -> "Mat":
    """``m + sum_i coeffs[i] * basis[i]`` in one set of rows: the one
    accumulator, behind ``+``, ``-`` and the coordinates and sweeps of
    ``_search``.  Each nonzero coefficient is coerced into the field; a
    basis matrix of another shape or field is a DimensionMismatch."""
    f = m.field
    p = f.p
    out = [dict(r) for r in m.sparse_rows]
    for x, b in zip(coeffs, basis):
        if b.rows != m.rows or b.cols != m.cols:
            raise DimensionMismatch("shape mismatch")
        _field_of(m, b)
        c = f.of(x) if x else x
        if c:
            for acc, row in zip(out, b.sparse_rows):
                _addmul(acc, c, row, p)
    return _new(f, m.rows, m.cols, tuple(out))


def _int_row(row: dict):
    """``(numerators, d)`` with ``row = numerators / d`` over Q, where d is
    the lcm of the denominators of the row's entries."""
    d = lcm(*[x.denominator for x in row.values()])
    return {k: x.numerator * (d // x.denominator)
            for k, x in row.items()}, d


def _clear(v: dict, c, b: dict, p: Optional[int]) -> None:
    """``v = b[c]*v - v[c]*b`` in place, which clears column c of v.

    Over GF(p) ``b[c]`` is 1.  Over Q both rows are integer rows, and the
    two multipliers are cut by their gcd.
    """
    x = v[c]
    if p is None:
        y = b[c]
        g = gcd(x, y)
        x, y = x // g, y // g
        if y != 1:
            for k in v:
                v[k] *= y
    _addmul(v, -x, b, p)


def _normalise(v: dict, c, f: FieldSpec) -> None:
    """Scale ``v`` in place: over GF(p) to 1 at column c, over Q to a
    primitive integer row."""
    p = f.p
    if p is None:
        s = gcd(*v.values())
        if s != 1:
            for k in v:
                v[k] //= s
    elif v[c] != 1:
        s = f.inv(v[c])
        for k in v:
            v[k] = v[k] * s % p


class Mat:
    """Immutable matrix over a fixed field, stored as sparse rows.

    ``Mat(field, rows, cols, entries)`` takes dense row-major entries.
    ``sparse_rows`` holds one ``{column: value}`` dict per row with no zero
    values; the dicts are shared between matrices and must not be mutated.
    ``entries`` is the dense row-major tuple, derived and cached.  Equal
    matrices compare and hash equal however they were built.
    """

    __slots__ = ("field", "rows", "cols", "sparse_rows", "_entries", "_hash")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        if len(entries) != rows:
            raise DimensionMismatch("row count mismatch")
        data = []
        for r in entries:
            if len(r) != cols:
                raise DimensionMismatch("column count mismatch")
            data.append({c: x for c, x in enumerate(r) if x})
        self.field, self.rows, self.cols = field, rows, cols
        self.sparse_rows = tuple(data)
        self._entries = self._hash = None

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            z = self.field.zero
            cols = range(self.cols)
            self._entries = tuple(tuple(r.get(c, z) for c in cols)
                                  for r in self.sparse_rows)
        return self._entries

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return self is other or (
            self.rows == other.rows and self.cols == other.cols
            and self.field == other.field
            and self.sparse_rows == other.sparse_rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.rows, self.cols, tuple(
                frozenset(r.items()) for r in self.sparse_rows)))
        return self._hash

    def __repr__(self):
        return (f"Mat(field={self.field!r}, rows={self.rows!r}, "
                f"cols={self.cols!r}, entries={self.entries!r})")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rows(field: FieldSpec, rows) -> "Mat":
        ent = tuple(tuple(field.of(x) for x in row) for row in rows)
        ncols = len(ent[0]) if ent else 0
        return Mat(field, len(ent), ncols, ent)

    @staticmethod
    def from_sparse_rows(field: FieldSpec, rows: int, cols: int,
                         data) -> "Mat":
        """Matrix from ``{column: value}`` dicts of field elements."""
        return _new(field, rows, cols,
                    tuple({c: x for c, x in r.items() if x} for r in data))

    @staticmethod
    def zero(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return _new(field, rows, cols, ({},) * rows)

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        one = field.one
        return _new(field, n, n, tuple({i: one} for i in range(n)))

    @staticmethod
    def swap(field: FieldSpec, m: int, n: int) -> "Mat":
        """The flip x (x) y -> y (x) x of F^m (x) F^n."""
        one = field.one
        return _new(field, n * m, m * n, tuple(
            {i * n + j: one} for j in range(n) for i in range(m)))

    @staticmethod
    def from_cols(field: FieldSpec, cols) -> "Mat":
        nrows = len(cols[0]) if cols else 0
        data = tuple({} for _ in range(nrows))
        for j, c in enumerate(cols):
            for i in range(nrows):
                x = field.of(c[i])
                if x:
                    data[i][j] = x
        return _new(field, nrows, len(cols), data)

    # -- basic algebra -----------------------------------------------

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with "
                f"{other.rows}x{other.cols}")
        p = _field_of(self, other).p
        brows = other.sparse_rows
        if p is None:
            # row j of other as integers n_j over d_j: a * b_j = a / d_j * n_j
            ints = {j: _int_row(brows[j])
                    for j in set().union(*self.sparse_rows)}
            brows = {j: n for j, (n, _) in ints.items()}
        out = []
        for arow in self.sparse_rows:
            if p is None:
                # each a / d_j as an integer over the common denominator
                qs = {j: a.denominator * ints[j][1] for j, a in arow.items()}
                den = lcm(*qs.values())
                arow = {j: a.numerator * (den // qs[j])
                        for j, a in arow.items()}
            acc = {}
            get = acc.get
            for j, a in arow.items():
                for k, b in brows[j].items():
                    acc[k] = get(k, 0) + a * b
            if p is None:
                out.append({k: Fraction(x, den) for k, x in acc.items() if x})
            else:
                out.append({k: x % p for k, x in acc.items() if x % p})
        return _new(self.field, self.rows, other.cols, tuple(out))

    def __add__(self, other: "Mat") -> "Mat":
        return _combine(self, (1,), (other,))

    def __sub__(self, other: "Mat") -> "Mat":
        return _combine(self, (-1,), (other,))

    def transpose(self) -> "Mat":
        data = tuple({} for _ in range(self.cols))
        for i, r in enumerate(self.sparse_rows):
            for j, x in r.items():
                data[j][i] = x
        return _new(self.field, self.cols, self.rows, data)

    def col(self, j) -> tuple:
        z = self.field.zero
        return tuple(r.get(j, z) for r in self.sparse_rows)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product; tensor product of maps in row-major indexing."""
        p = _field_of(self, other).p
        oc = other.cols
        out = []
        for r1 in self.sparse_rows:
            for r2 in other.sparse_rows:
                if p is None:
                    out.append({c1 * oc + c2: a * b for c1, a in r1.items()
                                for c2, b in r2.items()})
                else:
                    out.append({c1 * oc + c2: a * b % p
                                for c1, a in r1.items()
                                for c2, b in r2.items()})
        return _new(self.field, self.rows * other.rows,
                    self.cols * other.cols, tuple(out))

    def tensor_id(self, pre: int, post: int) -> "Mat":
        """``I_pre (x) self (x) I_post`` by index arithmetic.

        Entry (r, c) of block (i, j) lands at row ``(i*rows + r)*post + j``
        and column ``(i*cols + c)*post + j`` unchanged, so no scalar is
        multiplied; ``kron`` is for products of two general factors.
        """
        cols = self.cols
        out = []
        for i in range(pre):
            base = i * cols
            for r in self.sparse_rows:
                for j in range(post):
                    out.append({(base + c) * post + j: x
                                for c, x in r.items()})
        return _new(self.field, pre * self.rows * post,
                    pre * cols * post, tuple(out))

    def stack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise DimensionMismatch("column mismatch in stack")
        return _new(_field_of(self, other), self.rows + other.rows, self.cols,
                    self.sparse_rows + other.sparse_rows)


# -- echelon forms ---------------------------------------------------


def rref(m: Mat):
    """Reduced row echelon form with lowest-index pivots.

    Returns ``(R, pivots)`` where R has its zero rows dropped, so R is the
    canonical basis matrix of the row space of ``m``.  The rows are added
    one at a time to a basis kept in reduced form: a new row is cleared at
    every pivot so far, its lowest column becomes a pivot, and that column
    is cleared from the earlier rows.  A row's columns never lie below its
    pivot, and the reduced echelon form of a row space is unique.

    Over GF(p) each basis row is scaled to 1 at its pivot.  Over Q the
    basis rows are integer rows with content 1, eliminated fraction-free
    (as in Bareiss 1968), and each is divided by its pivot once at the end.
    """
    f = m.field
    p = f.p
    piv = {}  # pivot column -> reduced row
    holders = {}  # column -> pivot columns whose rows may hold it
    for src in m.sparse_rows:
        v = dict(src) if p is not None else _int_row(src)[0]
        for c in [c for c in v if c in piv]:
            _clear(v, c, piv[c], p)
        if not v:
            continue
        c = min(v)
        _normalise(v, c, f)
        for pc in holders.pop(c, ()):
            row = piv[pc]
            if c in row:
                _clear(row, c, v, p)
                _normalise(row, pc, f)
                for k in v:
                    holders.setdefault(k, set()).add(pc)
        piv[c] = v
        for k in v:
            holders.setdefault(k, set()).add(c)
        if len(piv) == m.cols:
            break
    pivots = tuple(sorted(piv))
    rows = tuple(piv[c] for c in pivots)
    if p is None:
        rows = tuple({k: Fraction(x, r[c]) for k, x in r.items()}
                     for c, r in zip(pivots, rows))
    return _new(f, len(pivots), m.cols, rows), pivots


def _null_rows(red: Mat, pivots: tuple) -> tuple:
    """Free columns of a reduced matrix and, for each free column fc, the
    null vector with 1 at fc and -red[r][fc] at pivot ``pivots[r]``."""
    f = red.field
    pivset = set(pivots)
    free = [c for c in range(red.cols) if c not in pivset]
    vecs = {fc: {fc: f.one} for fc in free}
    for pc, r in zip(pivots, red.sparse_rows):
        for fc, x in r.items():
            if fc != pc:
                vecs[fc][pc] = f.neg(x)
    return free, tuple(vecs[fc] for fc in free)


def _null_basis(red: Mat, pivots: tuple) -> Mat:
    """Canonical basis of the null space of a reduced matrix: its
    ``_null_rows`` in reduced echelon form with lowest-index pivots."""
    free, vecs = _null_rows(red, pivots)
    return rref(_new(red.field, len(free), red.cols, vecs))[0]


def kernel(m: Mat) -> Mat:
    """Canonical basis of the null space of ``m``, one row per basis vector.

    Rows are returned in reduced echelon form with lowest-index pivots; the
    empty kernel is a 0-row matrix with ``m.cols`` columns.
    """
    return _null_basis(*rref(m))


@frozen
class QuotientSpace:
    """Ambient space modulo the row space of the relations it was built from.

    ``projection`` (quo_dim x ambient) and ``section`` (ambient x quo_dim)
    satisfy ``projection @ section = I``, and the kernel of ``projection``
    is the span of the relations.  The quotient basis consists of the
    images of the non-pivot coordinates of the canonicalised relations.
    """

    field: FieldSpec
    ambient_dim: int
    quo_dim: int
    projection: Mat
    section: Mat

    def canonical_lift(self, m: Mat) -> Mat:
        """Canonical representative of a map into the quotient's ambient."""
        if m.rows != self.ambient_dim:
            raise DimensionMismatch("codomain is not the ambient space")
        return self.section @ self.projection @ m


def _check_ambient(ambient_dim: int) -> None:
    """Raise SizeLimit if a quotient's ambient space exceeds the guard."""
    max_dim = current_max_dim()
    if ambient_dim > max_dim:
        raise SizeLimit(f"ambient dimension {ambient_dim} exceeds {max_dim}")


def quotient(field: FieldSpec, ambient_dim: int, relations: Mat
             ) -> QuotientSpace:
    """Quotient of F^ambient_dim by the row space of ``relations``."""
    if relations.cols != ambient_dim:
        raise DimensionMismatch("relations do not live in the ambient space")
    if relations.field != field:
        raise DimensionMismatch(f"relations are not over {field!r}")
    _check_ambient(ambient_dim)
    f = field
    red, pivots = rref(relations)
    # projection: kill each pivot coordinate using its relation row
    free, proj_rows = _null_rows(red, pivots)
    quo_dim = len(free)
    projection = _new(f, quo_dim, ambient_dim, proj_rows)
    index = {fc: t for t, fc in enumerate(free)}
    one = f.one
    section = _new(f, ambient_dim, quo_dim, tuple(
        {index[i]: one} if i in index else {} for i in range(ambient_dim)))
    return QuotientSpace(f, ambient_dim, quo_dim, projection, section)
