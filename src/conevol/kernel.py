"""Exact rational linear algebra: vectors, matrices, flats.

Every coordinate in this package is a ``fractions.Fraction`` or an exact
integer; nothing here ever rounds, and every comparison is exact.  The
module provides the small amount of linear algebra the geometric layers
need:

* ``Vector`` / ``Matrix`` value types (immutable, hashable, lexicographically
  ordered),
* exact elimination on integer rows.  Rational rows are scaled once to
  integer rows first; rows that are integers already go in as they are.
  Rank and determinants read from one forward-only fraction-free (Bareiss)
  pass in place (:func:`_forward`), each step dividing exactly by the
  pivot before it.  Canonical forms (reduced row echelon rows, each as a
  primitive integer row) are folded up one row at a time (:func:`_extend`),
  and membership reduces a row against a form's pivots (:func:`_reduce`).
  A Fraction is made only for a result, at the end,
* one span type: a linear subspace of R^n spans rows of width n, an
  affine flat ``A`` is the linear span of its points ``(a, 1)``, rows of
  width n + 1.  Both kinds share membership, ``dim``, ``basis`` and one
  complementarity test (:func:`complementary`), keyed by the row width.

A flat is stored as ``rows``: the reduced row echelon rows of its span,
each written as its primitive integer multiple with a positive pivot
entry; the constructors reject rows in any other form, checked in one
pass (:func:`_is_canonical`), and the builders reject vectors of mixed
dimensions.  Two flats of one kind are equal iff their rows are, which
makes flats usable as dict keys and makes deduplication trivial.  The
rational reduced row echelon basis is a derived view, ``basis``.
"""
from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from typing import ClassVar, Iterable, Sequence, Union

from .errors import DegenerateInput

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, string ("p/q" or "p") or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True, order=True)
class Vector:
    """An immutable rational vector, ordered lexicographically."""

    coords: tuple[Fraction, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __add__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Vector") -> "Vector":
        return Vector(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __neg__(self) -> "Vector":
        return Vector(tuple(-a for a in self.coords))

    def scale(self, factor: RationalLike) -> "Vector":
        f = as_fraction(factor)
        return Vector(tuple(f * a for a in self.coords))

    def dot(self, other: "Vector") -> Fraction:
        total = ZERO
        for a, b in zip(self.coords, other.coords, strict=True):
            total += a * b
        return total

    def is_zero(self) -> bool:
        return not any(self.coords)


def vector(values: Iterable[RationalLike]) -> Vector:
    """Build a Vector, coercing every entry to Fraction."""
    return Vector(tuple(as_fraction(v) for v in values))


def zero_vector(dim: int) -> Vector:
    return Vector((ZERO,) * dim)


def unit_vector(dim: int, index: int) -> Vector:
    coords = [ZERO] * dim
    coords[index] = ONE
    return Vector(tuple(coords))


@dataclass(frozen=True)
class Matrix:
    """An immutable rational matrix stored as a tuple of row Vectors."""

    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        widths = {row.dim for row in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim if self.rows else 0


def matrix(rows: Iterable[Iterable[RationalLike]]) -> Matrix:
    return Matrix(tuple(vector(row) for row in rows))


def _denominator_lcm(values: Sequence[Fraction]) -> int:
    return lcm(*(x.denominator for x in values))


def integer_row(values: Sequence[Fraction]) -> list[int]:
    """The rational row times the least positive integer that clears its
    denominators; a positive multiple, so spans and signs are kept."""
    scale = _denominator_lcm(values)
    return [x.numerator * (scale // x.denominator) for x in values]


def _eliminate(rows: Iterable[list[int]], top: list[int], c: int, prev: int) -> list[list[int]]:
    """One fraction-free (Bareiss) step: clear column ``c`` of every row by
    the pivot row ``top``.  Each new entry ``(top[c] * x - row[c] * y)``
    divides exactly by ``prev``, the pivot of the step before (1 at the
    start), so integer rows stay integer rows of the same span.  It serves
    the column table of the flat walk (:func:`conevol.concentration._spanned_flats`)."""
    pivot = top[c]
    return [[(pivot * x - row[c] * y) // prev for x, y in zip(row, top)] for row in rows]


def _forward(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Forward-only fraction-free elimination (Bareiss, Math. Comp. 1968)
    on one copy of the integer rows, updated in place: each pivot row is
    swapped up (flipping the sign), and each row below it is updated over
    the later columns as ``(pivot * x - row[c] * top[k]) // prev``.  Rows
    with a zero in the pivot column are scaled too, so every division is
    exact.  Returns (rank, sign * last pivot), which is the determinant
    when the matrix is square and of full rank; callers check the rank.
    """
    work = [list(row) for row in rows]
    m = len(work)
    width = len(work[0]) if work else 0
    sign, prev, r = 1, 1, 0
    for c in range(width):
        i = r
        while i < m and not work[i][c]:
            i += 1
        if i == m:
            continue
        if i != r:
            work[r], work[i] = work[i], work[r]
            sign = -sign
        top = work[r]
        pivot = top[c]
        for row in work[r + 1 :]:
            x = row[c]
            for k in range(c + 1, width):
                row[k] = (pivot * row[k] - x * top[k]) // prev
        prev = pivot
        r += 1
        if r == m:
            break
    return r, sign * prev


def _scaled(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    return [integer_row(row) for row in rows]


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    return _forward(_scaled(rows))[0]


def determinant(m: Matrix) -> Fraction:
    """Exact determinant from the forward pass (:func:`_forward`) on the
    integer rows: its last pivot, signed by the row swaps, over the product
    of the row scales."""
    n = m.nrows
    if n == 0 or m.ncols != n:
        raise ValueError(f"determinant needs a nonempty square matrix, got {m.nrows}x{m.ncols}")
    rank, d = _forward(_scaled([row.coords for row in m.rows]))
    if rank < n:
        return ZERO
    return Fraction(d, prod(_denominator_lcm(row.coords) for row in m.rows))


def _pivot(row: Sequence[int]) -> int:
    """The column of the first nonzero entry of a nonzero row."""
    return row.index(next(filter(None, row)))


def _clear(row: Sequence[int], top: Sequence[int], c: int) -> list[int]:
    """``row`` with column ``c`` cleared by ``top``, whose entry there is
    positive: ``top[c] * row - row[c] * top``, a positive multiple of
    ``row`` minus a multiple of ``top``."""
    a, b = top[c], row[c]
    return [a * y - b * z for y, z in zip(row, top)]


def _reduce(rows: Sequence[Sequence[int]], row: Sequence[int], pivots: list[int]) -> Sequence[int]:
    """The integer row reduced against canonical rows (:func:`canonical_rows`)
    with pivot columns ``pivots``: zero in every pivot column of ``rows``,
    and a positive multiple of ``row`` minus a combination of ``rows``.  It
    is zero iff ``row`` lies in their span."""
    for top, c in zip(rows, pivots):
        if row[c]:
            row = _clear(row, top, c)
    return row


def _primitive_row(row: Sequence[int]) -> tuple[int, ...]:
    """The nonzero integer row over the gcd of its entries, signed so that
    its pivot entry is positive."""
    g = gcd(*row)
    if next(filter(None, row)) < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _extend(rows: tuple[tuple[int, ...], ...], row: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The canonical rows of the span of canonical ``rows`` and one integer
    ``row``, in one pass: reduce the row against the pivots of ``rows``, and
    return ``rows`` unchanged if that leaves zero (the row is in their
    span).  Else make it primitive with a positive pivot, clear its pivot
    column from ``rows`` and make them primitive again, and order the rows
    by pivot column.  The result is the unique scaled reduced row echelon
    form of the span.  Each pivot is found once.
    """
    pivots = list(map(_pivot, rows))
    reduced = _reduce(rows, row, pivots)
    if not any(reduced):
        return rows
    new = _primitive_row(reduced)
    c = _pivot(new)
    out = [_primitive_row(_clear(top, new, c)) if top[c] else top for top in rows]
    out.insert(bisect(pivots, c), new)
    return tuple(out)


def canonical_rows(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The canonical form of the span of integer rows: its reduced row
    echelon rows, each as its primitive integer multiple with a positive
    pivot entry, folded up one row at a time by :func:`_extend`."""
    return reduce(_extend, rows, ())


def _is_canonical(rows: Sequence[Sequence[int]]) -> bool:
    """``canonical_rows(rows) == rows`` in one pass, by uniqueness of the
    reduced row echelon form: tuple rows, each nonzero and primitive with a
    positive pivot entry, pivot columns increasing, each zero in the other
    rows (in later rows by their later pivots)."""
    if not isinstance(rows, tuple):
        return False
    last = -1
    for i, row in enumerate(rows):
        lead = next(filter(None, row), 0) if isinstance(row, tuple) else 0
        c = row.index(lead) if lead > 0 else last  # no positive pivot: refused
        if c <= last or gcd(*row) != 1 or any(top[c] for top in rows[:i]):
            return False
        last = c
    return True


def _in_span(rows: Sequence[Sequence[int]], row: Sequence[int]) -> bool:
    """True iff the integer row lies in the span of the canonical rows."""
    return not any(_reduce(rows, row, list(map(_pivot, rows))))


@dataclass(frozen=True)
class _Span:
    """The span of canonical ``rows`` (:func:`canonical_rows`) of width
    ``ambient_dim + homogenizing``: a vector ``v`` of R^n is the row ``v``
    with ``homogenizing`` (a class constant) ones appended.  ``basis`` is
    each row over its pivot, its first nonzero entry."""

    homogenizing: ClassVar[int]
    ambient_dim: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if any(len(row) != self.width for row in self.rows):
            raise ValueError(f"basis rows must have ambient_dim + {self.homogenizing} entries")
        # contains, dim, equality and complementary read the canonical form
        if not _is_canonical(self.rows):
            raise ValueError("basis rows are not in canonical form (see canonical_rows)")

    @property
    def width(self) -> int:
        return self.ambient_dim + self.homogenizing

    @property
    def dim(self) -> int:
        return len(self.rows) - self.homogenizing

    @property
    def basis(self) -> tuple[Vector, ...]:
        basis = []
        for row in self.rows:
            lead = next(x for x in row if x)
            basis.append(Vector(tuple(Fraction(x, lead) for x in row)))
        return tuple(basis)

    @classmethod
    def row_of(cls, v: Vector) -> list[int]:
        """``v`` as an integer row of this kind: a positive multiple, so
        spans and membership are kept."""
        return integer_row(v.coords + (ONE,) * cls.homogenizing)

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient_dim:
            raise ValueError(f"vector dimension {v.dim} != ambient {self.ambient_dim}")
        return _in_span(self.rows, self.row_of(v))


@dataclass(frozen=True)
class AffineFlat(_Span):
    """An affine flat ``A = {a : (a, 1) in span}`` of R^n; a singleton flat
    has one row."""

    homogenizing: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if not self.rows:
            raise DegenerateInput("affine flat needs at least one basis row")
        super().__post_init__()
        # A genuine affine flat must contain an actual point: some vector of
        # the span has nonzero last homogeneous coordinate.
        if all(row[-1] == 0 for row in self.rows):
            raise DegenerateInput("flat at infinity: no basis row has nonzero last coordinate")


def _span_of(kind: type[_Span], vectors: Sequence[Vector], ambient_dim: int) -> _Span:
    """The span of vectors of R^ambient_dim as a flat of ``kind``, in canonical form."""
    for i, v in enumerate(vectors):
        if v.dim != ambient_dim:
            raise ValueError(f"vector {i} has dimension {v.dim}, expected {ambient_dim}")
    return kind(ambient_dim, canonical_rows([kind.row_of(v) for v in vectors]))


def affine_hull(points: Sequence[Vector]) -> AffineFlat:
    """Affine hull of a nonempty rational point set, in canonical form."""
    if not points:
        raise DegenerateInput("affine hull of an empty point set")
    return _span_of(AffineFlat, points, points[0].dim)


@dataclass(frozen=True)
class LinearSubspace(_Span):
    """A linear subspace of R^n: ``dim == len(rows)``; the zero subspace
    has no rows."""

    homogenizing: ClassVar[int] = 0


def linear_span(vectors: Sequence[Vector], ambient_dim: int) -> LinearSubspace:
    """Linear span of a (possibly empty) set of vectors, in canonical form."""
    return _span_of(LinearSubspace, vectors, ambient_dim)


def complementary(a: _Span, b: _Span) -> bool:
    """True iff the two spans sum directly to the whole row space.

    For linear subspaces that is R^n = A + B, a direct sum.  For affine
    flats the homogenized spans sum directly to R^(n+1): dim A + dim B =
    n - 1, A and B are disjoint, and aff(A u B) = R^n.
    """
    if type(a) is not type(b) or a.ambient_dim != b.ambient_dim:
        raise ValueError("complementary needs two flats of one kind in one ambient space")
    width = a.width
    return len(a.rows) + len(b.rows) == width and _forward(a.rows + b.rows)[0] == width
