"""Exact rational linear algebra: vectors, matrices, flats.

Every quantity in this package is a ``fractions.Fraction``; nothing here ever
rounds, and every comparison is exact.  The module provides the small amount
of linear algebra the geometric layers need:

* ``Vector`` / ``Matrix`` value types (immutable, hashable, lexicographically
  ordered),
* reduced row echelon form and rank,
* exact determinants via fraction-free (Bareiss) elimination,
* affine flats in homogeneous coordinates with canonical bases, membership
  tests and the complementarity test used for joins,
* linear subspaces with the same canonical-basis treatment.

An affine flat ``A = {a : (a, 1) in span(B)}`` is stored as the reduced row
echelon form of the homogenized generators ``(a_i, 1)``.  Two flats are equal
iff their canonical bases are equal, which makes flats usable as dict keys
and makes deduplication trivial.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

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


def format_rational(value: Fraction) -> str:
    """Serialize a rational as "p/q", omitting "/q" when q = 1."""
    return str(value)


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational`."""
    return Fraction(text)


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


def _rref_core(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """Reduced row echelon form of a mutable row list.

    Returns (reduced rows, rank, pivot column indices).  Pivot choice is the
    first nonzero entry in column order, which makes the output canonical for
    a given row span.
    """
    if not rows:
        return rows, 0, []
    nrows = len(rows)
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, r, pivots


def integer_row(values: Sequence[Fraction]) -> list[int]:
    """The rational row times the least positive integer that clears its
    denominators; a positive multiple, so spans and signs are kept."""
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values]


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank, and pivot columns (exact)."""
    rows = [list(row.coords) for row in m.rows]
    reduced, rank, pivots = _rref_core(rows)
    kept = tuple(Vector(tuple(row)) for row in reduced[:rank])
    return Matrix(kept), rank, tuple(pivots)


def rank_of_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    work = [list(r) for r in rows]
    _, rank, _ = _rref_core(work)
    return rank


def determinant(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Denominators are cleared row by row so the elimination runs on plain
    integers; every interior division in the Bareiss recurrence is exact.
    """
    n = m.nrows
    if n == 0 or m.ncols != n:
        raise ValueError(f"determinant needs a nonempty square matrix, got {m.nrows}x{m.ncols}")
    denom = 1
    a: list[list[int]] = []
    for row in m.rows:
        scale = lcm(*(x.denominator for x in row.coords))
        denom *= scale
        a.append([int(x * scale) for x in row.coords])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return ZERO
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], denom)


def solve_unique(rows: Sequence[Vector], rhs: Sequence[Fraction]) -> Vector | None:
    """Solve a square system exactly; None when the matrix is singular."""
    n = len(rows)
    work = [list(row.coords) + [as_fraction(b)] for row, b in zip(rows, rhs, strict=True)]
    reduced, rank, pivots = _rref_core(work)
    if rank < n or pivots[:n] != list(range(n)):
        return None
    return Vector(tuple(reduced[i][n] for i in range(n)))


def kernel_basis(rows: Sequence[Vector], ncols: int) -> list[Vector]:
    """Basis of the right null space of the row system (exact)."""
    work = [list(row.coords) for row in rows]
    reduced, rank, pivots = _rref_core(work)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(Vector(tuple(v)))
    return basis


def _reduce_against(basis: Sequence[Vector], pivots: Sequence[int], target: list[Fraction]) -> list[Fraction]:
    for row, p in zip(basis, pivots):
        f = target[p]
        if f != 0:
            target = [x - f * y for x, y in zip(target, row.coords)]
    return target


def _leading_indices(basis: Sequence[Vector]) -> tuple[int, ...]:
    out = []
    for row in basis:
        lead = next(i for i, x in enumerate(row.coords) if x != 0)
        out.append(lead)
    return tuple(out)


@dataclass(frozen=True)
class AffineFlat:
    """An affine flat in R^n, canonicalized via homogeneous coordinates.

    ``basis`` is the reduced row echelon form of the homogenized generators
    ``(a_i, 1)``; each basis vector lives in dimension ``ambient_dim + 1``.
    A point ``a`` belongs to the flat iff ``(a, 1)`` lies in the row span.
    ``dim`` is ``len(basis) - 1``: a singleton flat has one basis row.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if not self.basis:
            raise DegenerateInput("affine flat needs at least one basis vector")
        if any(row.dim != self.ambient_dim + 1 for row in self.basis):
            raise ValueError("homogenized basis rows must have dimension ambient_dim + 1")
        # A genuine affine flat must contain an actual point: some vector of
        # the span has nonzero last homogeneous coordinate.
        if all(row.coords[-1] == 0 for row in self.basis):
            raise DegenerateInput("flat at infinity: no basis vector has nonzero last coordinate")

    @property
    def dim(self) -> int:
        return len(self.basis) - 1

    def contains(self, point: Vector) -> bool:
        if point.dim != self.ambient_dim:
            raise ValueError(f"point dimension {point.dim} != ambient {self.ambient_dim}")
        target = list(point.coords) + [ONE]
        residual = _reduce_against(self.basis, _leading_indices(self.basis), target)
        return all(x == 0 for x in residual)

    def contains_flat(self, other: "AffineFlat") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        pivots = _leading_indices(self.basis)
        for row in other.basis:
            residual = _reduce_against(self.basis, pivots, list(row.coords))
            if any(x != 0 for x in residual):
                return False
        return True


def affine_hull(points: Sequence[Vector]) -> AffineFlat:
    """Affine hull of a nonempty rational point set, in canonical form."""
    if not points:
        raise DegenerateInput("affine hull of an empty point set")
    n = points[0].dim
    rows = [list(p.coords) + [ONE] for p in points]
    reduced, rank, _ = _rref_core(rows)
    basis = tuple(Vector(tuple(row)) for row in reduced[:rank])
    return AffineFlat(n, basis)


def flats_complementary(a: AffineFlat, b: AffineFlat) -> bool:
    """True iff the homogenized spans intersect trivially and jointly span
    dimension n + 1; equivalently dim A + dim B = n - 1, A and B disjoint,
    and aff(A u B) = R^n."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    total = len(a.basis) + len(b.basis)
    if total != n + 1:
        return False
    stacked = [row.coords for row in a.basis] + [row.coords for row in b.basis]
    return rank_of_rows(stacked) == n + 1


@dataclass(frozen=True)
class LinearSubspace:
    """A linear subspace of R^n with a canonical (RREF) basis.

    ``dim == len(basis)``; the zero subspace has an empty basis.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if any(row.dim != self.ambient_dim for row in self.basis):
            raise ValueError("basis rows must have the ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        if v.dim != self.ambient_dim:
            raise ValueError(f"vector dimension {v.dim} != ambient {self.ambient_dim}")
        residual = _reduce_against(self.basis, _leading_indices(self.basis), list(v.coords))
        return all(x == 0 for x in residual)


def linear_span(vectors: Sequence[Vector], ambient_dim: int) -> LinearSubspace:
    """Linear span of a (possibly empty) set of vectors, in canonical form."""
    rows = [list(v.coords) for v in vectors]
    reduced, rank, _ = _rref_core(rows)
    basis = tuple(Vector(tuple(row)) for row in reduced[:rank])
    return LinearSubspace(ambient_dim, basis)


def subspaces_complementary(a: LinearSubspace, b: LinearSubspace) -> bool:
    """True iff R^n is the direct sum of the two subspaces."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    if a.dim + b.dim != n:
        return False
    stacked = [row.coords for row in a.basis] + [row.coords for row in b.basis]
    return rank_of_rows(stacked) == n


def primitive_integer_form(values: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational tuple to coprime integers with positive leading sign.

    The zero tuple maps to itself.  Used for canonical hyperplane keys.
    """
    ints = integer_row(values)
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        return tuple(ints)
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        g = -g
    return tuple(x // g for x in ints)
