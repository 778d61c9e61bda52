"""Kernel tests: exact linear algebra, flats, canonical forms.

Expected values are frozen from independent oracles implemented here
(cofactor determinants, an affine-combination feasibility solver), never
from the functions under test.  The kernel's former Fraction engines, a
Gauss-Jordan reduced row echelon form and a forward Bareiss determinant,
are kept here as the oracles of a differential test of what replaced them:
the canonical forms, folded up one row at a time, and the in-place forward
pass behind every rank and determinant (``rank_of_rows``,
``complementary``, ``determinant`` and the polytope layer's ``_abs_det``).
The kernel's former fraction-free Gauss-Jordan canonical form on integer
rows is kept too (``oracle_canonical_rows``), as the oracle of the fold.
"""
from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conevol.errors import DegenerateInput
from conevol.kernel import (
    AffineFlat,
    LinearSubspace,
    Matrix,
    Vector,
    _is_canonical,
    affine_hull,
    as_fraction,
    canonical_rows,
    complementary,
    determinant,
    linear_span,
    matrix,
    rank_of_rows,
    unit_vector,
    vector,
)
from conevol.polytope import _abs_det

QQ = Fraction


def cofactor_det(rows: list[list[Fraction]]) -> Fraction:
    """Independent determinant oracle: Laplace expansion along row 0."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        total += sign * rows[0][j] * cofactor_det(minor)
        sign = -sign
    return total


def affine_combination_exists(points: list[Vector], target: Vector) -> bool:
    """Independent membership oracle: is target an affine combination of points?

    Solves sum(l_i p_i) = target, sum(l_i) = 1 by row reduction and compares
    the rank of the coefficient matrix with the rank of the augmented one.
    """
    n = target.dim
    k = len(points)
    coeff = [[points[i][c] for i in range(k)] for c in range(n)]
    coeff.append([Fraction(1)] * k)
    rhs = [target[c] for c in range(n)] + [Fraction(1)]
    augmented = [row + [b] for row, b in zip(coeff, rhs)]
    return rank_of_rows(coeff) == rank_of_rows(augmented)


small_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestRationalStrings:
    def test_round_trip_and_lowest_terms(self):
        assert as_fraction(str(QQ(3, 2))) == QQ(3, 2)
        assert as_fraction("-7") == QQ(-7)
        assert as_fraction("2/6") == QQ(1, 3)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form, rank and pivot columns, read from the
    library's canonical form of the row span (``linear_span``)."""
    span = linear_span(m.rows, m.ncols)
    pivots = tuple(next(c for c, x in enumerate(row) if x) for row in span.rows)
    return Matrix(span.basis), span.dim, pivots


class TestRref:
    def test_full_rank_two_by_two(self):
        reduced, rank, pivots = rref(matrix([[1, 2], [3, 4]]))
        assert rank == 2
        assert pivots == (0, 1)
        assert reduced == matrix([[1, 0], [0, 1]])

    def test_rank_deficient(self):
        reduced, rank, pivots = rref(matrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert pivots == (0,)
        assert reduced == matrix([[1, 2]])

    @given(
        st.lists(
            st.lists(small_fractions, min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_idempotent_and_rank_bounded(self, rows):
        m = matrix(rows)
        reduced, rank, pivots = rref(m)
        assert rank <= min(m.nrows, m.ncols)
        again, rank2, pivots2 = rref(reduced)
        assert again == reduced
        assert rank2 == rank
        assert pivots2 == pivots

    def test_pivot_entries_are_one_with_clean_columns(self):
        reduced, rank, pivots = rref(matrix([[0, 2, 4], [1, 1, 1], [2, 2, 2]]))
        for i, p in enumerate(pivots):
            col = [row[p] for row in reduced.rows]
            assert col[i] == 1
            assert all(col[j] == 0 for j in range(rank) if j != i)


class TestDeterminant:
    def test_triangle_edge_vectors(self):
        rows = [[QQ(-1), QQ(1)], [QQ(-2), QQ(-1)]]
        assert cofactor_det(rows) == 3
        assert determinant(matrix(rows)) == 3

    def test_identity(self):
        m = matrix([[1 if i == j else 0 for j in range(4)] for i in range(4)])
        assert determinant(m) == 1

    def test_singular(self):
        assert determinant(matrix([[1, 2], [2, 4]])) == 0

    @given(
        st.lists(
            st.lists(small_fractions, min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_matches_cofactor_oracle(self, rows):
        assert determinant(matrix(rows)) == cofactor_det([list(map(QQ, r)) for r in rows])

    def test_row_swap_flips_sign(self):
        rows = [[QQ(2), QQ(7), QQ(1)], [QQ(0), QQ(3), QQ(5)], [QQ(1), QQ(1), QQ(2)]]
        swapped = [rows[1], rows[0], rows[2]]
        assert determinant(matrix(swapped)) == -determinant(matrix(rows))


class TestSolveAndKernel:
    def test_kernel_of_hyperplane_rows(self):
        rows = [vector([1, 0, -1]), vector([0, 1, -1])]
        basis = oracle_kernel_basis([list(row.coords) for row in rows], 3)
        assert len(basis) == 1
        assert all(row.dot(basis[0]) == 0 for row in rows)


class TestAffineFlat:
    def test_hull_of_two_points_is_a_line(self):
        flat = affine_hull([vector([1, 0]), vector([0, 1])])
        assert flat.dim == 1
        assert flat.contains(vector([QQ(1, 2), QQ(1, 2)]))
        assert flat.contains(vector([2, -1]))
        assert not flat.contains(vector([0, 0]))

    def test_singleton_flat(self):
        flat = affine_hull([vector([1, 1])])
        assert flat.dim == 0
        assert flat.contains(vector([1, 1]))
        assert not flat.contains(vector([1, 0]))

    def test_duplicate_generators_collapse(self):
        a = affine_hull([vector([1, 0]), vector([0, 1])])
        b = affine_hull([vector([1, 0]), vector([0, 1]), vector([QQ(1, 2), QQ(1, 2)])])
        assert a == b

    def test_canonical_equality_is_order_independent(self):
        a = affine_hull([vector([1, 0]), vector([0, 1])])
        b = affine_hull([vector([0, 1]), vector([1, 0])])
        assert a == b
        assert hash(a) == hash(b)

    def test_flat_at_infinity_rejected(self):
        with pytest.raises(DegenerateInput):
            AffineFlat(2, ((1, 0, 0),))

    def test_rows_not_in_canonical_form_rejected(self):
        # the line x = 1 as two rows off its reduced row echelon form, read
        # as canonical, would miss (1, 0), whose row (1, 0, 1) is one of them
        with pytest.raises(ValueError, match="canonical form"):
            AffineFlat(2, ((1, 1, 1), (1, 0, 1)))
        line = affine_hull([vector([1, 1]), vector([1, 0])])
        assert line.contains(vector([1, 0])) and AffineFlat(2, line.rows) == line
        # the point (1, 0) as a row that is not primitive would compare
        # unequal to the same point built by affine_hull
        with pytest.raises(ValueError, match="canonical form"):
            AffineFlat(2, ((2, 0, 2),))
        assert AffineFlat(2, ((1, 0, 1),)) == affine_hull([vector([1, 0])])

    def test_points_of_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match=re.escape("vector 1 has dimension 2, expected 1")):
            affine_hull([vector([1]), vector([1, 0])])
        with pytest.raises(ValueError, match=re.escape("vector 2 has dimension 1, expected 2")):
            affine_hull([vector([1, 0]), vector([2, 0]), vector([5])])

    def test_membership_matches_affine_combination_oracle(self):
        rng = random.Random(20260822)
        dims = [2, 3, 4]
        checked = 0
        while checked < 1000:
            n = rng.choice(dims)
            k = rng.randint(1, n + 1)
            points = [
                vector([QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
                for _ in range(k)
            ]
            flat = affine_hull(points)
            if rng.random() < 0.5:
                weights = [QQ(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
                total = sum(weights)
                if total == 0:
                    continue
                weights = [w / total for w in weights]
                q = vector([sum(w * p[c] for w, p in zip(weights, points)) for c in range(n)])
            else:
                q = vector([QQ(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)])
            assert flat.contains(q) == affine_combination_exists(points, q)
            checked += 1


class TestFlatsComplementary:
    def test_point_and_line_in_plane(self):
        point = affine_hull([vector([1, 1])])
        line = affine_hull([vector([-2, 1]), vector([1, -2])])
        assert complementary(point, line)
        assert complementary(line, point)

    def test_two_points_on_a_line(self):
        a = affine_hull([vector([0])])
        b = affine_hull([vector([1])])
        assert complementary(a, b)

    def test_two_points_in_the_plane_are_not_complementary(self):
        # Two 0-flats in R^2 stack to homogenized rank 2 < 3, so the
        # rank criterion rejects them: their joint affine hull is a line.
        a = affine_hull([vector([0, 1])])
        b = affine_hull([vector([0, -1])])
        assert not complementary(a, b)

    def test_parallel_lines_are_not_complementary(self):
        a = affine_hull([vector([0, 0]), vector([1, 0])])
        b = affine_hull([vector([0, 1]), vector([1, 1])])
        assert not complementary(a, b)

    def test_intersecting_point_on_line(self):
        line = affine_hull([vector([0, 0]), vector([1, 1])])
        point = affine_hull([vector([2, 2])])
        assert not complementary(point, line)

    def test_edge_and_opposite_vertex_of_triangle(self):
        edge = affine_hull([vector([1, 0]), vector([0, 1])])
        apex = affine_hull([vector([-1, -1])])
        assert complementary(edge, apex)

    def test_mixed_kinds_raise(self):
        point = affine_hull([vector([1, 1])])
        line = linear_span([vector([1, 0])], 2)
        with pytest.raises(ValueError):
            complementary(point, line)
        with pytest.raises(ValueError):
            complementary(line, point)


class TestLinearSubspace:
    def test_span_and_membership(self):
        sub = linear_span([vector([1, 0, 0]), vector([0, 1, 0])], 3)
        assert sub.dim == 2
        assert sub.contains(vector([3, -2, 0]))
        assert not sub.contains(vector([0, 0, 1]))

    def test_zero_span(self):
        sub = linear_span([], 3)
        assert sub.dim == 0
        assert sub.contains(vector([0, 0, 0]))
        assert not sub.contains(vector([1, 0, 0]))

    def test_canonical_equality(self):
        a = linear_span([vector([2, 2])], 2)
        b = linear_span([vector([-5, -5])], 2)
        assert a == b

    def test_rows_not_in_canonical_form_rejected(self):
        # a row that is not primitive, a zero row, rows out of pivot order
        for rows in (((2, 2),), ((0, 0),), ((0, 1), (1, 0))):
            with pytest.raises(ValueError, match="canonical form"):
                LinearSubspace(2, rows)
        assert LinearSubspace(2, ((1, 1),)) == linear_span([vector([2, 2])], 2)

    def test_vectors_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match=re.escape("vector 1 has dimension 3, expected 2")):
            linear_span([vector([1, 0]), vector([1, 0, 0])], 2)


@st.composite
def near_canonical_rows(draw) -> tuple[tuple[int, ...], ...]:
    """Integer row sets up to 4 x 5: free ones, canonical forms, and
    canonical forms after one edit (a row times 2 or -1, two rows swapped,
    one row added to another, a zero row appended)."""
    width = draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width).map(tuple)
    rows = draw(st.lists(row, max_size=4))
    edit = draw(st.sampled_from(["free", "none", "times 2", "times -1", "swap", "add", "zero row"]))
    if edit == "free":
        return tuple(rows)
    rows = list(canonical_rows(rows))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    if edit == "zero row":
        rows.append((0,) * width)
    elif rows and edit in ("times 2", "times -1"):
        factor = 2 if edit == "times 2" else -1
        rows[i % len(rows)] = tuple(factor * x for x in rows[i % len(rows)])
    elif rows and edit == "swap":
        i, j = i % len(rows), j % len(rows)
        rows[i], rows[j] = rows[j], rows[i]
    elif rows and edit == "add":
        i, j = i % len(rows), j % len(rows)
        rows[i] = tuple(x + y for x, y in zip(rows[i], rows[j]))
    return tuple(rows)


@settings(max_examples=400)
@given(near_canonical_rows())
@example(())
@example(((1, 0), (0, 1)))
@example(((1, 1, 0), (0, 1, 0)))  # the first row is nonzero in the second's pivot column
@example(((0, 1), (1, 0)))
@example(((2, 0),))
@example(((-1, 0),))
@example(((1, 0), (0, 0)))
@example(((),))
@example([(1, 0)])  # a list of rows, not a tuple
@example(([1, 0],))  # a row as a list
def test_one_pass_canonical_check_is_the_fold(rows):
    # the constructors' one-pass check decides exactly what the fold decides
    assert _is_canonical(rows) == (canonical_rows(rows) == rows)


class TestVectorBasics:
    def test_arithmetic(self):
        v = vector([1, 2]) + vector([3, 4])
        assert v == vector([4, 6])
        assert vector([1, 2]).scale(QQ(1, 2)) == vector([QQ(1, 2), 1])
        assert vector([1, 2]).dot(vector([3, 4])) == 11
        assert -vector([1, -2]) == vector([-1, 2])

    def test_lexicographic_order(self):
        assert vector([0, 5]) < vector([1, 0])
        assert vector([1, 0]) < vector([1, 1])

    def test_unit_vector(self):
        assert unit_vector(3, 1) == vector([0, 1, 0])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            Matrix((vector([1]), vector([1, 2])))


def oracle_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], int, list[int]]:
    """The kernel's former engine: Gauss-Jordan elimination on Fractions.

    Returns (reduced rows, rank, pivot column indices), with the pivot in
    the first nonzero entry in column order.
    """
    rows = [list(row) for row in rows]
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
        inv = 1 / rows[r][c]
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


def oracle_canonical_rows(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The kernel's former canonical form: fraction-free Gauss-Jordan
    elimination of the integer rows, pivoting on the first nonzero entry in
    column order.  Each step clears the pivot column from every other row
    as ``(pivot * x - row[c] * y) // prev``, so at the end each pivot entry
    is the last pivot d and the first rank rows are d times the reduced row
    echelon form; each over its gcd, signed like d, is its primitive
    multiple with a positive pivot."""
    work = [list(row) for row in rows]
    prev, r = 1, 0
    for c in range(len(work[0]) if work else 0):
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        pivot = top[c]
        others = work[:r] + work[r + 1 :]
        rest = [[(pivot * x - row[c] * y) // prev for x, y in zip(row, top)] for row in others]
        work = rest[:r] + [top] + rest[r:]
        prev = pivot
        r += 1
    sign = 1 if prev > 0 else -1
    return tuple(tuple(x // (sign * math.gcd(*row)) for x in row) for row in work[:r])


def oracle_determinant(rows: list[list[Fraction]]) -> Fraction:
    """The kernel's former determinant: forward Bareiss elimination on the
    rows scaled to integers, one scale per row."""
    n = len(rows)
    denom = 1
    a: list[list[int]] = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        denom *= scale
        a.append([int(x * scale) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1], denom)


def oracle_kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[Vector]:
    reduced, _, pivots = oracle_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [QQ(0)] * ncols
        v[free] = QQ(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(vector(v))
    return basis


def oracle_in_span(rows: list[list[Fraction]], target: list[Fraction]) -> bool:
    """The former membership test: reduce the target against the reduced
    basis at its pivot columns and look for a zero residual."""
    reduced, rank, pivots = oracle_rref(rows)
    for row, p in zip(reduced[:rank], pivots):
        f = target[p]
        if f != 0:
            target = [x - f * y for x, y in zip(target, row)]
    return not any(target)


# zero entries are frequent so that pivots are often missing
entries = st.one_of(st.just(QQ(0)), small_fractions)


@st.composite
def rational_matrices(draw, *, square: bool = False) -> list[list[Fraction]]:
    """Rational matrices up to 5 x 6 (square up to 5 x 5) with mixed
    denominators, whose rows are often zero, repeats or combinations of
    earlier rows, so that rank deficiency is common."""
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero":
            rows.append([QQ(0)] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(small_fractions), draw(small_fractions)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


ZERO_3X4 = [[QQ(0)] * 4 for _ in range(3)]
REPEATED = [[QQ(1, 2), QQ(-3), QQ(2, 3)], [QQ(1, 2), QQ(-3), QQ(2, 3)], [QQ(0), QQ(5, 4), QQ(1)]]
# after the first step the second column is zero from the second row on,
# so the second pivot comes from a swap; the third row, zero in the first
# column, must still be scaled by the first pivot, 2
SWAP_AT_SECOND_STEP = [
    [QQ(2), QQ(4), QQ(0), QQ(1)],
    [QQ(4), QQ(8), QQ(1, 3), QQ(0)],
    [QQ(0), QQ(1, 2), QQ(3), QQ(1)],
    [QQ(1), QQ(0), QQ(1), QQ(-2)],
]
# a zero middle column the pivots skip, and a repeated row
ZERO_MIDDLE_3X5 = [
    [QQ(1, 2), QQ(-1), QQ(0), QQ(2), QQ(3)],
    [QQ(0), QQ(3), QQ(0), QQ(-1, 4), QQ(1)],
    [QQ(1, 2), QQ(-1), QQ(0), QQ(2), QQ(3)],
]
BIG = 10**24
DIGITS_25 = [
    [QQ(BIG + 7), QQ(-3 * BIG + 1), QQ(2 * BIG - 5, 3)],
    [QQ(5 * BIG - 11), QQ(BIG + 13, 7), QQ(-BIG - 2)],
    [QQ(-4 * BIG + 3), QQ(9 * BIG - 1), QQ(6 * BIG + 17)],
]


class TestEngineAgainstFractionOracle:
    """The fraction-free engine equals the former Fraction engines exactly."""

    @given(rational_matrices(), st.lists(entries, min_size=6, max_size=6))
    @example([[QQ(0)]], [QQ(0)] * 6)
    @example([[QQ(-3, 4)]], [QQ(1)] * 6)
    @example(ZERO_3X4, [QQ(1, 3)] + [QQ(0)] * 5)
    @example(REPEATED, [QQ(1), QQ(-6), QQ(4, 3), QQ(0), QQ(0), QQ(0)])
    @example(ZERO_MIDDLE_3X5, [QQ(1), QQ(2), QQ(0), QQ(7, 4), QQ(4), QQ(0)])
    @example(DIGITS_25, [QQ(BIG), QQ(1), QQ(-BIG, 3), QQ(0), QQ(0), QQ(0)])
    @settings(max_examples=200)
    def test_reductions_and_membership(self, rows, extra):
        ncols = len(rows[0])
        reduced, rank, pivots = oracle_rref(rows)
        expected = Matrix(tuple(vector(row) for row in reduced[:rank]))
        vectors = [vector(row) for row in rows]
        assert rref(matrix(rows)) == (expected, rank, tuple(pivots))
        assert rank_of_rows(rows) == rank
        scaled = [[int(x * math.lcm(*(y.denominator for y in row))) for x in row] for row in rows]
        assert canonical_rows(scaled) == oracle_canonical_rows(scaled)
        sub = linear_span(vectors, ncols)
        assert sub.basis == expected.rows
        hom = [row + [QQ(1)] for row in rows]
        hom_reduced, hom_rank, _ = oracle_rref(hom)
        flat = affine_hull(vectors)
        assert flat.basis == tuple(vector(row) for row in hom_reduced[:hom_rank])
        # a row, a sum of two rows or a free vector: members are common
        for candidate in (rows[-1], [x + y for x, y in zip(rows[0], rows[-1])], extra[:ncols]):
            assert sub.contains(vector(candidate)) == oracle_in_span(rows, candidate)
            assert flat.contains(vector(candidate)) == oracle_in_span(hom, candidate + [QQ(1)])
        # the spans of the first rows and of the others sum directly to the
        # row space iff their ranks add up to the width and to the joint rank
        cut = len(rows) // 2
        pairs = [(linear_span(vectors[:cut], ncols), linear_span(vectors[cut:], ncols), rows)]
        if cut:
            pairs.append((affine_hull(vectors[:cut]), affine_hull(vectors[cut:]), hom))
        for a, b, oracle_rows in pairs:
            width = len(oracle_rows[0])
            ranks = oracle_rref(oracle_rows[:cut])[1] + oracle_rref(oracle_rows[cut:])[1]
            assert complementary(a, b) == (ranks == width == oracle_rref(oracle_rows)[1])

    @given(rational_matrices(square=True), st.permutations(range(5)))
    @example([[QQ(0)]], list(range(5)))
    @example([[QQ(7, 3)]], list(range(5)))
    @example([[QQ(0)] * 3 for _ in range(3)], [2, 1, 0, 3, 4])
    @example(REPEATED, [1, 0, 2, 3, 4])
    @example(SWAP_AT_SECOND_STEP, [0, 1, 2, 3, 4])
    @example(SWAP_AT_SECOND_STEP, [3, 2, 1, 0, 4])
    @example(DIGITS_25, [2, 0, 1, 3, 4])
    @settings(max_examples=200)
    def test_square_systems_and_swap_parity(self, rows, shuffle):
        n = len(rows)
        assert determinant(matrix(rows)) == oracle_determinant(rows)
        scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
        scaled = [[int(x * k) for x in row] for row, k in zip(rows, scales)]
        assert _abs_det(scaled) == abs(oracle_determinant(rows)) * math.prod(scales)
        # a permutation of range(5) restricted to range(n) is one of range(n)
        order = [i for i in shuffle if i < n]
        permuted = [rows[i] for i in order]
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if order[i] > order[j])
        det = determinant(matrix(permuted))
        assert det == oracle_determinant(permuted)
        assert det == (-1) ** inversions * oracle_determinant(rows)
