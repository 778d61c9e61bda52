"""The double-description hull against the brute-force subset scan.

The oracle is the direct definition: every n-subset of the points that
spans a hyperplane with all points on one side supports a facet, and a
point is a vertex when the normals of the facets through it have full rank.
It costs C(m, n) exact kernel computations (the Fraction null space of
``test_kernel``), so inputs stay small.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from conevol.errors import CapExceeded, DegenerateInput
from conevol.generators import GeneratorSpec, centered_simplex, cross_polytope, cube, generate
from conevol.kernel import ONE, Vector, integer_row, rank_of_rows, vector
from conevol import polytope
from conevol.polytope import _denominator_rows, _supporting_halfspaces, convex_hull
from test_kernel import oracle_kernel_basis


def subset_scan(points):
    """Primitive-integer pairs (g, c), meaning <g, x> <= c, of every facet."""
    n = points[0].dim
    found = set()
    for subset in itertools.combinations(range(len(points)), n):
        basis = oracle_kernel_basis([list(points[i].coords) + [-ONE] for i in subset], n + 1)
        if len(basis) != 1 or not any(basis[0].coords[:n]):
            continue
        g, c = Vector(basis[0].coords[:n]), basis[0].coords[n]
        sides = {(g.dot(p) > c) - (g.dot(p) < c) for p in points}
        if {-1, 1} <= sides:
            continue
        ints = integer_row(basis[0].coords)
        k = gcd(*ints) * (-1 if 1 in sides else 1)
        found.add((tuple(x // k for x in ints[:n]), ints[n] // k))
    return sorted(found)


def oracle_vertices(points, halfspaces):
    n = points[0].dim
    return tuple(
        p
        for p in points
        if rank_of_rows([g for g, c in halfspaces if vector(g).dot(p) == c]) == n
    )


def assert_matches_oracle(raw):
    pts = tuple(sorted(set(raw)))
    n = pts[0].dim
    if rank_of_rows([p.coords + (ONE,) for p in pts]) < n + 1:
        with pytest.raises(DegenerateInput):
            convex_hull(raw)
        return
    expected = subset_scan(pts)
    facets = _supporting_halfspaces(*_denominator_rows(pts))
    assert sorted((h[:n], -h[n]) for h in facets) == expected
    for h, tight in facets.items():
        g, c = vector(h[:n]), -h[n]
        # the tight sets are bit masks, bit j for point j
        assert {j for j in range(len(pts)) if tight >> j & 1} == {j for j, p in enumerate(pts) if g.dot(p) == c}
    p = convex_hull(raw)
    assert p.vertices == oracle_vertices(pts, expected)
    for (a, b), tight in zip(zip(p.normals, p.rhs), p.incidence):
        assert tight == {j for j, v in enumerate(p.vertices) if a.dot(v) == b}


@st.composite
def clouds(draw):
    """Small integer clouds in dimensions 2-5 with repeated points (the
    midpoint of a point with itself), points on edges or inside (other
    midpoints), often the vertex average, and a common rational scale."""
    n = draw(st.integers(min_value=2, max_value=5))
    size = draw(st.integers(min_value=n + 1, max_value={2: 9, 3: 8, 4: 7, 5: 7}[n]))
    coord = st.integers(min_value=-2, max_value=2)
    pts = [vector(draw(st.tuples(*[coord] * n))) for _ in range(size)]
    index = st.integers(min_value=0, max_value=size - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3))
    pts += [(pts[a] + pts[b]).scale(F(1, 2)) for a, b in pairs]
    if draw(st.booleans()):
        total = pts[0]
        for p in pts[1:]:
            total = total + p
        pts.append(total.scale(F(1, len(pts))))
    scale = draw(st.sampled_from([F(1), F(1, 2), F(-2, 3)]))
    return [p.scale(scale) for p in pts]


@settings(max_examples=150, deadline=None)
@given(clouds())
def test_hull_matches_subset_scan_on_clouds(raw):
    assert_matches_oracle(raw)


def _grid(n):
    return [vector(x) for x in itertools.product((-1, 0, 1), repeat=n)]


def _simplex_prism(n):
    return [Vector(b.coords + (F(h),)) for b in centered_simplex(n - 1).vertices for h in (-1, 1)]


EXPLICIT = (
    [("cube", n, list(cube(n).vertices)) for n in (2, 3, 4)]
    + [("cross+origin", n, [*cross_polytope(n).vertices, vector([0] * n)]) for n in (2, 3, 4, 5)]
    + [("prism", n, _simplex_prism(n)) for n in (2, 3, 4, 5)]
    + [("grid", n, _grid(n)) for n in (1, 2, 3)]
    # in one dimension the two facets share an empty tight set, which every
    # live facet contains
    + [("pair", 1, [vector([F(-2, 3)]), vector([5])])]
    + [("duplicates", 1, [vector([x]) for x in (3, -1, 3, -1, 3)])]
    + [("interior", 1, [vector([x]) for x in (0, 7, 2, F(5, 2), -4, 1)])]
)


@pytest.mark.parametrize(
    "raw", [pts for _, _, pts in EXPLICIT], ids=[f"{k}{n}" for k, n, _ in EXPLICIT]
)
def test_hull_matches_subset_scan_on_named_sets(raw):
    assert_matches_oracle(raw)


@pytest.mark.parametrize(
    "raw", [pts for _, _, pts in EXPLICIT], ids=[f"{k}{n}" for k, n, _ in EXPLICIT]
)
def test_hull_takes_any_iterable_of_points(raw):
    # a set and a generator have no index 0, and are read once
    p = convex_hull(tuple(raw))
    assert convex_hull(set(raw)) == p
    assert convex_hull(v for v in raw) == p


@pytest.mark.parametrize("seed", range(6))
def test_join_of_a_segment_and_a_segment(seed):
    # dimension 3 joins two 1-dimensional factors, each hulled in R^1
    p = generate(GeneratorSpec("join", 3, seed=seed))
    assert len(p.vertices) == 4 and p.facet_count == 4


def test_grid_of_81_points_is_the_4_cube():
    assert convex_hull(_grid(4)) == cube(4)


def test_live_facet_cap():
    # the cyclic polytope of 29 points in R^6 has 2,900 facets
    moment_curve = [vector([t**k for k in range(1, 7)]) for t in range(29)]
    with pytest.raises(CapExceeded, match="2900 facets, above the cap 2576"):
        convex_hull(moment_curve)


def test_a_hull_short_of_a_facet_is_refused(monkeypatch):
    # the double description's facets pass the completeness certificate: the
    # octahedron less any one facet keeps every vertex, and its volume would
    # read 7/6, 1 or 2/3 instead of 4/3
    supporting = polytope._supporting_halfspaces
    octahedron = [vector(s * (k == i) for i in range(3)) for k in range(3) for s in (-1, 1)]
    for drop in range(8):

        def short(rows, scale, drop=drop):
            facets = supporting(rows, scale)
            del facets[sorted(facets)[drop]]
            return facets

        with monkeypatch.context() as m:
            m.setattr(polytope, "_supporting_halfspaces", short)
            with pytest.raises(DegenerateInput):
                convex_hull(octahedron)
