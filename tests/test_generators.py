"""Generator tests.

Frozen values: the pyramid over the unit-height square base has volume
(1/3) * base area * height = 8/3, and the join of two skew unit segments
at heights +-1 is a tetrahedron of volume 4/3 (computed by hand as
(1/3) * 2 * 2 * ... and confirmed against the hull machinery once before
freezing).

``projected_base_centroid`` is the cross-check ``pyramid_over`` ran
before it read the apex fan: the base centroid computed inside its
hyperplane through a coordinate projection, which with the pyramid formula
c = (n c(F) + apex) / (n + 1) predicts the pyramid centroid.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import factorial

import pytest

from conevol.errors import CapExceeded, DegenerateInput, NotComplementary
from conevol.kernel import Vector, affine_hull, unit_vector, vector
from conevol.polytope import VPolytope, centroid, convex_hull, from_reps, polar, volume
from conevol.cone_measure import cone_volume_measure, pyramid_formula_check
from conevol.concentration import affine_scc, detect_join_structure
from conevol.generators import (
    GeneratorSpec,
    centered_simplex,
    cross_polytope,
    cube,
    generate,
    join_centered,
    pyramid_over,
    random_centered,
)
from test_kernel import oracle_rref


def v(*xs):
    return vector(xs)


def projected_base_centroid(points):
    """Centroid of points spanning a hyperplane: the centroid of their hull
    projected onto coordinates injective on that hyperplane, carried back by
    its barycentric coordinates in a projected affine frame."""
    pts = list(dict.fromkeys(points))
    _, rank, coords = oracle_rref([list((q - pts[0]).coords) for q in pts[1:]])
    c_proj = centroid(convex_hull([Vector(tuple(q.coords[c] for c in coords)) for q in pts]))
    frame = [pts[0]]
    for q in pts[1:]:
        diffs = [list((w - pts[0]).coords) for w in frame[1:] + [q]]
        if len(frame) <= rank and oracle_rref(diffs)[1] == len(frame):
            frame.append(q)
    k = len(frame)
    system = [[w.coords[c] for w in frame] + [x] for c, x in zip(coords, c_proj.coords)]
    reduced, rank, pivots = oracle_rref(system + [[F(1)] * (k + 1)])
    assert pivots == list(range(k))
    weights = [row[k] for row in reduced[:rank]]
    return Vector(tuple(sum(w * x for w, x in zip(weights, col)) for col in zip(*frame)))


class TestCanonical:
    def test_cube(self):
        c = cube(3)
        assert volume(c) == 8
        assert c.facet_count == 6
        assert len(c.vertices) == 8
        assert c.centered
        assert cube(2).vertices == (v(-1, -1), v(-1, 1), v(1, -1), v(1, 1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hull_cube_equals_its_known_representations(self, n):
        # the cube's known vertices and facets, certified by from_reps,
        # are the oracle of the hull-built cube
        signs = [vector(s) for s in itertools.product((-1, 1), repeat=n)]
        normals = [u for k in range(n) for u in (-unit_vector(n, k), unit_vector(n, k))]
        assert cube(n) == from_reps(signs, normals, [1] * (2 * n))

    def test_cross_is_polar_cube(self):
        for n in (2, 3, 4):
            assert cross_polytope(n) == polar(cube(n))
        assert cross_polytope(3).facet_count == 8
        assert volume(cross_polytope(3)) == F(4, 3)

    def test_simplex(self):
        s = centered_simplex(2)
        assert s.vertices == (v(-1, -1), v(0, 1), v(1, 0))
        assert centroid(s).is_zero()
        assert set(centered_simplex(3).normals) == {
            v(1, 1, 1), v(-3, 1, 1), v(1, -3, 1), v(1, 1, -3),
        }
        for n in (2, 3, 4):
            assert volume(centered_simplex(n)) == F(n + 1, factorial(n))

    def test_caps(self):
        with pytest.raises(CapExceeded, match="--dim-cap .dim_cap= in the library"):
            cube(7)
        with pytest.raises(ValueError):
            cube(0)
        assert cube(6, dim_cap=6).facet_count == 12


class TestPyramidOver:
    SQUARE_BASE = VPolytope(3, tuple(v(a, b, 0) for a in (-1, 1) for b in (-1, 1)))

    def test_square_base(self):
        p = pyramid_over(self.SQUARE_BASE, v(0, 0, 2))
        assert volume(p) == F(8, 3)
        assert p.centered
        assert len(p.vertices) == 5
        # base facet flat attains equality in the affine bound
        base_facet = next(
            i for i, tight in enumerate(p.incidence) if len(tight) == 4
        )
        rep = affine_scc(p, affine_hull([p.normals[base_facet]]))
        assert rep.slack == 0 and rep.equality

    def test_segment_base_gives_triangle(self):
        base = VPolytope(2, (v(-1, 0), v(1, 0)))
        t = pyramid_over(base, v(0, 3))
        assert volume(t) == 3
        assert t.centered
        assert len(t.vertices) == 3

    def test_apex_in_base_plane(self):
        with pytest.raises(DegenerateInput):
            pyramid_over(self.SQUARE_BASE, v(1, 1, 0))

    def test_base_must_span_hyperplane(self):
        flat_base = VPolytope(3, (v(-1, 0, 0), v(1, 0, 0)))
        with pytest.raises(DegenerateInput):
            pyramid_over(flat_base, v(0, 0, 1))

    def test_apex_dim_mismatch(self):
        with pytest.raises(ValueError):
            pyramid_over(self.SQUARE_BASE, v(0, 0))

    def test_off_center_apex(self):
        p = pyramid_over(self.SQUARE_BASE, v(F(1, 2), F(-1, 3), 1))
        assert p.centered
        assert volume(p) == F(4, 3)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_centroid_matches_projected_base(self, dim, seed):
        # generate's pyramid_over base in x_n = 0, and the same base moved
        # off center onto a tilted hyperplane that misses the apex
        factor = random_centered(dim - 1, 2 * dim, seed)
        shift = [F(seed + 1, i + 2) for i in range(dim - 1)]
        tilt = [F(i + seed, 3) for i in range(dim - 1)]
        bases = [
            [Vector(q.coords + (F(0),)) for q in factor.vertices],
            [
                Vector(tuple(x + s for x, s in zip(q.coords, shift)) + (vector(tilt).dot(q),))
                for q in factor.vertices
            ],
        ]
        apex = unit_vector(dim, dim - 1)
        pyramids = [pyramid_over(VPolytope(dim, tuple(points)), apex) for points in bases]
        assert pyramids[0] == generate(GeneratorSpec("pyramid_over", dim, seed=seed))
        for points, p in zip(bases, pyramids):
            predicted = (projected_base_centroid(points).scale(dim) + apex).scale(F(1, dim + 1))
            # pyramid_over moves the centroid to the origin
            assert apex - predicted in p.vertices


class TestRandomCentered:
    def test_exactly_centered(self):
        p = random_centered(2, 6, 1)
        assert centroid(p).is_zero()
        assert p.unit_rhs

    def test_deterministic(self):
        assert random_centered(2, 6, 1) == random_centered(2, 6, 1)
        assert random_centered(3, 8, 5) == random_centered(3, 8, 5)

    def test_small_tetrahedron(self):
        p = random_centered(3, 4, 2)
        assert len(p.vertices) == 4
        assert p.centered

    def test_needs_enough_points(self):
        with pytest.raises(ValueError):
            random_centered(3, 3, 0)

    def test_formula_across_seeds(self):
        for seed in range(8):
            p = random_centered(2, 7, seed)
            vol, total, ok = pyramid_formula_check(p)
            assert ok and vol == total


class TestJoinCentered:
    def test_skew_segments(self):
        q1 = VPolytope(3, (v(-1, 0, 1), v(1, 0, 1)))
        q2 = VPolytope(3, (v(0, -1, -1), v(0, 1, -1)))
        j = join_centered(q1, q2)
        assert volume(j) == F(4, 3)
        assert len(j.vertices) == 4
        assert j.centered
        assert detect_join_structure(j) is not None

    def test_triangle_join_point(self):
        tri = VPolytope(3, (v(1, 0, 1), v(0, 1, 1), v(-1, -1, 1)))
        pt = VPolytope(3, (v(0, 0, -1),))
        j = join_centered(tri, pt)
        assert len(j.vertices) == 4
        assert j.centered
        assert detect_join_structure(j) is not None

    def test_non_disjoint_hulls(self):
        q1 = VPolytope(2, (v(-1, 0), v(1, 0)))
        q2 = VPolytope(2, (v(0, -1), v(0, 1)))
        with pytest.raises(NotComplementary):
            join_centered(q1, q2)


class TestGenerate:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("ball", 3)
        with pytest.raises(ValueError):
            GeneratorSpec("cube", 0)
        with pytest.raises(ValueError):
            GeneratorSpec("random", 2, points=0)

    def test_dispatch_matches_direct(self):
        assert generate(GeneratorSpec("cube", 3)) == cube(3)
        assert generate(GeneratorSpec("simplex", 4)) == centered_simplex(4)
        assert generate(GeneratorSpec("random", 2, points=6, seed=1)) == random_centered(2, 6, 1)

    def test_cap_via_generate(self):
        with pytest.raises(CapExceeded, match="--dim-cap"):
            generate(GeneratorSpec("cube", 99))

    def test_low_dim_composite_kinds(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec("pyramid_over", 1))
        with pytest.raises(ValueError):
            generate(GeneratorSpec("join", 1))

    @pytest.mark.parametrize("kind", ["cube", "cross", "simplex", "random", "pyramid_over", "join"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_outputs_centered_and_consistent(self, kind, dim):
        spec = GeneratorSpec(kind, dim, seed=5)
        p = generate(spec)
        assert p.centered
        assert p.unit_rhs
        vol, total, ok = pyramid_formula_check(p)
        assert ok
        assert cone_volume_measure(p).total == vol
        assert generate(spec) == p
