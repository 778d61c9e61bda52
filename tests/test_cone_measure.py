"""Cone-volume measure tests.

Frozen values: facet cones of the square are right triangles of area 1
(apex 0, base an edge of length 2 at distance 1); the centered triangle
conv{(1,0),(0,1),(-1,-1)} splits into three cones of area 1/2 each
(hand shoelace on (0,0),(1,0),(0,1) for the facet with normal (1,1)).
"""
from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conevol.errors import OriginNotInterior
from conevol.kernel import vector
from conevol.polytope import convex_hull, translate_to_centroid, volume
from conevol.cone_measure import (
    cone_volume_measure,
    pyramid_formula_check,
)


def v(*xs):
    return vector(xs)


SQUARE = convex_hull([v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)])
TRIANGLE = convex_hull([v(1, 0), v(0, 1), v(-1, -1)])
SEGMENT = convex_hull([v(-1), v(1)])


def facet_index(p, normal):
    return p.normals.index(normal)


class TestConeVolume:
    def test_square_facet(self):
        assert cone_volume_measure(SQUARE).weight(facet_index(SQUARE, v(1, 0))) == 1

    def test_triangle_facet(self):
        assert cone_volume_measure(TRIANGLE).weight(facet_index(TRIANGLE, v(1, 1))) == F(1, 2)

    def test_segment_facet(self):
        assert cone_volume_measure(SEGMENT).weight(facet_index(SEGMENT, v(1))) == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cone_volume_measure(SQUARE).weight(17)

    def test_needs_origin_interior(self):
        shifted = convex_hull([v(0, 0), v(1, 0), v(0, 1)])
        with pytest.raises(OriginNotInterior):
            cone_volume_measure(shifted).weight(0)


class TestMeasure:
    def test_square_atoms(self):
        m = cone_volume_measure(SQUARE)
        assert [w for _, w in m.atoms] == [F(1)] * 4
        assert m.total == 4
        assert [a for a, _ in m.atoms] == list(SQUARE.normals)

    def test_triangle_atoms(self):
        m = cone_volume_measure(TRIANGLE)
        assert [w for _, w in m.atoms] == [F(1, 2)] * 3
        assert m.total == F(3, 2)

    def test_segment_atoms(self):
        m = cone_volume_measure(SEGMENT)
        assert {tuple(a.coords): w for a, w in m.atoms} == {
            (F(1),): F(1),
            (F(-1),): F(1),
        }
        assert m.total == 2

    def test_weights_positive(self):
        for p in (SQUARE, TRIANGLE, SEGMENT):
            assert all(w > 0 for _, w in cone_volume_measure(p).atoms)

    def test_needs_origin_interior(self):
        shifted = convex_hull([v(0, 0), v(1, 0), v(0, 1)])
        with pytest.raises(OriginNotInterior):
            cone_volume_measure(shifted)

    def test_cached_for_the_polytope_lifetime(self):
        p = convex_hull([v(2, 0), v(0, 2), v(-2, -2)])
        m = cone_volume_measure(p)
        assert cone_volume_measure(p) is m
        # an equal but distinct polytope computes its own measure
        assert cone_volume_measure(convex_hull(p.vertices)) is not m
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None


class TestPyramidFormula:
    def test_square(self):
        assert pyramid_formula_check(SQUARE) == (4, 4, True)

    def test_triangle(self):
        assert pyramid_formula_check(TRIANGLE) == (F(3, 2), F(3, 2), True)

    def test_seeded_random(self):
        rng = random.Random(1)
        built = 0
        while built < 10:
            pts = [
                vector([F(rng.randint(-10, 10), rng.choice((1, 2, 3))) for _ in range(3)])
                for _ in range(10)
            ]
            try:
                p = translate_to_centroid(convex_hull(pts))
            except Exception:
                continue
            built += 1
            lhs, rhs, equal = pyramid_formula_check(p)
            assert equal and lhs == rhs == volume(p)


def facet_cone_functional(p, facet_indices, x):
    """sum over i of (1 - <a_i, x>) * vol(C_i), an affine function of x read
    from the cone-volume measure.

    Over the full facet index set it equals the volume at x = 0 and drops
    by <x, sum a_i vol(C_i)> elsewhere.
    """
    facet_indices = list(facet_indices)
    if not facet_indices or len(set(facet_indices)) != len(facet_indices):
        raise ValueError("need distinct facet indices")
    atoms = cone_volume_measure(p).atoms
    return sum(((1 - atoms[i][0].dot(x)) * atoms[i][1] for i in facet_indices), F(0))


class TestFunctional:
    def test_at_origin_equals_cone_volume(self):
        i = facet_index(SQUARE, v(1, 0))
        assert facet_cone_functional(SQUARE, [i], v(0, 0)) == 1

    def test_on_facet_vanishes(self):
        i = facet_index(SQUARE, v(1, 0))
        assert facet_cone_functional(SQUARE, [i], v(1, 0)) == 0

    def test_at_shared_vertex_vanishes(self):
        x = v(1, 0)
        tight = [i for i, a in enumerate(TRIANGLE.normals) if a.dot(x) == 1]
        assert len(tight) == 2
        assert facet_cone_functional(TRIANGLE, tight, x) == 0

    def test_all_facets_at_origin_is_volume(self):
        for p in (SQUARE, TRIANGLE, SEGMENT):
            assert facet_cone_functional(
                p, range(p.facet_count), vector([0] * p.dim)
            ) == volume(p)

    def test_affine_in_x(self):
        xs = (v(F(1, 3), F(-1, 2)), v(F(-2, 5), F(1, 7)))
        lam = F(2, 3)
        mid = xs[0].scale(lam) + xs[1].scale(1 - lam)
        idx = [0, 2]
        f = lambda x: facet_cone_functional(SQUARE, idx, x)
        assert f(mid) == lam * f(xs[0]) + (1 - lam) * f(xs[1])

    def test_rejects_empty_and_repeats(self):
        with pytest.raises(ValueError):
            facet_cone_functional(SQUARE, [], v(0, 0))
        with pytest.raises(ValueError):
            facet_cone_functional(SQUARE, [1, 1], v(0, 0))


class TestScalingCovariance:
    def test_weights_scale_by_nth_power(self):
        lam = F(3, 2)
        scaled = convex_hull([p.scale(lam) for p in TRIANGLE.vertices])
        m0 = cone_volume_measure(TRIANGLE)
        m1 = cone_volume_measure(scaled)
        # normals rescale to a/lam; match atoms through that bijection
        w1 = {a: w for a, w in m1.atoms}
        for a, w in m0.atoms:
            assert w1[a.scale(1 / lam)] == lam**2 * w
        assert m1.total == lam**2 * m0.total


coord = st.integers(min_value=-5, max_value=5)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=8, unique=True))
def test_pyramid_formula_property(raw):
    pts = [v(*xy) for xy in raw]
    try:
        p = translate_to_centroid(convex_hull(pts))
    except Exception:
        return
    lhs, rhs, equal = pyramid_formula_check(p)
    assert equal and lhs == rhs
