"""Lift and tower tests.

The lift of [-1,1] is the triangle conv{(-1,1),(1,1),(0,-2)}; its facet
normals were re-derived by hand from vertex pairs before freezing.  Volume
scaling, centroid preservation, and cone-weight preservation are checked
against the independent hull/triangulation machinery, not the closed forms
under test, and the hull of the lifted vertices re-derives every lift up to
dimension 6 as an oracle.
"""
from __future__ import annotations

import gc
import random
import weakref
from fractions import Fraction as F

import pytest

from conevol.errors import CapExceeded, NotCentered, OriginNotInterior, TheoremViolation
from conevol.kernel import affine_hull, linear_span, rank_of_rows, vector
from conevol.generators import GeneratorSpec, centered_simplex, cross_polytope, cube, generate
from conevol.polytope import _facet_row, centroid, convex_hull, translate, translate_to_centroid, volume
from conevol.cone_measure import cone_volume_measure
from conevol.concentration import full_audit, linear_scc
import conevol.lifting as lifting
from conevol.lifting import (
    build_tower,
    lift_step,
    lifted_normal,
    pyramid_lift,
    tower_bound,
)


def v(*xs):
    return vector(xs)


def affine_flats(p):
    """Every proper normal-spanned affine flat of the centered polytope."""
    return [r.flat for r in full_audit(p) if r.kind == "affine"]


SEGMENT = convex_hull([v(-1), v(1)])
TRIANGLE = convex_hull([v(1, 0), v(0, 1), v(-1, -1)])
SQUARE = convex_hull([v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)])


class TestLiftStep:
    def test_frozen_values(self):
        assert lift_step(1, v(1)) == v(F(3, 2), F(-1, 2))
        assert lift_step(2, v(0, 0)) == v(0, 0, F(-1, 3))
        assert lift_step(2, lift_step(1, v(1))) == v(2, F(-2, 3), F(-1, 3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lift_step(2, v(1))
        with pytest.raises(ValueError):
            lift_step(0, v(1))


class TestLiftedNormal:
    def test_frozen_values(self):
        assert lifted_normal(v(1), 1) == v(F(3, 2), F(-1, 2))
        assert lifted_normal(v(1), 2) == v(2, F(-2, 3), F(-1, 3))
        assert lifted_normal(v(0, 0), 1) == v(0, 0, F(-1, 3))

    def test_matches_step_composition(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = vector([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            j = rng.randint(1, 10)
            composed = a
            for k in range(n, n + j):
                composed = lift_step(k, composed)
            assert lifted_normal(a, j) == composed

    def test_needs_positive_j(self):
        with pytest.raises(ValueError):
            lifted_normal(v(1, 0), 0)


@pytest.fixture(scope="module")
def segment_level_7():
    # dimension 8: its lift, level 8, lies above the verification cap
    return build_tower(SEGMENT, 7).levels[7].polytope


class TestPyramidLift:
    def test_segment_frozen(self):
        p = pyramid_lift(SEGMENT)
        assert p.vertices == (v(-1, 1), v(0, -2), v(1, 1))
        assert p.normals == (v(F(-3, 2), F(-1, 2)), v(0, 1), v(F(3, 2), F(-1, 2)))
        assert p.unit_rhs

    def test_square_volume_and_centroid(self):
        p = pyramid_lift(SQUARE)
        assert volume(p) == F(16, 3)
        assert centroid(p).is_zero()

    def test_noncentered_input_lifts_but_off_center(self):
        q = translate(SEGMENT, v(F(1, 3)))
        lifted = pyramid_lift(q)
        assert not centroid(lifted).is_zero()

    def test_needs_origin_interior(self):
        q = convex_hull([v(0, 0), v(1, 0), v(0, 1)])
        with pytest.raises(OriginNotInterior):
            pyramid_lift(q)

    def test_a_wrong_closed_form_is_a_library_bug(self, monkeypatch, segment_level_7):
        # the closed form is built trusted; the pyramid lemma catches a
        # missing facet row at level 1 and above the verification cap
        for edit in (lambda rows: rows[1:], lambda rows: rows[:-1]):  # a side row, the base row
            for q in (SEGMENT, segment_level_7):
                with pytest.raises(TheoremViolation):
                    _lift_with_edited_rows(monkeypatch, q, edit)

    def test_a_side_facet_off_the_apex_is_a_library_bug(self, monkeypatch, segment_level_7):
        # a raised right-hand side keeps containment, but its tight set
        # loses the apex
        def raise_first_side(rows):
            (g, c), *rest = rows
            return [_facet_row(list(g) + [c + 1]), *rest]

        for q in (SEGMENT, segment_level_7):
            with pytest.raises(TheoremViolation):
                _lift_with_edited_rows(monkeypatch, q, raise_first_side)


def _lift_with_edited_rows(monkeypatch, q, edit):
    """``pyramid_lift(q)`` with ``edit`` applied to the closed-form facet
    rows (the side rows in the order of the facets of ``q``, then the base
    row) before they are assembled."""
    assemble = lifting._assemble

    def edited(vertex_rows, denominator, facet_rows):
        return assemble(vertex_rows, denominator, edit(list(facet_rows)))

    with monkeypatch.context() as m:
        m.setattr(lifting, "_assemble", edited)
        return pyramid_lift(q)


def _prism():
    return convex_hull([v(*x.coords, h) for x in TRIANGLE.vertices for h in (-1, 1)])


ORACLE_CORPUS = {
    **{f"cube-{n}": lambda n=n: cube(n) for n in (1, 2, 3)},
    **{f"cross-{n}": lambda n=n: cross_polytope(n) for n in (2, 3)},
    **{f"simplex-{n}": lambda n=n: centered_simplex(n) for n in (1, 2, 3)},
    **{
        f"random-{n}-{s}": lambda n=n, s=s: generate(GeneratorSpec("random", n, seed=s))
        for n in (2, 3, 4)
        for s in (1, 2, 3)
    },
    "prism-3": _prism,
    "pyramid_over-3": lambda: generate(GeneratorSpec("pyramid_over", 3, seed=1)),
    "join-3": lambda: generate(GeneratorSpec("join", 3, seed=1)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_lift_matches_the_hull_of_the_lifted_vertices(name):
    # the hull oracle re-derives every level up to dimension 6 from the
    # lifted vertices alone, with its full certificate
    q = ORACLE_CORPUS[name]()
    while q.dim < 6:
        k = q.dim
        points = [v(*x.coords, 1) for x in q.vertices] + [v(*[0] * k, -(k + 1))]
        lifted = pyramid_lift(q)
        assert lifted == convex_hull(points)
        q = lifted


class TestTower:
    def test_segment_volumes(self):
        tower = build_tower(SEGMENT, 3)
        assert [lvl.volume for lvl in tower.levels] == [2, 3, 4, 5]
        assert [lvl.polytope.dim for lvl in tower.levels] == [1, 2, 3, 4]
        assert all(lvl.verified for lvl in tower.levels)

    def test_cone_weights_constant(self):
        tower = build_tower(TRIANGLE, 3)
        base = cone_volume_measure(TRIANGLE)
        for j in (1, 2, 3):
            lvl = tower.levels[j]
            atoms = {a: w for a, w in cone_volume_measure(lvl.polytope).atoms}
            for i in range(TRIANGLE.facet_count):
                assert atoms[lifted_normal(tower.base.normals[i], j)] == base.weight(i)

    def test_centroids_zero(self):
        tower = build_tower(SQUARE, 2)
        for lvl in tower.levels:
            assert centroid(lvl.polytope).is_zero()

    def test_trusted_levels_above_cap(self):
        tower = build_tower(SEGMENT, 8)
        assert [lvl.verified for lvl in tower.levels] == [True] * 6 + [False] * 3
        top = tower.levels[8]
        assert top.polytope.dim == 9
        assert top.volume == 10
        assert top.polytope.facet_count == SEGMENT.facet_count + 8
        # above the cap volume, centroid and weights are not re-derived, but
        # the facets are certified by the pyramid lemma and contain every vertex
        for a, b in zip(top.polytope.normals, top.polytope.rhs):
            assert all(a.dot(x) <= b for x in top.polytope.vertices)

    def test_level_count_cap(self):
        with pytest.raises(CapExceeded, match="21 levels > cap 20; .*--levels"):
            build_tower(SEGMENT, 21)

    def test_requires_centered(self):
        with pytest.raises(NotCentered):
            build_tower(translate(SEGMENT, v(F(1, 3))), 1)

    def test_lifted_span_dimension(self):
        # the lifts of the members of a d-flat span a (d+1)-subspace, every level
        tower = build_tower(TRIANGLE, 10)
        for d, members in ((0, [0]), (1, [0, 1])):
            for j in range(1, 11):
                rows = [lifted_normal(tower.base.normals[i], j).coords for i in members]
                assert rank_of_rows(rows) == d + 1


class TestTowerBound:
    def test_triangle_singleton_frozen(self):
        flat = affine_hull([v(1, 1)])
        assert tower_bound(TRIANGLE, flat, 1) == F(2, 3)

    def test_sandwich_and_monotone(self):
        flat = affine_hull([v(1, 1)])
        affine_rhs = F(1, 3) * volume(TRIANGLE)  # (d+1)/(n+1) vol
        lhs = F(1, 2)  # the one atom on the flat
        bounds = [tower_bound(TRIANGLE, flat, j) for j in range(1, 21)]
        assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(lhs <= affine_rhs <= b for b in bounds)
        assert bounds[-1] - affine_rhs == F(1, 3) * volume(TRIANGLE) / 22

    def test_matches_linear_audit_up_the_tower(self):
        # Theorem-level contract: the linear audit of the lifted span at level
        # j reproduces the closed-form bound as its rhs
        tower = build_tower(TRIANGLE, 2)
        flat = affine_hull([v(1, 1)])
        member = TRIANGLE.normals.index(v(1, 1))
        for j in (1, 2):
            lvl = tower.levels[j].polytope
            sub = linear_span([lifted_normal(tower.base.normals[member], j)], lvl.dim)
            rep = linear_scc(lvl, sub)
            assert rep.rhs == tower_bound(TRIANGLE, flat, j)
            assert rep.lhs >= cone_volume_measure(TRIANGLE).weight(member)

    def test_validation(self):
        flat = affine_hull([v(1, 1)])
        with pytest.raises(ValueError):
            tower_bound(TRIANGLE, flat, 0)
        with pytest.raises(NotCentered):
            tower_bound(translate(TRIANGLE, v(F(1, 5), 0)), flat, 1)
        improper = affine_hull([v(1, 0), v(0, 1), v(-1, 0)])
        with pytest.raises(ValueError):
            tower_bound(TRIANGLE, improper, 1)
        with pytest.raises(ValueError):
            tower_bound(TRIANGLE, affine_hull([v(1, 1, 1)]), 1)
        with pytest.raises(TypeError, match="AffineFlat"):
            tower_bound(cube(3), linear_span([v(1, 0, 0)], 3), 1)

    def test_matches_three_factor_product(self):
        # the closed form against the product it replaced, on every proper
        # affine flat of the normals and every level up to the tower cap
        shapes = [cube(3), cross_polytope(3), generate(GeneratorSpec("random", 4, 7, seed=3))]
        for p in shapes:
            n = p.dim
            for flat in affine_flats(p):
                for j in range(1, 21):
                    expected = F(flat.dim + 1, n + j) * F(n + j + 1, n + 1) * volume(p)
                    assert tower_bound(p, flat, j) == expected

    def test_memoised_bounds_equal_the_closed_form_and_still_check(self):
        p = convex_hull([v(3, 0, 0), v(0, 3, 0), v(0, 0, 3), v(-1, -1, -1), v(-1, -1, 2)])
        p = translate_to_centroid(p)
        n, vol = p.dim, volume(p)
        flats = affine_flats(p)
        assert {flat.dim for flat in flats} == {0, 1, 2}
        for _ in range(2):  # the second pass reads every bound from the memo
            for flat in flats:
                for j in range(1, 41):
                    closed = F((flat.dim + 1) * (n + j + 1), (n + j) * (n + 1)) * vol
                    assert tower_bound(p, flat, j) == closed
        assert len(p.__dict__["_tower_bounds"]) == 3 * 40
        # a flat of another ambient dimension has a memoised (dim, j) key
        with pytest.raises(ValueError, match="ambient dim"):
            tower_bound(p, affine_hull([v(1, 1)]), 1)
        # with a bound planted under its key, the whole space is still refused
        whole = affine_hull([v(1, 0, 0), v(0, 1, 0), v(0, 0, 1), v(0, 0, 0)])
        p.__dict__["_tower_bounds"][whole.dim, 1] = F(1)
        with pytest.raises(ValueError, match="proper"):
            tower_bound(p, whole, 1)
        # an off-center polytope holding every key still raises
        off = translate(p, v(1, 0, 0))
        off.__dict__["_tower_bounds"] = dict(p.__dict__["_tower_bounds"])
        with pytest.raises(NotCentered):
            tower_bound(off, flats[0], 1)

    def test_centered_cached_for_the_polytope_lifetime(self):
        p = convex_hull([v(2, 0), v(0, 2), v(-2, -2)])
        # (d+1)/(n+j) * (n+j+1)/(n+1) * vol = 1/3 * 4/3 * 6
        assert tower_bound(p, affine_hull([v(1, 1)]), 1) == F(8, 3)
        assert p.__dict__["centered"] is True
        # an off-center translate decides its own centeredness
        assert not translate(p, v(1, 0)).centered
        ref = weakref.ref(p)
        del p
        gc.collect()
        assert ref() is None
