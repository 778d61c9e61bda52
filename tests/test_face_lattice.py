"""The face lattice read from the incidence table, against independent oracles.

The oracle triangulates each facet the way the library once did: drop a
coordinate where the facet normal is nonzero (an affine bijection of the
facet onto a full-dimensional polytope one dimension down), take the hull
of the image and fan it from its lexicographically smallest vertex,
recursing through the facets of that hull.  It shares nothing with the
pulling triangulation but the subset-scan hull, so exact agreement of
volume, centroid and every cone weight is a real cross-check: all three
are invariants of the triangulation.
"""
from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from conevol.cone_measure import cone_volume_measure
from conevol.errors import DegenerateInput
from conevol.generators import centered_simplex, cross_polytope, cube
from conevol.kernel import Matrix, Vector, affine_hull, determinant, vector, zero_vector
from conevol.polytope import (
    centroid,
    convex_hull,
    from_reps,
    translate_to_centroid,
    volume,
)


def projected_facet_simplices(p, facet_index):
    """Triangulation of one facet by recursive projected hulls, as
    n-tuples of vertex indices of ``p``."""
    members = sorted(p.incidence[facet_index])
    if p.dim == 1:
        return ((members[0],),)
    k = next(i for i, x in enumerate(p.normals[facet_index].coords) if x != 0)
    back = {tuple(x for i, x in enumerate(p.vertices[j].coords) if i != k): j for j in members}
    sub = convex_hull([Vector(c) for c in back])
    assert len(sub.vertices) == len(members)
    return tuple(
        tuple(back[sub.vertices[s].coords] for s in simplex) for simplex in fan_triangulation(sub)
    )


def fan_triangulation(p):
    """Cone vertex 0 over the projected triangulations of the facets that miss it."""
    if p.dim == 1:
        return ((0, len(p.vertices) - 1),)
    return tuple(
        s + (0,)
        for i, tight in enumerate(p.incidence)
        if 0 not in tight
        for s in projected_facet_simplices(p, i)
    )


def vertex_average(p):
    """The interior point the library cones at, from the Fraction vertices."""
    total = zero_vector(p.dim)
    for q in p.vertices:
        total = total + q
    return total.scale(F(1, len(p.vertices)))


def oracle_cones(p, apex):
    """Per facet, (volume, moment) of conv({apex} u facet) from the oracle."""
    n = p.dim
    out = []
    for i in range(p.facet_count):
        vol, moment = F(0), zero_vector(n)
        for simplex in projected_facet_simplices(p, i):
            s_vol = abs(determinant(Matrix(tuple(p.vertices[j] - apex for j in simplex))))
            s_vol /= factorial(n)
            csum = apex
            for j in simplex:
                csum = csum + p.vertices[j]
            vol += s_vol
            moment = moment + csum.scale(s_vol / (n + 1))
        out.append((vol, moment))
    return out


def _prism(n):
    """Prism over the centered simplex one dimension down."""
    return [Vector(v.coords + (h,)) for v in centered_simplex(n - 1).vertices for h in (F(-1), F(1))]


SHAPES = [list(f(n).vertices) for n in (2, 3, 4) for f in (cube, cross_polytope)]
SHAPES += [_prism(3), _prism(4)]


@st.composite
def point_sets(draw):
    """Small-box integer clouds in dimensions 2-4 (coplanar points are
    common at this box size), or a shifted cube, cross-polytope or prism."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=4))
        size = draw(st.integers(min_value=n + 1, max_value={2: 9, 3: 8, 4: 7}[n]))
        coord = st.integers(min_value=-2, max_value=2)
        raw = draw(st.lists(st.tuples(*[coord] * n), min_size=size, max_size=size, unique=True))
        return [vector(r) for r in raw]
    pts = draw(st.sampled_from(SHAPES))
    shift = vector(draw(st.tuples(*[st.integers(min_value=-3, max_value=3)] * pts[0].dim)))
    return [q + shift for q in pts]


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_pulling_triangulation_matches_projected_oracle(pts):
    assume(affine_hull(pts).dim == pts[0].dim)
    p = convex_hull(pts)
    cones = oracle_cones(p, vertex_average(p))
    total = sum(vol for vol, _ in cones)
    moment = zero_vector(p.dim)
    for _, m in cones:
        moment = moment + m
    assert volume(p) == total
    assert centroid(p) == moment.scale(1 / total)
    q = translate_to_centroid(p)
    weights = [vol for vol, _ in oracle_cones(q, zero_vector(q.dim))]
    assert [w for _, w in cone_volume_measure(q).atoms] == weights


@pytest.mark.parametrize("n", [3, 4])
def test_full_certificate_rejects_a_missing_facet(n):
    c = cross_polytope(n)
    for drop in range(c.facet_count):
        normals = c.normals[:drop] + c.normals[drop + 1:]
        rhs = [1] * len(normals)
        # containment and incidence still agree, so trusted cannot see the gap
        from_reps(c.vertices, normals, rhs, validate="trusted")
        with pytest.raises(DegenerateInput):
            from_reps(c.vertices, normals, rhs, validate="full")


def test_pulling_triangulation_of_cube_facets():
    # each square facet of the 3-cube: four edges read from the incidence
    # table, two triangles through its smallest vertex index, pulled last
    c = cube(3)
    for tight, fs in zip(c.incidence, c.facet_structure):
        assert len(c._facets_of(tight)) == 4
        assert all(len(edge) == 2 for edge in c._facets_of(tight))
        assert len(fs.simplices) == 2
        assert all(len(s) == 3 and s[-1] == min(tight) for s in fs.simplices)
        assert set().union(*fs.simplices) == tight
