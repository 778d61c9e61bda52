"""The face lattice read from the incidence table, against independent oracles.

The oracle triangulates each facet the way the library once did: drop a
coordinate where the facet normal is nonzero (an affine bijection of the
facet onto a full-dimensional polytope one dimension down), take the hull
of the image and fan it from its lexicographically smallest vertex,
recursing through the facets of that hull.  It shares nothing with the
pulling triangulation but the subset-scan hull, so exact agreement of
volume, centroid and every cone weight is a real cross-check: all three
are invariants of the triangulation.

The ``full`` certificate reads every face dimension from the face lattice;
the certificate it replaced, which takes each one by an elimination, is
kept here as its oracle.  Both must accept and reject the same inputs with
the same message.
"""
from __future__ import annotations

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from conevol.cone_measure import cone_volume_measure
from conevol.errors import DegenerateInput
from conevol.generators import centered_simplex, cross_polytope, cube
from conevol.kernel import Matrix, Vector, affine_hull, determinant, rank_of_rows, vector, zero_vector
from conevol.polytope import (
    centroid,
    convex_hull,
    face_dim,
    from_reps,
    translate_to_centroid,
    volume,
)
from test_integer_rows import NAMED, SHIFTS, _shifted


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


def elimination_certificate(p):
    """The former ``full`` certificate: each face dimension it checks is the
    rank of the face's homogenized vertex rows, one elimination per face."""
    n = p.dim
    everything = frozenset(range(len(p.vertices)))
    rank = face_dim(p, everything)
    if rank != n:
        raise DegenerateInput(f"affine rank {rank} < ambient dimension {n}")
    for j, tight_facets in enumerate(p.vertex_facets):
        if rank_of_rows([p.normals[i].coords for i in tight_facets]) != n:
            raise DegenerateInput(f"point {p.vertices[j].coords} is not a vertex (tight rank < {n})")
    for i, tight in enumerate(p.incidence):
        if face_dim(p, tight) != n - 1:
            raise DegenerateInput(f"halfspace {i} does not support a facet")
    certify_by_elimination(p, everything, n, set())


def certify_by_elimination(p, face, dim, done):
    if face in done:
        return
    facets = p._facets_of(face)
    if dim == 1:
        if len(facets) != 2:
            raise DegenerateInput(f"edge {sorted(face)} has {len(facets)} endpoints, expected 2")
    else:
        for g in facets:
            if face_dim(p, g) != dim - 1:
                raise DegenerateInput(f"face {sorted(g)} is not a facet of face {sorted(face)}")
            certify_by_elimination(p, g, dim - 1, done)
        for ridge in {r for g in facets for r in p._facets_of(g)}:
            owners = sum(1 for g in facets if ridge <= g)
            if owners != 2:
                raise DegenerateInput(f"ridge {sorted(ridge)} lies in {owners} facets, expected 2")
    done.add(face)


def certificate_verdicts(vertices, normals, rhs):
    """(library message, oracle message) of the ``full`` certificate on the
    given representations; None where it accepts."""

    def verdict(check):
        try:
            check()
        except DegenerateInput as exc:
            return str(exc)
        return None

    library = verdict(lambda: from_reps(vertices, normals, rhs, validate="full"))
    oracle = verdict(lambda: elimination_certificate(from_reps(vertices, normals, rhs, validate="trusted")))
    return library, oracle


def redundant_halfspace(n):
    """The n-cube with the halfspace sum(x) / n <= 1, tight at one vertex."""
    c = cube(n)
    return c.vertices, list(c.normals) + [vector([F(1, n)] * n)], list(c.rhs) + [1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_certificate_rejects_a_redundant_halfspace(n):
    vertices, normals, rhs = redundant_halfspace(n)
    # containment and incidence agree, so trusted cannot see the extra row
    from_reps(vertices, normals, rhs, validate="trusted")
    with pytest.raises(DegenerateInput, match="does not support a facet"):
        from_reps(vertices, normals, rhs, validate="full")


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_certificate_matches_elimination_oracle(pts):
    assume(affine_hull(pts).dim == pts[0].dim)
    p = convex_hull(pts)
    assert certificate_verdicts(p.vertices, p.normals, p.rhs) == (None, None)
    # a hull less one facet is rejected, with the same message
    for drop in range(p.facet_count):
        library, oracle = certificate_verdicts(
            p.vertices, p.normals[:drop] + p.normals[drop + 1:], p.rhs[:drop] + p.rhs[drop + 1:]
        )
        assert library is not None and library == oracle


def test_certificate_rejections_match_elimination_oracle():
    cases = []
    for n in (3, 4):
        c = cross_polytope(n)
        for drop in range(c.facet_count):
            normals = c.normals[:drop] + c.normals[drop + 1:]
            cases.append((c.vertices, normals, [1] * len(normals)))
    cases += [redundant_halfspace(n) for n in (2, 3, 4)]
    # a redundant point: the centre of a facet, listed as a vertex
    for name in ("cube3", "cross4", "prism4", "grid2"):
        p = convex_hull(_shifted(NAMED[name], SHIFTS[3]))
        members = [p.vertices[j] for j in sorted(p.incidence[0])]
        mid = sum(members[1:], members[0]).scale(F(1, len(members)))
        cases.append((list(p.vertices) + [mid], p.normals, p.rhs))
    for vertices, normals, rhs in cases:
        library, oracle = certificate_verdicts(vertices, normals, rhs)
        assert library is not None and library == oracle


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
