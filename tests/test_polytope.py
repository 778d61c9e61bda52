"""Geometry core tests: hulls, conversions, volume, polarity, sections.

Frozen expected values were derived independently before being asserted:
hand-solved 2x2 systems for facet lines, shoelace areas for 2d volumes, and
the vertex-fan decomposition as a second volume/centroid oracle.
"""
from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conevol.errors import (
    CapExceeded,
    DegenerateInput,
    NotComplementary,
    OriginNotInterior,
    TheoremViolation,
    Unbounded,
)
from conevol.generators import centered_simplex, cross_polytope, random_centered
from conevol.jsonio import polytope_from_json
from conevol.kernel import ONE, ZERO, Vector, as_fraction, rank_of_rows, vector, unit_vector
from conevol.polytope import (
    VPolytope,
    _abs_det,
    _FacetStructure,
    centroid,
    contains_point,
    convex_hull,
    face_dim,
    from_reps,
    is_pyramid,
    join,
    polar,
    pyramid_apexes,
    section_profile_q,
    translate,
    translate_to_centroid,
    vertex_fan_volume_centroid,
    volume,
)
from test_acceptance import pyramid_pool  # the gate's pyramid pool, as a fixture


def v(*xs):
    return vector(xs)


def cube(n):
    pts = []
    for mask in range(2**n):
        pts.append(vector([1 if mask >> i & 1 else -1 for i in range(n)]))
    return convex_hull(pts)


# conv{(1,0),(0,1),(-1,-1)}: facet lines solved by hand from vertex pairs
TRI_VERTS = [v(1, 0), v(0, 1), v(-1, -1)]


class TestConvexHull:
    def test_triangle_normals_frozen(self):
        p = convex_hull(TRI_VERTS)
        assert p.vertices == (v(-1, -1), v(0, 1), v(1, 0))
        assert p.normals == (v(-2, 1), v(1, -2), v(1, 1))
        assert p.rhs == (F(1), F(1), F(1))
        assert p.unit_rhs

    def test_triangle_volume_centroid(self):
        p = convex_hull(TRI_VERTS)
        assert volume(p) == F(3, 2)
        assert centroid(p).is_zero()
        assert p.centered

    def test_triangle_incidence(self):
        p = convex_hull(TRI_VERTS)
        # each facet holds the two vertices it was solved from
        expect = {
            v(-2, 1): {v(-1, -1), v(0, 1)},
            v(1, -2): {v(-1, -1), v(1, 0)},
            v(1, 1): {v(0, 1), v(1, 0)},
        }
        for a, tight in zip(p.normals, p.incidence):
            assert {p.vertices[j] for j in tight} == expect[a]

    def test_interior_and_coplanar_points_dropped(self):
        extra = TRI_VERTS + [v(0, 0), v(F(1, 2), F(1, 2))]  # interior + edge midpoint
        assert convex_hull(extra) == convex_hull(TRI_VERTS)

    def test_collinear_input_degenerate(self):
        with pytest.raises(DegenerateInput):
            convex_hull([v(0, 0), v(1, 1), v(2, 2)])

    def test_too_few_points_degenerate(self):
        with pytest.raises(DegenerateInput):
            convex_hull([v(0, 0), v(1, 0)])

    def test_dim_cap(self):
        pts = [vector([0] * 7)] + [unit_vector(7, i) for i in range(7)]
        with pytest.raises(CapExceeded, match="--dim-cap .dim_cap= in the library"):
            convex_hull(pts)

    def test_segment_dim1(self):
        p = convex_hull([v(-1), v(1)])
        assert p.vertices == (v(-1), v(1))
        assert set(p.normals) == {v(-1), v(1)}
        assert volume(p) == 2
        assert centroid(p).is_zero()


class TestUnitTriangle:
    # conv{0, e_1, e_2}: centroid at the vertex average of a simplex
    def test_centroid(self):
        p = convex_hull([v(0, 0), v(1, 0), v(0, 1)])
        assert centroid(p) == v(F(1, 3), F(1, 3))
        assert not p.unit_rhs  # 0 is a vertex

    def test_translate_to_centroid(self):
        p = translate_to_centroid(convex_hull([v(0, 0), v(1, 0), v(0, 1)]))
        assert p.vertices == (
            v(F(-1, 3), F(-1, 3)),
            v(F(-1, 3), F(2, 3)),
            v(F(2, 3), F(-1, 3)),
        )
        assert p.unit_rhs
        assert volume(p) == F(1, 2)

    def test_translate_roundtrip(self):
        p = convex_hull(TRI_VERTS)
        t = v(F(3, 7), F(-2, 5))
        assert translate(translate(p, t), -t) == p


class TestConversions:
    """V to H is the hull's facet enumeration; H to V is facet-form JSON,
    whose rows <a_i, x> <= 1 are read back through polarity."""

    def test_v_to_h_square(self):
        p = convex_hull((v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)))
        assert set(p.normals) == {v(1, 0), v(-1, 0), v(0, 1), v(0, -1)}
        assert all(b == 1 for b in p.rhs)

    def test_h_to_v_square(self):
        out = polytope_from_json({"dim": 2, "normals": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
        assert set(out.vertices) == {v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)}

    def test_h_to_v_unbounded_halfplane(self):
        with pytest.raises(Unbounded):
            polytope_from_json({"dim": 2, "normals": [[1, 0]]})

    def test_h_to_v_unbounded_slab(self):
        # bounded in x, free in y
        with pytest.raises(Unbounded):
            polytope_from_json({"dim": 2, "normals": [[1, 0], [-1, 0], [0, 1]]})

    def test_h_to_v_redundant_rows_dropped(self):
        # the last row is x + y <= 5
        normals = [[1, 0], [-1, 0], [0, 1], [0, -1], ["1/5", "1/5"]]
        out = polytope_from_json({"dim": 2, "normals": normals})
        assert set(out.vertices) == {v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)}

    def test_from_reps_roundtrip_and_bad_rhs(self):
        p = convex_hull(TRI_VERTS)
        assert from_reps(p.vertices, p.normals, p.rhs) == p
        # loosening one rhs leaves that halfspace supporting nothing
        with pytest.raises(DegenerateInput):
            from_reps(p.vertices, p.normals, (F(1), F(1), F(2)))
        # dropping a facet leaves a vertex with deficient tight rank
        with pytest.raises(DegenerateInput):
            from_reps(p.vertices, p.normals[:2], p.rhs[:2])

    def test_from_reps_checks_its_input(self):
        p = convex_hull(TRI_VERTS)
        verts, normals, rhs = list(p.vertices), list(p.normals), list(p.rhs)
        with pytest.raises(ValueError, match="vertex dimension"):
            from_reps(verts + [v(0, 0, 0)], normals, rhs)
        with pytest.raises(ValueError, match="normal dimension"):
            from_reps(verts, normals + [v(1)], rhs + [1])
        with pytest.raises(DegenerateInput, match="zero normal vector"):
            from_reps(verts, normals + [v(0, 0)], rhs + [1])
        with pytest.raises(ValueError):
            from_reps(verts, normals, rhs[:-1])

    def test_from_reps_refuses_a_float_rhs(self):
        # 0.1 is no exact rational; 1.0 is one, but a float all the same
        segment = [v(-1), v(1)]
        for rhs in ([0.1, 1], [1.0, 1]):
            with pytest.raises(TypeError, match="not an exact rational"):
                from_reps(segment, [v(-1), v(1)], rhs)


class TestVolumeCentroid:
    def test_cube3(self):
        p = cube(3)
        assert p.facet_count == 6
        assert volume(p) == 8
        assert centroid(p).is_zero()

    def test_vertex_fan_matches(self):
        for p in (cube(3), convex_hull(TRI_VERTS)):
            for k in range(len(p.vertices)):
                vol, c = vertex_fan_volume_centroid(p, k)
                assert vol == volume(p)
                assert c == centroid(p)

    def test_simplex_centroid_is_vertex_average(self):
        pts = [v(0, 0, 0), v(2, 0, 0), v(0, 3, 0), v(0, 0, 4)]
        p = convex_hull(pts)
        avg = (pts[0] + pts[1] + pts[2] + pts[3]).scale(F(1, 4))
        assert centroid(p) == avg
        assert volume(p) == 4

    def test_scaling_covariance(self):
        p = convex_hull(TRI_VERTS)
        q = convex_hull([pt.scale(F(3, 2)) for pt in TRI_VERTS])
        assert volume(q) == F(3, 2) ** 2 * volume(p)
        assert centroid(q).is_zero()

    def test_abs_det_checks_the_rank(self):
        # the last pivot of these rank-2 rows is 1; only the rank says 0
        assert _abs_det([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0
        assert _abs_det([(0, 2, 0), (3, 0, 0), (0, 0, -1)]) == 6

    def test_a_flat_simplex_is_a_library_bug(self):
        p = cube(2)
        first, *rest = p.facet_structure
        p.__dict__["facet_structure"] = (_FacetStructure(((first.simplices[0][0],) * 2,)), *rest)
        with pytest.raises(TheoremViolation, match="flat simplex"):
            volume(p)


class TestContainment:
    def test_interior_boundary_outside(self):
        p = convex_hull(TRI_VERTS)
        assert contains_point(p, v(0, 0), strict=True)
        assert contains_point(p, v(1, 0))
        assert not contains_point(p, v(1, 0), strict=True)
        assert not contains_point(p, v(2, 0))


class TestPolar:
    def test_cube_cross_pair(self):
        c = cube(3)
        x = polar(c)
        assert len(x.vertices) == 6
        assert x.facet_count == 8
        assert volume(x) == F(4, 3)
        assert centroid(x).is_zero()

    def test_bipolar_identity(self):
        c = cube(3)
        assert polar(polar(c)) == c
        t = convex_hull(TRI_VERTS)
        assert polar(polar(t)) == t

    def test_polar_needs_origin_interior(self):
        with pytest.raises(OriginNotInterior):
            polar(convex_hull([v(0, 0), v(1, 0), v(0, 1)]))

    def test_polar_checks_the_polarity_lemma(self):
        # vertex i of the polar is normal i of the parent, so the polar's
        # facet masks are the parent's transposed; masks of two adjacent
        # facets swapped no longer transpose to the polar's incidence
        c = cube(3)
        masks = list(c.masks)
        masks[0], masks[1] = masks[1], masks[0]
        with pytest.raises(TheoremViolation, match="not its parent's transposed"):
            polar(dataclasses.replace(c, masks=tuple(masks)))

    def test_polar_volume_product_bound_example(self):
        # vol(C) * vol(C*) = 8 * 4/3 = 32/3 for the 3-cube pair
        c = cube(3)
        assert volume(c) * volume(polar(c)) == F(32, 3)


class NotAFace(Exception):
    """A vertex-index set does not describe a face of the polytope."""


def face_closure(p, vertex_indices):
    """(vertex set, facet set) of the smallest face containing the vertices,
    read from the incidence table: the facets containing every given vertex,
    and every vertex tight on all of them.  An empty facet set means the
    smallest containing face is the polytope itself."""
    s = frozenset(vertex_indices)
    if not s or not s <= set(range(len(p.vertices))):
        raise NotAFace(f"invalid vertex index set {sorted(s)}")
    common = frozenset(range(p.facet_count))
    for j in s:
        common &= p.vertex_facets[j]
    closure = frozenset(range(len(p.vertices)))
    for i in common:
        closure &= p.incidence[i]
    return closure, common


def polar_face(p, vertex_indices):
    """The face of ``polar(p)`` dual to a proper face of ``p``: by index
    alignment, the set of facets of ``p`` containing the face."""
    assert p.unit_rhs
    s = frozenset(vertex_indices)
    closure, common = face_closure(p, s)
    if not common:
        raise NotAFace("the whole polytope is not a proper face")
    if closure != s:
        raise NotAFace(f"not a face: closure adds vertices {sorted(closure - s)}")
    return common


class TestFaces:
    def test_face_closure_edge(self):
        c = cube(3)
        i, j = 0, 1
        assert face_dim(c, {i}) == 0
        closure, common = face_closure(c, {i})
        assert closure == {i}
        assert len(common) == 3

    def test_polar_face_dims_complementary(self):
        c = cube(3)
        # vertex -> dual facet, edge -> dual edge, facet -> dual vertex
        vert = {0}
        dual = polar_face(c, vert)
        assert face_dim(polar(c), dual) == 2
        facet_set = set(c.incidence[0])
        dual = polar_face(c, facet_set)
        assert face_dim(polar(c), dual) == 0

    def test_polar_face_involution(self):
        c = cube(3)
        for s in ({0}, set(c.incidence[2])):
            closure, _ = face_closure(c, s)
            dual = polar_face(c, closure)
            back = polar_face(polar(c), dual)
            assert back == closure

    def test_polar_face_rejects_non_faces(self):
        c = cube(3)
        # antipodal vertex pair: closure is the whole cube
        opposite = next(
            j
            for j in range(8)
            if c.vertices[j] == c.vertices[0].scale(F(-1))
        )
        with pytest.raises(NotAFace):
            polar_face(c, {0, opposite})
        with pytest.raises(NotAFace):
            polar_face(c, set(range(8)))
        with pytest.raises(NotAFace):
            face_closure(c, {99})


class TestSections:
    def test_square_profile(self):
        p = cube(2)
        e1 = v(1, 0)
        assert section_profile_q(p, e1, 0) == 2
        assert section_profile_q(p, e1, F(1, 2)) == 2
        assert section_profile_q(p, e1, 1) == 2  # boundary slice is the edge
        assert section_profile_q(p, e1, 2) == 0
        assert section_profile_q(p, e1, -2) == 0

    def test_profile_refuses_a_float_height(self):
        with pytest.raises(TypeError, match="not an exact rational"):
            section_profile_q(cube(2), v(1, 0), 0.1)

    def test_profile_direction_covariance(self):
        # the plane of (2u, t) is the plane of (u, 2t), and the 1/|u|
        # normalization halves: q_{2u}(t) = q_u(2t) / 2
        p = cube(2)
        for t in (0, F(1, 4), F(1, 2)):
            assert section_profile_q(p, v(2, 0), t) == section_profile_q(p, v(1, 0), 2 * t) / 2

    def test_section_is_capped_by_its_polytope(self):
        # the 7-dimensional section of an 8-polytope built above the default
        # cap is hulled under the polytope's own dimension: the 7-cross-
        # polytope of radius 1/2
        p = cross_polytope(8, dim_cap=9)
        assert section_profile_q(p, unit_vector(8, 0), F(1, 2)) == F(1, 5040)

    def test_section_through_one_vertex_is_zero(self):
        p = cross_polytope(7, dim_cap=7)
        assert section_profile_q(p, unit_vector(7, 0), 1) == 0
        assert section_profile_q(p, unit_vector(7, 0), F(1, 2)) == F(1, 720)

    def test_triangle_profile(self):
        p = convex_hull([v(-1, 1), v(1, 1), v(0, -2)])
        e2 = v(0, 1)
        assert section_profile_q(p, e2, 1) == 2
        assert section_profile_q(p, e2, 0) == F(4, 3)
        assert section_profile_q(p, e2, -2) == 0
        assert section_profile_q(p, e2, F(-3, 2)) == F(1, 3)


def oracle_section_profile_q(p, u, t):
    """The section profile from every pair of vertices crossed with the
    hyperplane; the hull of the section keeps the crossings on edges."""
    t = as_fraction(t)
    c = t * u.dot(u)
    svals = [u.dot(x) for x in p.vertices]
    candidates = {x for x, s in zip(p.vertices, svals) if s == c}
    for (i, x), (j, y) in itertools.combinations(enumerate(p.vertices), 2):
        si, sj = svals[i], svals[j]
        if (si < c < sj) or (sj < c < si):
            candidates.add(x + (y - x).scale((c - si) / (sj - si)))
    if not candidates:
        return ZERO
    k = next(i for i, x in enumerate(u.coords) if x != 0)
    scale = abs(u.coords[k])
    if p.dim == 1:
        return ONE / scale
    projected = [Vector(tuple(x for i, x in enumerate(pt.coords) if i != k)) for pt in candidates]
    if rank_of_rows([list(q.coords) + [ONE] for q in set(projected)]) != p.dim:
        return ZERO
    return volume(convex_hull(projected)) / scale


def _section_probes(p, rng):
    """Seeded directions, a facet normal first, each at the heights of its
    lowest, highest and one more vertex, two heights strictly inside and
    one beyond each end."""
    directions = [p.normals[0]]
    while len(directions) < 4:
        u = vector([rng.randint(-3, 3) for _ in range(p.dim)])
        if not u.is_zero():
            directions.append(u)
    for u in directions:
        levels = sorted({u.dot(x) / u.dot(u) for x in p.vertices})
        lo, hi = levels[0], levels[-1]
        heights = {lo, hi, rng.choice(levels), lo - 1, hi + F(1, 7)}
        heights |= {lo + (hi - lo) * F(rng.randint(1, 19), 20) for _ in range(2)}
        for t in sorted(heights):
            yield u, t


def test_edge_sections_match_the_all_pairs_oracle(pyramid_pool):
    # the section's vertices are the vertices on the hyperplane and the
    # crossings of the face lattice's edges: the same q as every vertex pair
    rng = random.Random(7211)
    shapes = list(pyramid_pool)
    shapes += [f(n) for n in (1, 2, 3, 4) for f in (cube, cross_polytope, centered_simplex)]
    shapes += [random_centered(n, m, seed) for n, m in ((2, 12), (3, 8), (4, 6)) for seed in range(4)]
    probes = nonzero = 0
    for p in shapes:
        for u, t in _section_probes(p, rng):
            q = section_profile_q(p, u, t)
            assert q == oracle_section_profile_q(p, u, t), (p.vertices, u, t)
            probes += 1
            nonzero += q != 0
    assert probes > 1000 and nonzero > probes // 3


class TestPyramids:
    def test_triangle_apexes(self):
        p = convex_hull([v(-1, 1), v(1, 1), v(0, -2)])
        apexes = pyramid_apexes(p)
        assert len(apexes) == 3  # every simplex vertex is an apex
        apex, base = is_pyramid(p)
        assert apex == v(-1, 1)
        assert apex.dot(p.normals[base]) < 1

    def test_square_not_pyramid(self):
        assert is_pyramid(cube(2)) is None

    def test_square_pyramid(self):
        p = convex_hull(
            [v(1, 1, 0), v(1, -1, 0), v(-1, 1, 0), v(-1, -1, 0), v(0, 0, 1)]
        )
        apex, base = is_pyramid(p)
        assert apex == v(0, 0, 1)
        assert {p.vertices[j] for j in p.incidence[base]} == {
            v(1, 1, 0),
            v(1, -1, 0),
            v(-1, 1, 0),
            v(-1, -1, 0),
        }

    def test_pyramid_profile_identity(self):
        # q scales as the (n-1)-th power of the distance to the apex plane
        p = convex_hull([v(-1, 1), v(1, 1), v(0, -2)])
        apex, base = is_pyramid(p)
        u = p.normals[base]
        alpha = F(1) / u.dot(u)
        beta = u.dot(apex) / u.dot(u)
        qa = section_profile_q(p, u, alpha)
        for k in range(1, 11):
            t = alpha + F(k, 11) * (beta - alpha)
            lhs = section_profile_q(p, u, t) * (beta - alpha)
            rhs = qa * (beta - t)
            assert lhs == rhs


class TestJoin:
    def test_segment_point_triangle(self):
        q1 = VPolytope(2, (v(-1, 0), v(1, 0)))
        q2 = VPolytope(2, (v(0, 1),))
        p = join(q1, q2)
        assert set(p.vertices) == {v(-1, 0), v(1, 0), v(0, 1)}
        assert volume(p) == 1

    def test_skew_segments_tetrahedron(self):
        q1 = VPolytope(3, (v(-1, 0, 0), v(1, 0, 0)))
        q2 = VPolytope(3, (v(0, -1, 1), v(0, 1, 1)))
        p = join(q1, q2)
        assert len(p.vertices) == 4
        assert p.facet_count == 4

    def test_crossing_segments_rejected(self):
        q1 = VPolytope(2, (v(-1, 0), v(1, 0)))
        q2 = VPolytope(2, (v(0, -1), v(0, 1)))
        with pytest.raises(NotComplementary):
            join(q1, q2)

    def test_non_extreme_factor_rejected(self):
        q1 = VPolytope(2, (v(-1, 0), v(0, 0), v(1, 0)))
        q2 = VPolytope(2, (v(0, 1),))
        with pytest.raises(DegenerateInput):
            join(q1, q2)

    def test_duplicate_factor_vertex_rejected(self):
        q1 = VPolytope(3, (v(-1, 0, 0), v(1, 0, 0), v(-1, 0, 0)))
        q2 = VPolytope(3, (v(0, -1, 1), v(0, 1, 1)))
        with pytest.raises(DegenerateInput, match="^duplicate vertices$"):
            join(q1, q2)

    def test_square_centre_factor_rejected(self):
        # the centre of the square is in the factor's own hull, so the one
        # joint hull has 6 vertices for 7 listed points
        square = VPolytope(
            4,
            (v(-1, -1, 0, 0), v(-1, 1, 0, 0), v(1, -1, 0, 0), v(1, 1, 0, 0), v(0, 0, 0, 0)),
        )
        segment = VPolytope(4, (v(0, 0, -1, 1), v(0, 0, 1, 1)))
        with pytest.raises(DegenerateInput, match="^vertex list contains non-extreme points$"):
            join(square, segment)


class TestSeededAgreement:
    def test_decompositions_agree_on_random_hulls(self):
        rng = random.Random(20260822)
        built = 0
        while built < 25:
            n = rng.choice((2, 3))
            count = rng.randint(n + 1, 7 if n == 2 else 6)
            pts = [
                vector([F(rng.randint(-10, 10), rng.choice((1, 2, 3))) for _ in range(n)])
                for _ in range(count)
            ]
            try:
                p = convex_hull(pts)
            except DegenerateInput:
                continue
            built += 1
            vol, c = vertex_fan_volume_centroid(p, built % len(p.vertices))
            assert vol == volume(p)
            assert c == centroid(p)
            for pt in pts:
                assert contains_point(p, pt)


coord = st.integers(min_value=-4, max_value=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(coord, coord), min_size=3, max_size=7, unique=True))
def test_hull_properties_2d(raw):
    pts = [v(*xy) for xy in raw]
    try:
        p = convex_hull(pts)
    except DegenerateInput:
        return
    assert set(p.vertices) <= set(pts)
    assert volume(p) > 0
    for pt in pts:
        assert contains_point(p, pt)
    # hull of the hull is itself
    assert convex_hull(p.vertices) == p


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(coord, coord, coord), min_size=4, max_size=6, unique=True
    )
)
def test_hull_properties_3d(raw):
    pts = [v(*xyz) for xyz in raw]
    try:
        p = convex_hull(pts)
    except DegenerateInput:
        return
    vol, c = vertex_fan_volume_centroid(p)
    assert vol == volume(p)
    assert c == centroid(p)
    q = polar(translate_to_centroid(p))
    assert polar(q) == translate_to_centroid(p)
