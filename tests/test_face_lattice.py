"""The face lattice read from the incidence table, against independent oracles.

The oracle triangulates each facet the way the library once did: drop a
coordinate where the facet normal is nonzero (an affine bijection of the
facet onto a full-dimensional polytope one dimension down), take the hull
of the image and fan it from its lexicographically smallest vertex,
recursing through the facets of that hull.  It shares nothing with the
pulling triangulation but the subset-scan hull, so exact agreement of
volume, centroid and every cone weight is a real cross-check: all three
are invariants of the triangulation.

The library runs the face lattice on int bit masks (bit j is vertex j).
The frozenset lattice it replaced is kept here as an oracle, and both must
read the same facets of every face, the same proper faces and the same
simplices of every facet, with equal volume, centroid and measure.

The completeness certificate reads every face dimension from the face lattice;
the certificate it replaced, which takes each one by an elimination, is
kept here as its oracle.  Both visit facets and ridges in descending mask
order, and must accept and reject the same inputs with the same message.
"""
from __future__ import annotations

import itertools
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from conevol.cone_measure import cone_volume_measure
from conevol.errors import DegenerateInput
from conevol.generators import GeneratorSpec, centered_simplex, cross_polytope, cube, generate, random_centered
from conevol.kernel import Matrix, Vector, affine_hull, determinant, rank_of_rows, vector, zero_vector
from conevol.polytope import (
    _FacetStructure,
    _members,
    centroid,
    convex_hull,
    face_dim,
    from_reps,
    translate_to_centroid,
    volume,
)
from test_integer_rows import NAMED, SHIFTS, _shifted, _uncertified


def mask(face):
    return sum(1 << j for j in face)


def descending(faces):
    """Vertex sets in descending mask order: a set is larger than another
    when it holds the largest vertex index in which the two differ, which
    is the order of the sets' vertex tuples sorted downwards."""
    return sorted(faces, key=lambda face: sorted(face, reverse=True), reverse=True)


class FrozensetLattice:
    """The face lattice on frozensets of vertex indices, as the library
    read it before bit masks: the oracle of ``Polytope._facets_of``,
    ``_triangulate`` and ``_faces``."""

    def __init__(self, p):
        self.p, self.facet_lists, self.triangulations = p, {}, {}

    def facets_of(self, face):
        if face not in self.facet_lists:
            cuts = {face & tight for tight in self.p.incidence if not face <= tight}
            cuts.discard(frozenset())
            self.facet_lists[face] = tuple(c for c in cuts if not any(c < d for d in cuts))
        return self.facet_lists[face]

    def faces(self):
        faces = set()
        stack = [frozenset(range(len(self.p.vertices)))]
        while stack:
            for g in self.facets_of(stack.pop()):
                if g not in faces:
                    faces.add(g)
                    if len(g) > 1:
                        stack.append(g)
        return frozenset(faces)

    def triangulate(self, face):
        if face not in self.triangulations:
            apex = min(face)
            self.triangulations[face] = ((apex,),) if len(face) == 1 else tuple(
                s + (apex,)
                for g in self.facets_of(face)
                if apex not in g
                for s in self.triangulate(g)
            )
        return self.triangulations[face]


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
    """The former completeness certificate: each face dimension it checks is the
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
    certify_by_elimination(p, FrozensetLattice(p), everything, n, set())


def certify_by_elimination(p, lattice, face, dim, done):
    if face in done:
        return
    facets = descending(lattice.facets_of(face))
    if dim == 1:
        if len(facets) != 2:
            raise DegenerateInput(f"edge {sorted(face)} has {len(facets)} endpoints, expected 2")
    else:
        for g in facets:
            if face_dim(p, g) != dim - 1:
                raise DegenerateInput(f"face {sorted(g)} is not a facet of face {sorted(face)}")
            certify_by_elimination(p, lattice, g, dim - 1, done)
        for ridge in descending({r for g in facets for r in lattice.facets_of(g)}):
            owners = sum(1 for g in facets if ridge <= g)
            if owners != 2:
                raise DegenerateInput(f"ridge {sorted(ridge)} lies in {owners} facets, expected 2")
    done.add(face)


def certificate_verdicts(vertices, normals, rhs):
    """(library message, oracle message) of the completeness certificate
    on the given representations; None where it accepts."""

    def verdict(check):
        try:
            check()
        except DegenerateInput as exc:
            return str(exc)
        return None

    library = verdict(lambda: from_reps(vertices, normals, rhs))
    oracle = verdict(lambda: elimination_certificate(_uncertified(vertices, normals, rhs)))
    return library, oracle


def redundant_halfspace(n):
    """The n-cube with the halfspace sum(x) / n <= 1, tight at one vertex."""
    c = cube(n)
    return c.vertices, list(c.normals) + [vector([F(1, n)] * n)], list(c.rhs) + [1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_full_certificate_rejects_a_redundant_halfspace(n):
    vertices, normals, rhs = redundant_halfspace(n)
    # containment and incidence agree, so only the certificate sees the extra row
    _uncertified(vertices, normals, rhs)
    with pytest.raises(DegenerateInput, match="does not support a facet"):
        from_reps(vertices, normals, rhs)


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
        # containment and incidence still agree, so only the certificate sees the gap
        _uncertified(c.vertices, normals, rhs)
        with pytest.raises(DegenerateInput):
            from_reps(c.vertices, normals, rhs)


def test_pulling_triangulation_of_cube_facets():
    # each square facet of the 3-cube: four edges read from the incidence
    # masks, two triangles through its smallest vertex index, pulled last
    c = cube(3)
    for tight, fs in zip(c.incidence, c.facet_structure):
        assert len(c._facets_of(mask(tight))) == 4
        assert all(edge.bit_count() == 2 for edge in c._facets_of(mask(tight)))
        assert len(fs.simplices) == 2
        assert all(len(s) == 3 and s[-1] == min(tight) for s in fs.simplices)
        assert set().union(*fs.simplices) == tight


GATE_CORPUS = (
    [(f"cube{n}", cube, (n,)) for n in (1, 2, 3, 4)]
    + [(f"{f.__name__}{n}", f, (n,)) for n in (2, 3, 4) for f in (cross_polytope, centered_simplex)]
    + [(f"prism{n}", lambda n: convex_hull(_prism(n)), (n,)) for n in (3, 4)]
    + [(f"random{n}x{m}s{seed}", random_centered, (n, m, seed))
       for n, m in ((2, 12), (3, 8), (4, 6)) for seed in range(4)]
    + [(f"{kind}{n}s{seed}", lambda *spec: generate(GeneratorSpec(*spec)), (kind, n, None, seed))
       for kind in ("pyramid_over", "join") for n in (3, 4) for seed in (0, 1, 2)]
)
"""The acceptance gate's kinds at its sizes, a few seeds of each."""


def assert_lattice_matches_frozenset_oracle(p):
    oracle = FrozensetLattice(p)
    everything = frozenset(range(len(p.vertices)))
    assert {frozenset(_members(g)) for g in p._faces} == oracle.faces()
    for face in oracle.faces() | {everything}:
        assert {frozenset(j for j in face if g >> j & 1) for g in p._facets_of(mask(face))} == set(
            oracle.facets_of(face)
        )
    for tight, fs in zip(p.incidence, p.facet_structure, strict=True):
        assert set(fs.simplices) == set(oracle.triangulate(tight))
    # the same sums over the oracle's simplices, on a fresh copy of p
    q = _uncertified(p.vertices, p.normals, p.rhs)
    q.__dict__["facet_structure"] = tuple(_FacetStructure(oracle.triangulate(t)) for t in q.incidence)
    assert (volume(q), centroid(q)) == (volume(p), centroid(p))
    if p.unit_rhs:
        assert cone_volume_measure(q) == cone_volume_measure(p)


@pytest.mark.parametrize("build, args", [c[1:] for c in GATE_CORPUS], ids=[c[0] for c in GATE_CORPUS])
def test_mask_lattice_matches_frozenset_oracle_on_gate_corpus(build, args):
    p = build(*args)
    assert_lattice_matches_frozenset_oracle(p)
    assert_lattice_matches_frozenset_oracle(translate_to_centroid(convex_hull(
        [v + vector([F(1, 3)] * p.dim) for v in p.vertices]
    )))


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_mask_lattice_matches_frozenset_oracle_on_clouds(pts):
    assume(affine_hull(pts).dim == pts[0].dim)
    p = convex_hull(pts)
    assert_lattice_matches_frozenset_oracle(p)
    assert_lattice_matches_frozenset_oracle(translate_to_centroid(p))


def test_descending_is_mask_order():
    sets = [frozenset(s) for r in range(5) for s in itertools.combinations(range(4), r)]
    assert [mask(s) for s in descending(sets)] == sorted(map(mask, sets), reverse=True)
