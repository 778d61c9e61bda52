"""Incidence, validation and cone triangulation on integer rows, against the
Fraction arithmetic they replace.

The oracles below are the former Fraction code: tightness is ``a . v == b``
with rational dot products, ranks are ranks of the rational rows, and every
simplex volume is a rational determinant over n!.  The library now scales a
polytope once to integer rows (vertices over a common denominator D,
facets as primitive rows (g, c)), so agreement on cubes, cross-polytopes,
prisms, coplanar point sets and clouds with mixed denominators checks that
the scaling by D and by the apex weight is carried through every test.
"""
from __future__ import annotations

import dataclasses
import random
from fractions import Fraction as F
from math import factorial, gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conevol.cone_measure import cone_volume_measure
from conevol.errors import DegenerateInput, TheoremViolation
from conevol.generators import centered_simplex, cross_polytope, cube
from conevol.kernel import (
    ONE,
    Matrix,
    Vector,
    affine_hull,
    as_fraction,
    determinant,
    integer_row,
    linear_span,
    rank_of_rows,
    vector,
    zero_vector,
)
from conevol.polytope import (
    _assemble,
    _denominator_rows,
    _facet_row,
    centroid,
    convex_hull,
    face_dim,
    from_reps,
    polar,
    translate,
    translate_to_centroid,
    vertex_fan_volume_centroid,
    volume,
)
from test_kernel import oracle_in_span, oracle_rref


def _uncertified(vertices, normals, rhs):
    """:func:`from_reps` less its certificate: the polytope that
    :func:`_assemble` makes of the representations, which checks
    containment and derives incidence, and nothing more."""
    rows, scale = _denominator_rows(tuple(vertices))
    facets = [_facet_row(integer_row(a.coords + (as_fraction(b),))) for a, b in zip(normals, rhs, strict=True)]
    return _assemble(rows, scale, facets)


def oracle_incidence(p):
    return tuple(
        frozenset(j for j, v in enumerate(p.vertices) if a.dot(v) == b)
        for a, b in zip(p.normals, p.rhs)
    )


def oracle_face_dim(p, indices):
    return rank_of_rows([p.vertices[i].coords + (ONE,) for i in indices]) - 1


def oracle_vertex_ranks(p):
    return [
        rank_of_rows([p.normals[i].coords for i in range(p.facet_count) if j in p.incidence[i]])
        for j in range(len(p.vertices))
    ]


def oracle_containment(p):
    """The former containment and incidence check of ``_validate_polytope``."""
    for (a, b), tight in zip(zip(p.normals, p.rhs), p.incidence, strict=True):
        for j, v in enumerate(p.vertices):
            d = a.dot(v)
            if d > b:
                raise DegenerateInput(f"vertex {v.coords} violates facet {a.coords} <= {b}")
            if (d == b) != (j in tight):
                raise DegenerateInput("incidence table disagrees with tightness")


def oracle_coned(p, apex, *, skip_incident):
    """The former Fraction cone decomposition over ``apex``."""
    n = p.dim
    total, moment = F(0), zero_vector(n)
    for i, fs in enumerate(p.facet_structure):
        if skip_incident and any(p.vertices[j] == apex for j in p.incidence[i]):
            continue
        for simplex in fs.simplices:
            vol = abs(determinant(Matrix(tuple(p.vertices[j] - apex for j in simplex))))
            vol /= factorial(n)
            assert vol != 0
            total += vol
            csum = apex
            for j in simplex:
                csum = csum + p.vertices[j]
            moment = moment + csum.scale(vol / (n + 1))
    return total, moment.scale(1 / total)


def vertex_average(p):
    total = zero_vector(p.dim)
    for q in p.vertices:
        total = total + q
    return total.scale(F(1, len(p.vertices)))


def oracle_cone_volume(p, i):
    return sum(
        (abs(determinant(Matrix(tuple(p.vertices[j] for j in s)))) for s in p.facet_structure[i].simplices),
        F(0),
    ) / factorial(p.dim)


def _prism(n):
    return [Vector(v.coords + (h,)) for v in centered_simplex(n - 1).vertices for h in (F(-1), F(1))]


def _coplanar(n):
    """The 3^n grid: every facet of the cube holds 3^(n-1) points."""
    pts = [()]
    for _ in range(n):
        pts = [q + (x,) for q in pts for x in (F(-1), F(0), F(1))]
    return [Vector(q) for q in pts]


NAMED = {f"cube{n}": list(cube(n).vertices) for n in (2, 3, 4, 5)}
NAMED |= {f"cross{n}": list(cross_polytope(n).vertices) for n in (2, 3, 4, 5)}
NAMED |= {f"prism{n}": _prism(n) for n in (3, 4, 5)}
NAMED |= {f"grid{n}": _coplanar(n) for n in (2, 3)}
# a shift puts the origin on the boundary or outside, so facets stay in
# primitive-integer form, and mixes the denominators
SHIFTS = [None, (F(1),), (F(1, 2), F(-2, 3)), (F(-2, 3), F(1, 7), F(1, 2))]


def _shifted(pts, shift):
    if shift is None:
        return pts
    t = Vector(tuple(shift[i % len(shift)] for i in range(pts[0].dim)))
    return [q + t for q in pts]


def assert_matches_fraction_oracle(p):
    n = p.dim
    assert p.incidence == oracle_incidence(p)
    oracle_containment(p)
    assert [face_dim(p, {j}) for j in range(len(p.vertices))] == [0] * len(p.vertices)
    for tight in p.incidence:
        assert face_dim(p, tight) == oracle_face_dim(p, tight) == n - 1
    for i in range(min(p.facet_count, 4)):
        for k in range(i + 1, p.facet_count):
            ridge = p.incidence[i] & p.incidence[k]
            assert face_dim(p, ridge) == oracle_face_dim(p, ridge)
    assert oracle_vertex_ranks(p) == [n] * len(p.vertices)
    assert (volume(p), centroid(p)) == oracle_coned(p, vertex_average(p), skip_incident=False)
    for k in sorted({0, len(p.vertices) // 2, len(p.vertices) - 1}):
        fan = oracle_coned(p, p.vertices[k], skip_incident=True)
        assert vertex_fan_volume_centroid(p, k) == fan
    q = translate_to_centroid(p)
    assert q.incidence == oracle_incidence(q)
    weights = [oracle_cone_volume(q, i) for i in range(q.facet_count)]
    assert [cone_volume_measure(q).weight(i) for i in range(q.facet_count)] == weights
    assert [w for _, w in cone_volume_measure(q).atoms] == weights
    dual = polar(q)
    assert dual.incidence == oracle_incidence(dual)


@pytest.mark.parametrize("shift", SHIFTS, ids=["origin", "s1", "s2", "s3"])
@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_shapes_match_fraction_oracle(name, shift):
    assert_matches_fraction_oracle(convex_hull(_shifted(NAMED[name], shift)))


SCALES = [F(1), F(1, 2), F(-2, 3), F(1, 7)]


@st.composite
def mixed_clouds(draw):
    """Small clouds in dimensions 2-4, each coordinate an integer in [-3, 3]
    times one of 1, 1/2, -2/3 and 1/7; repeats and coplanar points are
    common."""
    n = draw(st.integers(min_value=2, max_value=4))
    size = draw(st.integers(min_value=n + 1, max_value={2: 10, 3: 9, 4: 8}[n]))
    coord = st.builds(lambda k, s: k * s, st.integers(-3, 3), st.sampled_from(SCALES))
    raw = draw(st.lists(st.tuples(*[coord] * n), min_size=size, max_size=size))
    return [Vector(r) for r in raw]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mixed_clouds())
def test_mixed_denominator_clouds_match_fraction_oracle(raw):
    if rank_of_rows([q.coords + (ONE,) for q in set(raw)]) < raw[0].dim + 1:
        with pytest.raises(DegenerateInput):
            convex_hull(raw)
        return
    p = convex_hull(raw)
    assert_matches_fraction_oracle(p)
    rows, scale = p.vertex_rows, p.denominator
    assert scale == lcm(*(x.denominator for v in p.vertices for x in v.coords))
    assert [vector(F(x, scale) for x in r) for r in rows] == list(p.vertices)


def fraction_translate(p, t):
    """The former translate: every vertex and right-hand side moved in
    Fractions, then canonicalized, with incidence derived afresh."""
    rhs = [b + a.dot(t) for a, b in zip(p.normals, p.rhs)]
    return _uncertified([q + t for q in p.vertices], p.normals, rhs)


def translations(p):
    """The centroid (origin interior after the move), a vertex and a facet
    centre (origin on the boundary), a point outside, and a mixed-denominator
    vector."""
    members = [p.vertices[j] for j in sorted(p.incidence[-1])]
    centre = sum(members[1:], members[0]).scale(F(1, len(members)))
    odd = Vector(tuple(F((-1) ** i * (i + 2), 3 + 2 * i) for i in range(p.dim)))
    return [-centroid(p), -p.vertices[0], -centre, p.vertices[-1].scale(-3), odd, zero_vector(p.dim)]


def assert_translate_matches_fraction_path(p):
    for t in translations(p):
        q, expected = translate(p, t), fraction_translate(p, t)
        assert q == expected
        assert (q.vertex_rows, q.denominator) == (expected.vertex_rows, expected.denominator)
        assert q.facet_rows == expected.facet_rows
        assert q.incidence == expected.incidence
        assert q.facet_structure == expected.facet_structure
        assert (volume(q), centroid(q)) == (volume(p), centroid(p) + t)


@pytest.mark.parametrize("shift", SHIFTS, ids=["origin", "s1", "s2", "s3"])
@pytest.mark.parametrize("name", ["cube3", "cross3", "cross4", "prism4", "grid3"])
def test_translate_matches_fraction_path(name, shift):
    assert_translate_matches_fraction_path(convex_hull(_shifted(NAMED[name], shift)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(mixed_clouds())
def test_translate_of_mixed_denominator_clouds_matches_fraction_path(raw):
    assume(rank_of_rows([q.coords + (ONE,) for q in set(raw)]) == raw[0].dim + 1)
    assert_translate_matches_fraction_path(convex_hull(raw))


# the ids keep the test names stable: "trusted" is the uncertified build
@pytest.mark.parametrize("build", [_uncertified, from_reps], ids=["trusted", "full"])
@pytest.mark.parametrize("name", ["cube3", "cross3", "prism4", "grid2"])
def test_a_violating_vertex_is_rejected(name, build):
    p = convex_hull(_shifted(NAMED[name], SHIFTS[2]))
    far = p.vertices[min(p.incidence[0])] + p.normals[0].scale(F(1, 3))
    with pytest.raises(DegenerateInput, match="violates facet"):
        build(list(p.vertices) + [far], p.normals, p.rhs)


@pytest.mark.parametrize("name", ["cube3", "cross4", "prism4", "grid2"])
def test_a_non_vertex_fails_the_rank_certificate(name):
    p = convex_hull(_shifted(NAMED[name], SHIFTS[3]))
    members = [p.vertices[j] for j in sorted(p.incidence[0])]
    mid = sum(members[1:], members[0]).scale(F(1, len(members)))
    q = _uncertified(list(p.vertices) + [mid], p.normals, p.rhs)
    assert min(oracle_vertex_ranks(q)) < q.dim
    with pytest.raises(DegenerateInput, match="is not a vertex"):
        from_reps(list(p.vertices) + [mid], p.normals, p.rhs)


@pytest.mark.parametrize("build", [_uncertified, from_reps], ids=["trusted", "full"])
@pytest.mark.parametrize("name", ["cube3", "cross3", "prism4", "grid2"])
def test_a_wrong_incidence_table_is_rejected(name, build):
    # a translate carries the face lattice over only if its derived facet
    # vertex sets are its parent's
    hull = convex_hull(_shifted(NAMED[name], SHIFTS[3]))
    p = build(hull.vertices, hull.normals, hull.rhs)
    for i in range(p.facet_count):
        off = min(set(range(len(p.vertices))) - p.incidence[i])
        for wrong in (p.incidence[i] - {min(p.incidence[i])}, p.incidence[i] | {off}):
            table = p.masks[:i] + (sum(1 << j for j in wrong),) + p.masks[i + 1:]
            bad = dataclasses.replace(p, masks=table)
            with pytest.raises(DegenerateInput):
                oracle_containment(bad)
            with pytest.raises(TheoremViolation, match="translate"):
                translate(bad, -centroid(p))


def test_rows_live_on_the_polytope():
    p = convex_hull(_shifted(NAMED["cube3"], SHIFTS[3]))
    assert p.denominator == 42
    assert sorted(p.facet_rows) == [
        ((-3, 0, 0), 5), ((0, -7, 0), 6), ((0, 0, -2), 1),
        ((0, 0, 2), 3), ((0, 7, 0), 8), ((3, 0, 0), 1),
    ]
    # the rows built from the rational views equal the hull's
    assert from_reps(p.vertices, p.normals, p.rhs) == p
    for q in (translate_to_centroid(p), polar(translate_to_centroid(p))):
        for (g, c), a, b in zip(q.facet_rows, q.normals, q.rhs):
            assert gcd(*g, c) == 1 and vector(g) == a.scale(c / b)


def test_flat_rows_are_primitive_reduced_rows():
    # each stored row is its Fraction reduced row times the least positive
    # integer that makes it integral: coprime entries, a positive pivot
    rng = random.Random(7)
    point_sets = [
        [vector([F(1, 2), 0, 1]), vector([0, F(-2, 3), 1]), vector([1, 1, F(1, 7)])],
        # the linear span ends on a negative pivot, which the canonical form flips
        [vector([-2, 1]), vector([4, -2])],
        [vector([0, F(-3, 4), F(5, 6)]), vector([0, 1, 0]), vector([0, 0, 0])],
    ] + [
        [vector([F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(n)]) for _ in range(k)]
        for n, k in [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 5)] * 5
    ]
    for pts in point_sets:
        n = pts[0].dim
        probes = pts + [vector([F(1, 4)] * n), zero_vector(n), pts[0].scale(3) - pts[-1]]
        for f, hom in ((affine_hull(pts), [ONE]), (linear_span(pts, n), [])):
            rows = [list(q.coords) + hom for q in pts]
            reduced, rank, pivots = oracle_rref(rows)
            assert len(f.rows) == rank
            for row, expected, c in zip(f.rows, reduced, pivots):
                assert all(type(x) is int for x in row)
                assert gcd(*row) == 1 and row[c] > 0 and not any(row[:c])
                assert [F(x, row[c]) for x in row] == expected
            assert f.basis == tuple(vector(row) for row in reduced[:rank])
            assert [f.contains(q) for q in probes] == [
                oracle_in_span(rows, list(q.coords) + hom) for q in probes
            ]
        shuffled = pts[::-1]
        assert affine_hull(shuffled) == affine_hull(pts)
        assert hash(affine_hull(shuffled)) == hash(affine_hull(pts))
        assert linear_span(shuffled, n) == linear_span(pts, n)
