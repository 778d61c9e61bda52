"""The integer flat enumeration against the Fraction subset scan it replaced.

The oracle is the library's former enumeration, written on the Fraction
reduced row echelon form of ``test_kernel``: one reduced form for every
index subset of size at most max_dim + 1 (affine) or max_dim (linear), m
membership tests per distinct flat, and a dedupe keyed on the member set.
Each walk flat's ``basis``, its member set and their order must agree
exactly with the oracle's.  The walk builds each flat's canonical rows from
its parent's, one row at a time; the kernel's former Gauss-Jordan canonical
form of the member rows (``oracle_canonical_rows`` of ``test_kernel``), a
whole elimination, is their oracle on the gate's corpus.

``oracle_join_structure`` is the former join detection on that
enumeration: every vertex-spanned proper flat whose members and the rest
have complementary affine hulls.  The library reads the same splits from
the face lattice.
"""
from __future__ import annotations

import functools
import gc
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conevol.concentration import (
    _normal_rows,
    _spanned_flats,
    affine_scc,
    detect_join_structure,
    full_audit,
    linear_scc,
)
from conevol.generators import (
    GeneratorSpec,
    centered_simplex,
    cross_polytope,
    cube,
    generate,
    random_centered,
)
from conevol.kernel import AffineFlat, LinearSubspace, Vector, vector
from conevol.polytope import convex_hull, polar, translate_to_centroid
from test_kernel import oracle_canonical_rows, oracle_in_span, oracle_rref


def _oracle_rows(points, affine):
    return [list(q.coords) + [F(1)] if affine else list(q.coords) for q in points]


def hulls_of_subsets(points, max_dim, *, affine):
    """All distinct hulls of point subsets with dim <= max_dim, as (Fraction
    reduced row echelon basis, member set), sorted by (dim, member tuple)."""
    rows = _oracle_rows(points, affine)
    max_size = max_dim + 1 if affine else max_dim
    by_members = {}
    seen = set()
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(points)), size):
            reduced, rank, _ = oracle_rref([rows[i] for i in subset])
            basis = tuple(vector(row) for row in reduced[:rank])
            if rank - affine > max_dim or basis in seen:
                continue
            # the member set is a function of the canonical basis
            seen.add(basis)
            members = frozenset(
                i for i, row in enumerate(rows) if oracle_in_span(reduced[:rank], row)
            )
            by_members.setdefault(members, basis)
    return sorted(
        ((basis, members) for members, basis in by_members.items()),
        key=lambda pair: (len(pair[0]), tuple(sorted(pair[1]))),
    )


def oracle_join_structure(p):
    """detect_join_structure as it read before, on the oracle enumeration."""
    verts = p.vertices
    count = len(verts)
    splits = []
    seen = set()
    rows = _oracle_rows(verts, True)
    for basis, members in hulls_of_subsets(verts, p.dim - 1, affine=True):
        assert len(members) < count
        rest = frozenset(range(count)) - members
        key = frozenset({members, rest})
        if key in seen:
            continue
        seen.add(key)
        other, rank, _ = oracle_rref([rows[i] for i in rest])
        # complementary hulls: the homogenized spans add up directly to R^(n+1)
        stacked = [list(b.coords) for b in basis] + other[:rank]
        if len(stacked) != p.dim + 1 or oracle_rref(stacked)[1] != p.dim + 1:
            continue
        first, second = (members, rest) if 0 in members else (rest, members)
        splits.append((tuple(sorted(first)), tuple(sorted(second))))
    return min(splits, default=None)


def _prism(n):
    """Prism over the centered simplex one dimension down, centered."""
    base = centered_simplex(n - 1)
    verts = [Vector(v.coords + (h,)) for v in base.vertices for h in (F(-1), F(1))]
    return convex_hull(verts)


NORMAL_SETS = [
    list(f(n).normals)
    for n in (2, 3, 4)
    for f in (cube, cross_polytope, centered_simplex)
] + [list(_prism(n).normals) for n in (3, 4)]


@st.composite
def point_sets(draw):
    """Integer points in a small box in dimensions 2-4, where repeated,
    collinear and coplanar points are common (and the origin appears), or
    the normals of a cube, cross-polytope, simplex or prism; scaled by a
    common rational so the integer rows must clear denominators."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=4))
        size = draw(st.integers(min_value=1, max_value={2: 9, 3: 8, 4: 7}[n]))
        coord = st.integers(min_value=-2, max_value=2)
        raw = draw(st.lists(st.tuples(*[coord] * n), min_size=size, max_size=size))
        pts = [vector(r) for r in raw]
    else:
        pts = draw(st.sampled_from(NORMAL_SETS))
    scale = draw(st.sampled_from([F(1), F(1, 2), F(-2, 3)]))
    return [p.scale(scale) for p in pts]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_sets(), st.booleans())
def test_spanned_flats_match_subset_scan(pts, affine):
    n = pts[0].dim
    kind = AffineFlat if affine else LinearSubspace
    rows = [kind.row_of(q) for q in pts]
    for max_dim in range(n + 1):
        spans = _spanned_flats(rows, max_dim + affine)
        walk = [(kind(n, canonical), members) for canonical, members in spans]
        expected = hulls_of_subsets(pts, max_dim, affine=affine)
        assert [(flat.basis, members) for flat, members in walk] == expected
        assert [flat.dim for flat, _ in walk] == [len(basis) - affine for basis, _ in expected]


def _generated(kind, n, seed=0):
    return f"{kind}-{n}-{seed}", lambda: generate(GeneratorSpec(kind, n, None, seed))


JOIN_CASES = (
    [_generated(kind, n, seed) for kind in ("join", "pyramid_over", "random")
     for n in (2, 3, 4) for seed in range(3)]
    + [_generated(kind, 3) for kind in ("cube", "cross", "simplex")]
    + [_generated(kind, 4) for kind in ("cube", "cross", "simplex")]
    + [_generated("simplex", 5)]
    + [(f"prism-{n}", lambda n=n: _prism(n)) for n in (3, 4)]
)


@pytest.mark.parametrize(
    "make, dual",
    [(make, dual) for _, make in JOIN_CASES for dual in (False, True)],
    ids=[name + ("-polar" if dual else "") for name, _ in JOIN_CASES for dual in (False, True)],
)
def test_join_detection_matches_oracle(make, dual):
    p = polar(make()) if dual else make()
    if dual and len(p.vertices) > 16:
        pytest.skip("the Fraction oracle scans every vertex subset of size <= n")
    assert detect_join_structure(p) == oracle_join_structure(p)


def _seeded_random_4():
    return generate(GeneratorSpec("random", 4, 7, 3))


@pytest.mark.parametrize(
    "make",
    [lambda: cube(3), lambda: cube(4), lambda: cross_polytope(3),
     lambda: translate_to_centroid(_prism(4)), _seeded_random_4],
    ids=["cube3", "cube4", "cross3", "prism4", "random4"],
)
def test_full_audit_equals_public_audits(make):
    # the member sets full_audit passes through equal the public recomputation
    p = make()
    reports = full_audit(p)
    assert reports
    assert reports == [
        affine_scc(p, r.flat) if r.kind == "affine" else linear_scc(p, r.flat)
        for r in reports
    ]


def test_full_audit_leaves_no_reference_cycle():
    # the walk keeps its nodes on an explicit stack, so everything an audit
    # makes is freed by reference counting alone
    for p in (random_centered(3, 8, 1), cube(3), cross_polytope(3)):
        full_audit(p)  # fills the polytope's caches
        del p.__dict__["_walks"]  # so that the measured audit walks again
        gc.collect()
        gc.disable()
        try:
            full_audit(p)
            assert gc.collect() == 0
        finally:
            gc.enable()


@functools.cache
def gate_corpus():
    """The acceptance gate's corpus: cubes 1-4, cross-polytopes 2-4,
    simplices 2-4, prisms over simplices in dimensions 3-4 and 200 seeded
    random centered polytopes in each dimension 2-4 (12, 8 and 6 points);
    plus the 5-cube."""
    shapes = [cube(1)]
    for n in (2, 3, 4):
        shapes += [cube(n), cross_polytope(n), centered_simplex(n)]
    shapes += [_prism(3), _prism(4), cube(5)]
    shapes += [random_centered(n, m, seed) for n, m in ((2, 12), (3, 8), (4, 6)) for seed in range(200)]
    return tuple(shapes)


def test_incremental_canonical_rows_match_elimination():
    # every flat of both kinds, the whole space included: the rows the walk
    # carries down equal the canonical form of all the flat's member rows
    flats = 0
    for p in gate_corpus():
        for kind in (AffineFlat, LinearSubspace):
            rows = _normal_rows(p, kind)
            for canonical, members in _spanned_flats(rows, p.dim + kind.homogenizing):
                assert canonical == oracle_canonical_rows([rows[i] for i in sorted(members)])
                flats += 1
    assert flats > 80000
