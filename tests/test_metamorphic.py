"""Metamorphic self-checks: audits commute with invertible linear maps.

An invertible rational map T carries a centered polytope P to T·P, the hull
of the mapped vertices, which is centered again (its centroid is T·0 = 0)
and has volume |det T| vol(P).  The facet <a, x> = 1 of P with vertex set S
becomes the facet <T^-T a, y> = 1 of T·P with vertex set T(S), so the
normals move by the linear map T^-T, and their homogenized rows (a, 1) by
T^-T (+) 1.  Linear maps keep spans, ranks and complements, so each
normal-spanned flat of either kind has the image member set and the same
dimension, and each witness the image complement.  Every facet cone moves
by T, so each cone volume, vol(P), and with them every report's lhs, rhs
and slack scale by |det T|; equality and the equality cases (pyramid bases,
apexes, faces of simple polytopes) carry over.  The pyramid lift puts P
at height 1 under a fixed apex, so lift(T·P) = (T (+) 1)·lift(P), and level
j of the tower of T·P is (T (+) I_j)·(level j of the tower of P).  A
permutation of the input vertices changes nothing: the hull is canonical,
and the audit documents are byte-identical.

None of this is used by the library, so the checks are independent of its
code paths: a walk, a weight or a classification that depended on the
coordinates rather than on the combinatorics and the measure would fail.
"""
from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from conevol.concentration import equality_case_classification, full_audit
from conevol.generators import GeneratorSpec, generate
from conevol.jsonio import dumps, equality_case_to_json, report_to_json
from conevol.kernel import determinant, matrix, vector
from conevol.lifting import build_tower, pyramid_lift
from conevol.polytope import convex_hull, volume
from test_flat_enumeration import gate_corpus

SPECS = [GeneratorSpec("cube", n) for n in (2, 3, 4)]
SPECS += [GeneratorSpec("cross", n) for n in (2, 3)]
SPECS += [GeneratorSpec("random", n, m, seed) for n, m in ((2, 7), (3, 7), (4, 6)) for seed in (1, 2)]
SPECS += [GeneratorSpec("pyramid_over", n, seed=seed) for n in (3, 4) for seed in (1, 2)]


def invertible_map(n, rng):
    """A seeded n x n rational matrix with nonzero determinant."""
    while True:
        rows = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        det = determinant(matrix(rows))
        if det:
            return rows, det


def apply(rows, v):
    return vector(sum(a * x for a, x in zip(row, v.coords)) for row in rows)


def mapped(p, rows):
    """T·P with the vertex and facet index maps of P into T·P."""
    image = convex_hull([apply(rows, v) for v in p.vertices])
    where = {w: k for k, w in enumerate(image.vertices)}
    vertex_map = [where[apply(rows, v)] for v in p.vertices]
    facet_of = {members: k for k, members in enumerate(image.incidence)}
    facet_map = [facet_of[frozenset(vertex_map[j] for j in s)] for s in p.incidence]
    return image, vertex_map, facet_map


def moved_reports(reports, facet_map, scale):
    """Each report's fields, keyed by (kind, members), as the image's
    report must read them: indices moved by ``facet_map``, measures scaled."""
    moved = {}
    for r in reports:
        witness = None
        if r.witness is not None:
            witness = frozenset(facet_map[i] for i in r.witness.complement_indices)
        members = frozenset(facet_map[i] for i in r.member_indices)
        moved[r.kind, members] = (
            r.flat_dim, r.lhs * scale, r.rhs * scale, r.slack * scale, r.equality, witness
        )
    return moved


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_audits_commute_with_invertible_maps(spec):
    p = generate(spec)
    rng = random.Random(f"metamorphic/{spec}")
    reports, cases = full_audit(p), equality_case_classification(p)
    for _ in range(2):
        rows, det = invertible_map(p.dim, rng)
        scale = abs(det)
        image, vertex_map, facet_map = mapped(p, rows)
        assert image.centered
        assert volume(image) == scale * volume(p)
        image_reports = full_audit(image)
        assert len(image_reports) == len(reports)
        unmoved = range(image.facet_count)
        assert moved_reports(image_reports, unmoved, 1) == moved_reports(reports, facet_map, scale)
        expected_cases = sorted(
            (
                c.kind,
                None if c.facet_index is None else facet_map[c.facet_index],
                None if c.apex_index is None else vertex_map[c.apex_index],
                sorted(facet_map[i] for i in c.report.member_indices),
                c.report.lhs * scale,
            )
            for c in cases
        )
        image_cases = sorted(
            (c.kind, c.facet_index, c.apex_index, sorted(c.report.member_indices), c.report.lhs)
            for c in equality_case_classification(image)
        )
        assert image_cases == expected_cases
        lifted = [row + [F(0)] for row in rows] + [[F(0)] * p.dim + [F(1)]]
        assert pyramid_lift(image) == convex_hull([apply(lifted, w) for w in pyramid_lift(p).vertices])


def gate_sample():
    """The acceptance gate's corpus less most random polytopes: every
    canonical shape, then the first 20 of the 200 seeded random polytopes
    of each dimension 2-4, which close the corpus in that order."""
    corpus = gate_corpus()
    shapes, randoms = corpus[:-600], corpus[-600:]
    return shapes + tuple(p for start in (0, 200, 400) for p in randoms[start : start + 20])


def test_towers_commute_with_invertible_maps():
    # one seeded map per polytope; the levels above dimension 6 are built
    # from the closed form, unverified, and must map all the same
    sample = gate_sample()
    for index, p in enumerate(sample):
        rows, det = invertible_map(p.dim, random.Random(f"tower/{index}"))
        image, _, _ = mapped(p, rows)
        tower, image_tower = build_tower(p, 3), build_tower(image, 3)
        for level, image_level in zip(tower.levels, image_tower.levels):
            j = level.level
            lifted = [row + [F(0)] * j for row in rows]
            lifted += [[F(0)] * (p.dim + k) + [F(1)] + [F(0)] * (j - k - 1) for k in range(j)]
            expected = convex_hull([apply(lifted, w) for w in level.polytope.vertices], dim_cap=p.dim + j)
            assert image_level.polytope == expected, (index, j)
            assert image_level.volume == abs(det) * level.volume
            assert image_level.verified == level.verified
    assert len(sample) == 73


def audit_document(p):
    return dumps(
        {
            "reports": [report_to_json(r) for r in full_audit(p)],
            "equality_cases": [equality_case_to_json(c) for c in equality_case_classification(p)],
        }
    )


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_audit_documents_ignore_the_vertex_order(spec):
    p = generate(spec)
    rng = random.Random(f"permuted/{spec}")
    vertices = list(p.vertices)
    rng.shuffle(vertices)
    q = convex_hull(vertices)
    assert q == p
    assert audit_document(q) == audit_document(p)
