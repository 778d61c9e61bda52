"""Acceptance suite: twelve headline guarantees, each at zero tolerance.

Corpus: 200 seeded random centered polytopes per dimension 2..4 (12/8/6
drawn points, which keeps every facet count at or under 12), the
canonical generators (cubes 1..4, cross-polytopes 2..4, simplices 2..4,
prisms over simplices in dims 3..4), plus constructed pyramid and join
pools.  Every assertion is an exact rational identity or inequality; a
single failing instance fails the build.

Each criterion is one test; run with -v for the per-criterion verdict
lines.  The audit pool is every corpus member with at most 12 facets
(only the 16-facet cross-polytope in dimension 4 sits outside it).
"""
from __future__ import annotations

import itertools
from fractions import Fraction as F
from random import Random

import pytest

from conevol.errors import DegenerateInput
from conevol.kernel import Matrix, Vector, affine_hull, determinant, linear_span, unit_vector, vector
from conevol.polytope import (
    VPolytope,
    centroid,
    convex_hull,
    is_pyramid,
    pyramid_apexes,
    section_profile_q,
    translate_to_centroid,
    vertex_fan_volume_centroid,
    volume,
)
from conevol.cone_measure import cone_volume_measure, pyramid_formula_check
from conevol.concentration import (
    affine_scc,
    equality_case_classification,
    full_audit,
    grunbaum_point_check,
    join_detection_roundtrip,
    linear_scc,
)
from conevol.lifting import lift_step, pyramid_lift, tower_bound
from conevol.generators import (
    GeneratorSpec,
    centered_simplex,
    cross_polytope,
    cube,
    generate,
    pyramid_over,
    random_centered,
)

N_PER_DIM = 200
DRAW_POINTS = {2: 12, 3: 8, 4: 6}
AUDIT_FACET_CAP = 12


def _verdict(num: int, title: str) -> None:
    print(f"[PASS] criterion {num}: {title}")


def _prism(n: int):
    """Prism over the centered simplex one dimension down, centered."""
    base = centered_simplex(n - 1)
    verts = [Vector(v.coords + (h,)) for v in base.vertices for h in (F(-1), F(1))]
    return convex_hull(verts)


def _facet_centroid(p, facet_index: int) -> Vector:
    """Area-weighted centroid of one facet, via its triangulation.

    The projection that drops a coordinate where the facet normal is
    nonzero scales all simplex areas by the same constant, so the
    weighted average is exact without ever leaving the rationals.
    """
    a = p.normals[facet_index]
    k = next(i for i, x in enumerate(a.coords) if x != 0)
    total = F(0)
    acc = [F(0)] * p.dim
    for simplex in p.facet_structure[facet_index].simplices:
        pts = [p.vertices[i] for i in simplex]
        rows = tuple(
            Vector(tuple(x for i, x in enumerate((w - pts[0]).coords) if i != k))
            for w in pts[1:]
        )
        d = abs(determinant(Matrix(rows))) if rows else F(1)
        assert d != 0
        total += d
        for c in range(p.dim):
            acc[c] += d * sum(w.coords[c] for w in pts) / len(pts)
    return Vector(tuple(x / total for x in acc))


@pytest.fixture(scope="module")
def randoms():
    return {
        n: tuple(
            random_centered(n, DRAW_POINTS[n], seed) for seed in range(N_PER_DIM)
        )
        for n in (2, 3, 4)
    }


@pytest.fixture(scope="module")
def canonical():
    polys = [cube(1)]
    for n in (2, 3, 4):
        polys += [cube(n), cross_polytope(n), centered_simplex(n)]
    polys += [_prism(3), _prism(4)]
    return tuple(polys)


@pytest.fixture(scope="module")
def everything(randoms, canonical):
    return canonical + randoms[2] + randoms[3] + randoms[4]


@pytest.fixture(scope="module")
def audited(everything):
    pool = [p for p in everything if p.facet_count <= AUDIT_FACET_CAP]
    return {p: full_audit(p) for p in pool}


@pytest.fixture(scope="module")
def pyramid_pool():
    """Centered pyramids over assorted full-dimensional bases.

    Bases are random polytopes one dimension down embedded at height 0;
    apexes sit at seeded rational positions off that hyperplane.  Two
    hand-picked instances (square base, cube base) guarantee non-simplex
    bases are present in dimensions 3 and 4.
    """
    rng = Random(2024)
    base_points = {1: 4, 2: 12, 3: 8}
    out = []
    for n, count in ((2, 8), (3, 10), (4, 6)):
        for k in range(count):
            base_poly = random_centered(n - 1, base_points[n - 1], 1000 + 10 * n + k)
            base = VPolytope(
                n, tuple(Vector(v.coords + (F(0),)) for v in base_poly.vertices)
            )
            head = tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(n - 1))
            height = F(rng.choice((1, 2, 3, 4)), rng.choice((1, 2))) * rng.choice((1, -1))
            out.append(pyramid_over(base, Vector(head + (height,))))
    square = VPolytope(3, tuple(vector((a, b, 0)) for a in (-1, 1) for b in (-1, 1)))
    out.append(pyramid_over(square, vector((0, 0, 2))))
    cube_base = VPolytope(
        4, tuple(Vector(v.coords + (F(0),)) for v in cube(3).vertices)
    )
    out.append(pyramid_over(cube_base, vector((0, 0, 0, 3))))
    return tuple(out)


def test_c01_pyramid_formula(everything, randoms):
    for n in (2, 3, 4):
        assert len(randoms[n]) >= 200
    for p in everything:
        vol, total, ok = pyramid_formula_check(p)
        assert ok and vol == total
    _verdict(1, "volume equals the cone-volume sum on the whole corpus")


def test_c02_affine_slack_nonnegative(audited):
    checked = 0
    for p, reports in audited.items():
        assert p.facet_count <= 12
        for r in reports:
            if r.kind != "affine":
                continue
            assert r.flat_dim <= p.dim - 1
            assert r.slack >= 0
            checked += 1
    assert checked > 10_000
    _verdict(2, f"affine bound holds on {checked} enumerated flats")


def test_c03_linear_slack_and_cube_equalities(audited):
    checked = 0
    for p, reports in audited.items():
        for r in reports:
            if r.kind != "linear":
                continue
            assert r.slack >= 0
            checked += 1
        full = linear_scc(p, linear_span(list(p.normals), p.dim))
        assert full.equality and full.slack == 0
    for n in (2, 3, 4):
        c = cube(n)
        for size in range(1, n):
            for coords in itertools.combinations(range(n), size):
                rep = linear_scc(c, linear_span([unit_vector(n, i) for i in coords], n))
                assert rep.equality and rep.slack == 0
                assert rep.witness is not None
                comp = rep.witness.complement
                assert comp.dim == n - size
                assert all(
                    comp.contains(unit_vector(n, i))
                    for i in range(n)
                    if i not in coords
                )
    _verdict(3, f"linear bound holds on {checked} flats; cube equalities witnessed")


def test_c04_lift_closed_form(randoms):
    # Exact closed-form checks cover the whole corpus, and the lift of every
    # base certifies its facets by the pyramid lemma.
    bases = [cube(1)]
    for n in (2, 3, 4):
        bases += [cube(n), cross_polytope(n), centered_simplex(n), *randoms[n]]
    for q in bases:
        n = q.dim
        lifted = pyramid_lift(q)
        assert lifted.unit_rhs
        assert set(lifted.normals) == {lift_step(n, a) for a in q.normals} | {
            unit_vector(n + 1, n)
        }
        assert set(lifted.vertices) == {
            Vector(v.coords + (F(1),)) for v in q.vertices
        } | {Vector((F(0),) * n + (F(-(n + 1)),))}
        assert volume(lifted) == F(n + 2, n + 1) * volume(q)
        assert centroid(lifted).is_zero()
        base_measure = cone_volume_measure(q)
        lifted_weights = {a: w for a, w in cone_volume_measure(lifted).atoms}
        for i, a in enumerate(q.normals):
            assert lifted_weights[lift_step(n, a)] == base_measure.weight(i)
        assert lifted_weights[unit_vector(n + 1, n)] == volume(q) / (n + 1)
    _verdict(4, f"lift representations, volumes, centroids, cones exact on {len(bases)} bases")


def test_c05_tower_bound_sandwich(audited):
    flats = 0
    for p, reports in audited.items():
        n = p.dim
        vol = volume(p)
        for r in reports:
            if r.kind != "affine":
                continue
            d = r.flat_dim
            affine_rhs = F(d + 1, n + 1) * vol
            assert r.rhs == affine_rhs
            bounds = [tower_bound(p, r.flat, j) for j in range(1, 21)]
            assert all(r.lhs <= affine_rhs <= b for b in bounds)
            assert all(x > y for x, y in zip(bounds, bounds[1:]))
            assert bounds[-1] - affine_rhs == F(d + 1, n + 1) * vol / (n + 20)
            flats += 1
    _verdict(5, f"tower bounds sandwich and converge on {flats} flats")


def test_c06_base_equality_characterizes_pyramids(pyramid_pool, audited):
    for p in pyramid_pool:
        for _, base_idx in pyramid_apexes(p):
            rep = affine_scc(p, affine_hull([p.normals[base_idx]]))
            assert rep.slack == 0 and rep.equality
    # perturbation leg: non-simplex bases only; perturbing a simplex
    # yields another simplex, which is again a pyramid over every facet,
    # so there is nothing to refute there
    rng = Random(77)
    perturbed = 0
    for p in pyramid_pool:
        if len(p.vertices) == p.dim + 1:
            continue
        apex_vertices = {v for v, _ in pyramid_apexes(p)}
        target = next(i for i in range(len(p.vertices)) if i not in apex_vertices)
        for _ in range(20):
            delta = vector(
                F(rng.randint(-3, 3), rng.choice((7, 11, 13))) for _ in range(p.dim)
            )
            if delta.is_zero():
                continue
            moved = list(p.vertices)
            moved[target] = moved[target] + delta
            try:
                q = translate_to_centroid(convex_hull(moved))
            except DegenerateInput:
                continue
            if is_pyramid(q) is None:
                break
        else:
            pytest.fail("no de-pyramidizing perturbation found")
        for a in q.normals:
            assert affine_scc(q, affine_hull([a])).slack > 0
        perturbed += 1
    assert perturbed >= 10
    # converse, across the audited corpus: a slack-0 singleton names a base
    for p, reports in audited.items():
        bases = {b for _, b in pyramid_apexes(p)}
        for r in reports:
            if r.kind == "affine" and r.flat_dim == 0 and r.equality:
                assert set(r.member_indices) <= bases
    _verdict(6, f"base-facet equality characterizes pyramids ({perturbed} perturbations)")


def test_c07_vertex_flat_apex(pyramid_pool, audited):
    for p in pyramid_pool:
        for v_idx, _ in pyramid_apexes(p):
            flat = affine_hull([p.normals[i] for i in p.vertex_facets[v_idx]])
            assert flat.dim == p.dim - 1
            assert affine_scc(p, flat).slack == 0
    for n in (2, 3, 4):
        c = cube(n)
        for v_idx in range(len(c.vertices)):
            flat = affine_hull([c.normals[i] for i in c.vertex_facets[v_idx]])
            assert flat.dim == n - 1
            assert affine_scc(c, flat).slack > 0
    equalities = 0
    for p in audited:
        apex_vertices = {v for v, _ in pyramid_apexes(p)}
        for v_idx in range(len(p.vertices)):
            flat = affine_hull([p.normals[i] for i in p.vertex_facets[v_idx]])
            if flat.dim != p.dim - 1:
                continue
            if affine_scc(p, flat).slack == 0:
                assert v_idx in apex_vertices
                equalities += 1
    _verdict(7, f"vertex-flat equality occurs exactly at apexes ({equalities} cases)")


def test_c08_simplices_vs_cubes_prisms(audited):
    for n in (2, 3, 4):
        s = centered_simplex(n)
        affine = [r for r in audited[s] if r.kind == "affine"]
        assert affine and all(r.slack == 0 and r.equality for r in affine)
        assert "simplex_face" in {c.kind for c in equality_case_classification(s)}
    for p in (cube(2), cube(3), cube(4), _prism(3), _prism(4)):
        affine = [r for r in audited[p] if r.kind == "affine"]
        assert affine and all(r.slack > 0 for r in affine)
        assert equality_case_classification(p) == []
    _verdict(8, "simplices saturate every flat; cubes and prisms none")


def test_c09_join_roundtrip(randoms):
    joins = []
    for n, count in ((2, 17), (3, 17), (4, 16)):
        for s in range(count):
            joins.append(generate(GeneratorSpec("join", n, seed=100 + s)))
    assert len(joins) == 50
    for j in joins:
        assert join_detection_roundtrip(j) == (True, True)
    non_joins = 0
    for n in (2, 3, 4):
        for p in randoms[n]:
            if non_joins >= 50:
                break
            direct, dual = join_detection_roundtrip(p)
            assert direct == dual
            if not direct:
                non_joins += 1
    assert non_joins >= 50
    _verdict(9, "primal and polar join detection agree on 50 joins and 50 non-joins")


def test_c10_grunbaum(everything):
    for p in everything:
        assert grunbaum_point_check(p)
    _verdict(10, "the -v/n point lies inside for every corpus vertex")


def test_c11_centroid_formula_and_additivity(pyramid_pool, everything):
    for p in pyramid_pool:
        n = p.dim
        for v_idx, base_idx in pyramid_apexes(p):
            apex = p.vertices[v_idx]
            # centered pyramid: 0 = (n c(F) + apex) / (n+1)
            assert _facet_centroid(p, base_idx) == apex.scale(F(-1, n))
    decompositions = 0
    for p in everything:
        vol, cen = volume(p), centroid(p)
        for apex_idx in (0, len(p.vertices) - 1):
            fan_vol, fan_cen = vertex_fan_volume_centroid(p, apex_idx)
            assert fan_vol == vol and fan_cen == cen
            decompositions += 1
    _verdict(11, f"pyramid centroid formula and additivity over {decompositions} fans")


def test_c12_profile_identity(pyramid_pool, everything):
    instances = []
    for p in tuple(everything) + pyramid_pool:
        if p.dim < 2:
            continue  # the identity is the 0th power in dimension 1
        found = is_pyramid(p)
        if found is not None:
            instances.append((p, found))
    assert len(instances) >= len(pyramid_pool) + 3
    for p, (apex, base_idx) in instances:
        n = p.dim
        u = p.normals[base_idx]
        uu = u.dot(u)
        alpha = F(1) / uu
        beta = u.dot(apex) / uu
        assert beta < alpha
        q_alpha = section_profile_q(p, u, alpha)
        assert q_alpha > 0
        for k in range(1, 11):
            t = alpha + F(k, 11) * (beta - alpha)
            q_t = section_profile_q(p, u, t)
            assert q_t * (beta - alpha) ** (n - 1) == q_alpha * (beta - t) ** (n - 1)
    _verdict(12, f"pyramid section profiles collapse to cones on {len(instances)} instances")
