"""Concentration audit tests.

The centered triangle conv{(1,0),(0,1),(-1,-1)} is the workhorse equality
example: all three cone weights are 1/2, so every singleton flat attains
lhs = 1/2 = rhs = (0+1)/(2+1) * 3/2, and every two-normal line attains
lhs = 1 = rhs = 2/3 * 3/2.  The square is the workhorse strict/linear
example: affine bounds are strict everywhere while span{e_1} and span{e_2}
split the normal set and attain the linear bound.
"""
from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction as F

import pytest

from conevol.errors import NotCentered, TheoremViolation, TooManyFacets
import conevol.kernel as kernel
from conevol.kernel import AffineFlat, affine_hull, linear_span, vector
from conevol.generators import GeneratorSpec, centered_simplex, cube, generate, random_centered
from conevol.jsonio import report_to_json
from conevol.polytope import (
    convex_hull,
    face_dim,
    polar,
    pyramid_apexes,
    translate,
    translate_to_centroid,
    volume,
)
from conevol.cone_measure import cone_volume_measure
import conevol.concentration as concentration
from conevol.concentration import (
    _proper_faces_of_simple,
    affine_scc,
    detect_join_structure,
    equality_case_classification,
    full_audit,
    grunbaum_point_check,
    is_simple,
    join_detection_roundtrip,
    linear_scc,
)
from test_flat_enumeration import gate_corpus


def v(*xs):
    return vector(xs)


def make_square():
    return convex_hull([v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)])


def make_triangle():
    return convex_hull([v(1, 0), v(0, 1), v(-1, -1)])


def make_cube3():
    pts = [vector([x, y, z]) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    return convex_hull(pts)


def random_centered(n, count, seed):
    rng = random.Random(seed)
    while True:
        pts = [
            vector([F(rng.randint(-10, 10), rng.choice((1, 2, 3))) for _ in range(n)])
            for _ in range(count)
        ]
        try:
            return translate_to_centroid(convex_hull(pts))
        except Exception:
            continue


class TestLinear:
    def test_square_coordinate_split(self):
        rep = linear_scc(make_square(), [v(1, 0)])
        assert (rep.lhs, rep.rhs, rep.equality) == (2, 2, True)
        assert rep.witness is not None
        assert rep.witness.complement.contains(v(0, 1))
        assert rep.witness.complement.dim == 1

    def test_triangle_strict(self):
        rep = linear_scc(make_triangle(), [v(1, 1)])
        assert (rep.lhs, rep.rhs, rep.equality) == (F(1, 2), F(3, 4), False)
        assert rep.witness is None

    def test_whole_space_trivial_equality(self):
        rep = linear_scc(make_square(), [v(1, 0), v(0, 1)])
        assert (rep.lhs, rep.rhs, rep.equality) == (4, 4, True)
        assert rep.witness is not None
        assert rep.witness.complement.dim == 0
        assert rep.witness.complement_indices == frozenset()
        # the zero subspace, the other extreme: no mass, bound 0
        rep = linear_scc(make_square(), [])
        assert (rep.lhs, rep.rhs, rep.equality, rep.flat_dim) == (0, 0, True, 0)
        assert rep.witness is not None
        assert rep.witness.complement.dim == 2
        assert rep.witness.complement_indices == frozenset(range(4))

    def test_accepts_prebuilt_subspace(self):
        sub = linear_span([v(0, 1)], 2)
        rep = linear_scc(make_square(), sub)
        assert rep.equality and rep.flat == sub

    def test_not_centered(self):
        p = translate(make_square(), v(F(1, 3), 0))
        with pytest.raises(NotCentered):
            linear_scc(p, [v(1, 0)])

    def test_vector_of_another_dimension_is_named(self):
        message = "vector 1 has dimension 3, expected 2"
        with pytest.raises(ValueError, match=re.escape(message)):
            linear_scc(make_square(), [v(0, 1), v(1, 0, 0)])


def test_linear_equality_without_a_complementary_split_raises(monkeypatch):
    # a linear equality holds iff the normals split across the subspace and
    # a complement (Henk and Linke, Adv. Math. 2014), so on centered input
    # one whose remaining normals span no complement is a library bug; the
    # affine witness is only an attempt, and its absence is no violation;
    # cube(2) is a new object, whose walk has not been kept, so it runs
    # under the patch
    monkeypatch.setattr(concentration, "complementary", lambda a, b: False)
    message = "linear equality at normals [0, 3] without a complementary split"
    with pytest.raises(TheoremViolation, match=re.escape(message)):
        full_audit(cube(2))
    rep = affine_scc(make_triangle(), affine_hull([v(1, 1)]))
    assert rep.equality and rep.witness is None


class TestAffine:
    def test_triangle_singleton_equality_with_witness(self):
        tri = make_triangle()
        rep = affine_scc(tri, affine_hull([v(1, 1)]))
        assert (rep.lhs, rep.rhs, rep.equality) == (F(1, 2), F(1, 2), True)
        w = rep.witness
        assert w is not None
        assert w.complement.dim == 1
        assert w.complement.contains(v(-2, 1)) and w.complement.contains(v(1, -2))
        assert rep.member_indices | w.complement_indices == frozenset(range(3))

    def test_square_strict(self):
        sq = make_square()
        rep = affine_scc(sq, affine_hull([v(1, 0)]))
        assert (rep.lhs, rep.rhs) == (1, F(4, 3))
        rep = affine_scc(sq, affine_hull([v(1, 0), v(0, 1)]))
        assert (rep.lhs, rep.rhs) == (2, F(8, 3))
        assert rep.flat_dim == 1

    def test_rejects_improper_flat(self):
        sq = make_square()
        with pytest.raises(ValueError):
            affine_scc(sq, affine_hull([v(1, 0), v(0, 1), v(-1, 0)]))
        with pytest.raises(TypeError, match="AffineFlat"):
            affine_scc(cube(3), linear_span([v(1, 0, 0)], 3))

    def test_witness_split_sums_to_volume(self):
        tri = make_triangle()
        for i in range(3):
            rep = affine_scc(tri, affine_hull([tri.normals[i]]))
            w = rep.witness
            other = affine_scc(tri, w.complement)
            assert other.equality
            assert rep.lhs + other.lhs == volume(tri)

    def test_monotone_in_flat(self):
        tri = make_triangle()
        small = affine_scc(tri, affine_hull([v(1, 1)]))
        big = affine_scc(tri, affine_hull([v(1, 1), v(-2, 1)]))
        assert small.lhs <= big.lhs

    def test_line_x_equals_one_holds_its_normal(self):
        # the line x = 1 holds the normal (1, 0) of the square's facet 3,
        # whose cone weight is 1; its rows ((1, 1, 1), (1, 0, 1)) are not
        # canonical, and a flat of them is refused rather than audited
        rep = affine_scc(cube(2), affine_hull([v(1, 1), v(1, 0)]))
        assert (rep.member_indices, rep.lhs) == (frozenset({3}), 1)
        with pytest.raises(ValueError, match="canonical form"):
            affine_scc(cube(2), AffineFlat(2, ((1, 1, 1), (1, 0, 1))))


def affine_reports(p, max_flat_dim=None, **kwargs):
    return [r for r in full_audit(p, max_flat_dim, **kwargs) if r.kind == "affine"]


class TestEnumeration:
    # the normal-spanned affine flats, read from full_audit's affine reports;
    # the whole-space flat is covered by test_spanned_flats_match_subset_scan
    def test_triangle_closure_counts(self):
        tri = make_triangle()
        assert [r.flat_dim for r in affine_reports(tri)] == [0, 0, 0, 1, 1, 1]
        assert [r.flat_dim for r in affine_reports(tri, 0)] == [0, 0, 0]

    def test_square_pair_count_matches_brute_force(self):
        sq = make_square()
        flats = affine_reports(sq)
        assert len(flats) == 10  # 4 singletons + 6 lines, no collinear merges
        # brute force: distinct member sets over all nonempty subsets
        seen = set()
        for size in (1, 2):
            for sub in itertools.combinations(range(4), size):
                flat = affine_hull([sq.normals[i] for i in sub])
                if flat.dim > 1:
                    continue
                members = frozenset(
                    i for i in range(4) if flat.contains(sq.normals[i])
                )
                seen.add(members)
        assert len(seen) == 10
        assert {r.member_indices for r in flats} == seen

    def test_cube_coordinate_planes_merge(self):
        # coordinate planes absorb 4 of the 6 normals each; sign planes hold 3
        c = make_cube3()
        flats = affine_reports(c)
        assert len([r for r in flats if r.flat_dim == 0]) == 6
        assert len([r for r in flats if r.flat_dim == 1]) == 15
        planes = [r.flat for r in flats if r.flat_dim == 2]
        assert len(planes) == 11
        four = [
            f for f in planes if sum(f.contains(a) for a in c.normals) == 4
        ]
        assert len(four) == 3

    def test_facet_cap(self):
        tri = make_triangle()
        with pytest.raises(TooManyFacets):
            full_audit(tri, facet_cap=2)

    def test_needs_centered(self):
        with pytest.raises(NotCentered):
            full_audit(convex_hull([v(0, 0), v(1, 0), v(0, 1)]))


class TestFullAudit:
    def test_triangle_slacks(self):
        reports = full_audit(make_triangle())
        assert all(r.slack >= 0 for r in reports)
        zero = [r for r in reports if r.kind == "affine" and r.flat_dim == 0]
        assert len(zero) == 3 and all(r.slack == 0 for r in zero)

    def test_square_pattern(self):
        reports = full_audit(make_square())
        affine = [r for r in reports if r.kind == "affine"]
        linear = [r for r in reports if r.kind == "linear"]
        assert affine and all(r.slack > 0 for r in affine)
        eq_lines = [r for r in linear if r.equality and r.flat_dim == 1]
        assert len(eq_lines) == 2  # span{e1} and span{e2}
        assert all(r.witness is not None for r in eq_lines)

    def test_random_centered_all_nonnegative(self):
        p = random_centered(3, 8, 7)
        reports = full_audit(p)
        assert reports and all(r.slack >= 0 for r in reports)

    @pytest.mark.parametrize(
        "make",
        [lambda: cube(3), lambda: centered_simplex(3), lambda: random_centered(3, 8, 1)],
        ids=["cube3", "simplex3", "random3"],
    )
    def test_max_flat_dim_is_clamped_below_the_dimension(self, make):
        # only proper flats are audited: a flat of dimension n is the whole space
        p = make()
        assert full_audit(p, p.dim) == full_audit(p, p.dim + 3) == full_audit(p)


class TestGrunbaum:
    def test_triangle_and_cube(self):
        assert grunbaum_point_check(make_triangle())
        assert grunbaum_point_check(make_cube3())

    def test_random(self):
        assert grunbaum_point_check(random_centered(4, 6, 3))

    def test_not_centered(self):
        with pytest.raises(NotCentered):
            grunbaum_point_check(translate(make_square(), v(F(1, 5), 0)))


class TestJoinDetection:
    def test_triangle_splits(self):
        tri = make_triangle()
        # deterministic: vertex 0 side first, lexicographically least split
        assert detect_join_structure(tri) == ((0,), (1, 2))

    def test_square_none(self):
        assert detect_join_structure(make_square()) is None

    def test_square_pyramid_found(self):
        p = translate_to_centroid(
            convex_hull(
                [v(1, 1, 0), v(1, -1, 0), v(-1, 1, 0), v(-1, -1, 0), v(0, 0, 1)]
            )
        )
        # the apex sits between the base vertices in lexicographic order
        assert p.vertices[2] == v(0, 0, F(3, 4))
        assert detect_join_structure(p) == ((0, 1, 3, 4), (2,))

    def test_roundtrip_booleans(self):
        assert join_detection_roundtrip(make_triangle()) == (True, True)
        assert join_detection_roundtrip(make_square()) == (False, False)
        assert join_detection_roundtrip(make_cube3()) == (False, False)

    def test_roundtrip_on_skew_segment_join(self):
        p = translate_to_centroid(
            convex_hull([v(-1, 0, 0), v(1, 0, 0), v(0, -1, 1), v(0, 1, 1)])
        )
        assert join_detection_roundtrip(p) == (True, True)

    def test_roundtrip_with_origin_off_center(self):
        # join structure survives translation: a vertex at the origin and a
        # square with the origin outside still get an answer from both sides
        assert join_detection_roundtrip(convex_hull([v(0, 0), v(1, 0), v(0, 1)])) == (True, True)
        square = convex_hull([v(1, 1), v(1, 2), v(2, 1), v(2, 2)])
        assert join_detection_roundtrip(square) == (False, False)


class TestEqualityClassification:
    def test_triangle_all_kinds(self):
        cases = equality_case_classification(make_triangle())
        kinds = sorted(c.kind for c in cases)
        assert kinds.count("pyramid_base") == 3
        assert kinds.count("pyramid_apex") == 3
        assert kinds.count("simplex_face") == 3

    def test_cube_empty(self):
        assert equality_case_classification(make_cube3()) == []
        assert is_simple(make_cube3())

    def test_square_pyramid_base_and_apex(self):
        p = translate_to_centroid(
            convex_hull(
                [v(1, 1, 0), v(1, -1, 0), v(-1, 1, 0), v(-1, -1, 0), v(0, 0, 1)]
            )
        )
        cases = equality_case_classification(p)
        base_cases = [c for c in cases if c.kind == "pyramid_base"]
        apex_cases = [c for c in cases if c.kind == "pyramid_apex"]
        assert len(base_cases) == 1
        assert len(apex_cases) == 1
        base_facet = base_cases[0].facet_index
        assert len(p.incidence[base_facet]) == 4
        apex = p.vertices[apex_cases[0].apex_index]
        assert len(p.vertex_facets[apex_cases[0].apex_index]) == p.facet_count - 1
        assert base_cases[0].report.slack == 0
        assert apex_cases[0].report.slack == 0
        # not simple at the apex, so no simplex-face sweep applies
        assert not is_simple(p)

    def test_prism_empty(self):
        # triangle cross segment: simple, not a simplex, so everything strict
        tri = make_triangle()
        pts = [vector(list(p.coords) + [s]) for p in tri.vertices for s in (-1, 1)]
        prism = convex_hull(pts)
        assert is_simple(prism)
        assert equality_case_classification(prism) == []


def make_square_pyramid():
    return translate_to_centroid(
        convex_hull([v(1, 1, 0), v(1, -1, 0), v(-1, 1, 0), v(-1, -1, 0), v(0, 0, 1)])
    )


class TestClassificationChecks:
    """Each characterization is checked in both directions: on the centered
    square pyramid, a structure that disagrees with the bound raises,
    naming the case kind and the flat's normals.  A vertex flat that is not
    a hyperplane raises too."""

    @staticmethod
    def assert_raises(p, kind, members):
        message = f"{kind}: equality at normals {sorted(members)}"
        with pytest.raises(TheoremViolation, match=re.escape(message)):
            equality_case_classification(p)

    def test_missing_pyramid_raises_on_the_base_facet(self, monkeypatch):
        p = make_square_pyramid()
        ((_, base),) = pyramid_apexes(p)
        monkeypatch.setattr(concentration, "pyramid_apexes", lambda q: ())
        self.assert_raises(p, "pyramid_base", {base})

    def test_fake_apex_raises_on_that_vertex(self, monkeypatch):
        p = make_square_pyramid()
        ((apex, base),) = pyramid_apexes(p)
        fake = min(p.incidence[base])
        monkeypatch.setattr(
            concentration, "pyramid_apexes", lambda q: ((apex, base), (fake, base))
        )
        self.assert_raises(p, "pyramid_apex", p.vertex_facets[fake])

    def test_simple_claim_raises_on_the_base_face(self, monkeypatch):
        p = make_square_pyramid()
        ((_, base),) = pyramid_apexes(p)
        monkeypatch.setattr(concentration, "is_simple", lambda q: True)
        self.assert_raises(p, "simplex_face", {base})

    def test_vertex_flat_below_a_hyperplane_raises(self):
        # drop one tight facet of a cube vertex from the cached table: its
        # two remaining normals span a line, not the hyperplane flat
        p = make_cube3()
        tight = sorted(p.vertex_facets[0])[:2]
        p.__dict__["vertex_facets"] = (frozenset(tight),) + p.vertex_facets[1:]
        message = f"pyramid_apex: tight normals {tight} span no hyperplane flat"
        with pytest.raises(TheoremViolation, match=re.escape(message)):
            equality_case_classification(p)


def subset_scan_faces_of_simple(p):
    """The former face enumeration for simple polytopes: every subset of
    size 1..n-1 of the n facets at each vertex, deduped, kept when its facets
    meet in a face of dimension 1..n-1."""
    faces = set()
    for tight in p.vertex_facets:
        for size in range(1, p.dim):
            faces.update(frozenset(s) for s in itertools.combinations(sorted(tight), size))
    out = []
    for facet_set in sorted(faces, key=lambda s: (len(s), tuple(sorted(s)))):
        members = frozenset.intersection(*(p.incidence[i] for i in facet_set))
        if members and 1 <= face_dim(p, members) <= p.dim - 1:
            out.append(facet_set)
    return out


def simple_shapes():
    """Cubes and simplices in dimensions 2-5, prisms over simplices in
    dimensions 3-4, and seeded random simple polytopes in dimensions 2-4:
    polars of centered random hulls, kept when simple."""
    shapes = [cube(n) for n in range(2, 6)] + [centered_simplex(n) for n in range(2, 6)]
    for n in (3, 4):
        base = centered_simplex(n - 1).vertices
        shapes.append(convex_hull([vector(list(b.coords) + [h]) for b in base for h in (-1, 1)]))
    seed = 0
    while len(shapes) < 50:
        n = 2 + seed % 3
        p = polar(random_centered(n, n + 4, seed))
        seed += 1
        if is_simple(p):
            shapes.append(p)
    return shapes


def test_faces_of_simple_match_subset_scan():
    shapes = simple_shapes()
    assert all(is_simple(p) for p in shapes)
    for p in shapes:
        assert _proper_faces_of_simple(p) == subset_scan_faces_of_simple(p)


def classification_corpus():
    """Cubes, cross-polytopes and simplices in dimensions 2-4, prisms over
    simplices in dimensions 3-4, seeded pyramids and joins in dimensions 3-4
    and seeded random polytopes in dimensions 2-4."""
    specs = [GeneratorSpec(kind, n) for kind in ("cube", "cross", "simplex") for n in (2, 3, 4)]
    specs += [GeneratorSpec(kind, n, seed=s) for kind in ("pyramid_over", "join") for n in (3, 4) for s in (1, 2)]
    specs += [GeneratorSpec("random", n, 2 * n + 2, seed=s) for n in (2, 3, 4) for s in (1, 2, 3)]
    shapes = [generate(spec) for spec in specs]
    for n in (3, 4):
        base = centered_simplex(n - 1).vertices
        shapes.append(convex_hull([vector(list(b.coords) + [h]) for b in base for h in (-1, 1)]))
    return shapes


def test_classification_member_sets_match_membership(monkeypatch):
    # the classification decides each check by _weigh on member sets read
    # from the face lattice and their rank; each set must equal the set the
    # membership test finds in the affine hull of its normals, the rank must
    # be that flat's, and no membership test or re-audit may run inside the
    # classification; the corpus is built anew, since a polytope keeps its
    # equality cases and a classified one would not reach the patches
    real_weigh = concentration._weigh
    passed = []

    def recording_weigh(width, rank, members, dets, whole):
        passed.append((members, rank))
        return real_weigh(width, rank, members, dets, whole)

    def forbidden(*args, **kwargs):
        raise AssertionError("classification re-audits a flat")

    kinds = set()
    for p in classification_corpus():
        passed.clear()
        with monkeypatch.context() as m:
            m.setattr(concentration, "_weigh", recording_weigh)
            m.setattr(concentration, "affine_scc", forbidden)
            m.setattr(concentration, "_flat_members", forbidden)
            cases = equality_case_classification(p)
        assert len(passed) >= p.facet_count
        for members, rank in passed:
            flat = affine_hull([p.normals[i] for i in members])
            assert members == frozenset(i for i, a in enumerate(p.normals) if flat.contains(a))
            assert rank == len(flat.rows)
        for case in cases:
            kinds.add(case.kind)
            assert case.report == affine_scc(p, case.report.flat)
    assert kinds == {"pyramid_base", "pyramid_apex", "simplex_face"}


def test_reports_build_their_flat_only_when_read(monkeypatch):
    # a report keeps its canonical rows: a whole audit written as JSON builds
    # no flat object unless an equality needs its flat and complement
    built = []
    real_post_init = kernel._Span.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    p = random_centered(3, 8, 1)
    with monkeypatch.context() as m:
        m.setattr(kernel._Span, "__post_init__", counting_post_init)
        reports = full_audit(p)
        [report_to_json(r) for r in reports]
        assert len(reports) == 104 and not any(r.equality for r in reports)
        assert built == []
        cube_reports = full_audit(make_cube3())
        [report_to_json(r) for r in cube_reports]
        equalities = sum(r.equality for r in cube_reports)
        assert equalities == 6 and len(built) == 2 * equalities
    for r in reports:
        assert r.flat is r.flat
        audit = affine_scc if r.kind == "affine" else linear_scc
        assert r.flat == audit(p, r.flat).flat
        assert r.flat_dim == r.flat.dim


class TestPolarInteraction:
    def test_polar_of_centered_triangle_audits(self):
        # the polar of the centered simplex is again centered (simplex duality)
        tri = make_triangle()
        dual = translate_to_centroid(polar(tri))
        reports = full_audit(dual)
        assert all(r.slack >= 0 for r in reports)


def test_measure_cache_consistency():
    tri = make_triangle()
    assert cone_volume_measure(tri) is cone_volume_measure(tri)
    rebuilt = convex_hull([v(1, 0), v(0, 1), v(-1, -1)])
    assert cone_volume_measure(rebuilt).total == F(3, 2)


def fraction_report(p, flat, members):
    """(lhs, rhs, slack, equality) in the Fraction arithmetic _report used
    before it read the measure's integer weights."""
    measure = cone_volume_measure(p)
    lhs = sum((measure.weight(i) for i in members), F(0))
    rhs = F(len(flat.rows), flat.width) * measure.total
    return lhs, rhs, rhs - lhs, lhs == rhs


def test_integer_sums_match_fraction_sums():
    # every report of both kinds on the gate's corpus, plus the equality
    # cases, against the Fraction sums of the weights
    reports = 0
    equalities = 0
    for p in gate_corpus():
        found = full_audit(p, facet_cap=16) + [c.report for c in equality_case_classification(p)]
        for r in found:
            assert (r.lhs, r.rhs, r.slack, r.equality) == fraction_report(p, r.flat, r.member_indices)
            equalities += r.equality
        reports += len(found)
    assert reports > 80000 and equalities > 400


# A polytope keeps its widest walk of each kind and its equality cases, so
# these tests compare a polytope audited before against a new object of the
# same polytope (``generate`` builds one on every call).
CACHE_SPECS = [GeneratorSpec("cube", n) for n in (2, 3, 4)]
CACHE_SPECS += [GeneratorSpec("cross", 3), GeneratorSpec("simplex", 4)]
CACHE_SPECS += [
    GeneratorSpec(kind, n, m, seed)
    for kind, n, m in (("random", 3, 8), ("random", 4, 6), ("pyramid_over", 3, None), ("join", 4, None))
    for seed in (0, 1)
]


def depths(p):
    # None is the whole audit, dim - 1; -1 asks for no flat of either kind
    return [None, *range(-1, p.dim)]


@pytest.mark.parametrize("spec", CACHE_SPECS, ids=str)
def test_a_narrower_audit_reads_a_prefix_of_a_wider_one(spec):
    p = generate(spec)
    fresh_audits = {b: full_audit(generate(spec), b) for b in depths(p)}
    fresh_walks = {
        (kind, b): concentration._kind_reports(generate(spec), kind, b)
        for kind in ("affine", "linear")
        for b in range(-1, p.dim)
    }
    for a, b in itertools.product(depths(p), repeat=2):
        warm = generate(spec)
        full_audit(warm, a)
        assert full_audit(warm, b) == fresh_audits[b], (a, b)
    for kind in ("affine", "linear"):
        for a, b in itertools.product(range(-1, p.dim), repeat=2):
            warm = generate(spec)
            concentration._kind_reports(warm, kind, a)
            assert concentration._kind_reports(warm, kind, b) == fresh_walks[kind, b], (kind, a, b)


def test_a_narrower_audit_walks_no_flat_and_a_wider_one_walks_again(monkeypatch):
    real_walk = concentration._spanned_flats
    sizes = []

    def counting_walk(rows, max_size):
        sizes.append(max_size)
        return real_walk(rows, max_size)

    monkeypatch.setattr(concentration, "_spanned_flats", counting_walk)
    p = cube(4)
    narrow = full_audit(p, 1)
    assert sizes == [2, 1]
    assert full_audit(p, 0) == [r for r in narrow if r.flat_dim <= 0]
    assert full_audit(p, 1) == narrow and sizes == [2, 1]
    assert full_audit(p) == full_audit(cube(4)) and sizes == [2, 1, 4, 3, 4, 3]
    assert full_audit(p, 2) == full_audit(cube(4), 2) and sizes == [2, 1, 4, 3, 4, 3, 3, 2]


def test_returned_lists_are_the_callers_own():
    spec = GeneratorSpec("pyramid_over", 3, seed=1)
    p = generate(spec)
    expected_reports = full_audit(generate(spec))
    expected_cases = equality_case_classification(generate(spec))
    assert expected_cases
    for max_flat_dim in (None, 1, None):
        full_audit(p, max_flat_dim).clear()
    equality_case_classification(p).clear()
    assert full_audit(p) == expected_reports
    assert full_audit(p, 1) == [r for r in expected_reports if r.flat_dim <= 1]
    assert equality_case_classification(p) == expected_cases
    assert equality_case_classification(p) is not equality_case_classification(p)


def test_an_audited_polytope_is_still_checked_on_every_call():
    p = cube(3)
    full_audit(p)
    with pytest.raises(TooManyFacets):
        full_audit(p, facet_cap=p.facet_count - 1)
    with pytest.raises(TooManyFacets):
        full_audit(p, 1, facet_cap=p.facet_count - 1)
    assert len(full_audit(p, facet_cap=p.facet_count)) == len(full_audit(cube(3)))
