"""Subspace concentration audits for centered polytopes.

A centered polytope (centroid at the origin) has a cone-volume measure whose
mass cannot concentrate too heavily on any subspace of normals.  With each
normal a_i written as a row of width n (linear) or as (a_i, 1) of width
n + 1 (affine: a flat A is the linear span of its points (a, 1)), both
inequalities are one bound, run by one code path:

    mass on the span of some normal rows  <=  rank / row width * vol(P),

that is (dim L / n) vol(P) for a subspace L, ((dim A + 1) / (n + 1)) vol(P)
for a flat A.  A :class:`ConcentrationReport` keeps its flat as canonical
integer rows and builds the flat object on first read.  On equality, it
carries the span of the remaining rows as its witness when that span is
complementary to the flat: a complete certificate for L (equality holds iff
the normals split across L and a complement, so a linear equality without
it raises), an attempt for A.

Equality cases of the affine inequality at the extremes are classified by
:func:`equality_case_classification`: a facet's singleton flat attains the
bound iff the polytope is a pyramid over that facet, and a vertex's tight
hyperplane flat attains it iff the vertex is a pyramid apex.  For simple
polytopes, equality at any face-derived flat forces a simplex.  Violations of
those characterizations raise :class:`~conevol.errors.TheoremViolation`,
which always indicates a bug in this library, never a property of the input.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import NotCentered, TheoremViolation, TooManyFacets
from .kernel import (
    AffineFlat,
    LinearSubspace,
    Vector,
    _eliminate,
    _extend,
    _forward,
    _in_span,
    canonical_rows,
    complementary,
    linear_span,
)
from .polytope import (
    Polytope,
    _members,
    contains_point,
    face_dim,
    polar,
    pyramid_apexes,
    translate_to_centroid,
)
from .cone_measure import ConeVolumeMeasure, cone_volume_measure

DEFAULT_FACET_CAP = 14

Flat = AffineFlat | LinearSubspace
Rows = tuple[tuple[int, ...], ...]  # a flat's canonical rows
# the flat class of each report kind, in the order full_audit reports them
_FLATS = {"affine": AffineFlat, "linear": LinearSubspace}


@dataclass(frozen=True)
class ComplementWitness:
    """A complementary flat L' with every normal in L u L' (resp. A u A'):
    the normals off the report's flat, ``complement_indices``, span it."""

    complement: Flat
    complement_indices: frozenset[int]


@dataclass(frozen=True)
class ConcentrationReport:
    """One audited inequality: lhs <= rhs with slack = rhs - lhs.

    Negative slack is a theorem violation for centered input; audits surface
    it in the report rather than raising so a full document can still be
    assembled and inspected.

    The flat is kept as its kind, ambient dimension and canonical rows;
    ``flat`` is built from them on first read, and ``flat_dim`` reads them.
    Audits of one polytope share their reports (it keeps its walks), so the
    report stays frozen: immutability is what keeps that sharing sound.
    """

    kind: str  # "linear" | "affine"
    ambient_dim: int
    rows: Rows
    member_indices: frozenset[int]
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    equality: bool
    witness: ComplementWitness | None

    @property
    def flat_dim(self) -> int:
        return len(self.rows) - _FLATS[self.kind].homogenizing

    @cached_property
    def flat(self) -> Flat:
        return _FLATS[self.kind](self.ambient_dim, self.rows)


def require_centered(p: Polytope) -> None:
    if not p.centered:
        raise NotCentered("operation needs a centered polytope")
    # centered implies the origin is strictly interior
    if not p.unit_rhs:
        raise TheoremViolation("centered polytope without unit-rhs h-rep")


def require_proper_flat(p: Polytope, flat: AffineFlat) -> None:
    if not isinstance(flat, AffineFlat):
        raise TypeError(f"need an AffineFlat, got {type(flat).__name__}")
    if flat.ambient_dim != p.dim:
        raise ValueError(
            f"flat ambient dim {flat.ambient_dim} != polytope dim {p.dim}"
        )
    if flat.dim >= p.dim:
        raise ValueError("flat must be proper (dim < ambient dim)")


def _audit_bound(p: Polytope, max_flat_dim: int | None, facet_cap: int) -> int:
    """The checks before any walk, the facet cap and then centering; returns
    the flat dimension bound that runs, clamped to proper flats (dim - 1)."""
    if p.facet_count > facet_cap:
        raise TooManyFacets(
            f"{p.facet_count} facets > cap {facet_cap}; "
            "raise it with --facet-cap (facet_cap= in the library)"
        )
    require_centered(p)
    return p.dim - 1 if max_flat_dim is None else min(max_flat_dim, p.dim - 1)


def _normal_rows(p: Polytope, flat_type: type[Flat]) -> list[tuple[int, ...]]:
    """The unit-rhs normals as integer rows of the flat class ``flat_type``,
    read from the primitive facet rows (g, c): g, or (g, c) for an affine
    flat.  With the origin inside, the normal is g / c, and as (g, c) is
    primitive the least common denominator of g / c is c, so these are the
    rows ``flat_type.row_of`` makes of the normals."""
    return [g + (c,) * flat_type.homogenizing for g, c in p.facet_rows]


def _flat_members(flat: Flat, rows: Sequence[Sequence[int]]) -> frozenset[int]:
    return frozenset(i for i, row in enumerate(rows) if _in_span(flat.rows, row))


def _weigh(
    width: int, rank: int, members: frozenset[int], dets: Sequence[int], whole: int
) -> tuple[int, bool]:
    """The members' integer mass and whether it attains the bound: width * mass == rank * whole."""
    mass = sum(map(dets.__getitem__, members))
    return mass, width * mass == rank * whole


def _report(
    p: Polytope,
    kind: str,
    canonical: Rows,
    members: frozenset[int],
    measure: ConeVolumeMeasure,
    whole: int,
    rows: Sequence[Sequence[int]],
) -> ConcentrationReport:
    """The report for a flat of ``kind`` with canonical rows ``canonical``
    whose normal members are known.

    ``rows`` are the normals as :func:`_normal_rows` of the flat's kind.
    One bound for both kinds: the mass on the span of some normal rows is
    at most rank / row width * vol(P), that is (dim L / n) vol(P) for a
    linear subspace and ((dim A + 1) / (n + 1)) vol(P) for an affine flat.
    On equality the witness is the span of the remaining rows when it is
    complementary to the flat.  For a linear subspace that witness is
    decisive: equality without it raises :class:`TheoremViolation`.  For an
    affine flat it is an attempt, and the report may carry none.

    The sums run on the measure's integer weights over its common scale
    (:func:`_weigh`), with ``whole`` the sum of all, read once per audit;
    lhs, rhs and slack are one Fraction each.
    """
    flat_type, rank, scale = _FLATS[kind], len(canonical), measure.scale
    width = p.dim + flat_type.homogenizing
    mass, equality = _weigh(width, rank, members, measure.dets, whole)
    witness = None
    if equality:
        # the homogenized normals span R^(n+1), so a proper affine flat
        # leaves some normal out and its complement has rows
        rest = [row for i, row in enumerate(rows) if i not in members]
        complement = flat_type(p.dim, canonical_rows(rest))
        if complementary(flat_type(p.dim, canonical), complement):
            witness = ComplementWitness(
                complement=complement,
                complement_indices=frozenset(range(p.facet_count)) - members,
            )
        elif kind == "linear":
            raise TheoremViolation(
                f"linear equality at normals {sorted(members)} without a complementary split"
            )
    return ConcentrationReport(
        kind=kind,
        ambient_dim=p.dim,
        rows=canonical,
        member_indices=members,
        lhs=Fraction(mass, scale),
        rhs=Fraction(rank * whole, width * scale),
        slack=Fraction(rank * whole - width * mass, width * scale),
        equality=equality,
        witness=witness,
    )


def _audit(p: Polytope, kind: str, flat: Flat) -> ConcentrationReport:
    rows, measure = _normal_rows(p, type(flat)), cone_volume_measure(p)
    return _report(p, kind, flat.rows, _flat_members(flat, rows), measure, sum(measure.dets), rows)


def linear_scc(
    p: Polytope, subspace: LinearSubspace | Iterable[Vector]
) -> ConcentrationReport:
    """Audit the linear subspace concentration inequality for span(vectors).

    The returned witness is decisive: it is present iff equality holds, since
    L' = span of the non-member normals is complementary exactly in the
    equality case.
    """
    require_centered(p)
    if not isinstance(subspace, LinearSubspace):
        subspace = linear_span(list(subspace), p.dim)
    if subspace.ambient_dim != p.dim:
        raise ValueError(
            f"subspace ambient dim {subspace.ambient_dim} != polytope dim {p.dim}"
        )
    return _audit(p, "linear", subspace)


def affine_scc(p: Polytope, flat: AffineFlat) -> ConcentrationReport:
    """Audit the affine subspace concentration inequality for a proper flat."""
    require_centered(p)
    require_proper_flat(p, flat)
    return _audit(p, "affine", flat)


def _spanned_flats(
    rows: Sequence[Sequence[int]], max_size: int
) -> list[tuple[Rows, frozenset[int]]]:
    """Every distinct span of at most ``max_size`` of the integer rows, as
    its canonical rows with its member index set, sorted by (rank, member
    tuple).

    A depth-first walk, from a stack, over index-increasing subsets of rows.
    ``table`` holds the fraction-free (Bareiss) elimination of the row
    matrix, one column per row, restricted to the coordinates not yet used
    as pivots: a row lies in the span of the current subset iff its column
    is zero.  Adding index j is one :func:`~conevol.kernel._eliminate` step
    with pivot column j.
    Two prunes make every span appear exactly once:

    * j already a member: the subset is dependent, and so is every
      superset, whose span a smaller independent subset spans;
    * the new span gains a member before j: the subset is not the greedy
      basis of its span (the members taken in index order, each kept iff
      it is outside the span of those kept), and neither is any superset;
      the span is reached from its greedy basis instead.

    The canonical rows travel down the walk: a child's are its parent's
    extended by row j, one :func:`~conevol.kernel._extend` pass.
    """
    count = len(rows)
    everyone = frozenset(range(count))
    found: list[tuple[frozenset[int], Rows]] = []

    def zero_columns(table: list[list[int]]) -> frozenset[int]:
        if not table:
            return everyone
        return frozenset(x for x, col in enumerate(zip(*table)) if not any(col))

    if max_size > 0:
        table = [list(col) for col in zip(*rows)]
        zeros = zero_columns(table)
        if zeros:
            # zero rows (never homogenized ones) span the zero subspace
            found.append((zeros, ()))
        # (last index, canonical rows, members, table, previous pivot)
        stack = [(-1, (), zeros, table, 1)]
        while stack:
            last, canonical, members, table, prev = stack.pop()
            for j in range(last + 1, count):
                if j in members:
                    continue
                r = next(i for i, row in enumerate(table) if row[j])
                child = _eliminate(table[:r] + table[r + 1 :], table[r], j, prev)
                grown = zero_columns(child)
                if min(grown - members) < j:
                    continue
                extended = _extend(canonical, rows[j])
                found.append((grown, extended))
                if len(extended) < max_size:
                    stack.append((j, extended, grown, child, table[r][j]))
    found.sort(key=lambda pair: (len(pair[1]), tuple(sorted(pair[0]))))
    return [(canonical, members) for members, canonical in found]


def full_audit(
    p: Polytope,
    max_flat_dim: int | None = None,
    *,
    facet_cap: int = DEFAULT_FACET_CAP,
) -> list[ConcentrationReport]:
    """Audit every normal-spanned flat: affine reports first, then linear."""
    max_flat_dim = _audit_bound(p, max_flat_dim, facet_cap)
    return [r for kind in _FLATS for r in _kind_reports(p, kind, max_flat_dim)]


def _kind_reports(p: Polytope, kind: str, max_flat_dim: int) -> list[ConcentrationReport]:
    """The reports of one walk: the flats of ``kind`` up to ``max_flat_dim``.

    The widest walk of each kind is kept in the instance dictionary, as the
    measure is.  A narrower request reads its prefix: sorted by (rank,
    members), a walk of size s holds the flats of rank <= s of any wider
    walk, since each is reached from its greedy basis whatever the bound.
    """
    flat_type, walks = _FLATS[kind], p.__dict__.setdefault("_walks", {})
    size, walk = max_flat_dim + flat_type.homogenizing, walks.get(kind)
    if walk is None or walk[0] < size:
        measure = cone_volume_measure(p)
        rows, whole = _normal_rows(p, flat_type), sum(measure.dets)
        walk = walks[kind] = size, tuple(
            _report(p, kind, canonical, members, measure, whole, rows)
            for canonical, members in _spanned_flats(rows, size)
        )
    return [r for r in walk[1] if len(r.rows) <= size]


def grunbaum_point_check(p: Polytope) -> bool:
    """Check -v/n lies in P for every vertex v of the centered polytope."""
    require_centered(p)
    n = p.dim
    return all(
        contains_point(p, v.scale(Fraction(-1, n))) for v in p.vertices
    )


def detect_join_structure(
    p: Polytope,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Split the vertex set across two complementary affine flats, if possible.

    Returns the two vertex classes as ascending tuples of vertex indices,
    the class containing vertex 0 first, or None when no such split exists.
    With multiple splits the one whose first class has the lexicographically
    smallest index tuple wins, making the choice deterministic.

    The splits are read from the face lattice.  Lemma: a split (F, G) of the
    vertices is a join split iff F is a proper face with dim F + dim G =
    n - 1.  If aff F and aff G are complementary, the affine function that
    is 0 on F and 1 on G is nonnegative on P and cuts out exactly F, so both
    classes are faces, and the faces that contain vertex 0 give every split
    once.  Conversely, the homogenized vertices (v, 1) span R^(n+1), so the
    homogenized spans of F and G, of dimensions dim F + 1 and dim G + 1,
    always sum to R^(n+1); the sum is direct, and the hulls complementary,
    iff the dimensions add up to n + 1.
    """
    everything = (1 << len(p.vertex_rows)) - 1
    sides = [(_members(face), _members(everything ^ face)) for face in p._faces if face & 1]
    splits = [(f, g) for f, g in sides if face_dim(p, f) + face_dim(p, g) == p.dim - 1]
    if not splits:
        return None
    first, second = min(splits)
    return tuple(first), tuple(second)


def join_detection_roundtrip(p: Polytope) -> tuple[bool, bool]:
    """(join found in P, join found in the polar of P about its centroid).

    Join structure survives translation, and a polytope with the origin
    interior splits as a join exactly when its polar does, so the two
    booleans agree for every valid input, wherever its origin lies; callers
    treat disagreement as a library bug.
    """
    primal = detect_join_structure(p)
    dual = detect_join_structure(polar(translate_to_centroid(p)))
    return primal is not None, dual is not None


@dataclass(frozen=True)
class EqualityCase:
    """One classified equality case of the affine concentration inequality."""

    kind: str  # "pyramid_base" | "pyramid_apex" | "simplex_face"
    report: ConcentrationReport
    facet_index: int | None = None
    apex_index: int | None = None


def is_simple(p: Polytope) -> bool:
    """Every vertex on exactly dim facets."""
    return all(len(p.vertex_facets[i]) == p.dim for i in range(len(p.vertices)))


def _proper_faces_of_simple(p: Polytope) -> list[frozenset[int]]:
    """Facet index sets of the proper faces (dim 1..n-1) of a simple polytope.

    The faces are read from the face lattice walk: a proper face has
    dimension at least 1 iff it has more than one vertex.  A face's facet
    set is every facet that contains it.
    """
    facet_sets = [
        frozenset(i for i, tight in enumerate(p.masks) if face & tight == face)
        for face in p._faces
        if face & (face - 1)
    ]
    return sorted(facet_sets, key=lambda s: (len(s), tuple(sorted(s))))


def equality_case_classification(p: Polytope) -> list[EqualityCase]:
    """Classify the equality cases of the affine inequality at the extremes.

    Checks both directions of each characterization:

    * facet singleton flat attains the bound  <->  pyramid over that facet
    * vertex tight-normal hyperplane attains  <->  pyramid apex at the vertex
    * simple polytope, any face-derived flat  <->  simplex (equality at all)

    Any one-sided failure raises TheoremViolation naming the case kind.

    Every flat here is the affine hull of the normals of the facets that
    contain some face G, and its members are known without a membership
    test.  Lemma: with unit right-hand sides, a normal a_k lies in
    aff{a_i : G in facet i} iff G lies in facet k.  If a_k = sum l_i a_i
    with sum l_i = 1, then <a_k, x> = sum l_i <a_i, x> = 1 for x in G; the
    converse is trivial.  Hence:

    * the singleton flat of facet i has members {i} (the normals are
      distinct);
    * the flat of a vertex v has members ``p.vertex_facets[v]``;
    * a face flat of a simple polytope has the face's facet set as members.

    The flat of a vertex v is always the hyperplane {y : <y, v> = 1}: v is
    the only point on all of its facets, so the tight normals have rank n
    (the completeness certificate checks this), and they all lie on that
    hyperplane, which misses the origin, so their affine hull has dimension
    n - 1 and is that hyperplane.  A vertex flat of any other dimension
    raises TheoremViolation.  The cases are kept once every check passes.
    """
    require_centered(p)
    if "_equality_cases" in p.__dict__:
        return list(p.__dict__["_equality_cases"])
    apexes = pyramid_apexes(p)
    base_facets = {base for _, base in apexes}
    apex_vertices = {v for v, _ in apexes}
    # (kind, members, whether equality must hold, index field) in report order
    checks = [
        ("pyramid_base", frozenset((i,)), i in base_facets, {"facet_index": i})
        for i in range(p.facet_count)
    ]
    checks += [
        ("pyramid_apex", tight, v in apex_vertices, {"apex_index": v})
        for v, tight in enumerate(p.vertex_facets)
    ]
    if is_simple(p):
        simplex = len(p.vertices) == p.dim + 1
        checks += [("simplex_face", s, simplex, {}) for s in _proper_faces_of_simple(p)]
    measure = cone_volume_measure(p)
    dets, whole, width = measure.dets, sum(measure.dets), p.dim + 1
    rows = _normal_rows(p, AffineFlat)
    cases = []
    for kind, members, expected, index in checks:
        member_rows = [rows[i] for i in members]
        rank = _forward(member_rows)[0]
        # a hyperplane flat of R^n has rank n in rows of width n + 1
        if kind == "pyramid_apex" and rank != p.dim:
            raise TheoremViolation(f"{kind}: tight normals {sorted(members)} span no hyperplane flat")
        _, equality = _weigh(width, rank, members, dets, whole)
        if equality != expected:
            raise TheoremViolation(
                f"{kind}: equality at normals {sorted(members)} is {equality}, "
                f"the polytope's structure says {expected}"
            )
        if equality:
            report = _report(p, "affine", canonical_rows(member_rows), members, measure, whole, rows)
            cases.append(EqualityCase(kind=kind, report=report, **index))
    p.__dict__["_equality_cases"] = tuple(cases)
    return cases
