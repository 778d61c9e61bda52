"""Subspace concentration audits for centered polytopes.

A centered polytope (centroid at the origin) has a cone-volume measure whose
mass cannot concentrate too heavily on any subspace of normals:

* linear:  mass on L         <=  (dim L / n) * vol(P)
* affine:  mass on flat A    <=  ((dim A + 1) / (n + 1)) * vol(P)

Each audit op returns a :class:`ConcentrationReport` with the exact slack and,
for the linear case, a complete equality certificate: equality holds iff the
normals split across L and a complementary subspace L'.  For affine flats the
complement witness is an attempt (the affine hull of the remaining normals);
its absence does not refute equality.

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
from typing import Iterable, Sequence

from .errors import NotCentered, TheoremViolation, TooManyFacets
from .kernel import (
    ONE,
    AffineFlat,
    LinearSubspace,
    Vector,
    _eliminate,
    _in_span,
    canonical_rows,
    flats_complementary,
    integer_row,
    subspaces_complementary,
)
from .polytope import (
    Polytope,
    VPolytope,
    contains_point,
    face_dim,
    polar,
    pyramid_apexes,
    translate_to_centroid,
)
from .cone_measure import ConeVolumeMeasure, cone_volume_measure

DEFAULT_FACET_CAP = 14


@dataclass(frozen=True)
class ComplementWitness:
    """A complementary flat L' with every normal in L u L' (resp. A u A')."""

    complement: AffineFlat | LinearSubspace
    member_indices: frozenset[int]
    complement_indices: frozenset[int]


@dataclass(frozen=True)
class ConcentrationReport:
    """One audited inequality: lhs <= rhs with slack = rhs - lhs.

    Negative slack is a theorem violation for centered input; audits surface
    it in the report rather than raising so a full document can still be
    assembled and inspected.
    """

    kind: str  # "linear" | "affine"
    flat: AffineFlat | LinearSubspace
    flat_dim: int
    member_indices: frozenset[int]
    lhs: Fraction
    rhs: Fraction
    slack: Fraction
    equality: bool
    witness: ComplementWitness | None


def require_centered(p: Polytope) -> None:
    if not p.centered:
        raise NotCentered("operation needs a centered polytope")
    # centered implies the origin is strictly interior
    if not p.unit_rhs:
        raise TheoremViolation("centered polytope without unit-rhs h-rep")


def _check_facet_cap(p: Polytope, facet_cap: int) -> None:
    if p.facet_count > facet_cap:
        raise TooManyFacets(
            f"{p.facet_count} facets > cap {facet_cap}; "
            "raise it with --facet-cap (facet_cap= in the library)"
        )


def _integer_rows(vectors: Iterable[Vector], affine: bool) -> list[list[int]]:
    """Each vector as an integer row, homogenized with a trailing 1 for
    affine flats: a positive multiple, so spans and membership are kept."""
    return [integer_row(v.coords + (ONE,) if affine else v.coords) for v in vectors]


def _flat(rows: Sequence[Sequence[int]], n: int, affine: bool) -> AffineFlat | LinearSubspace:
    """The canonical flat in R^n spanned by integer rows of
    :func:`_integer_rows`."""
    canonical = canonical_rows(rows)
    return AffineFlat(n, canonical) if affine else LinearSubspace(n, canonical)


def _flat_members(
    flat: AffineFlat | LinearSubspace, rows: Sequence[Sequence[int]]
) -> frozenset[int]:
    return frozenset(i for i, row in enumerate(rows) if _in_span(flat.rows, row))


def _report(
    p: Polytope,
    flat: AffineFlat | LinearSubspace,
    members: frozenset[int],
    measure: ConeVolumeMeasure,
    rows: Sequence[Sequence[int]],
) -> ConcentrationReport:
    """The report for a flat whose normal members are known.

    ``rows`` are the normals as :func:`_integer_rows` of the flat's kind.
    Linear bound (dim L / n) vol(P); affine bound ((dim A + 1) / (n + 1))
    vol(P).  On equality the complement is spanned (linear) or affinely
    generated (affine) by the remaining normals; for a linear subspace that
    witness is decisive, for an affine flat it is an attempt.
    """
    affine = isinstance(flat, AffineFlat)
    lhs = sum((measure.weight(i) for i in members), Fraction(0))
    if affine:
        rhs = Fraction(flat.dim + 1, p.dim + 1) * measure.total
    else:
        rhs = Fraction(flat.dim, p.dim) * measure.total
    witness = None
    if lhs == rhs:
        rest = [row for i, row in enumerate(rows) if i not in members]
        complement: AffineFlat | LinearSubspace | None
        if affine:
            complement = _flat(rest, p.dim, affine) if rest else None
            split = complement is not None and flats_complementary(flat, complement)
        else:
            complement = _flat(rest, p.dim, affine)
            split = subspaces_complementary(flat, complement)
        if split:
            witness = ComplementWitness(
                complement=complement,
                member_indices=members,
                complement_indices=frozenset(range(p.facet_count)) - members,
            )
    return ConcentrationReport(
        kind="affine" if affine else "linear",
        flat=flat,
        flat_dim=flat.dim,
        member_indices=members,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        equality=lhs == rhs,
        witness=witness,
    )


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
        subspace = _flat(_integer_rows(subspace, False), p.dim, False)
    if subspace.ambient_dim != p.dim:
        raise ValueError(
            f"subspace ambient dim {subspace.ambient_dim} != polytope dim {p.dim}"
        )
    rows = _integer_rows(p.normals, False)
    return _report(
        p, subspace, _flat_members(subspace, rows), cone_volume_measure(p), rows
    )


def affine_scc(p: Polytope, flat: AffineFlat) -> ConcentrationReport:
    """Audit the affine subspace concentration inequality for a proper flat."""
    require_centered(p)
    if flat.ambient_dim != p.dim:
        raise ValueError(
            f"flat ambient dim {flat.ambient_dim} != polytope dim {p.dim}"
        )
    if flat.dim >= p.dim:
        raise ValueError("flat must be proper (dim < ambient dim)")
    rows = _integer_rows(p.normals, True)
    return _report(p, flat, _flat_members(flat, rows), cone_volume_measure(p), rows)


def _spanned_flats(
    rows: Sequence[Sequence[int]], n: int, max_dim: int, *, affine: bool
) -> list[tuple[AffineFlat | LinearSubspace, frozenset[int]]]:
    """Every distinct flat of dim <= max_dim in R^n spanned by a subset of
    points, given as :func:`_integer_rows`, with its member index set,
    sorted by (dim, member tuple).

    A depth-first walk over index-increasing subsets on the integer rows.
    ``table`` holds the fraction-free (Bareiss) elimination of the point
    matrix, one column per point, restricted to the rows not yet used as
    pivots: a point lies in the span of the current subset iff its column
    is zero.  Adding index j is one :func:`~conevol.kernel._eliminate` step
    with pivot column j.
    Two prunes make every flat appear exactly once:

    * j already a member: the subset is dependent, and so is every
      superset, whose hull a smaller independent subset spans;
    * the new flat gains a member before j: the subset is not the greedy
      basis of its flat (the members taken in index order, each kept iff
      it is outside the span of those kept), and neither is any superset;
      the flat is reached from its greedy basis instead.

    The canonical flat is built once per flat, from the rows of its basis.
    """
    count = len(rows)
    max_size = max_dim + 1 if affine else max_dim
    everyone = frozenset(range(count))
    found: list[tuple[frozenset[int], tuple[int, ...]]] = []

    def zero_columns(table: list[list[int]]) -> frozenset[int]:
        if not table:
            return everyone
        return frozenset(x for x, col in enumerate(zip(*table)) if not any(col))

    def walk(
        basis: tuple[int, ...],
        members: frozenset[int],
        table: list[list[int]],
        prev: int,
    ) -> None:
        for j in range(basis[-1] + 1 if basis else 0, count):
            if j in members:
                continue
            r = next(i for i, row in enumerate(table) if row[j])
            child = _eliminate(table[:r] + table[r + 1 :], table[r], j, prev)
            grown = zero_columns(child)
            if min(grown - members) < j:
                continue
            found.append((grown, basis + (j,)))
            if len(basis) + 1 < max_size:
                walk(basis + (j,), grown, child, table[r][j])

    if max_size > 0:
        table = [list(col) for col in zip(*rows)]
        zeros = zero_columns(table)
        if zeros:
            # linear only: the zero vectors span the zero subspace
            found.append((zeros, ()))
        walk((), zeros, table, 1)
    # a basis of a dim-d flat has d + 1 (affine) or d (linear) indices
    found.sort(key=lambda pair: (len(pair[1]), tuple(sorted(pair[0]))))
    return [(_flat([rows[i] for i in basis], n, affine), members) for members, basis in found]


def enumerate_normal_flats(
    p: Polytope,
    max_dim: int | None = None,
    *,
    facet_cap: int = DEFAULT_FACET_CAP,
) -> list[AffineFlat]:
    """Every affine flat of dim <= max_dim spanned by a subset of facet normals.

    ``max_dim`` defaults to dim - 1 (the proper flats the affine inequality
    ranges over); passing dim also yields the full-space hull.  The flat
    count can grow like the number of normal subsets of size <= max_dim + 1,
    so capped at ``facet_cap`` facets.  Deterministic order: ascending flat
    dimension, then member index set.
    """
    _check_facet_cap(p, facet_cap)
    if max_dim is None:
        max_dim = p.dim - 1
    if max_dim < 0:
        return []
    rows = _integer_rows(p.normals, True)
    return [flat for flat, _ in _spanned_flats(rows, p.dim, max_dim, affine=True)]


def full_audit(
    p: Polytope,
    max_flat_dim: int | None = None,
    *,
    facet_cap: int = DEFAULT_FACET_CAP,
) -> list[ConcentrationReport]:
    """Audit every normal-spanned flat: affine reports first, then linear."""
    _check_facet_cap(p, facet_cap)
    require_centered(p)
    if max_flat_dim is None:
        max_flat_dim = p.dim - 1
    max_flat_dim = min(max_flat_dim, p.dim - 1)
    if max_flat_dim < 0:
        return []
    measure = cone_volume_measure(p)
    reports = []
    for affine in (True, False):
        rows = _integer_rows(p.normals, affine)
        reports += [
            _report(p, flat, members, measure, rows)
            for flat, members in _spanned_flats(rows, p.dim, max_flat_dim, affine=affine)
        ]
    return reports


def grunbaum_point_check(p: Polytope) -> bool:
    """Check -v/n lies in P for every vertex v of the centered polytope."""
    require_centered(p)
    n = p.dim
    return all(
        contains_point(p, v.scale(Fraction(-1, n))) for v in p.vertices
    )


def detect_join_structure(
    p: Polytope,
) -> tuple[VPolytope, VPolytope] | None:
    """Split the vertex set across two complementary affine flats, if possible.

    Returns the two vertex classes as V-polytopes, the class containing
    vertex 0 first, or None when no such split exists.  With multiple splits
    the one whose first class has the lexicographically smallest vertex tuple
    wins, making the choice deterministic.

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
    everything = frozenset(range(len(p.vertices)))
    splits = [
        (tuple(sorted(face)), tuple(sorted(everything - face)))
        for face in p._faces
        if 0 in face and face_dim(p, face) + face_dim(p, everything - face) == p.dim - 1
    ]
    if not splits:
        return None
    return tuple(
        VPolytope(dim=p.dim, vertices=tuple(p.vertices[i] for i in side))
        for side in min(splits)
    )


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
        frozenset(i for i, tight in enumerate(p.incidence) if face <= tight)
        for face in p._faces
        if len(face) > 1
    ]
    return sorted(facet_sets, key=lambda s: (len(s), tuple(sorted(s))))


def equality_case_classification(p: Polytope) -> list[EqualityCase]:
    """Classify the equality cases of the affine inequality at the extremes.

    Checks both directions of each characterization:

    * facet singleton flat attains the bound  <->  pyramid over that facet
    * vertex tight-normal hyperplane attains  <->  pyramid apex at the vertex
    * simple polytope, any face-derived flat  <->  simplex (equality at all)

    Any one-sided failure raises TheoremViolation.

    Every flat here is the affine hull of the normals of the facets that
    contain some face G, and its members are known without a membership
    test.  Lemma: with unit right-hand sides, a normal a_k lies in
    aff{a_i : G in facet i} iff G lies in facet k.  If a_k = sum l_i a_i
    with sum l_i = 1, then <a_k, x> = sum l_i <a_i, x> = 1 for x in G; the
    converse is trivial.  Hence:

    * the singleton flat of facet i has members {i} (the normals are
      distinct);
    * a vertex v whose tight normals span a hyperplane flat, which is then
      {y : <y, v> = 1}, has members ``p.vertex_facets[v]``;
    * a face flat of a simple polytope has the face's facet set as members.
    """
    require_centered(p)
    cases = []
    apexes = pyramid_apexes(p)
    base_facets = {base for _, base in apexes}
    apex_vertices = {v for v, _ in apexes}
    measure = cone_volume_measure(p)
    rows = _integer_rows(p.normals, True)

    for i in range(p.facet_count):
        report = _report(p, _flat([rows[i]], p.dim, True), frozenset((i,)), measure, rows)
        if report.equality != (i in base_facets):
            raise TheoremViolation(
                "facet equality does not match pyramid structure"
            )
        if report.equality:
            cases.append(
                EqualityCase(kind="pyramid_base", report=report, facet_index=i)
            )

    for v_index, tight in enumerate(p.vertex_facets):
        flat = _flat([rows[i] for i in tight], p.dim, True)
        if flat.dim != p.dim - 1:
            if v_index in apex_vertices:
                raise TheoremViolation(
                    "apex tight normals must span a hyperplane flat"
                )
            continue
        report = _report(p, flat, tight, measure, rows)
        if report.equality != (v_index in apex_vertices):
            raise TheoremViolation(
                "vertex equality does not match apex structure"
            )
        if report.equality:
            cases.append(
                EqualityCase(
                    kind="pyramid_apex", report=report, apex_index=v_index
                )
            )

    if is_simple(p):
        simplex = len(p.vertices) == p.dim + 1
        for facet_set in _proper_faces_of_simple(p):
            flat = _flat([rows[i] for i in facet_set], p.dim, True)
            report = _report(p, flat, facet_set, measure, rows)
            if report.equality != simplex:
                raise TheoremViolation(
                    "face-flat equality does not match simplex structure"
                )
            if report.equality:
                cases.append(EqualityCase(kind="simplex_face", report=report))
    return cases
