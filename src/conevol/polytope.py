"""Exact polytope representations and conversions.

A :class:`Polytope` is its integer rows and its incidence masks:

* ``vertex_rows``: every vertex times the least common denominator D of all
  vertex coordinates (``denominator``), sorted, which is the lexicographic
  order of the vertices,
* ``facet_rows``: every facet <g_i, x> <= c_i as its primitive integer row
  (g_i, c_i), in canonical order (:func:`_canonical_facets`),
* ``masks``: for each facet, the int bit mask of the vertex rows lying on
  it (bit j for vertex row j), that is the j with g_i . V_j == c_i D.

The other views are derived from these once, on first use: ``incidence``,
each mask as a frozenset of vertex indices; the vertices V_j / D; and the
facets, normalized to ``<a_i, x> <= 1`` when every c_i is positive (the
origin strictly interior) and kept as ``<g_i, x> <= c_i`` otherwise (this
happens e.g. for hulls taken before recentering, where the origin may sit
on the boundary).

Everything is exact.  A hull turns its input into integer rows over one
common denominator once, and finds the facets by the double description
method on those rows and bit-mask tight sets: it starts from the simplex on
the greedy basis of the points, read from the kernel's canonical forms;
further points are inserted one at a time, and each new facet combines an
adjacent pair of facets the point splits.  Facet-form input <a_i, x> <= 1
goes through polarity: the hull of the normals a_i, read back through
:func:`polar`.

Every polytope is built by one constructor, :func:`_assemble`, from rows:
a hull from its extreme points and double-description facets; a translate,
a polar and a pyramid lift (:mod:`conevol.lifting`) from the rows of their
parent.  The two that read outside input, :func:`convex_hull` and
:func:`from_reps`, always certify the result (:func:`_validate_polytope`).
Incidence, the certificate, volume, centroid and cone volumes all run on
those rows, every rank and determinant through the kernel's forward
fraction-free pass.  Each result becomes a Fraction once,
at the end.

Every face below a facet is a bit mask read from the incidence masks alone:
the facets of a face are the inclusion-maximal nonempty intersections of
its mask with the facet masks that do not contain it.  This face lattice is
memoised on the polytope by mask and carries the completeness
certificate, the walk over every proper face that join detection reads,
and the pulling triangulation: a face is coned from its lowest set bit over
the triangulations of its facets that miss that vertex.  Volume and
centroid cone the facet simplices at an interior point (the vertex
average); cone volumes at the origin reuse the same facet simplices.

The certificate takes no elimination per face: a listed facet of a face
has at most one dimension less than the face, and the longest chain of
listed facets below a face bounds its dimension from below
(:func:`_chain`).  A translate keeps the vertex order and each facet's
vertex set, so it is built from its parent's integer rows and, once its
facet vertex sets are checked to be its parent's, carries the face lattice
over.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    CapExceeded,
    DegenerateInput,
    NotComplementary,
    OriginNotInterior,
    TheoremViolation,
    Unbounded,
)
from .kernel import (
    ONE,
    ZERO,
    Vector,
    _extend,
    _forward,
    affine_hull,
    as_fraction,
    canonical_rows,
    complementary,
    integer_row,
)

DEFAULT_DIM_CAP = 6
# The Upper Bound Theorem facet count of 28 points in R^6: the hull of at
# most 28 points in dimension 6 or less, and each of its prefixes, fits.
_HULL_FACET_CAP = 2_576


@dataclass(frozen=True)
class VPolytope:
    """Vertex representation: an irredundant rational point list in R^dim."""

    dim: int
    vertices: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        for v in self.vertices:
            if v.dim != self.dim:
                raise ValueError(f"vertex dimension {v.dim} != ambient {self.dim}")


@dataclass(frozen=True)
class _FacetStructure:
    """Triangulation of one facet: ``simplices`` are (dim)-tuples of
    polytope vertex indices, the facet's pulling triangulation."""

    simplices: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Polytope:
    """A full-dimensional bounded rational polytope, stored as integer rows.

    ``vertex_rows`` are the vertices times their least common denominator
    ``denominator``, sorted; ``facet_rows`` are the facets <g, x> <= c as
    primitive rows (g, c) in canonical order; ``masks`` holds, for each
    facet, the bit mask of the vertex rows on it.  The views (``incidence``,
    ``vertices``, ``normals``, ``rhs``) are derived once, on first use.
    Built by :func:`_assemble`.
    """

    vertex_rows: tuple[tuple[int, ...], ...]
    denominator: int
    facet_rows: tuple[tuple[tuple[int, ...], int], ...]
    masks: tuple[int, ...]

    @cached_property
    def dim(self) -> int:
        return len(self.vertex_rows[0])

    @cached_property
    def incidence(self) -> tuple[frozenset[int], ...]:
        """For each facet, the set of vertex indices on it."""
        return tuple(frozenset(_members(tight)) for tight in self.masks)

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        d = self.denominator
        return tuple(Vector(tuple(Fraction(x, d) for x in row)) for row in self.vertex_rows)

    @cached_property
    def normals(self) -> tuple[Vector, ...]:
        """g / c (right-hand side 1) when the origin is interior, else g."""
        if self.unit_rhs:
            return tuple(Vector(tuple(Fraction(x, c) for x in g)) for g, c in self.facet_rows)
        return tuple(Vector(tuple(map(Fraction, g))) for g, _ in self.facet_rows)

    @cached_property
    def rhs(self) -> tuple[Fraction, ...]:
        if self.unit_rhs:
            return (ONE,) * len(self.facet_rows)
        return tuple(Fraction(c) for _, c in self.facet_rows)

    @property
    def facet_count(self) -> int:
        return len(self.facet_rows)

    @cached_property
    def unit_rhs(self) -> bool:
        """The facets read ``<a_i, x> <= 1``: exactly when the origin is interior."""
        return all(c > 0 for _, c in self.facet_rows)

    @cached_property
    def centered(self) -> bool:
        """Centroid exactly at the origin; decided once per polytope."""
        return self._volume_centroid[1].is_zero()

    @cached_property
    def vertex_facets(self) -> tuple[frozenset[int], ...]:
        """For each vertex index, the set of facet indices containing it."""
        masks = list(enumerate(self.masks))
        return tuple(frozenset(i for i, t in masks if t >> j & 1) for j in range(len(self.vertex_rows)))

    @cached_property
    def _facet_lists(self) -> dict[int, tuple[int, ...]]:
        return {}

    @cached_property
    def _triangulations(self) -> dict[int, tuple[tuple[int, ...], ...]]:
        return {}

    def _facets_of(self, face: int) -> tuple[int, ...]:
        """The facets of a face mask: the inclusion-maximal nonempty cuts
        ``face & T`` over the facet masks T that do not contain it, kept in
        descending order.  A cut's supersets are larger integers, so a cut
        is kept unless a cut kept before it contains it."""
        memo = self._facet_lists
        if face not in memo:
            kept: list[int] = []
            for c in sorted(set(map(face.__and__, self.masks)) - {face, 0}, reverse=True):
                for k in kept:
                    if c & k == c:
                        break
                else:
                    kept.append(c)
            memo[face] = tuple(kept)
        return memo[face]

    @cached_property
    def _faces(self) -> frozenset[int]:
        """Every nonempty proper face as a vertex mask, vertices included,
        walked down the face lattice from the whole vertex set."""
        faces: set[int] = set()
        stack = [(1 << len(self.vertex_rows)) - 1]
        while stack:
            for g in self._facets_of(stack.pop()):
                if g not in faces:
                    faces.add(g)
                    if g & (g - 1):
                        stack.append(g)
        return frozenset(faces)

    def _triangulate(self, face: int) -> tuple[tuple[int, ...], ...]:
        """Pulling triangulation of a face mask: its lowest set bit coned
        over the triangulations of its facets that miss it (pulled last)."""
        memo = self._triangulations
        if face not in memo:
            low = face & -face
            apex = low.bit_length() - 1
            memo[face] = ((apex,),) if face == low else tuple(
                s + (apex,) for g in self._facets_of(face) if not g & low for s in self._triangulate(g)
            )
        return memo[face]

    @cached_property
    def facet_structure(self) -> tuple[_FacetStructure, ...]:
        return tuple(_FacetStructure(self._triangulate(f)) for f in self.masks)

    @cached_property
    def _volume_centroid(self) -> tuple[Fraction, Vector]:
        return _volume_centroid_coned(self, None)


def _members(mask: int) -> list[int]:
    """The vertex indices of a face mask, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def _primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _denominator_rows(points: Sequence[Vector]) -> tuple[tuple[tuple[int, ...], ...], int]:
    scale = lcm(*(x.denominator for p in points for x in p.coords))
    return tuple(tuple(x.numerator * (scale // x.denominator) for x in p.coords) for p in points), scale


def _facet_row(ints: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The halfspace <g, x> <= c given as the integer row (g, c), scaled by
    a positive rational to its primitive row."""
    h = _primitive(ints)
    return h[:-1], h[-1]


def _canonical_facets(
    rows: Iterable[tuple[tuple[int, ...], int]],
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Distinct primitive facet rows (g, c) in canonical order.

    When every c is positive (the origin strictly inside) a facet reads as
    the unit normal g / c with right-hand side 1, and facets sort by those
    normals, that is as the integer rows g (L / c) over the least common
    multiple L of every c; otherwise they sort as (g, c).  Equal polytopes
    get equal rows in equal order.
    """
    rows = set(rows)
    if all(c > 0 for _, c in rows):
        common = lcm(*(c for _, c in rows))
        return tuple(sorted(rows, key=lambda row: [x * (common // row[1]) for x in row[0]]))
    return tuple(sorted(rows))


def _assemble(
    vertex_rows: Sequence[Sequence[int]],
    denominator: int,
    facet_rows: Iterable[tuple[tuple[int, ...], int]],
) -> Polytope:
    """The one constructor: the polytope of the vertex rows over
    ``denominator`` and the primitive facet rows (g, c).

    The vertex rows are put over their least common denominator D,
    deduplicated and sorted; the facet rows are deduplicated and put in
    canonical order (:func:`_canonical_facets`).  One pass over g . V_j
    against c D derives the incidence masks and rejects a vertex outside a
    facet.  That is all it checks, enough for constructions proven complete
    (a translate, a polar, a pyramid lift).  An incomplete facet list gives
    a wrong volume without an error (the 3-cross-polytope less its first
    facet: 7/6 instead of 4/3), so :func:`convex_hull` and
    :func:`from_reps` add the certificate of :func:`_validate_polytope`.
    """
    k = gcd(denominator, *itertools.chain.from_iterable(vertex_rows))
    rows = sorted({tuple(x // k for x in row) for row in vertex_rows})
    if not rows:
        raise DegenerateInput("no vertices")
    scale, n = denominator // k, len(rows[0])
    if len(rows) < n + 1:
        raise DegenerateInput(f"{len(rows)} vertices cannot span dimension {n}")
    facets = _canonical_facets(facet_rows)
    masks = []
    for g, c in facets:
        bound, mask = c * scale, 0
        for j, v in enumerate(rows):
            d = sum(map(mul, g, v))
            if d == bound:
                mask |= 1 << j
            elif d > bound:
                point = tuple(Fraction(x, scale) for x in v)
                raise DegenerateInput(f"vertex {point} violates facet {g} . x <= {c}")
        masks.append(mask)
    return Polytope(tuple(rows), scale, facets, tuple(masks))


def _validate_polytope(p: Polytope) -> None:
    """The completeness certificate: the facet rows of ``p`` describe
    exactly the hull of its vertex rows, given the containment and
    incidence that :func:`_assemble` derived.

    It checks the rank certificates (the vertices span dimension n, and
    each is a genuine vertex of the H-polytope), that each halfspace
    supports a genuine facet of the hull, and that the facet list is
    complete by :func:`_certify_facet_list`.  Ranks are ranks of the integer
    rows.  Past the two rank checks no face needs an elimination: once
    incidence is exact, a face's dimension is bounded from below by
    :func:`_chain`, and from above by the face it was cut from.  Halfspace i
    leaves some vertex strictly inside, so aff T_i lies in a hyperplane and
    dim T_i <= n - 1; hence ``_chain(T_i) == n - 1`` certifies that T_i is
    a facet.
    """
    n, m = p.dim, len(p.vertex_rows)
    rank = face_dim(p, range(m))
    if rank != n:
        raise DegenerateInput(f"affine rank {rank} < ambient dimension {n}")
    for j, tight_facets in enumerate(p.vertex_facets):
        if _forward([p.facet_rows[i][0] for i in tight_facets])[0] != n:
            raise DegenerateInput(f"point {p.vertices[j].coords} is not a vertex (tight rank < {n})")
    chains: dict[int, int] = {}
    for i, tight in enumerate(p.masks):
        if _chain(p, tight, chains) != n - 1:
            raise DegenerateInput(f"halfspace {i} does not support a facet")
    _certify_facet_list(p, (1 << m) - 1, n, chains, set())


def _chain(p: Polytope, face: int, chains: dict[int, int]) -> int:
    """The length of the longest chain of listed facets from a vertex mask
    down to a single vertex: -1 for no vertex, 0 for one, else one more than
    the longest chain of its listed facets (:meth:`Polytope._facets_of`).

    It is a lower bound on the dimension once incidence is exact.  A listed
    facet h of g is g & T_k for a facet T_k that does not contain g, so a
    vertex of g outside h lies strictly inside halfspace k and off the
    hyperplane H_k, which contains aff h; hence dim g >= dim h + 1.  For a
    face of a valid polytope the listed facets are its facets, and the
    chain length is its dimension.  Memoised in ``chains`` for one
    certification.
    """
    if face not in chains:
        chains[face] = face.bit_count() - 1 if not face & (face - 1) else 1 + max(
            (_chain(p, g, chains) for g in p._facets_of(face)), default=0
        )
    return chains[face]


def _certify_facet_list(p: Polytope, face: int, dim: int, chains: dict[int, int], done: set) -> None:
    """Certify that the facet list read for the mask ``face`` (a genuine
    face of dimension ``dim``) is complete, by induction on dimension.

    Every listed facet must have dimension ``dim - 1``; an edge must have
    exactly two endpoints; above that, once the facet lists of its facets
    are certified, every ridge of the face must lie in exactly two of its
    listed facets.  The dual graph of a face is connected, so a missing
    facet would leave some ridge with a single listed owner.  Facets and
    ridges are checked in descending mask order, so an error names the
    first failing face in that fixed order.

    No dimension here needs an elimination.  A listed facet g = F & T_k
    of the face F misses a vertex of F, which lies off the hyperplane H_k,
    so aff g lies in aff F & H_k and dim g <= dim - 1; and
    :func:`_chain` bounds dim g from below, so ``_chain(g) == dim - 1``
    certifies it.
    """
    if face in done:
        return
    facets = p._facets_of(face)
    if dim == 1:
        if len(facets) != 2:
            raise DegenerateInput(f"edge {_members(face)} has {len(facets)} endpoints, expected 2")
    else:
        for g in facets:
            if _chain(p, g, chains) != dim - 1:
                raise DegenerateInput(f"face {_members(g)} is not a facet of face {_members(face)}")
            _certify_facet_list(p, g, dim - 1, chains, done)
        for ridge in sorted({r for g in facets for r in p._facets_of(g)}, reverse=True):
            owners = [*map(ridge.__and__, facets)].count(ridge)
            if owners != 2:
                raise DegenerateInput(f"ridge {_members(ridge)} lies in {owners} facets, expected 2")
    done.add(face)


def _abs_det(rows: list[Sequence[int]]) -> int:
    """|det| of a square integer matrix, read from the kernel's forward pass:
    its last pivot if the rank is full, else 0."""
    rank, d = _forward(rows)
    return abs(d) if rank == len(rows) else 0


def _volume_centroid_coned(p: Polytope, apex_index: int | None) -> tuple[Fraction, Vector]:
    """Exact volume and centroid of the cone decomposition over an apex.

    The apex is the interior point (the vertex average) when ``apex_index``
    is None, and every facet contributes; at a vertex apex the facets
    containing it are skipped (their cones are flat).  On the vertex rows
    V_j over D the apex is A / (s D): the row sum over s = m vertices, or
    V_k with s = 1.  A simplex has the rows s V_j - A over s D, so its volume
    is |det| / (n! (s D)^n), and the determinants and the moments
    |det| sum(V_j) add up as integers; one Fraction per result is made at
    the end.
    """
    n = p.dim
    rows, scale = p.vertex_rows, p.denominator
    if apex_index is None:
        s, apex = len(rows), [sum(col) for col in zip(*rows)]
    else:
        s, apex = 1, rows[apex_index]
    shifted = [[s * x - a for x, a in zip(row, apex)] for row in rows]
    skip = 0 if apex_index is None else 1 << apex_index
    total = 0
    moment = [0] * n
    for tight, fs in zip(p.masks, p.facet_structure):
        if tight & skip:
            continue
        for simplex in fs.simplices:
            det = _abs_det([shifted[j] for j in simplex])
            if det == 0:
                raise TheoremViolation("flat simplex in a cone decomposition")
            total += det
            moment = [m + det * sum(col) for m, col in zip(moment, zip(*(rows[j] for j in simplex)))]
    if total == 0:
        raise DegenerateInput("zero volume; polytope not full-dimensional")
    denom = (n + 1) * total * s * scale
    return (
        Fraction(total, factorial(n) * (s * scale) ** n),
        Vector(tuple(Fraction(total * a + s * m, denom) for a, m in zip(apex, moment))),
    )


def volume(p: Polytope) -> Fraction:
    """Exact volume via the canonical interior-point cone triangulation."""
    return p._volume_centroid[0]


def centroid(p: Polytope) -> Vector:
    """Exact centroid (volume-weighted barycenter)."""
    return p._volume_centroid[1]


def vertex_fan_volume_centroid(p: Polytope, apex_index: int = 0) -> tuple[Fraction, Vector]:
    """Volume and centroid by a second, independent decomposition: cones over
    the facets that miss one vertex.  Used as a cross-check oracle."""
    return _volume_centroid_coned(p, range(len(p.vertices))[apex_index])


def contains_point(p: Polytope, x: Vector, *, strict: bool = False) -> bool:
    """Exact membership; ``strict`` tests the interior."""
    for a, b in zip(p.normals, p.rhs):
        d = a.dot(x)
        if d > b or (strict and d == b):
            return False
    return True


def _supporting_halfspaces(points: Sequence[tuple[int, ...]], scale: int) -> dict[tuple[int, ...], int]:
    """The facets of the hull of the integer points over the positive
    common denominator ``scale``, by the double description method
    (Motzkin, Raiffa, Thompson and Thrall, 1953; Fukuda and Prodon, 1996).

    A facet is a primitive integer row h with h . p <= 0 on every point
    homogenized to the integer row p = (x, scale); it maps to the bit mask
    of the inserted points tight on it (bit j for point j).  The hull starts
    as the simplex on the greedy basis of the homogenized points (each one
    kept iff it is outside the span of those kept before it), each facet
    oriented away from the point it omits: the facets are the columns of
    -S^-1 for the simplex rows S.  A further point p replaces its
    visible facets f (f . p > 0) by (f . p) g - (g . p) f for each adjacent
    invisible g: their common mask has at least n - 1 bits, and no third
    live mask t has ``common & t == common``.  Tight and interior points
    only join tight sets.
    """
    n = len(points[0])
    rows = [p + (scale,) for p in points]
    span, simplex = (), []
    for j, row in enumerate(rows):
        grown = _extend(span, row)
        if len(grown) > len(span):
            span = grown
            simplex.append(j)
            if len(span) == n + 1:
                break
    if len(span) != n + 1:
        raise DegenerateInput(f"affine rank {len(span) - 1} < ambient dimension {n}")
    # canonical_rows of [S | I] is [I | S^-1], row r times its positive
    # pivot; scaled to the lcm of the pivots, the rows are a multiple of S^-1
    inverse = canonical_rows([rows[i] + tuple(int(i == k) for k in simplex) for i in simplex])
    common = lcm(*(row[r] for r, row in enumerate(inverse)))
    inverse = [[common // row[r] * x for x in row[n + 1 :]] for r, row in enumerate(inverse)]
    facets = {
        _primitive([-row[col] for row in inverse]): sum(1 << k for k in simplex if k != i)
        for col, i in enumerate(simplex)
    }
    for j in sorted(set(range(len(rows))) - set(simplex)):
        side = {h: sum(map(mul, h, rows[j])) for h in facets}
        visible = [h for h, s in side.items() if s > 0]
        hidden = [h for h, s in side.items() if s < 0]
        live, shared = [*facets.values()], [facets[g] for g in hidden]
        new, bit = {}, 1 << j
        for f in visible:
            for g, common in zip(hidden, map(facets[f].__and__, shared)):
                if common.bit_count() >= n - 1 and [*map(common.__and__, live)].count(common) == 2:
                    h = _primitive([side[f] * b - side[g] * a for a, b in zip(f, g)])
                    new[h] = common | bit
        for h, s in side.items():
            if s > 0:
                del facets[h]
            elif s == 0:
                facets[h] |= bit
        facets.update(new)
        if len(facets) > _HULL_FACET_CAP:
            raise CapExceeded(f"hull has {len(facets)} facets, above the cap {_HULL_FACET_CAP}")
    return facets


def _check_dim_cap(n: int, dim_cap: int) -> None:
    if n > dim_cap:
        raise CapExceeded(
            f"dimension {n} exceeds cap {dim_cap}; "
            "raise it with --dim-cap (dim_cap= in the library)"
        )


def convex_hull(
    points: Iterable[Vector],
    *,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> Polytope:
    """Convex hull of a full-dimensional rational point set.

    The points become integer rows over one positive common denominator
    once; deduplicated and sorted, the rows are in the lexicographic order
    of the points.  Redundant (non-extreme) points are dropped; coplanar
    point sets merge into single facets.  Raises :class:`DegenerateInput`
    naming the affine rank when the points do not span, and
    :class:`CapExceeded` above the dimension cap or the facet cap.
    """
    rows, scale = _denominator_rows(tuple(points))
    rows = sorted(set(rows))
    if not rows:
        raise DegenerateInput("empty point set")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("mixed point dimensions")
    _check_dim_cap(n, dim_cap)
    facets = _supporting_halfspaces(rows, scale)
    # a point is a vertex iff the facets through it meet in that point alone
    meet = [(1 << len(rows)) - 1] * len(rows)
    for tight in facets.values():
        for j in _members(tight):
            meet[j] &= tight
    extreme = [row for j, row in enumerate(rows) if meet[j] == 1 << j]
    p = _assemble(extreme, scale, [(h[:n], -h[n]) for h in facets])
    _validate_polytope(p)
    return p


def _polar_hull(normals: Sequence[Vector], *, dim_cap: int) -> Polytope:
    """The polytope {x : <a_i, x> <= 1}, by polarity.

    It is the polar of the hull of the points a_i, and it is bounded
    exactly when the origin is interior to that hull.  Raises
    :class:`DegenerateInput` for a zero normal and :class:`Unbounded` when
    the recession cone is nontrivial: the hull's own rank test finds that
    the normals do not span, or the origin is not interior to their hull.
    """
    if any(a.is_zero() for a in normals):
        raise DegenerateInput("zero normal vector")
    try:
        hull = convex_hull(normals, dim_cap=dim_cap)
    except DegenerateInput as exc:
        raise Unbounded("recession cone is nontrivial") from exc
    if not hull.unit_rhs:
        raise Unbounded("recession cone is nontrivial")
    return polar(hull)


def from_reps(
    vertices: Sequence[Vector],
    normals: Sequence[Vector],
    rhs: Sequence[Fraction | int],
) -> Polytope:
    """Build a polytope from externally known representations and certify
    that they agree.

    The vertices are checked as :class:`VPolytope` checks them, the normals
    for their dimension and for zero, and the right-hand sides for count and
    exactness (:func:`~conevol.kernel.as_fraction` refuses a float); then the
    input becomes integer rows once.  Besides containment,
    :func:`_validate_polytope` certifies that every vertex is one, every
    halfspace supports a facet and the facet list is complete, so an
    incomplete list is refused rather than giving a wrong volume.
    """
    vertices = tuple(vertices)
    if not vertices:
        raise DegenerateInput("no vertices")
    v = VPolytope(vertices[0].dim, vertices)
    normals, rhs = tuple(normals), tuple(map(as_fraction, rhs))
    if len(normals) != len(rhs):
        raise ValueError("normals and rhs lengths differ")
    for a in normals:
        if a.dim != v.dim:
            raise ValueError(f"normal dimension {a.dim} != ambient {v.dim}")
        if a.is_zero():
            raise DegenerateInput("zero normal vector")
    rows, scale = _denominator_rows(v.vertices)
    facets = [_facet_row(integer_row(a.coords + (b,))) for a, b in zip(normals, rhs)]
    p = _assemble(rows, scale, facets)
    _validate_polytope(p)
    return p


def translate(p: Polytope, t: Vector) -> Polytope:
    """Translate by ``t``, built from the integer rows and the face lattice
    of ``p``; representations are re-canonicalized exactly.

    Write t = T / E with T integer and E the least common denominator.
    Vertex j of the result is V_j / D + T / E, and facet (g, c) becomes the
    primitive row of (E g, E c + g . T); :func:`_assemble` builds the
    result with no certificate.  Adding t keeps the lexicographic
    vertex order and each facet's vertex set, and the derived incidence
    must say so (equal sets of facet masks), else :class:`TheoremViolation`.
    Then the memoised facet lists, triangulations and faces, which are
    vertex-index data, are carried over.  Volume and centroid are not: they
    are recomputed when asked for.
    """
    if t.dim != p.dim:
        raise ValueError(f"translation dimension {t.dim} != ambient {p.dim}")
    (shift,), e = _denominator_rows((t,))
    common = lcm(p.denominator, e)
    a, b = common // p.denominator, common // e
    q = _assemble(
        [[a * x + b * y for x, y in zip(row, shift)] for row in p.vertex_rows],
        common,
        [_facet_row([e * x for x in g] + [e * c + sum(map(mul, g, shift))]) for g, c in p.facet_rows],
    )
    if set(q.masks) != set(p.masks):
        raise TheoremViolation("a translate changed the vertex sets of the facets")
    q.__dict__.update(_facet_lists=dict(p._facet_lists), _triangulations=dict(p._triangulations))
    if "_faces" in p.__dict__:
        q.__dict__["_faces"] = p._faces
    return q


def translate_to_centroid(p: Polytope) -> Polytope:
    """The centered translate: centroid moves to the origin, exactly."""
    c = centroid(p)
    if c.is_zero():
        return p
    return translate(p, -c)


def polar(p: Polytope) -> Polytope:
    """The polar body: vertices and facet normals swap roles exactly.

    Requires the origin strictly inside.  The vertices of the polar are the
    unit normals g / c of ``p``, as the rows g (L / c) over the least common
    multiple L of every c, which is the key :func:`_canonical_facets` sorts
    the facets of ``p`` by; its facets are the primitive rows of (V_j, D).
    Both lists are sorted lexicographically, so indices align: vertex ``i``
    of the polar is normal ``i`` of ``p`` and incidence transposes.  The
    derived incidence must say so (the facet masks of the polar are, as a
    set, the masks of ``p.vertex_facets``), else :class:`TheoremViolation`.
    """
    if not p.unit_rhs:
        raise OriginNotInterior("polar needs the origin strictly inside (unit rhs form)")
    common = lcm(*(c for _, c in p.facet_rows))
    q = _assemble(
        [[x * (common // c) for x in g] for g, c in p.facet_rows],
        common,
        [_facet_row(row + (p.denominator,)) for row in p.vertex_rows],
    )
    if set(q.masks) != {sum(1 << i for i in facets) for facets in p.vertex_facets}:
        raise TheoremViolation("the polar's incidence is not its parent's transposed")
    return q


def face_dim(p: Polytope, vertex_indices: Iterable[int]) -> int:
    """Dimension of the affine hull of the given vertices."""
    rows, scale = p.vertex_rows, p.denominator
    return _forward([rows[i] + (scale,) for i in vertex_indices])[0] - 1


def section_profile_q(p: Polytope, u: Vector, t: Fraction | int) -> Fraction:
    """The rational section-profile surrogate q(t).

    The section is the slice of the polytope by the hyperplane through
    ``t u`` orthogonal to ``u``; q is its (n-1)-volume divided by |u|.  That
    quotient is rational: projecting the section along a coordinate axis k
    with u_k != 0 scales (n-1)-volume by |u_k| / |u|, so q equals the
    projected volume divided by |u_k|.  The section's vertices are the
    polytope's vertices on the hyperplane and the points where its edges,
    the two-vertex faces of the face lattice, cross it.  In dimension 1
    the section is a point, and q is 1 / |u_k| when the hyperplane meets
    the segment.  ``t`` must be exact: a float raises :class:`TypeError`.
    A section that spans less than dimension n - 1 has q = 0, as the hull's
    own rank test finds; the hull is capped by the dimension of ``p``.
    """
    if u.dim != p.dim or u.is_zero():
        raise ValueError("direction must be a nonzero vector of the ambient dimension")
    c = as_fraction(t) * u.dot(u)
    svals = [u.dot(v) for v in p.vertices]
    k = next(i for i, x in enumerate(u.coords) if x != 0)
    scale = abs(u.coords[k])
    if p.dim == 1:
        return ONE / scale if min(svals) <= c <= max(svals) else ZERO
    candidates = {v for v, s in zip(p.vertices, svals) if s == c}
    for edge in p._faces:
        if edge.bit_count() == 2:
            i, j = _members(edge)
            si, sj = svals[i], svals[j]
            if (si < c < sj) or (sj < c < si):
                v, w = p.vertices[i], p.vertices[j]
                candidates.add(v + (w - v).scale((c - si) / (sj - si)))
    projected = [Vector(pt.coords[:k] + pt.coords[k + 1 :]) for pt in candidates]
    try:
        section = convex_hull(projected, dim_cap=p.dim)
    except DegenerateInput:
        return ZERO
    return volume(section) / scale


def pyramid_apexes(p: Polytope) -> tuple[tuple[int, int], ...]:
    """All (apex vertex index, base facet index) pairs: vertices lying on
    every facet except exactly one."""
    out = []
    m = p.facet_count
    for v_idx, facets_of_v in enumerate(p.vertex_facets):
        if len(facets_of_v) == m - 1:
            missing = next(i for i in range(m) if i not in facets_of_v)
            out.append((v_idx, missing))
    return tuple(out)


def is_pyramid(p: Polytope) -> tuple[Vector, int] | None:
    """The lexicographically smallest apex with its base facet index, or None.

    Decision procedure is purely combinatorial (incidence counting); the
    exact section-profile identity serves as an independent cross-check in
    the test suite, not here.
    """
    apexes = pyramid_apexes(p)
    if not apexes:
        return None
    v_idx, base = apexes[0]
    return p.vertices[v_idx], base


def join(q1: VPolytope, q2: VPolytope, *, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope:
    """Join of two polytopes with complementary affine hulls.

    The joint hull is full-dimensional, and its vertices are the union of
    the factors' vertices: a point of one factor is extreme in the join iff
    it is extreme in its factor.  So the one hull built here also checks
    the input, and a vertex count short of the listed points means some
    listed point is not extreme.  The converse direction (recognizing
    joins) lives in the concentration module."""
    if q1.dim != q2.dim:
        raise ValueError("ambient dimension mismatch")
    if not q1.vertices or not q2.vertices:
        raise DegenerateInput("empty factor")
    if any(len(set(q.vertices)) != len(q.vertices) for q in (q1, q2)):
        raise DegenerateInput("duplicate vertices")
    a1 = affine_hull(list(q1.vertices))
    a2 = affine_hull(list(q2.vertices))
    if not complementary(a1, a2):
        raise NotComplementary(
            f"affine hulls of dimensions {a1.dim} and {a2.dim} are not complementary"
        )
    result = convex_hull(list(q1.vertices) + list(q2.vertices), dim_cap=dim_cap)
    if len(result.vertices) != len(q1.vertices) + len(q2.vertices):
        raise DegenerateInput("vertex list contains non-extreme points")
    return result
