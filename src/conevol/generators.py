"""Canonical and seeded-random centered polytopes.

Every generator returns a centered polytope with the origin strictly
interior, ready for cone-volume audits.  The determinism contract is
strict: equal :class:`GeneratorSpec`, equal polytope, byte-identical
serialization downstream.

The cube, the cross-polytope and the simplex go through the hull
machinery, so their facet lists are computed and certified rather than
asserted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .concentration import detect_join_structure
from .errors import DegenerateInput, TheoremViolation
from .kernel import Vector, affine_hull, unit_vector, vector
from .polytope import (
    DEFAULT_DIM_CAP,
    Polytope,
    VPolytope,
    _check_dim_cap,
    centroid,
    convex_hull,
    join,
    translate_to_centroid,
    vertex_fan_volume_centroid,
)

RANDOM_COORDINATE_BOX = 10
RANDOM_DENOMINATORS = (1, 2, 3)
RANDOM_RETRY_CAP = 64

KINDS = ("cube", "cross", "simplex", "pyramid_over", "join", "random")


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for a generated polytope.

    ``points`` is the vertex budget for the seeded-random kinds (drawn
    points, not surviving vertices); the canonical kinds ignore it.
    """

    kind: str
    dim: int
    points: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if self.points is not None and self.points < 1:
            raise ValueError("point count must be positive")


def _require_dim(n: int, dim_cap: int) -> None:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    _check_dim_cap(n, dim_cap)


def cube(n: int, *, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope:
    """The cube [-1, 1]^n."""
    _require_dim(n, dim_cap)
    verts = [vector(signs) for signs in itertools.product((-1, 1), repeat=n)]
    return convex_hull(verts, dim_cap=dim_cap)


def cross_polytope(n: int, *, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope:
    """conv{+-e_1, ..., +-e_n}, the polar of the cube."""
    _require_dim(n, dim_cap)
    verts = [unit_vector(n, k) for k in range(n)]
    verts += [-unit_vector(n, k) for k in range(n)]
    return convex_hull(verts, dim_cap=dim_cap)


def centered_simplex(n: int, *, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope:
    """conv{e_1, ..., e_n, -(e_1 + ... + e_n)}: centered because the
    vertex sum vanishes and a simplex centroid is the vertex average."""
    _require_dim(n, dim_cap)
    verts = [unit_vector(n, k) for k in range(n)]
    verts.append(vector([-1] * n))
    return convex_hull(verts, dim_cap=dim_cap)


def pyramid_over(
    base: VPolytope, apex: Vector, *, dim_cap: int = DEFAULT_DIM_CAP
) -> Polytope:
    """Centered pyramid conv(base ∪ {apex}).

    The base must span a hyperplane of the ambient space and the apex must
    lie off that hyperplane.  Before recentering, the hull centroid is
    cross-checked against the centroid of the fan of cones from the apex
    over the facets that miss it, a second, independent decomposition (for
    a pyramid, the one cone over the base); a mismatch means a bug in one
    of the two paths.
    """
    n = base.dim
    _require_dim(n, dim_cap)
    if apex.dim != n:
        raise ValueError(f"apex dimension {apex.dim} != ambient {n}")
    if not base.vertices:
        raise DegenerateInput("empty base")
    hull_flat = affine_hull(list(base.vertices))
    if hull_flat.dim != n - 1:
        raise DegenerateInput(
            f"base affine dimension {hull_flat.dim}, need {n - 1}"
        )
    if hull_flat.contains(apex):
        raise DegenerateInput("apex lies in the base hull plane")
    p = convex_hull(list(base.vertices) + [apex], dim_cap=dim_cap)
    if centroid(p) != vertex_fan_volume_centroid(p, p.vertices.index(apex))[1]:
        raise TheoremViolation(
            "hull centroid disagrees with the apex fan centroid"
        )
    return translate_to_centroid(p)


def random_centered(
    n: int, m: int, seed: int, *, dim_cap: int = DEFAULT_DIM_CAP
) -> Polytope:
    """Hull of m seeded-random rational points, translated to its centroid.

    Coordinates are integers in [-10, 10] over denominators 1..3.  A draw
    whose hull is not full-dimensional is rejected and redrawn from the
    same stream; the retry budget is generous because non-spanning draws
    need most points on one hyperplane.
    """
    _require_dim(n, dim_cap)
    if m < n + 1:
        raise ValueError(f"need at least {n + 1} points in dimension {n}")
    rng = Random(seed)
    for _ in range(RANDOM_RETRY_CAP):
        pts = [
            vector(
                Fraction(
                    rng.randint(-RANDOM_COORDINATE_BOX, RANDOM_COORDINATE_BOX),
                    rng.choice(RANDOM_DENOMINATORS),
                )
                for _ in range(n)
            )
            for _ in range(m)
        ]
        try:
            hull = convex_hull(pts, dim_cap=dim_cap)
        except DegenerateInput:
            continue
        return translate_to_centroid(hull)
    raise DegenerateInput(
        f"no full-dimensional draw in {RANDOM_RETRY_CAP} attempts (n={n}, m={m})"
    )


def join_centered(
    q1: VPolytope, q2: VPolytope, *, dim_cap: int = DEFAULT_DIM_CAP
) -> Polytope:
    """Centered join of two vertex sets with complementary affine hulls.

    The construction must be re-detectable: if the split-finding routine
    cannot recover some join structure from the centered result, the
    theorem machinery is broken and we refuse to hand the polytope out.
    """
    p = translate_to_centroid(join(q1, q2, dim_cap=dim_cap))
    if detect_join_structure(p) is None:
        raise TheoremViolation("constructed join not detected as one")
    return p


def _embedded_factor(
    points_budget: int | None, d: int, pad_left: int, pad_right: int, last: int, seed: int,
    dim_cap: int,
) -> VPolytope:
    """A random d-polytope embedded into ambient dimension
    pad_left + d + pad_right + 1 with fixed final coordinate ``last``."""
    ambient = pad_left + d + pad_right + 1
    tail = (Fraction(last),)
    if d == 0:
        verts = [Vector((Fraction(0),) * (pad_left + pad_right) + tail)]
        return VPolytope(ambient, tuple(verts))
    m = points_budget if points_budget is not None else 2 * d + 2
    factor = random_centered(d, max(m, d + 1), seed, dim_cap=dim_cap)
    verts = [
        Vector(
            (Fraction(0),) * pad_left + v.coords + (Fraction(0),) * pad_right + tail
        )
        for v in factor.vertices
    ]
    return VPolytope(ambient, tuple(verts))


def generate(spec: GeneratorSpec, *, dim_cap: int = DEFAULT_DIM_CAP) -> Polytope:
    """Dispatch a :class:`GeneratorSpec` to its generator."""
    n = spec.dim
    if spec.kind == "cube":
        return cube(n, dim_cap=dim_cap)
    if spec.kind == "cross":
        return cross_polytope(n, dim_cap=dim_cap)
    if spec.kind == "simplex":
        return centered_simplex(n, dim_cap=dim_cap)
    if spec.kind == "random":
        m = spec.points if spec.points is not None else 2 * n + 2
        return random_centered(n, m, spec.seed, dim_cap=dim_cap)
    if spec.kind == "pyramid_over":
        if n < 2:
            raise ValueError("pyramid_over needs dimension at least 2")
        _require_dim(n, dim_cap)
        base = _embedded_factor(spec.points, n - 1, 0, 0, 0, spec.seed, dim_cap)
        # base plane is x_n = 0, so any apex with nonzero last coordinate works
        return pyramid_over(base, unit_vector(n, n - 1), dim_cap=dim_cap)
    if spec.kind == "join":
        if n < 2:
            raise ValueError("join needs dimension at least 2")
        _require_dim(n, dim_cap)
        d2 = (n - 1) // 2
        d1 = n - 1 - d2
        q1 = _embedded_factor(spec.points, d1, 0, d2, 1, spec.seed, dim_cap)
        q2 = _embedded_factor(spec.points, d2, d1, 0, -1, spec.seed + 1, dim_cap)
        return join_centered(q1, q2, dim_cap=dim_cap)
    raise AssertionError("unreachable: GeneratorSpec checks the kind")
