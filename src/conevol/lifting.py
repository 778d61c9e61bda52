"""Pyramid lifting: one dimension up per step, centeredness preserved.

The lift of a k-dimensional polytope Q with the origin inside places Q at
height 1 and an apex at -(k+1) e_{k+1}:

    lift(Q) = conv((Q x {1}) u {-(k+1) e_{k+1}})

Chosen so that a centered Q lifts to a centered pyramid, with everything
rational and in closed form: facet normals, volume scaling, and the cone
weights of the lifted facets, which are preserved exactly.  Iterating the
lift yields a tower whose linear concentration bounds decrease strictly to
the affine bound of the base, which is what :func:`tower_bound` evaluates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, OriginNotInterior, TheoremViolation
from .kernel import ONE, ZERO, AffineFlat, Vector, unit_vector
from .polytope import (
    Polytope,
    convex_hull,
    from_reps,
    volume,
)
from .cone_measure import cone_volume_measure
from .concentration import require_centered, require_proper_flat

DEFAULT_TOWER_CAP = 20
DEFAULT_VERIFY_DIM_CAP = 6


def lift_step(k: int, x: Vector) -> Vector:
    """One lift step applied to a unit-rhs facet normal of a k-polytope.

    A facet <a, y> <= 1 of Q extends to the side facet of lift(Q) through
    the apex: <((k+2)/(k+1) a, -1/(k+1)), (y, h)> <= 1 holds with equality
    on (facet x {1}) and at the apex.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    if x.dim != k:
        raise ValueError(f"vector dimension {x.dim} != level {k}")
    s = Fraction(k + 2, k + 1)
    return Vector(tuple(s * c for c in x.coords) + (Fraction(-1, k + 1),))


def lifted_normal(a: Vector, j: int) -> Vector:
    """The j-fold lift of a base facet normal, in closed form.

    Equals the composition of j lift steps: the scaling factors telescope to
    (n+j+1)/(n+1) on the original coordinates, and the tail entry added at
    step k ends up at -(n+j+1)/((n+k)(n+k+1)).
    """
    if j < 1:
        raise ValueError("need at least one lift")
    n = a.dim
    s = Fraction(n + j + 1, n + 1)
    tail = tuple(
        Fraction(-(n + j + 1), (n + k) * (n + k + 1)) for k in range(1, j + 1)
    )
    return Vector(tuple(s * c for c in a.coords) + tail)


def _lift_reps(q: Polytope) -> tuple[list[Vector], list[Vector]]:
    k = q.dim
    apex = Vector((ZERO,) * k + (Fraction(-(k + 1)),))
    verts = [Vector(v.coords + (ONE,)) for v in q.vertices] + [apex]
    normals = [lift_step(k, a) for a in q.normals] + [unit_vector(k + 1, k)]
    return verts, normals


def pyramid_lift(
    q: Polytope, *, verify_dim_cap: int = DEFAULT_VERIFY_DIM_CAP
) -> Polytope:
    """The lift of ``q``, one dimension up.

    Representations are written from the closed form and built at the
    ``trusted`` level (containment and incidence).  Up to ambient dimension
    ``verify_dim_cap`` the facets are re-derived independently by the hull
    oracle, which runs the ``full`` certificate, and must agree; above the
    cap, the closed form is trusted.  Output is centered iff the input is.
    """
    if not q.unit_rhs:
        raise OriginNotInterior(
            "closed-form lift facets need the origin strictly inside"
        )
    verts, normals = _lift_reps(q)
    predicted = from_reps(verts, normals, [ONE] * len(normals), validate="trusted")
    if q.dim + 1 <= verify_dim_cap:
        if convex_hull(verts) != predicted:
            raise TheoremViolation("hull of the lift disagrees with closed form")
    return predicted


@dataclass(frozen=True)
class TowerLevel:
    """One tower floor: the polytope, its exact volume, and whether the
    geometric invariants were re-verified (low dimensions) or the closed
    form was trusted (above the verification cap)."""

    level: int
    polytope: Polytope
    volume: Fraction
    verified: bool


@dataclass(frozen=True)
class LiftTower:
    """Iterated lifts of a centered base.

    ``lifted_normals[j][i]`` is the j-fold lift of base facet normal i;
    row 0 is the base normal list itself.  On verified levels the lifted
    facet's cone weight equals the base facet's cone weight exactly.
    """

    base: Polytope
    levels: tuple[TowerLevel, ...]
    lifted_normals: tuple[tuple[Vector, ...], ...]


def build_tower(
    p: Polytope,
    j_max: int,
    *,
    level_cap: int = DEFAULT_TOWER_CAP,
    verify_dim_cap: int = DEFAULT_VERIFY_DIM_CAP,
) -> LiftTower:
    """Lift ``p`` through ``j_max`` levels, checking every exact invariant
    the current dimension makes affordable.

    At verified levels (ambient dim <= ``verify_dim_cap``): facet normals
    re-derived by the hull oracle, volume equal to (n+j+1)/(n+1) vol(P),
    centroid exactly 0, lifted cone weights equal to base cone weights.  At
    every level, trusted ones included: the side normals reached by stepwise
    lifting equal the closed form.
    """
    require_centered(p)
    if j_max < 0:
        raise ValueError("level count must be nonnegative")
    if j_max > level_cap:
        raise CapExceeded(
            f"{j_max} levels > cap {level_cap}; "
            "pass fewer with --levels (j_max in the library)"
        )
    n = p.dim
    base_vol = volume(p)
    base_weights = [w for _, w in cone_volume_measure(p).atoms]
    levels = [TowerLevel(level=0, polytope=p, volume=base_vol, verified=True)]
    lifted: list[tuple[Vector, ...]] = [tuple(p.normals)]
    current = p
    for j in range(1, j_max + 1):
        current = pyramid_lift(current, verify_dim_cap=verify_dim_cap)
        closed = tuple(lifted_normal(a, j) for a in p.normals)
        if not set(closed) <= set(current.normals):
            raise TheoremViolation("stepwise lift disagrees with closed form")
        expected_vol = Fraction(n + j + 1, n + 1) * base_vol
        verified = n + j <= verify_dim_cap
        if verified:
            if volume(current) != expected_vol:
                raise TheoremViolation("lift volume scaling broken")
            if not current.centered:
                raise TheoremViolation("lift lost centeredness")
            measure = cone_volume_measure(current)
            by_normal = {a: w for a, w in measure.atoms}
            for i, a in enumerate(closed):
                if by_normal[a] != base_weights[i]:
                    raise TheoremViolation("lifted cone weight not preserved")
        levels.append(
            TowerLevel(
                level=j,
                polytope=current,
                volume=expected_vol,
                verified=verified,
            )
        )
        lifted.append(closed)
    return LiftTower(base=p, levels=tuple(levels), lifted_normals=tuple(lifted))


def tower_bound(p: Polytope, flat: AffineFlat, j: int) -> Fraction:
    """The level-j linear bound on the mass of a proper flat's normals.

    The lifted normals of the flat's members span a linear subspace of
    dimension d+1 at every level, so the linear inequality there bounds the
    (preserved) mass by ((d+1)/(n+j)) * vol(level j), which this evaluates
    in closed form, with vol(level j) = ((n+j+1)/(n+1)) * vol(P), as one
    exact fraction.  It decreases strictly in j toward the affine bound
    (d+1)/(n+1) * vol(P).

    The bound reads the flat only through d, so after the checks, which run
    on every call, it is computed once per (d, j) and kept in the instance
    dictionary, the way :func:`~conevol.cone_measure.cone_volume_measure`
    keeps the measure: it lives and dies with the polytope.
    """
    require_centered(p)
    require_proper_flat(p, flat)
    if j < 1:
        raise ValueError("need at least one lift")
    bounds = p.__dict__.get("_tower_bounds")
    if bounds is None:
        bounds = p.__dict__["_tower_bounds"] = {}
    key = (flat.dim, j)
    bound = bounds.get(key)
    if bound is None:
        n = p.dim
        vol = volume(p)
        bound = bounds[key] = Fraction(
            (flat.dim + 1) * (n + j + 1) * vol.numerator,
            (n + j) * (n + 1) * vol.denominator,
        )
    return bound
