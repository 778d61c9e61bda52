"""Pyramid lifting: one dimension up per step, centeredness preserved.

The lift of a k-dimensional polytope Q with the origin inside places Q at
height 1 and an apex at -(k+1) e_{k+1}:

    lift(Q) = conv((Q x {1}) u {-(k+1) e_{k+1}})

Chosen so that a centered Q lifts to a centered pyramid, with everything
rational and in closed form: facet normals, volume scaling, and the cone
weights of the lifted facets, which are preserved exactly.  Iterating the
lift yields a tower whose linear concentration bounds decrease strictly to
the affine bound of the base, which is what :func:`tower_bound` evaluates.

Each lift is built from its parent's integer rows and its facets are
certified by the pyramid lemma at every level, with no hull; up to a
dimension cap the tower also re-derives volume, centroid and cone weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, OriginNotInterior, TheoremViolation
from .kernel import AffineFlat, Vector
from .polytope import Polytope, _assemble, _facet_row, volume
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


def pyramid_lift(q: Polytope) -> Polytope:
    """The lift of ``q``, one dimension up, built from its integer rows.

    The vertex rows V_j over D of ``q`` become (V_j, D), plus the apex
    (0, ..., 0, -(k+1) D); each facet row (g, c) becomes the side facet
    ((k+2) g, -c) . x <= (k+1) c, plus the base facet x_{k+1} <= 1.  It is
    built with no hull and certified by the pyramid lemma: the derived
    incidence must be one facet on every base vertex and, for each facet of
    ``q``, one on its vertices and the apex, else :class:`TheoremViolation`.
    The apex lies strictly below the base hyperplane, so for a certified
    ``q`` this proves the facet list complete.  Centered iff ``q`` is.
    """
    if not q.unit_rhs:
        raise OriginNotInterior("closed-form lift facets need the origin strictly inside")
    k, d = q.dim, q.denominator
    apex = (0,) * k + (-(k + 1) * d,)
    p = _assemble(
        [row + (d,) for row in q.vertex_rows] + [apex],
        d,
        [_facet_row([(k + 2) * x for x in g] + [-c, (k + 1) * c]) for g, c in q.facet_rows]
        + [((0,) * k + (1,), 1)],
    )
    # appending D keeps the order of the base rows; the apex sorts among
    # them at index a, so the bits of a mask of q from bit a up move one up
    a = p.vertex_rows.index(apex)
    low = (1 << a) - 1
    base = ((1 << len(p.vertex_rows)) - 1) ^ (1 << a)
    sides = {(1 << a) | (t & low) | ((t & ~low) << 1) for t in q.masks}
    if set(p.masks) != {base} | sides:
        raise TheoremViolation("the lift's facets are not those of a pyramid over its base")
    return p


@dataclass(frozen=True)
class TowerLevel:
    """One tower floor: the polytope (facets certified), its exact volume,
    and whether volume, centroid and cone weights were re-derived (up to the
    verification cap) or taken from the closed form (above it)."""

    level: int
    polytope: Polytope
    volume: Fraction
    verified: bool


@dataclass(frozen=True)
class LiftTower:
    """Iterated lifts of a centered base.

    Level j has the j-fold lift ``lifted_normal(a, j)`` of each base facet
    normal a among its facet normals.  On verified levels the lifted
    facet's cone weight equals the base facet's cone weight exactly.
    """

    base: Polytope
    levels: tuple[TowerLevel, ...]


def build_tower(p: Polytope, j_max: int) -> LiftTower:
    """Lift ``p`` through ``j_max`` levels (at most
    :data:`DEFAULT_TOWER_CAP`), checking every exact invariant the current
    dimension makes affordable.

    At every level: facets certified by :func:`pyramid_lift`, and the side
    normals reached by stepwise lifting equal to the closed form.  At
    verified levels (ambient dim <= :data:`DEFAULT_VERIFY_DIM_CAP`) also:
    volume equal to (n+j+1)/(n+1) vol(P), centroid exactly 0, lifted cone
    weights equal to base cone weights, each re-derived from the
    triangulation.
    """
    require_centered(p)
    if j_max < 0:
        raise ValueError("level count must be nonnegative")
    if j_max > DEFAULT_TOWER_CAP:
        raise CapExceeded(
            f"{j_max} levels > cap {DEFAULT_TOWER_CAP}; "
            "pass fewer with --levels (j_max in the library)"
        )
    n = p.dim
    base_vol = volume(p)
    base_weights = [w for _, w in cone_volume_measure(p).atoms]
    levels = [TowerLevel(level=0, polytope=p, volume=base_vol, verified=True)]
    current = p
    for j in range(1, j_max + 1):
        current = pyramid_lift(current)
        closed = tuple(lifted_normal(a, j) for a in p.normals)
        if not set(closed) <= set(current.normals):
            raise TheoremViolation("stepwise lift disagrees with closed form")
        expected_vol = Fraction(n + j + 1, n + 1) * base_vol
        verified = n + j <= DEFAULT_VERIFY_DIM_CAP
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
    return LiftTower(base=p, levels=tuple(levels))


def tower_bound(p: Polytope, flat: AffineFlat, j: int) -> Fraction:
    """The level-j linear bound on the mass of a proper flat's normals.

    The lifted normals of the flat's members span a linear subspace of
    dimension d+1 at every level, so the linear inequality there bounds the
    (preserved) mass by ((d+1)/(n+j)) * vol(level j), which this evaluates
    in closed form, with vol(level j) = ((n+j+1)/(n+1)) * vol(P), as one
    exact fraction.  It decreases strictly in j toward the affine bound
    (d+1)/(n+1) * vol(P).

    The bound reads the flat only through d.  After the checks, which run on
    every call (the ``require_*`` helpers only raise), it is computed once
    per (d, j) and kept in the instance dictionary, as the measure is.
    """
    n = p.dim
    if not (p.centered and p.unit_rhs):
        require_centered(p)
    d = len(flat.rows) - 1 if isinstance(flat, AffineFlat) else n
    if d >= n or flat.ambient_dim != n:
        require_proper_flat(p, flat)
    if j < 1:
        raise ValueError("need at least one lift")
    bounds = p.__dict__.setdefault("_tower_bounds", {})
    bound = bounds.get((d, j))
    if bound is None:
        bound = bounds[d, j] = Fraction((d + 1) * (n + j + 1), (n + j) * (n + 1)) * volume(p)
    return bound
