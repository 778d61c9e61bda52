"""Cone-volume measures of polytopes with the origin strictly inside.

For each facet F_i with unit-rhs outer normal a_i, the facet cone is
conv({0} u F_i).  Its exact volume is the atom weight the measure places at
a_i.  Weights are computed by triangulating the facet cone directly (facet
simplices coned at the origin, |det| / n! each); no surface-area route and
no irrational normalization is ever involved, so every weight is rational.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import OriginNotInterior
from .kernel import Vector
from .polytope import Polytope, _abs_det, volume


@dataclass(frozen=True)
class ConeVolumeMeasure:
    """Atoms (outer normal, weight) in facet order, plus the total mass.

    The total equals the polytope volume exactly (pyramid decomposition);
    :func:`pyramid_formula_check` re-derives both sides independently.
    The same weights over one common denominator: facet i weighs
    ``dets[i] / scale``, with integer ``dets`` and ``scale``, so a sum of
    weights is an integer sum and one Fraction.
    """

    atoms: tuple[tuple[Vector, Fraction], ...]
    total: Fraction
    dets: tuple[int, ...]
    scale: int

    def weight(self, facet_index: int) -> Fraction:
        """Exact volume of conv({0} u F_i) for facet i."""
        return self.atoms[facet_index][1]


def cone_volume_measure(p: Polytope) -> ConeVolumeMeasure:
    """The cone-volume measure: one rational atom per facet.

    Each facet cone is triangulated by the facet simplices coned at the
    origin.  On the polytope's integer vertex rows over D, facet i sums
    |det| over its simplices as an integer d_i; its weight is
    d_i / (n! D^n) and the total is sum(d_i) / (n! D^n), one Fraction each;
    the measure keeps the d_i and the scale n! D^n as well.
    Computed once per polytope and kept in the instance dictionary, the way
    a ``cached_property`` is, so it lives and dies with the polytope.
    """
    measure = p.__dict__.get("_cone_volume_measure")
    if measure is None:
        if not p.unit_rhs:
            raise OriginNotInterior("cone volumes need the origin strictly inside")
        rows = p.vertex_rows
        dets = tuple(
            sum(_abs_det([rows[j] for j in s]) for s in fs.simplices)
            for fs in p.facet_structure
        )
        scale = factorial(p.dim) * p.denominator**p.dim
        atoms = tuple((a, Fraction(d, scale)) for a, d in zip(p.normals, dets))
        measure = ConeVolumeMeasure(atoms, Fraction(sum(dets), scale), dets, scale)
        p.__dict__["_cone_volume_measure"] = measure
    return measure


def pyramid_formula_check(p: Polytope) -> tuple[Fraction, Fraction, bool]:
    """(volume, sum of cone volumes, equal).

    The two sides come from different decompositions (interior-point cone
    triangulation versus facet cones at the origin), so exact agreement is an
    informative self-test, not a tautology.  ``equal`` must be True for every
    valid input.
    """
    vol = volume(p)
    total = cone_volume_measure(p).total
    return vol, total, vol == total

