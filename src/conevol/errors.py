"""Exception types shared across the package."""
from __future__ import annotations


class GeometryError(Exception):
    """Base class for all geometric errors raised by this package."""


class DegenerateInput(GeometryError):
    """Input point set or system is not full-dimensional / is empty."""


class Unbounded(GeometryError):
    """An H-representation describes an unbounded set."""


class OriginNotInterior(GeometryError):
    """An operation requiring the origin strictly inside the polytope was
    called on a polytope whose interior does not contain the origin."""


class NotCentered(GeometryError):
    """An operation requiring an exactly centered polytope (centroid at the
    origin) was called on a non-centered polytope."""


class NotComplementary(GeometryError):
    """Two affine flats are not complementary (join precondition)."""


class TooManyFacets(GeometryError):
    """Facet count exceeds the configured enumeration cap."""


class CapExceeded(GeometryError):
    """A configured dimension / level / size cap would be exceeded."""


class TheoremViolation(GeometryError):
    """An exact identity that must hold for every valid input failed.

    This always indicates a bug in the library (or corrupted input data that
    slipped past validation), never a property of the input polytope.
    """
