"""JSON interchange for polytopes, measures, and audit reports.

All rationals travel as exact "p/q" strings (the denominator is omitted
when it is 1, matching ``str`` on ``Fraction``).  Summary-level numbers
additionally carry a 12-significant-digit decimal rendering marked
``"approx": true``; the exact field is always authoritative.

A polytope document is either vertex form or facet form:

    {"dim": 2, "vertices": [["1", "0"], ["0", "1"], ["-1", "-1"]]}
    {"dim": 2, "normals": [["1", "1"], ["-2", "1"], ["1", "-2"]]}

with right-hand sides implicitly 1 in facet form.  Unknown keys are
ignored on input and never produced on output, except the optional
"generator" echo block that ``gen`` writes and ``audit`` passes through.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .concentration import ConcentrationReport, EqualityCase
from .cone_measure import ConeVolumeMeasure
from .errors import DegenerateInput
from .kernel import Vector, vector
from .lifting import LiftTower
from .polytope import (
    DEFAULT_DIM_CAP,
    Polytope,
    _polar_hull,
    convex_hull,
)

APPROX_DIGITS = 12


def parse_fraction(text: Any) -> Fraction:
    """Exact rational from "p/q" or "p" (ints tolerated on input); exponent
    notation is refused, since "1e1000000" would build a million digits."""
    if isinstance(text, bool):
        raise DegenerateInput(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str) or "e" in text.lower():
        raise DegenerateInput(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DegenerateInput(f"bad rational literal {text!r}") from exc


def approx_str(x: Fraction) -> str:
    """Decimal rendering at 12 significant digits, deterministically."""
    with localcontext() as ctx:
        ctx.prec = APPROX_DIGITS
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def rational_json(x: Fraction) -> dict[str, Any]:
    return {"exact": str(x), "decimal": approx_str(x), "approx": True}


def vector_to_json(v: Vector) -> list[str]:
    return [str(c) for c in v.coords]


def parse_vector(row: Any, dim: int) -> Vector:
    if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
        raise DegenerateInput(f"vector row must be a list, got {row!r}")
    if len(row) != dim:
        raise DegenerateInput(f"vector of length {len(row)}, expected {dim}")
    return vector(parse_fraction(c) for c in row)


def polytope_to_json(p: Polytope, *, generator: Mapping[str, Any] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "dim": p.dim,
        "vertices": [vector_to_json(v) for v in p.vertices],
    }
    if generator is not None:
        doc["generator"] = dict(generator)
    return doc


def polytope_from_json(
    doc: Any, *, dim_cap: int = DEFAULT_DIM_CAP
) -> Polytope:
    """Rebuild a polytope from vertex or facet form.

    Vertex form is one hull of the points; facet form is one hull of the
    normals, read back through polarity.  Either way the output is canonical
    regardless of input ordering or redundancy.
    """
    if not isinstance(doc, Mapping):
        raise DegenerateInput("polytope document must be a JSON object")
    if "dim" not in doc:
        raise DegenerateInput("polytope document lacks \"dim\"")
    n = doc["dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DegenerateInput(f"bad dimension {n!r}")
    has_v = "vertices" in doc
    has_h = "normals" in doc
    if has_v == has_h:
        raise DegenerateInput("need exactly one of \"vertices\" or \"normals\"")
    if has_v:
        rows = doc["vertices"]
        if not isinstance(rows, Sequence) or not rows:
            raise DegenerateInput("\"vertices\" must be a nonempty list")
        return convex_hull([parse_vector(r, n) for r in rows], dim_cap=dim_cap)
    rows = doc["normals"]
    if not isinstance(rows, Sequence) or not rows:
        raise DegenerateInput("\"normals\" must be a nonempty list")
    return _polar_hull([parse_vector(r, n) for r in rows], dim_cap=dim_cap)


def measure_to_json(m: ConeVolumeMeasure) -> dict[str, Any]:
    return {
        "atoms": [
            {"normal": vector_to_json(a), "weight": str(w)}
            for a, w in m.atoms
        ],
        "total": str(m.total),
    }


def report_to_json(r: ConcentrationReport) -> dict[str, Any]:
    w = r.witness
    return {
        "kind": r.kind,
        "flat_dim": r.flat_dim,
        "member_indices": sorted(r.member_indices),
        "lhs": str(r.lhs),
        "rhs": str(r.rhs),
        "slack": str(r.slack),
        "equality": r.equality,
        "witness": None if w is None else {
            "complement_dim": w.complement.dim,
            "member_indices": sorted(r.member_indices),
            "complement_indices": sorted(w.complement_indices),
        },
    }


def equality_case_to_json(c: EqualityCase) -> dict[str, Any]:
    return {
        "kind": c.kind,
        "facet_index": c.facet_index,
        "apex_index": c.apex_index,
        "report": report_to_json(c.report),
    }


def tower_to_json(t: LiftTower) -> dict[str, Any]:
    return {
        "base_dim": t.base.dim,
        "levels": [
            {
                "level": lvl.level,
                "dim": lvl.polytope.dim,
                "facets": lvl.polytope.facet_count,
                "volume": rational_json(lvl.volume),
                "verified": lvl.verified,
            }
            for lvl in t.levels
        ],
    }


def dumps(doc: Any) -> str:
    """Stable rendering: insertion-ordered keys, 2-space indent, newline.

    The bytes are those of ``json.dumps(doc, indent=2) + "\n"``, written
    directly: ``indent`` would send ``json.dumps`` to its pure-Python
    encoder, which is slower.  Strings are ASCII-escaped as ``json`` does,
    ints are written with ``int.__repr__``, and empty containers as ``{}``
    and ``[]``.  A document holds only dicts with str keys, lists, tuples,
    str, int, bool and None; anything else, floats included, raises
    TypeError.
    """
    out: list[str] = []
    _write(doc, "", "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value: Any, lead: str, newline: str, out: list[str]) -> None:
    """Append ``lead``, the separator text before ``value``, and ``value``
    to ``out`` (a scalar as one piece), with ``newline`` (a newline and the
    current indent) before each closing bracket."""
    if isinstance(value, str):
        out.append(lead + _encode_str(value))
    elif value is None:
        out.append(lead + "null")
    elif value is True:
        out.append(lead + "true")
    elif value is False:
        out.append(lead + "false")
    elif isinstance(value, int):
        out.append(lead + int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append(lead + "{}")
            return
        inner = newline + "  "
        sep = lead + "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _write(item, f"{sep}{_encode_str(key)}: ", inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append(lead + "[]")
            return
        inner = newline + "  "
        sep = lead + "[" + inner
        for item in value:
            _write(item, sep, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def loads(text: str | bytes) -> Any:
    """Parse a document; malformed or too deeply nested JSON is bad input."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DegenerateInput(f"bad JSON: {exc}") from exc
