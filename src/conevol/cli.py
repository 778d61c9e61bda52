"""Command line front end.

Subcommands generate polytopes, audit concentration bounds, build lift
towers, and wrap the polar/pyramid/join queries.  Polytope documents are
read from a file argument or stdin ("-"), so commands pipe:

    conevol gen --kind simplex --dim 2 | conevol audit

Exit codes: 0 success, 2 bad input (parse errors, caps, degeneracies),
3 theorem violation (a negative slack or broken internal cross-check:
always a bug, never a property of valid input), 4 polytope not centered
where a centered one is required (pass --recenter to translate).
"""
from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Any

from . import __version__
from .concentration import (
    DEFAULT_FACET_CAP,
    _audit_bound,
    _kind_reports,
    detect_join_structure,
    equality_case_classification,
)
from .cone_measure import cone_volume_measure
from .errors import DegenerateInput, GeometryError, NotCentered, TheoremViolation
from .generators import KINDS, GeneratorSpec, generate
from .jsonio import (
    dumps,
    equality_case_to_json,
    loads,
    measure_to_json,
    polytope_from_json,
    polytope_to_json,
    rational_json,
    report_to_json,
    tower_to_json,
    vector_to_json,
)
from .kernel import affine_hull
from .lifting import build_tower, tower_bound
from .polytope import (
    DEFAULT_DIM_CAP,
    Polytope,
    centroid,
    polar,
    pyramid_apexes,
    translate_to_centroid,
    volume,
)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--format", choices=("json", "text"), default="json", help="output format"
    )
    sp.add_argument(
        "--dim-cap",
        type=int,
        default=DEFAULT_DIM_CAP,
        help="refuse inputs above this dimension",
    )


def _add_file(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "file", nargs="?", default="-", help="polytope JSON path, - for stdin"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conevol",
        description="exact cone-volume measures and concentration audits",
    )
    parser.add_argument(
        "--version", action="version", version=f"conevol {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a centered polytope")
    gen.add_argument("--kind", choices=KINDS, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--points", type=int, default=None, help="vertex budget for seeded kinds")
    gen.add_argument("--seed", type=int, default=0)
    _add_common(gen)
    gen.set_defaults(func=cmd_gen)

    audit = sub.add_parser("audit", help="run the concentration audit")
    _add_file(audit)
    audit.add_argument(
        "--max-flat-dim",
        type=int,
        default=None,
        help="largest flat dimension to enumerate (default: dim - 1)",
    )
    audit.add_argument(
        "--facet-cap",
        type=int,
        default=DEFAULT_FACET_CAP,
        help=f"refuse inputs with more facets (default: {DEFAULT_FACET_CAP})",
    )
    family = audit.add_mutually_exclusive_group()
    family.add_argument(
        "--linear", dest="kinds", action="store_const", const=("linear",),
        help="linear bounds only",
    )
    family.add_argument(
        "--affine", dest="kinds", action="store_const", const=("affine",),
        help="affine bounds only",
    )
    family.add_argument(
        "--both", dest="kinds", action="store_const", const=("affine", "linear"),
        help="both families (default)",
    )
    audit.set_defaults(kinds=("affine", "linear"))
    audit.add_argument(
        "--recenter", action="store_true", help="translate to the centroid first"
    )
    _add_common(audit)
    audit.set_defaults(func=cmd_audit)

    lift = sub.add_parser("lift", help="build the pyramid-lift tower")
    _add_file(lift)
    lift.add_argument("--levels", type=int, default=1, help="number of lift levels")
    lift.add_argument(
        "--recenter", action="store_true", help="translate to the centroid first"
    )
    _add_common(lift)
    lift.set_defaults(func=cmd_lift)

    pol = sub.add_parser("polar", help="polar dual")
    _add_file(pol)
    _add_common(pol)
    pol.set_defaults(func=cmd_polar)

    isp = sub.add_parser("ispyramid", help="report apex/base structure")
    _add_file(isp)
    _add_common(isp)
    isp.set_defaults(func=cmd_ispyramid)

    jn = sub.add_parser("join", help="detect join structure")
    _add_file(jn)
    _add_common(jn)
    jn.set_defaults(func=cmd_join)
    return parser


def _read_raw(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load_polytope(args: argparse.Namespace) -> tuple[Polytope, dict[str, Any]]:
    raw = _read_raw(args.file)
    doc = loads(raw)
    p = polytope_from_json(doc, dim_cap=args.dim_cap)
    echo: dict[str, Any] = {
        "source": "stdin" if args.file == "-" else args.file,
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    if isinstance(doc, dict) and isinstance(doc.get("generator"), dict):
        # echoed as it came, so it must be writable: a float is not
        try:
            dumps(doc["generator"])
        except TypeError as exc:
            raise DegenerateInput(f"generator block: {exc}") from exc
        echo["generator"] = doc["generator"]
    return p, echo


def _require_centered_input(
    p: Polytope, args: argparse.Namespace, echo: dict[str, Any]
) -> Polytope:
    echo["recentered"] = False
    if p.centered:
        return p
    if not getattr(args, "recenter", False):
        raise NotCentered(
            "input polytope is not centered; pass --recenter to translate"
        )
    echo["recentered"] = True
    return translate_to_centroid(p)


def _polytope_summary(p: Polytope) -> dict[str, Any]:
    return {
        "dim": p.dim,
        "facet_count": p.facet_count,
        "vertex_count": len(p.vertices),
        "volume": rational_json(volume(p)),
        "centroid": vector_to_json(centroid(p)),
    }


def _summary_text(p: Polytope) -> str:
    return (
        f"dim {p.dim}, {p.facet_count} facets, {len(p.vertices)} vertices, "
        f"volume {volume(p)}"
    )


def cmd_gen(args: argparse.Namespace) -> tuple[str, int]:
    spec = GeneratorSpec(args.kind, args.dim, args.points, args.seed)
    p = generate(spec, dim_cap=args.dim_cap)
    echo = {"kind": spec.kind, "dim": spec.dim, "points": spec.points, "seed": spec.seed}
    if args.format == "text":
        return f"{spec.kind}: {_summary_text(p)}\n", 0
    return dumps(polytope_to_json(p, generator=echo)), 0


def cmd_audit(args: argparse.Namespace) -> tuple[str, int]:
    if args.max_flat_dim is not None and args.max_flat_dim < 0:
        raise ValueError(f"--max-flat-dim must be nonnegative, got {args.max_flat_dim}")
    p, echo = _load_polytope(args)
    p = _require_centered_input(p, args, echo)
    # full_audit's checks and bound, then the walks of the requested kinds alone
    max_flat_dim = _audit_bound(p, args.max_flat_dim, args.facet_cap)
    reports = [r for kind in args.kinds for r in _kind_reports(p, kind, max_flat_dim)]
    cases = equality_case_classification(p)
    measure = cone_volume_measure(p)
    violations = sum(r.slack < 0 for r in reports)
    code = 3 if violations else 0
    if args.format == "text":
        lines = [f"polytope: {_summary_text(p)}"]
        weights = " ".join(f"{i}:{w}" for i, (_, w) in enumerate(measure.atoms))
        lines.append(f"cone weights: {weights}")
        for r in reports:
            members = ",".join(str(i) for i in sorted(r.member_indices))
            tag = " EQUALITY" if r.equality else ""
            wtn = " witness" if r.witness is not None else ""
            lines.append(
                f"{r.kind} d={r.flat_dim} members=[{members}] "
                f"lhs={r.lhs} rhs={r.rhs} slack={r.slack}{tag}{wtn}"
            )
        for c in cases:
            lines.append(
                f"equality case: {c.kind} facet={c.facet_index} apex={c.apex_index}"
            )
        if violations:
            lines.append("VIOLATION: negative slack found")
        return "\n".join(lines) + "\n", code
    doc = {
        "tool": "conevol",
        "version": __version__,
        "input": echo,
        "seed": (echo.get("generator") or {}).get("seed"),
        "polytope": _polytope_summary(p),
        "cone_volume_measure": measure_to_json(measure),
        "max_flat_dim": max_flat_dim,
        "reports": [report_to_json(r) for r in reports],
        "equality_cases": [equality_case_to_json(c) for c in cases],
        "violations": violations,
    }
    return dumps(doc), code


def cmd_lift(args: argparse.Namespace) -> tuple[str, int]:
    p, echo = _load_polytope(args)
    p = _require_centered_input(p, args, echo)
    tower = build_tower(p, args.levels)
    # tower_bound reads a flat only through its dimension, 0 for every
    # facet's singleton, so one column serves every facet
    flat = affine_hull([p.normals[0]])
    column = [tower_bound(p, flat, j) for j in range(1, args.levels + 1)]
    if any(x <= y for x, y in zip(column, column[1:])):
        raise TheoremViolation("tower bound column is not strictly decreasing")
    levels = [str(x) for x in column]
    bounds = [
        {"facet": i, "flat_dim": 0, "weight": str(w), "levels": levels, "monotone": True}
        for i, (_, w) in enumerate(cone_volume_measure(p).atoms)
    ]
    doc = {
        "tool": "conevol",
        "version": __version__,
        "input": echo,
        "polytope": _polytope_summary(p),
        "tower": tower_to_json(tower),
        "singleton_bounds": bounds,
    }
    if args.format == "text":
        lines = [f"polytope: {_summary_text(p)}"]
        for lvl in tower.levels:
            flag = "verified" if lvl.verified else "trusted"
            lines.append(
                f"level {lvl.level}: dim {lvl.polytope.dim}, "
                f"{lvl.polytope.facet_count} facets, volume {lvl.volume} ({flag})"
            )
        for b in bounds:
            bound = " <= " + " > ".join(b["levels"]) if b["levels"] else ""
            lines.append(f"facet {b['facet']}: weight {b['weight']}{bound}")
        return "\n".join(lines) + "\n", 0
    return dumps(doc), 0


def cmd_polar(args: argparse.Namespace) -> tuple[str, int]:
    p, _ = _load_polytope(args)
    q = polar(p)
    if args.format == "text":
        return f"polar: {_summary_text(q)}\n", 0
    return dumps(polytope_to_json(q)), 0


def cmd_ispyramid(args: argparse.Namespace) -> tuple[str, int]:
    p, echo = _load_polytope(args)
    # the first pair is is_pyramid's: the lexicographically smallest apex
    apexes = pyramid_apexes(p)
    if args.format == "text":
        if not apexes:
            return "not a pyramid\n", 0
        apex, base = apexes[0]
        return (
            f"pyramid: apex ({', '.join(vector_to_json(p.vertices[apex]))}) over facet {base}"
            f" ({len(apexes)} apex(es) total)\n"
        ), 0
    doc = {
        "tool": "conevol",
        "version": __version__,
        "input": echo,
        "pyramid": bool(apexes),
        "apexes": [
            {"vertex_index": vi, "base_facet": fi, "apex": vector_to_json(p.vertices[vi])}
            for vi, fi in apexes
        ],
    }
    return dumps(doc), 0


def cmd_join(args: argparse.Namespace) -> tuple[str, int]:
    p, echo = _load_polytope(args)
    # join_detection_roundtrip's round trip, keeping the primal split's indices
    split = detect_join_structure(p)
    direct = split is not None
    via_polar = detect_join_structure(polar(translate_to_centroid(p))) is not None
    sides = None if split is None else [list(side) for side in split]
    doc = {
        "tool": "conevol",
        "version": __version__,
        "input": echo,
        "join": direct,
        "split": sides,
        "polar_roundtrip": via_polar,
        "agree": direct == via_polar,
    }
    if args.format == "text":
        if sides is None:
            return f"no join structure (polar agrees: {direct == via_polar})\n", 0
        return (
            f"join: vertices {sides[0]} * {sides[1]} "
            f"(polar agrees: {direct == via_polar})\n"
        ), 0
    return dumps(doc), 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = args.func(args)
    except NotCentered as exc:
        print(f"conevol: {exc}", file=sys.stderr)
        return 4
    except TheoremViolation as exc:
        print(f"conevol: theorem violation: {exc}", file=sys.stderr)
        return 3
    except (GeometryError, ValueError, OSError) as exc:
        print(f"conevol: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
