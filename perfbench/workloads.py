"""The three workloads: seeded inputs, the timed item, its output checks.

Every workload is a sequence of rounds.  A round is a fixed mix of item
kinds (the same slots in every round and for every seed); the seed only
draws the random content of each slot, so rounds cost about the same and
a run that times whole rounds sees the stated mix exactly.  Set-up of a
round builds its inputs and is timed apart from the items.

Each workload provides:

* ``start(tracer)``: one-time set-up before the first round;
* ``round(r, tracer)``: the set-up of round ``r``, returning its items;
* ``run(item, tracer)``: the timed item, returning its output;
* ``check(item, out)``: exact invariants of the output, as problem strings;
* ``exact(out)``: the exact output fields that enter the run digest;
* ``counts(item, out)``: exact per-layer counts read from the output.

Only public names of :mod:`conevol` that the roadmap keeps are called.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from statistics import median
from time import perf_counter
from typing import Any

from conevol import (
    GeneratorSpec,
    affine_hull,
    centroid,
    cone_volume_measure,
    contains_point,
    convex_hull,
    equality_case_classification,
    full_audit,
    generate,
    polar,
    tower_bound,
    translate_to_centroid,
    vector,
    volume,
)
from conevol import jsonio

TOWER_LEVELS = 20
CHILD_TIMEOUT_S = 120


def _coordinate(rng: Random) -> Fraction:
    # the same coordinate law as conevol.generators.random_centered
    return Fraction(rng.randint(-10, 10), rng.choice((1, 2, 3)))


def _cloud(rng: Random, n: int, m: int) -> list[list[Fraction]]:
    """m seeded rational points whose hull is full-dimensional."""
    while True:
        pts = [[_coordinate(rng) for _ in range(n)] for _ in range(m)]
        if affine_hull([vector(p) for p in pts]).dim == n:
            return pts


def _canonical_vertices(kind: str, n: int) -> list[list[int]]:
    if kind == "cube":
        return [list(s) for s in itertools.product((-1, 1), repeat=n)]
    unit = [[int(i == k) for i in range(n)] for k in range(n)]
    if kind == "cross":
        return unit + [[-x for x in row] for row in unit]
    if kind == "simplex":
        return unit + [[-1] * n]
    raise ValueError(f"unknown canonical kind {kind!r}")


def _scale(rng: Random) -> Fraction:
    return Fraction(rng.randint(2, 9), rng.randint(1, 4))


def _vertex_doc(points: list[list[Fraction]]) -> str:
    return json.dumps(
        {"dim": len(points[0]), "vertices": [[str(c) for c in p] for p in points]}
    )


def _strip_approx(doc: Any) -> Any:
    """The exact part of an output document: no version, no decimal strings."""
    if isinstance(doc, dict):
        return {
            k: _strip_approx(v)
            for k, v in doc.items()
            if k not in ("version", "decimal", "approx")
        }
    if isinstance(doc, list):
        return [_strip_approx(v) for v in doc]
    return doc


@dataclass
class Item:
    slot: int
    label: str
    payload: Any


# ---------------------------------------------------------------- build

# Slots of one build round.  Clouds use the acceptance gate's sizes (12, 8
# and 6 points in dimensions 2, 3 and 4) and the CLI default of 2n+2
# points; canonical vertex sets put several coplanar points on each facet;
# two dimension-5 items form the hull's tail.
BUILD_ROUND = (
    [("cloud", 2, 12)] * 10
    + [("cloud", 2, 6)] * 10
    + [("cloud", 3, 8)] * 16
    + [("cloud", 4, 6)] * 8
    + [("cloud", 4, 10)]
    + [(kind, n, None) for kind in ("cube", "cross", "simplex") for n in (2, 3, 4)]
    + [("cloud", 5, 7), ("cross", 5, None)]
)


@dataclass
class BuildOut:
    points: list
    hull: Any
    centered: Any
    measure: Any
    polar: Any
    text: str


class Build:
    """JSON vertex document -> hull -> centered copy -> measure -> polar -> JSON."""

    name = "build"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self, tracer) -> None:
        pass

    def round(self, r: int, tracer) -> list[Item]:
        items = []
        for slot, (kind, n, m) in enumerate(BUILD_ROUND):
            rng = Random(f"build/{self.seed}/{r}/{slot}")
            if kind == "cloud":
                pts = _cloud(rng, n, m)
                label = f"cloud{n}x{m}"
            else:
                # a fresh scaled and translated copy, so no two items share a polytope
                s = _scale(rng)
                t = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
                pts = [[s * x + c for x, c in zip(v, t)] for v in _canonical_vertices(kind, n)]
                rng.shuffle(pts)
                label = f"{kind}{n}"
            items.append(Item(slot, label, _vertex_doc(pts)))
        return items

    def run(self, item: Item, tr) -> BuildOut:
        with tr.span("jsonio.parse"):
            doc = jsonio.loads(item.payload)
            pts = [jsonio.parse_vector(row, doc["dim"]) for row in doc["vertices"]]
        with tr.span("polytope.convex_hull"):
            hull = convex_hull(pts)
        with tr.span("polytope.translate_to_centroid"):
            centered = translate_to_centroid(hull)
        with tr.span("polytope.volume"):
            vol = volume(centered)
        with tr.span("cone_measure.cone_volume_measure"):
            measure = cone_volume_measure(centered)
        with tr.span("polytope.polar"):
            dual = polar(centered)
        with tr.span("jsonio.dump"):
            text = jsonio.dumps(
                {
                    "centered": jsonio.polytope_to_json(centered),
                    "volume": jsonio.rational_json(vol),
                    "cone_volume_measure": jsonio.measure_to_json(measure),
                    "polar": jsonio.polytope_to_json(dual),
                }
            )
        return BuildOut(pts, hull, centered, measure, dual, text)

    def check(self, item: Item, out: BuildOut) -> list[str]:
        problems = []
        vol = volume(out.centered)
        if sum(w for _, w in out.measure.atoms) != vol or out.measure.total != vol:
            problems.append("volume != sum of cone volumes")
        if not centroid(out.centered).is_zero():
            problems.append("centered copy has a nonzero centroid")
        if not all(contains_point(out.hull, x) for x in out.points):
            problems.append("an input point lies outside the hull")
        if polar(out.polar) != out.centered:
            problems.append("polar(polar(P)) != P")
        doc = json.loads(out.text)
        if [a["weight"] for a in doc["cone_volume_measure"]["atoms"]] != [
            str(w) for _, w in out.measure.atoms
        ]:
            problems.append("dumped weights differ from the measure")
        return problems

    def exact(self, out: BuildOut) -> Any:
        return _strip_approx(json.loads(out.text))

    def counts(self, item: Item, out: BuildOut) -> Counter:
        return Counter(
            {
                "polytope.points_in": len(out.points),
                "polytope.vertices_out": len(out.hull.vertices),
                "polytope.facets_out": out.hull.facet_count,
                "jsonio.bytes_in": len(item.payload.encode()),
                "jsonio.bytes_out": len(out.text.encode()),
            }
        )


# ---------------------------------------------------------------- audit

# Polytopes of one audit round, as (kind, dim, points, facets): the
# acceptance gate's random sizes and canonical shapes, 3 to 12 facets.
# Audit cost grows as the sum over k <= dim of C(facets, k), so each random
# slot pins its facet count; the seed then changes the polytope but not
# the round's cost.
AUDIT_ROUND = (
    [("random", 2, 12, f) for f in (5, 6, 6)]
    + [("random", 3, 8, f) for f in (8, 10, 12)]
    + [("random", 4, 6, f) for f in (8, 9, 9)]
    + [("cube", n, None, None) for n in (2, 3, 4)]
    + [("cross", n, None, None) for n in (2, 3)]
    + [("simplex", n, None, None) for n in (2, 3, 4)]
    + [("prism", n, None, None) for n in (3, 4)]
    + [("pyramid_over", 3, None, 5), ("pyramid_over", 4, 6, 9)]
    + [("join", 3, None, 4), ("join", 4, None, 6)]
)
# Slots re-audited at max_flat_dim = dim - 2 after the round's first pass:
# a quarter of the items, one slot of each kind group.
AUDIT_REPEAT_SLOTS = tuple(range(1, len(AUDIT_ROUND), 3))
# generate() draws per slot before a round gives up on its facet count
DRAW_CAP = 200


def _generate_with_facets(kind: str, n: int, m: int | None, facets: int | None, rng: Random, tr):
    """generate() with seeds from ``rng`` until the polytope has ``facets`` facets."""
    for _ in range(DRAW_CAP):
        with tr.span("generators.generate"):
            p = generate(GeneratorSpec(kind, n, m, rng.randrange(10**9)))
        if facets is None or p.facet_count == facets:
            return p
    raise RuntimeError(f"no {kind} {n}-polytope with {facets} facets in {DRAW_CAP} draws")


def _prism_vertices(n: int) -> list:
    """Prism over the centered simplex one dimension down, as in the gate."""
    base = _canonical_vertices("simplex", n - 1)
    return [vector(v + [h]) for v in base for h in (-1, 1)]


@dataclass
class AuditOut:
    polytope: Any
    reports: list
    cases: list
    towers: list
    text: str


class Audit:
    """full_audit -> equality_case_classification -> tower bounds -> JSON."""

    name = "audit"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start(self, tracer) -> None:
        pass

    def round(self, r: int, tr) -> list[Item]:
        rng = Random(f"audit/{self.seed}/{r}")
        originals = []
        for slot, (kind, n, m, facets) in enumerate(AUDIT_ROUND):
            if kind == "prism":
                with tr.span("polytope.convex_hull"):
                    p = convex_hull(_prism_vertices(n))
            else:
                p = _generate_with_facets(kind, n, m, facets, rng, tr)
            with tr.span("polytope.volume"):
                volume(p)
                centroid(p)
            with tr.span("cone_measure.cone_volume_measure"):
                cone_volume_measure(p)
            originals.append(Item(slot, f"{kind}{n}", (p, None)))
        repeats = [
            Item(len(AUDIT_ROUND) + k, "repeat", (p, max(p.dim - 2, 0)))
            for k, p in enumerate(originals[s].payload[0] for s in AUDIT_REPEAT_SLOTS)
        ]
        rng.shuffle(originals)
        return originals + repeats

    def run(self, item: Item, tr) -> AuditOut:
        p, max_flat_dim = item.payload
        with tr.span("concentration.full_audit"):
            reports = full_audit(p, max_flat_dim)
        with tr.span("concentration.equality_case_classification"):
            cases = equality_case_classification(p)
        with tr.span("lifting.tower_bound"):
            towers = [
                [tower_bound(p, r.flat, j) for j in range(1, TOWER_LEVELS + 1)]
                for r in reports
                if r.kind == "affine"
            ]
        with tr.span("jsonio.dump"):
            text = jsonio.dumps(
                {
                    "max_flat_dim": max_flat_dim,
                    "reports": [jsonio.report_to_json(r) for r in reports],
                    "equality_cases": [jsonio.equality_case_to_json(c) for c in cases],
                    "tower_bounds": [[str(b) for b in column] for column in towers],
                }
            )
        return AuditOut(p, reports, cases, towers, text)

    def check(self, item: Item, out: AuditOut) -> list[str]:
        p = out.polytope
        n = p.dim
        vol = volume(p)
        problems = []
        affine = [r for r in out.reports if r.kind == "affine"]
        if len(affine) != len(out.towers):
            problems.append("one tower per affine report expected")
        for r in out.reports:
            if r.slack < 0:
                problems.append(f"negative slack on a {r.kind} flat")
            if r.kind == "linear" and r.rhs != Fraction(r.flat_dim, n) * vol:
                problems.append("linear bound is not (d/n) vol")
        for r, bounds in zip(affine, out.towers):
            bound = Fraction(r.flat_dim + 1, n + 1) * vol
            if r.rhs != bound:
                problems.append("affine bound is not ((d+1)/(n+1)) vol")
            if not all(r.lhs <= bound <= b for b in bounds):
                problems.append("tower bounds do not sandwich the affine bound")
            if not all(x > y for x, y in zip(bounds, bounds[1:])):
                problems.append("tower bounds do not decrease strictly")
            if bounds[-1] - bound != bound / (n + TOWER_LEVELS):
                problems.append("wrong terminal gap of the tower")
        if not all(c.report.equality for c in out.cases):
            problems.append("an equality case without equality")
        return problems

    def exact(self, out: AuditOut) -> Any:
        return _strip_approx(json.loads(out.text))

    def counts(self, item: Item, out: AuditOut) -> Counter:
        c = Counter(
            {
                "polytope.facets_in": out.polytope.facet_count,
                "concentration.equality_cases": len(out.cases),
                "audit.repeat_items": int(item.label == "repeat"),
                "lifting.tower_bound.calls": TOWER_LEVELS * len(out.towers),
            }
        )
        for r in out.reports:
            c[f"concentration.reports_{r.kind}"] += 1
            c["concentration.equalities"] += r.equality
            c["concentration.witnesses"] += r.witness is not None
        return c


# ---------------------------------------------------------------- cli

CLI_STARTUP_RUNS = 3


@dataclass
class CliOut:
    returncode: int
    stdout: bytes
    stderr: bytes


class Cli:
    """One ``python -m conevol.cli`` child per request, input on stdin."""

    name = "cli"

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.startup_s: list[float] = []

    def _child(self, args: list[str], stdin: bytes = b"") -> CliOut:
        proc = subprocess.run(
            [sys.executable, "-m", "conevol.cli", *args],
            input=stdin,
            capture_output=True,
            env=self.env,
            cwd=self.root,
            timeout=CHILD_TIMEOUT_S,
        )
        return CliOut(proc.returncode, proc.stdout, proc.stderr)

    def start(self, tracer) -> None:
        # the first children also compile the package's bytecode cache
        for _ in range(CLI_STARTUP_RUNS):
            t = perf_counter()
            out = self._child(["--version"])
            self.startup_s.append(perf_counter() - t)
            if out.returncode != 0:
                raise RuntimeError(f"conevol --version exited {out.returncode}")

    def startup_ms(self) -> float:
        return 1000 * median(self.startup_s)

    def round(self, r: int, tr) -> list[Item]:
        rng = Random(f"cli/{self.seed}/{r}")

        def seed() -> str:
            return str(rng.randrange(10**6))

        def gen_doc(kind: str, n: int, m: int | None = None, facets: int | None = None) -> bytes:
            p = _generate_with_facets(kind, n, m, facets, rng, tr)
            echo = {"kind": kind, "dim": n, "points": m}
            return jsonio.dumps(jsonio.polytope_to_json(p, generator=echo)).encode()

        def cube_doc(n: int) -> bytes:
            s = _scale(rng)
            return _vertex_doc([[s * x for x in v] for v in _canonical_vertices("cube", n)]).encode()

        requests = [
            ["gen", "--kind", "random", "--dim", "2", "--points", "12", "--seed", seed()],
            ["gen", "--kind", "random", "--dim", "3", "--points", "8", "--seed", seed()],
            ["gen", "--kind", "random", "--dim", "4", "--points", "6", "--seed", seed()],
            ["gen", "--kind", "random", "--dim", "3", "--seed", seed()],
            ["gen", "--kind", "pyramid_over", "--dim", "3", "--seed", seed()],
            ["gen", "--kind", "join", "--dim", "3", "--seed", seed()],
            ["audit", gen_doc("random", 2, 12, 6)],
            ["audit", gen_doc("random", 2, 12, 6)],
            ["audit", gen_doc("random", 3, 8, 10)],
            ["audit", "--max-flat-dim", "1", gen_doc("random", 3, 8, 10)],
            ["audit", gen_doc("pyramid_over", 3, None, 5)],
            ["audit", "--recenter", _vertex_doc(_cloud(rng, 2, 10)).encode()],
            ["audit", "--recenter", _vertex_doc(_cloud(rng, 3, 6)).encode()],
            ["lift", "--levels", "3", cube_doc(1)],
            ["lift", "--levels", "1", gen_doc("random", 2, 6, 5)],
            ["lift", "--levels", "2", cube_doc(2)],
            ["lift", "--levels", "3", cube_doc(2)],
            ["polar", gen_doc("random", 3, 8, 10)],
            ["ispyramid", gen_doc("pyramid_over", 3, None, 5)],
            ["join", gen_doc("join", 3, None, 4)],
        ]
        items = []
        for slot, req in enumerate(requests):
            stdin = req.pop() if isinstance(req[-1], bytes) else b""
            items.append(Item(slot, req[0], (req, stdin)))
        return items

    def run(self, item: Item, tr) -> CliOut:
        args, stdin = item.payload
        with tr.span(f"cli.{item.label}"):
            return self._child(args, stdin)

    def check(self, item: Item, out: CliOut) -> list[str]:
        if out.returncode != 0:
            return [f"exit code {out.returncode}: {out.stderr.decode(errors='replace')[-200:]}"]
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return ["stdout is not JSON"]
        if item.label == "audit" and doc.get("violations") != 0:
            return ["audit document reports violations"]
        return []

    def exact(self, out: CliOut) -> Any:
        return _strip_approx(json.loads(out.stdout))

    def counts(self, item: Item, out: CliOut) -> Counter:
        c = Counter(
            {
                f"cli.{item.label}.calls": 1,
                "jsonio.bytes_in": len(item.payload[1]),
                "jsonio.bytes_out": len(out.stdout),
            }
        )
        doc = json.loads(out.stdout)
        if item.label == "lift":
            for level in doc["tower"]["levels"][1:]:
                c["lifting.levels_verified" if level["verified"] else "lifting.levels_trusted"] += 1
        if item.label == "audit":
            c["concentration.reports"] += len(doc["reports"])
        return c
