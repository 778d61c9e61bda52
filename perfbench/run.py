"""End-to-end benchmark of conevol, run against the code in ``src/``.

    python3 perfbench/run.py --workload build|audit|cli --seed N --seconds S --trace 0|1

One process drives a closed loop with one caller: the next item starts
when the previous one has returned.  The run times whole rounds of the
workload's mix until ``--seconds`` have passed (set-up of later rounds and
output checks count towards that wall time, not towards item time) and
until at least ``MIN_ITEMS`` items are timed.  Every item is checked
exactly, outside its timed span.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is a separate
run that wraps each call into a module's public function in a span and
prints the per-layer metrics; in it every other item of each round slot
is traced, so ``trace.overhead`` compares like items.  Counts and the
output digest cover round 0, which every run completes, so they repeat
exactly for a seed.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import os
import hashlib
import json
import platform
import resource
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from tracing import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("build", "audit", "cli")
MIN_ITEMS = 100
IMPORT_RUNS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import conevol, conevol.jsonio; "
    "print(time.perf_counter() - t)"
)
# stop starting rounds after this much wall time, whatever the item count
HARD_STOP_S = 140.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}

SPAN_LAYERS = (
    "polytope.convex_hull",
    "polytope.volume",
    "polytope.translate_to_centroid",
    "polytope.polar",
    "cone_measure.cone_volume_measure",
    "jsonio.parse",
    "jsonio.dump",
    "concentration.full_audit",
    "concentration.equality_case_classification",
    "lifting.tower_bound",
)
CLI_COMMANDS = ("gen", "audit", "lift", "polar", "ispyramid", "join")
COUNTS = (
    "polytope.points_in",
    "polytope.vertices_out",
    "polytope.facets_out",
    "jsonio.bytes_in",
    "jsonio.bytes_out",
    "polytope.facets_in",
    "concentration.reports_affine",
    "concentration.reports_linear",
    "concentration.equalities",
    "concentration.witnesses",
    "concentration.equality_cases",
    "audit.repeat_items",
    "lifting.tower_bound.calls",
    "lifting.levels_verified",
    "lifting.levels_trusted",
    "concentration.reports",
) + tuple(f"cli.{c}.calls" for c in CLI_COMMANDS)

PER_LAYER = (
    {f"{layer}.self_s": "s" for layer in SPAN_LAYERS}
    | {f"{layer}.share": "ratio" for layer in SPAN_LAYERS}
    | {"generators.generate.self_s": "s", "polytope.extreme_ratio": "ratio"}
    | {name: "count" for name in COUNTS}
    | {"cli.startup_ms": "ms"}
    | {f"cli.{c}.p50_ms": "ms" for c in CLI_COMMANDS}
    | {f"cli.{c}.share": "ratio" for c in CLI_COMMANDS}
    | {"trace.overhead": "ratio", "trace.items": "count"}
)

ENV_NOTE = (
    "CPUs are not pinned and the host is not quieted, so timings are medians "
    "over long runs and the exact counts carry the weight"
)


def make_workload(name: str, seed: int):
    import workloads

    if name == "cli":
        return workloads.Cli(seed, ROOT)
    return {"build": workloads.Build, "audit": workloads.Audit}[name](seed)


def digest_of(exact_docs: list) -> str:
    h = hashlib.sha256()
    for doc in exact_docs:
        h.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


class Run:
    """The outcome of one run: timings, failures, counts and the digest."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.by_slot: dict[tuple[int, bool], list[float]] = defaultdict(list)
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.round_setup_s: list[float] = []
        self.round_rates: list[float] = []
        self.start_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: Counter = Counter()
        self.round0_exact: list = []
        self.round0_items = 0
        self.rounds = 0
        self.wall_s = 0.0

    def record(self, wl, item, out, latency: float, traced: bool, first_round: bool) -> None:
        """Check one item's output and fold it into the run's totals."""
        problems = wl.check(item, out)
        if problems:
            self.failed += 1
            self.problems.append(f"{item.label}#{item.slot}: {'; '.join(problems)}")
        self.latencies.append(latency)
        self.by_slot[(item.slot, traced)].append(latency)
        self.by_label[item.label].append(latency)
        if first_round:
            self.counts.update(wl.counts(item, out))
            self.round0_exact.append(wl.exact(out))

    @property
    def digest(self) -> str:
        return digest_of(self.round0_exact)


def run_workload(wl, seconds: float, tracer=None) -> Run:
    """Time whole rounds of ``wl`` until ``seconds`` and ``MIN_ITEMS`` are reached."""
    null = NullTracer()
    setup_tr = tracer or null
    run = Run()
    t = perf_counter()
    wl.start(setup_tr)
    run.start_s = perf_counter() - t
    begin = perf_counter()
    r = 0
    while True:
        t = perf_counter()
        with setup_tr.span("setup", item=f"setup.{r}"):
            items = wl.round(r, setup_tr)
        run.round_setup_s.append(perf_counter() - t)
        if r == 0:
            run.round0_items = len(items)
        done = len(run.latencies)
        for item in items:
            traced = tracer is not None and (r + item.slot) % 2 == 1
            tr = tracer if traced else null
            run.attempted += 1
            t0 = perf_counter()
            try:
                with tr.span("item", item=f"{r}.{item.slot}"):
                    out = wl.run(item, tr)
            except Exception as exc:  # a failed item is counted, never fatal
                run.failed += 1
                run.problems.append(f"{item.label}#{item.slot}: {type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - t0
            try:
                run.record(wl, item, out, latency, traced, r == 0)
            except Exception as exc:  # a checker that cannot read the output fails the item
                run.failed += 1
                run.problems.append(f"{item.label}#{item.slot}: check {type(exc).__name__}: {exc}")
        if len(run.latencies) > done:
            run.round_rates.append((len(run.latencies) - done) / sum(run.latencies[done:]))
        r += 1
        elapsed = perf_counter() - begin
        enough = elapsed >= seconds and len(run.latencies) >= MIN_ITEMS
        # a traced run needs two rounds, so every slot has traced and untraced items
        if tracer is not None and r < 2:
            enough = False
        if enough or elapsed >= HARD_STOP_S:
            break
    run.rounds = r
    run.wall_s = perf_counter() - begin
    return run


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return median(times)


def end_to_end(run: Run, import_s: float, workload: str) -> dict[str, float]:
    lat = run.latencies
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": import_s + run.start_s + median(run.round_setup_s),
        "items_per_s": median(run.round_rates),
        "item_p50_ms": 1000 * median(lat),
        "item_p90_ms": 1000 * quantiles(lat, n=10)[8],
        "pass_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }


def per_layer(run: Run, tracer, wl) -> dict[str, float]:
    values = dict.fromkeys(PER_LAYER, 0.0)
    total, in_items = tracer.self_times()
    item_time = sum(tracer.durations("item"))
    for layer in SPAN_LAYERS + ("generators.generate",):
        values[f"{layer}.self_s"] = total.get(layer, 0.0)
        if layer in SPAN_LAYERS:
            values[f"{layer}.share"] = in_items.get(layer, 0.0) / item_time
    for name in COUNTS:
        values[name] = run.counts.get(name, 0)
    if run.counts["polytope.points_in"]:
        values["polytope.extreme_ratio"] = (
            run.counts["polytope.vertices_out"] / run.counts["polytope.points_in"]
        )
    for cmd in CLI_COMMANDS:
        spans = tracer.durations(f"cli.{cmd}")
        if spans:
            values[f"cli.{cmd}.p50_ms"] = 1000 * median(spans)
            values[f"cli.{cmd}.share"] = sum(spans) / item_time
    if hasattr(wl, "startup_ms"):
        values["cli.startup_ms"] = wl.startup_ms()
    # like against like: mean traced over mean untraced time, per round slot
    traced = untraced = 0.0
    for (slot, is_traced), times in run.by_slot.items():
        other = run.by_slot.get((slot, not is_traced))
        if is_traced and other:
            traced += sum(times) / len(times)
            untraced += sum(other) / len(other)
    values["trace.overhead"] = traced / untraced if untraced else 0.0
    values["trace.items"] = len(tracer.durations("item"))
    return values


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def recorded_digest(workload: str, seed: int) -> str | None:
    try:
        table = json.loads(DIGESTS.read_text())
    except OSError:
        return None
    return table.get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "conevol" / "__init__.py").is_file():
        print(f"perfbench: no conevol sources under {SRC}", file=sys.stderr)
        return 2
    load_start = loadavg()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import_s = import_seconds() if not args.trace else 0.0

    wl = make_workload(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    run = run_workload(wl, args.seconds, tracer)

    expected = recorded_digest(args.workload, args.seed)
    if expected is not None and expected != run.digest:
        run.failed += run.round0_items
        run.problems.append(f"digest {run.digest} != recorded {expected}")

    if tracer is None:
        metrics = end_to_end(run, import_s, args.workload)
        units = END_TO_END
    else:
        metrics = per_layer(run, tracer, wl)
        units = PER_LAYER
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": load_start,
        "loadavg_end": loadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": run.rounds,
        "items_timed": len(run.latencies),
        "items_round0": run.round0_items,
        "wall_s": run.wall_s,
        "note": ENV_NOTE,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl")

    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    fail_ratio = run.failed / run.attempted
    print(f"fail_ratio {fail_ratio:.6g} ratio ({run.failed} failed / {run.attempted} attempted)")
    print(f"samples {len(run.latencies)} timed items over {run.rounds} rounds")
    print(f"digest {run.digest} (round 0, {run.round0_items} items; "
          f"{'matches recorded' if expected == run.digest else 'no recorded digest' if expected is None else 'MISMATCH'})")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    Path(f"{stem}.result.json").write_text(
        json.dumps(
            {
                "env": env,
                "digest": run.digest,
                "fail_ratio": fail_ratio,
                "median_ms_by_label": {
                    label: [len(times), 1000 * median(times)]
                    for label, times in sorted(run.by_label.items())
                },
                **result,
            },
            indent=2,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
