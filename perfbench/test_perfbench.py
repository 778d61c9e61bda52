"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They check that a seed fixes the inputs and the output digest, that a
wrong output is counted as a failure, that every printed metric is
declared in ``BENCHMARK.json``, and that the benchmark refuses to run
without the package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

NULL = NullTracer()
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _cheap_build_items(seed: int) -> list:
    return [i for i in workloads.Build(seed).round(0, NULL) if i.label.startswith("cloud2")]


def test_same_seed_gives_same_items_and_digest():
    first, second = _cheap_build_items(7), _cheap_build_items(7)
    assert [(i.slot, i.payload) for i in first] == [(i.slot, i.payload) for i in second]
    digests = []
    for items in (first, second):
        wl = workloads.Build(7)
        digests.append(run.digest_of([wl.exact(wl.run(i, NULL)) for i in items]))
    assert digests[0] == digests[1]

    cli = [i.payload for i in workloads.Cli(7, run.ROOT).round(0, NULL)]
    assert cli == [i.payload for i in workloads.Cli(7, run.ROOT).round(0, NULL)]


def test_another_seed_gives_different_items():
    assert [i.payload for i in _cheap_build_items(7)] != [i.payload for i in _cheap_build_items(8)]
    cli7 = [i.payload for i in workloads.Cli(7, run.ROOT).round(0, NULL)]
    assert cli7 != [i.payload for i in workloads.Cli(8, run.ROOT).round(0, NULL)]
    # the mix itself does not depend on the seed
    assert [i.label for i in _cheap_build_items(7)] == [i.label for i in _cheap_build_items(8)]


def test_wrong_build_output_counts_as_failure():
    wl = workloads.Build(3)
    item = _cheap_build_items(3)[0]
    out = wl.run(item, NULL)
    result = run.Run()
    result.record(wl, item, out, 0.01, False, True)
    assert result.failed == 0

    (normal, weight), *rest = out.measure.atoms
    bad = replace(out, measure=replace(out.measure, atoms=((normal, weight + 1), *rest)))
    result.attempted = 2
    result.record(wl, item, bad, 0.01, False, False)
    assert result.failed == 1
    assert "volume != sum of cone volumes" in result.problems[0]


def test_wrong_audit_output_counts_as_failure():
    wl = workloads.Audit(3)
    p = workloads.generate(workloads.GeneratorSpec("random", 2, 12, 5))
    item = workloads.Item(0, "random2", (p, None))
    out = wl.run(item, NULL)
    assert wl.check(item, out) == []
    first = out.reports[0]
    negative = replace(first, slack=Fraction(-1))
    assert "negative slack" in " ".join(wl.check(item, replace(out, reports=[negative] + out.reports[1:])))
    flat = [list(reversed(column)) for column in out.towers]
    assert "decrease strictly" in " ".join(wl.check(item, replace(out, towers=flat)))


def test_wrong_cli_output_counts_as_failure():
    wl = workloads.Cli(3, run.ROOT)
    item = workloads.Item(0, "audit", (["audit"], b""))
    assert wl.check(item, workloads.CliOut(0, b'{"violations": 0}', b"")) == []
    assert wl.check(item, workloads.CliOut(3, b'{"violations": 1}', b""))
    assert wl.check(item, workloads.CliOut(0, b'{"violations": 1}', b""))
    assert wl.check(item, workloads.CliOut(0, b"not json", b""))


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    assert run.main(["--workload", "audit", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_digest_mismatch_fails_round0_items(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_ITEMS", 1)
    monkeypatch.setattr(run, "recorded_digest", lambda workload, seed: "0" * 64)
    assert run.main(["--workload", "audit", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == len(workloads.AUDIT_ROUND) + len(workloads.AUDIT_REPEAT_SLOTS)
    assert "MISMATCH" in out
