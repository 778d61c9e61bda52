"""Golden documents: the exact CLI output for a fixed set of inputs.

Each case runs through ``conevol.cli.main`` in process and must reproduce
its file under ``tests/golden/`` byte for byte.  The files pin facet
order, canonical forms, report order and every exact rational, so drift
from a refactor of the geometry core shows up here even when each
invariant test still passes.  Two audits in dimensions 4 and 5, too large
to keep as files, are pinned by the sha256 of their output instead.

To rewrite the files after an intended output change, run this module as a
script (``PYTHONPATH=src python tests/test_golden.py``) and review the diff.
"""
from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from conevol.cli import main

GOLDEN = Path(__file__).parent / "golden"

GEN_SPECS = {
    "cube_3": ["--kind", "cube", "--dim", "3"],
    "cross_3": ["--kind", "cross", "--dim", "3"],
    "simplex_3": ["--kind", "simplex", "--dim", "3"],
    "random_2_seed_1": ["--kind", "random", "--dim", "2", "--seed", "1"],
    "random_3_seed_2": ["--kind", "random", "--dim", "3", "--seed", "2"],
    "pyramid_over_3_seed_4": ["--kind", "pyramid_over", "--dim", "3", "--seed", "4"],
    "join_3_seed_2": ["--kind", "join", "--dim", "3", "--seed", "2"],
    "cube_1": ["--kind", "cube", "--dim", "1"],
}

# the 3-cube in facet form, plus one redundant row that only touches an edge
FACET_FORM_DOC = json.dumps(
    {
        "dim": 3,
        "normals": [
            ["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"],
            ["0", "-1", "0"], ["0", "0", "1"], ["0", "0", "-1"],
            ["1/2", "1/2", "0"],
        ],
    }
)

# name -> (input document or generator spec, command run on it)
CASES: dict[str, tuple[str, list[str]]] = {
    **{f"gen_{name}": ("", ["gen", *spec]) for name, spec in GEN_SPECS.items()},
    **{
        f"audit_{name}": (f"gen:{name}", ["audit"])
        for name in GEN_SPECS
        if name != "cube_1"
    },
    "lift_cube_1": ("gen:cube_1", ["lift", "--levels", "3"]),
    "lift_cube_3": ("gen:cube_3", ["lift", "--levels", "5"]),
    "polar_cube_3": ("gen:cube_3", ["polar"]),
    "audit_facet_form_cube_3": (FACET_FORM_DOC, ["audit"]),
    **{
        f"join_{name}": (f"gen:{name}", ["join"])
        for name in ("simplex_3", "join_3_seed_2", "pyramid_over_3_seed_4", "cube_3", "cross_3")
    },
    **{
        f"ispyramid_{name}": (f"gen:{name}", ["ispyramid"])
        for name in ("pyramid_over_3_seed_4", "cube_3")
    },
}


def _run(argv: list[str], stdin: str) -> str:
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    sys.stdout = out = io.StringIO()
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def render(name: str) -> str:
    source, argv = CASES[name]
    if source.startswith("gen:"):
        source = _run(["gen", *GEN_SPECS[source[4:]]], "")
    return _run(argv, source)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert render(name) == (GOLDEN / f"{name}.json").read_text()


# audits too large to keep as files, pinned by the sha256 of their output:
# 18,170 and 12,898 reports over dimension-4 and dimension-5 flats
AUDIT_DIGESTS = {
    "random_4_cap_27": (
        ["--kind", "random", "--dim", "4"],
        ["audit", "--facet-cap", "27"],
        "0362f0f0fed225ac039fcff7434e691ab3b81b01e191c56d39bd5a8d60238cd8",
    ),
    "cross_5_cap_32": (
        ["--kind", "cross", "--dim", "5"],
        ["audit", "--facet-cap", "32"],
        "0633fc68692b9c5f8198e76ed1ead782963983e316b1ef94486c12df2abfb6a1",
    ),
}


@pytest.mark.parametrize("name", sorted(AUDIT_DIGESTS))
def test_large_audit_digest(name):
    spec, argv, digest = AUDIT_DIGESTS[name]
    out = _run(argv, _run(["gen", *spec], ""))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        (GOLDEN / f"{name}.json").write_text(render(name))
        print(f"wrote {name}.json")
