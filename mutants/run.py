"""Run the mutation catalogue: each mutant must be killed by its named tests.

Usage (from anywhere, standard library only; pytest must be importable):

    python mutants/run.py            # every entry of catalogue.json
    python mutants/run.py ID [ID...] # the named entries only

Each entry of ``catalogue.json`` names a file of the repository, an exact
``snippet`` that must occur exactly once in it, its ``replacement`` and a
``note`` on what the mutant breaks, and then either ``killed_by``, the
test ids that must each fail on the mutant, or ``equivalent``, a one-line
argument that no test can tell the mutant from the code.  An entry whose
snippet no longer occurs exactly once fails, so the catalogue moves with
the code.

The named tests first run once, all together, on an unmutated copy, where
they must pass; then each mutant runs its own named tests on a fresh copy
of ``src/``, ``tests/`` and ``pyproject.toml`` in a temporary directory.
Nothing is written into the repository.  Exit status 0 when every entry
holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "catalogue.json"
TIMEOUT = 300  # seconds per pytest run


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def failed_ids(dest: Path, test_ids: list[str]) -> tuple[int, set[str]]:
    """Run pytest on ``test_ids`` in the copy at ``dest``; return its exit
    status and the ids of the tests that failed or errored."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *test_ids],
        cwd=dest,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("FAILED", "ERROR"):
            failed.add(rest.split(" - ", 1)[0])
    return proc.returncode, failed


def covers(test_id: str, failed: set[str]) -> bool:
    """A named id fails when it, or one of its parametrized cases, failed."""
    return any(f == test_id or f.startswith(test_id + "[") for f in failed)


def check_snippet(entry: dict) -> str | None:
    """The mutated text of the entry's file, or None when its snippet does
    not occur exactly once."""
    text = (ROOT / entry["file"]).read_text()
    if text.count(entry["snippet"]) != 1:
        return None
    return text.replace(entry["snippet"], entry["replacement"])


def main(argv: list[str]) -> int:
    entries = json.loads(CATALOGUE.read_text())["mutants"]
    if argv:
        unknown = set(argv) - {e["id"] for e in entries}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}")
            return 1
        entries = [e for e in entries if e["id"] in argv]
    bad = 0
    live = []
    for entry in entries:
        mutated = check_snippet(entry)
        if mutated is None:
            print(f"STALE     {entry['id']}: snippet does not occur exactly once in {entry['file']}")
            bad += 1
        elif "equivalent" in entry:
            print(f"equivalent {entry['id']}: {entry['equivalent']}")
        else:
            live.append((entry, mutated))
    if not live:
        return int(bad > 0)
    named = sorted({t for entry, _ in live for t in entry["killed_by"]})
    with tempfile.TemporaryDirectory(prefix="conevol-mutant-") as tmp:
        copy_tree(Path(tmp))
        code, failed = failed_ids(Path(tmp), named)
    if code != 0:
        print(f"BASELINE  the named tests do not all pass unmutated (pytest exit {code}): {sorted(failed)}")
        return 1
    for entry, mutated in live:
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="conevol-mutant-") as tmp:
            copy_tree(Path(tmp))
            (Path(tmp) / entry["file"]).write_text(mutated)
            try:
                _, failed = failed_ids(Path(tmp), entry["killed_by"])
            except subprocess.TimeoutExpired:
                print(f"TIMEOUT   {entry['id']}: its tests ran past {TIMEOUT} s")
                bad += 1
                continue
        missed = [t for t in entry["killed_by"] if not covers(t, failed)]
        took = f"{time.monotonic() - start:.1f} s"
        if missed:
            print(f"SURVIVED  {entry['id']} ({took}): these tests pass on the mutant: {missed}")
            bad += 1
        else:
            print(f"killed    {entry['id']} ({took})")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
