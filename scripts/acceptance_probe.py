#!/usr/bin/env python3
"""Offline acceptance probe: ``tests/test_acceptance.py``, unchanged, on synthetic stand-ins.

Acceptance criteria 1-7 read the bitcoin-alpha and bitcoin-otc files and
skip without them, so on their own they never show whether the package
still runs their code.  This probe writes the benchmark's alpha-shaped
synthetic graphs, ``perfbench/gen.py`` ``write_input("alpha", 97)`` and
``write_input("alpha", 98)``, as ``soc-sign-bitcoinalpha.csv`` and
``soc-sign-bitcoinotc.csv`` into a temporary ``SIGAUG_DATA_DIR``. It then
runs the acceptance file unchanged in a pytest subprocess.

The criteria's thresholds describe the real files, so on the stand-ins a
criterion may fail an assertion; that says nothing about the code.  Any
other exception, a skip (the stand-ins were not found) or a collection
error (a name the file imports is gone) means the code no longer runs, and
the probe fails.  It prints one line per criterion, with its outcome, its
exception type and its seconds, and exits 0 only if every criterion passed
or failed with an ``AssertionError``.  Criteria 3-7 train five seeds at
300 epochs, so a probe takes about a quarter of an hour on one core.  It
is kept out of the test suite for that reason.

It needs sigaug importable (installed, or ``PYTHONPATH=src``); the pytest
subprocess runs from the repo root with ``src`` first on its path.

Usage:
    python scripts/acceptance_probe.py
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py"
STAND_INS = {"soc-sign-bitcoinalpha.csv": 97, "soc-sign-bitcoinotc.csv": 98}


class Recorder:
    """A pytest plugin that keeps each test's failing or skipped phase, or its passing call."""

    def __init__(self):
        self.rows: list[dict] = []

    def pytest_runtest_makereport(self, item, call):
        if call.excinfo is None and call.when != "call":
            return
        exc = call.excinfo
        skipped = exc is not None and exc.errisinstance(pytest.skip.Exception)
        self.rows.append({
            "test": item.name,
            "when": call.when,
            "outcome": "passed" if exc is None else "skipped" if skipped else "failed",
            "error": None if exc is None else exc.typename,
            "assertion": exc is not None and exc.errisinstance(AssertionError),
            "seconds": call.duration,
        })


def run_pytest(out: str, args: list[str]) -> None:
    """Run pytest on ``args`` in this process and write its exit code and rows to ``out``."""
    recorder = Recorder()
    code = pytest.main(args, plugins=[recorder])
    Path(out).write_text(json.dumps({"exit": int(code), "rows": recorder.rows}))


def main(argv=None) -> int:
    argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    ).parse_args(argv)

    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in STAND_INS.items():
            shape = gen.write_input("alpha", seed, Path(tmp) / name)
            print(f"{name}: alpha seed {seed}, {json.dumps(shape)}", flush=True)
        out = str(Path(tmp) / "outcomes.json")
        src = str(REPO / "src")
        env = {**os.environ, "SIGAUG_DATA_DIR": tmp,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        runner = (f"import sys; sys.path.insert(0, {str(REPO / 'scripts')!r}); "
                  f"import acceptance_probe; acceptance_probe.run_pytest({out!r}, "
                  f"[{ACCEPTANCE!r}, '-q', '-s', '-p', 'no:cacheprovider'])")
        subprocess.run([sys.executable, "-c", runner], cwd=REPO, env=env, check=False)
        try:
            result = json.loads(Path(out).read_text())
        except (OSError, ValueError):
            result = {"exit": None, "rows": []}
    wall = time.perf_counter() - started

    print(f"\n{'test':<52} {'phase':<8} {'outcome':<8} {'error':<20} seconds")
    for row in result["rows"]:
        print(f"{row['test']:<52} {row['when']:<8} {row['outcome']:<8} "
              f"{row['error'] or '':<20} {row['seconds']:.1f}")
    broken = [row for row in result["rows"]
              if row["outcome"] == "skipped" or (row["outcome"] == "failed" and not row["assertion"])]
    if result["exit"] not in (0, 1) or not result["rows"] or broken:
        print(f"acceptance probe: FAILED (pytest exit {result['exit']}, "
              f"{len(broken)} criteria skipped or raised other than AssertionError), "
              f"{wall:.0f} s")
        return 1
    thresholds = sum(row["outcome"] == "failed" for row in result["rows"])
    print(f"acceptance probe: OK ({thresholds} criteria failed only on an assertion), "
          f"{wall:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
