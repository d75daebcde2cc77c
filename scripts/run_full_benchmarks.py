#!/usr/bin/env python3
"""Manual benchmark driver for the large datasets (multi-hour desk runs).

Runs baseline and augmented pipelines over the chosen datasets (names from
``sigaug.config.KNOWN_DATASETS``), five seeds each, writing one output
directory per (dataset, pipeline).  Like the ``sigaug`` command it starts,
it needs sigaug importable (installed, or ``PYTHONPATH=src``).  The small
bitcoin graphs take minutes; epinions/slashdot-scale graphs take hours
on a laptop CPU, which is why these rows are not part of the acceptance gate.

Usage:
    python scripts/run_full_benchmarks.py [--datasets bitcoin-alpha,bitcoin-otc]
                                          [--pipelines baseline,sga]
                                          [--outdir benchmark-results]
"""

import argparse
import subprocess
import sys
from pathlib import Path

from sigaug.config import KNOWN_DATASETS

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PIPELINES = ["baseline", "sga", "sa-only", "tp-only"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--datasets", default="bitcoin-alpha,bitcoin-otc")
    parser.add_argument("--pipelines", default=",".join(DEFAULT_PIPELINES))
    parser.add_argument("--outdir", default="benchmark-results")
    parser.add_argument("--seeds", default="5")
    args = parser.parse_args()

    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    pipelines = [p.strip() for p in args.pipelines.split(",") if p.strip()]
    unknown = [d for d in datasets if d not in KNOWN_DATASETS]
    if unknown:
        raise SystemExit(f"unknown datasets {unknown}")

    failures = []
    for dataset in datasets:
        for pipeline in pipelines:
            outdir = Path(args.outdir) / dataset / pipeline.replace(":", "_")
            cmd = [
                sys.executable,
                "-m",
                "sigaug.cli",
                "run",
                "--dataset",
                dataset,
                "--pipeline",
                pipeline,
                "--seeds",
                args.seeds,
                "--outdir",
                str(outdir),
            ]
            print(f"\n=== {dataset} / {pipeline} -> {outdir}")
            result = subprocess.run(cmd, cwd=REPO)
            if result.returncode != 0:
                failures.append((dataset, pipeline, result.returncode))
    if failures:
        print("\nfailed runs:")
        for dataset, pipeline, code in failures:
            print(f"  {dataset}/{pipeline}: exit {code}")
        return 1
    print("\nall runs complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
