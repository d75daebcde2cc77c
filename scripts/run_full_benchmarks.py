#!/usr/bin/env python3
"""Manual benchmark driver for the large datasets (multi-hour desk runs).

Runs baseline and augmented pipelines over the chosen datasets (names from
``sigaug.config.KNOWN_DATASETS``), five seeds each, in one process.  The
pipelines and seeds are checked once, into one ``plan_experiment`` plan,
before any dataset loads.  Each dataset is loaded once and runs that plan
in one ``run_plan`` call, which shares each seed's split, scorer,
augmentation and schedules among the pipelines.  Each (dataset, pipeline)
gets the output directory ``sigaug run`` would write, written by the same
code.  In ``--pipelines``, ``random:<kind>,<ratio>`` is one item.
Datasets are looked up under ``$SIGAUG_DATA_DIR``, then the repo's
``datasets/``, and a relative ``--outdir`` is taken from the repo root,
whatever the working directory.  A dataset that fails to load, or a seed
that fails, fails every pipeline of that dataset; the driver goes on with
the next one and exits 1 at the end, listing the failed datasets.  An
empty or unknown dataset list, and a pipeline or seed list that cannot
run, exit 2 before any dataset loads or any output directory is made.

It needs sigaug importable (installed, or ``PYTHONPATH=src``).  The small
bitcoin graphs take minutes; epinions/slashdot-scale graphs take hours on a
laptop CPU, which is why these rows are not part of the acceptance gate.

Usage:
    python scripts/run_full_benchmarks.py [--datasets bitcoin-alpha,bitcoin-otc]
                                          [--pipelines baseline,sga,random:drop-edge,0.1]
                                          [--outdir benchmark-results] [--seeds 5]
"""

import argparse
import logging
import re
import sys
from pathlib import Path

from sigaug.cli import start_output, write_run
from sigaug.config import KNOWN_DATASETS, config_from_dict
from sigaug.evalbench import Plan, plan_experiment, run_plan
from sigaug.graph import build_graph, load_edge_list

REPO = Path(__file__).resolve().parent.parent
DEFAULT_PIPELINES = ["baseline", "sga", "sa-only", "tp-only"]
# one pipeline per comma-separated item, but random:<kind>,<ratio> spans two
PIPELINE_ITEM = re.compile(r"\s*random:[^,]*,[^,]*|[^,]+")


def run_dataset(dataset: str, plan: Plan, outdir: Path) -> None:
    """Load ``dataset`` once, run ``plan`` on it and write each run's directory."""
    cfgs = [
        config_from_dict({}, {
            "dataset": dataset, "pipeline": run.pipeline, "seeds": list(plan.seeds),
            "output_dir": str(outdir / dataset / run.pipeline.replace(":", "_")),
        })
        for run in plan.runs
    ]
    path, fmt = cfgs[0].resolve_dataset(REPO)
    loaded = load_edge_list(path, format=fmt)
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    outdirs = [start_output(cfg, graph) for cfg in cfgs]
    for cfg, run, report, run_dir in zip(cfgs, plan.runs, run_plan(graph, plan), outdirs):
        write_run(cfg, run, report, run_dir)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--datasets", default="bitcoin-alpha,bitcoin-otc")
    parser.add_argument("--pipelines", default=",".join(DEFAULT_PIPELINES))
    parser.add_argument("--outdir", default="benchmark-results")
    parser.add_argument("--seeds", default="5")
    args = parser.parse_args()

    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    pipelines = [p.strip() for p in PIPELINE_ITEM.findall(args.pipelines) if p.strip()]
    try:
        if not datasets:
            raise ValueError("no datasets given")
        unknown = [d for d in datasets if d not in KNOWN_DATASETS]
        if unknown:
            raise ValueError(f"unknown datasets {unknown}; choose from {list(KNOWN_DATASETS)}")
        base = config_from_dict({}, {"seeds": args.seeds})
        plan = plan_experiment(pipelines, base.seeds, base.encoder, base.augment, base.pacing,
                               base.ratio)
    except ValueError as exc:
        parser.error(str(exc))
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")

    outdir = REPO / args.outdir
    failures = []
    for dataset in datasets:
        print(f"\n=== {dataset}: {', '.join(pipelines)} -> {outdir / dataset}")
        try:
            run_dataset(dataset, plan, outdir)
        except Exception as exc:  # every pipeline of this dataset fails; go on with the next
            failures.append((dataset, exc))
    if failures:
        print("\nfailed datasets (every pipeline of each):")
        for dataset, exc in failures:
            print(f"  {dataset}: {exc}")
        return 1
    print("\nall runs complete")
    return 0


if __name__ == "__main__":
    sys.exit(main())
