#!/usr/bin/env python3
"""Benchmark record: alternated pairs of ``perfbench/run.py`` runs, as ``BENCH_<pr>.json``.

Runs the benchmark's ``perfbench/run.py``, unchanged and with ``--trace 0``,
once per side and pair for each workload: on the *change* tree, the
checkout this script sits in, and on a ``--parent`` tree.  Pair 1 runs the
parent first, pair 2 the change first, and so on alternately, so a drift in
the machine's speed over a session falls on both sides alike.

``run.py`` prints two JSON lines, its details and its result.  For every
run the record keeps the result's ``correct``, ``attempted``, ``failed`` and
end-to-end metric values, and the details' ``output_sha256``, raw pass CPU
samples, failures and steal seconds; ``pass_cpu_s`` is the median of the
raw pass CPU samples.  Per workload and side it gives the median and
quartiles of each end-to-end metric and of ``pass_cpu_s``, so the raw CPU
figure stands next to ``pass_s``, which is scaled by the speed probe and
carries the probe's own noise.  It counts per metric the pairs each side
won, by the direction ``BENCHMARK.json`` gives the metric (lower raw CPU is
better), and the median of the per-pair differences, change minus parent.
The commits are the HEADs ``run.py`` read from each tree's ``.git``, so a
change measured before it is committed reads as the commit it sits on.  The
environment is that of the change side's first run.

The record is written to ``BENCH_<pr>.json`` at the root of the change
tree.  ``--smoke`` passes ``run.py`` its tiny inputs, for this script's own
test.

Usage:
    python scripts/bench_record.py --pr 33 --parent ../parent \\
        --workloads slashdot-report --seed 97 --pairs 10 --seconds 30
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
# metric -> "lower" or "higher"; the raw pass CPU is recorded beside the scaled pass_s
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]} | {"pass_cpu_s": "lower"}
SIDES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> tuple[dict, dict]:
    """Run ``perfbench/run.py`` in ``tree``; return its details and result lines."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: run.py exited with {proc.returncode} in {tree} ({workload})")
    details, result = proc.stdout.splitlines()[-2:]
    return json.loads(details), json.loads(result)


def run_record(details: dict, result: dict) -> dict:
    """One run's entry: what the record keeps of the two lines ``run.py`` printed."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "pass_cpu_s": statistics.median(details["pass_cpu_samples_s"]),
        "pass_cpu_samples_s": details["pass_cpu_samples_s"],
        "output_sha256": details["output_sha256"],
        "failures": details["failures"],
        "steal_s": details["steal_s"],
    }


def _value(run: dict, metric: str) -> float:
    return run["pass_cpu_s"] if metric == "pass_cpu_s" else run["metrics"][metric]


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; all three equal for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(pairs: list[dict]) -> dict:
    """Per metric: pairs won by each side, ties, and the median change-minus-parent difference."""
    out = {}
    for metric, better in BETTER.items():
        diffs = [_value(p["change"], metric) - _value(p["parent"], metric) for p in pairs]
        sign = -1 if better == "lower" else 1
        out[metric] = {
            "change": sum(sign * d > 0 for d in diffs),
            "parent": sum(sign * d < 0 for d in diffs),
            "tie": sum(d == 0 for d in diffs),
            "median_diff": statistics.median(diffs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="the parent tree, a sigaug checkout")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]),
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=97, help="workload seed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--smoke", action="store_true", help="run.py's tiny inputs")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    known = [w["name"] for w in BENCHMARK["workloads"]]
    if unknown := sorted(set(workloads) - set(known)):
        parser.error(f"unknown workloads {unknown}; choose from {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": REPO}

    record = {"pr": args.pr, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
              "pairs": args.pairs, "commits": {}, "environment": None, "workloads": {}}
    for workload in workloads:
        pairs = []
        for number in range(1, args.pairs + 1):
            # odd pairs run the parent first, even pairs the change
            order = SIDES if number % 2 else SIDES[::-1]
            pair = {"pair": number, "first": order[0]}
            for side in order:
                details, result = run_once(trees[side], workload, args.seed, args.seconds, args.smoke)
                env = dict(details["environment"])
                record["commits"][side] = env.pop("git_commit")
                env.pop("workload_seed")
                if side == "change" and record["environment"] is None:
                    record["environment"] = env
                pair[side] = run_record(details, result)
                print(f"{workload} pair {number} {side}: pass_s {pair[side]['metrics']['pass_s']:.4f}"
                      f" pass_cpu_s {pair[side]['pass_cpu_s']:.4f}", flush=True)
            pairs.append(pair)
        summary = {
            side: {metric: spread([_value(p[side], metric) for p in pairs]) for metric in BETTER}
            for side in SIDES
        }
        record["workloads"][workload] = {"pairs": pairs, "summary": summary, "wins": wins(pairs)}
    path = REPO / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
