"""One benchmark run inside a fresh process: set up, then repeat passes.

Started by ``run.py`` with the thread caps already in the environment.  It
imports sigaug from ``src/`` of the current directory (never an installed
copy), loads and builds the input graph, prints ``READY`` with the CPU
seconds used so far, then repeats the workload's pass until ``--seconds``
have elapsed.  Each pass's outputs are checked outside the timed region.
The last stdout line is a JSON summary for the parent.

Times are CPU seconds of this process (``time.process_time``).  On a shared
virtual machine the hypervisor can take the CPU away for seconds at a time;
the kernel accounts that as steal time, which process CPU time excludes and
wall time does not.  ``probe.Probe`` measures the machine's speed after
set-up and after every pass, so the parent can convert to reference
seconds.  Wall seconds per pass are reported beside them.

With ``--trace 1`` the set-up and every second pass run under ``spans``'s
wrappers; the passes in between run untraced, which gives the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import Probe
from workloads import SMOKE, SPLIT_SEED, WORKLOADS


def _import_sigaug(src: Path):
    sys.path.insert(0, str(src))
    import sigaug

    if not Path(sigaug.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"sigaug imported from {sigaug.__file__}, not from {src}")
    return sigaug


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class AlphaPass:
    """One pipeline seed through ``run_experiment`` on the built graph."""

    def __init__(self, sigaug, workload, graph):
        self.sigaug = sigaug
        self.workload = workload
        self.edges = graph.to_samples()
        self.enc_cfg = sigaug.EncoderConfig(epochs=workload.epochs)

    def run(self) -> list:
        """Attempted operations, each an outcome or an exception (untimed checks follow)."""
        try:
            return [
                self.sigaug.run_experiment(
                    self.edges, self.workload.pipeline, [SPLIT_SEED],
                    enc_cfg=self.enc_cfg,
                )
            ]
        except Exception as exc:  # one failed seed; the run goes on
            return [exc]

    def check(self, outcomes) -> tuple[list[str], str, dict]:
        (report,) = outcomes
        if isinstance(report, Exception):
            return [f"seed failed: {report!r}"], "", {}
        from sigaug.evalbench import report_payload

        result = report.results[0]
        problems = []
        auc = result.metrics.auc
        if auc is None or auc < self.workload.auc_floor:
            problems.append(f"auc {auc} below the planted-structure floor {self.workload.auc_floor}")
        if self.workload.pipeline == "sga" and (
            result.bd_after is None or result.bd_before is None or result.bd_after < result.bd_before
        ):
            problems.append(f"sga lowered balance: {result.bd_before} -> {result.bd_after}")
        payload = json.dumps(report_payload(report), sort_keys=True).encode()
        quality = {"auc": auc, "f1_macro": result.metrics.f1_macro}
        return problems, _sha256(payload), quality


class ReportPass:
    """``sigaug stats --split-ratio 0.8`` then ``sigaug balance-report --per-edge-csv``."""

    def __init__(self, sigaug, workload, graph, input_path: Path, csv_path: Path):
        from sigaug.cli import main as cli_main

        self.cli_main = cli_main
        self.unique_edges = graph.edge_count
        self.csv_path = csv_path
        dataset = ["--dataset", str(input_path), "--format", workload.input_format]
        self.commands = [
            ["--quiet", "stats", *dataset, "--split-ratio", "0.8", "--json"],
            ["--quiet", "balance-report", *dataset, "--per-edge-csv", str(csv_path)],
        ]

    def run(self) -> list:
        outcomes = []
        for argv in self.commands:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = self.cli_main(argv)
            except (Exception, SystemExit) as exc:  # one failed command; the run goes on
                outcomes.append(exc)
                continue
            outcomes.append((code, out.getvalue()))
        return outcomes

    def check(self, outcomes) -> tuple[list[str], str, dict]:
        problems = []
        for argv, outcome in zip(self.commands, outcomes):
            if isinstance(outcome, BaseException):
                problems.append(f"{argv[1]} raised {outcome!r}")
            elif outcome[0] != 0:
                problems.append(f"{argv[1]} exited with {outcome[0]}")
        if problems:
            return problems, "", {}
        stats_text, report_text = outcomes[0][1], outcomes[1][1]
        try:
            stats = json.loads(stats_text)
            totals = json.loads(report_text)
            csv_bytes = self.csv_path.read_bytes()
            rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
            header, body = rows[0], rows[1:]
            b_sum = sum(int(r[3]) for r in body)
            ub_sum = sum(int(r[4]) for r in body)
        except (OSError, ValueError, IndexError, UnicodeDecodeError) as exc:
            return [f"unreadable output: {exc!r}"], "", {}
        if header != ["u", "v", "sign", "b", "ub", "difficulty"]:
            problems.append(f"per-edge CSV header {header}")
        if len(body) != self.unique_edges or stats["unique_edges"] != self.unique_edges:
            problems.append(
                f"edge count: csv {len(body)}, stats {stats['unique_edges']}, input {self.unique_edges}"
            )
        if b_sum != 3 * totals["bt"] or ub_sum != 3 * totals["ut"]:
            problems.append(
                f"per-edge incident counts {b_sum}/{ub_sum} are not 3x the totals "
                f"{totals['bt']}/{totals['ut']}"
            )
        if (stats["balanced_triangles"], stats["unbalanced_triangles"]) != (totals["bt"], totals["ut"]):
            problems.append("stats and balance-report disagree on the triangle totals")
        return problems, _sha256(stats_text.encode(), report_text.encode(), csv_bytes), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]

    sigaug = _import_sigaug(Path.cwd() / "src")
    tracer = None
    if args.trace and not args.setup_only:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    loaded = sigaug.load_edge_list(args.input, format=workload.input_format)
    graph, _ = sigaug.build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    if tracer:
        tracer.uninstall()
    setup_cpu_s = time.process_time()  # since process start: interpreter, imports, load, build
    probe = Probe()
    probe_s = [probe.measure()]
    print(f"READY {setup_cpu_s} {probe_s[0]}", flush=True)
    if args.setup_only:
        return 0

    if workload.pipeline is None:
        work = ReportPass(sigaug, workload, graph, args.input, args.workdir / "per_edge.csv")
    else:
        work = AlphaPass(sigaug, workload, graph)
    passes: dict[bool, list[tuple[float, float]]] = {False: [], True: []}  # traced -> (cpu, wall)
    attempted = failed = 0
    failures: list[str] = []
    digests: set[str] = set()
    quality: dict = {}
    min_passes = 2 if tracer else 1  # a traced run needs one pass of each kind
    deadline = time.perf_counter() + args.seconds
    walls: list[float] = []
    # start another pass while it would end nearer the deadline than stopping now
    while len(walls) < min_passes or time.perf_counter() + statistics.median(walls) / 2 < deadline:
        traced = tracer is not None and len(walls) % 2 == 1
        if traced:
            tracer.phase = f"pass{len(walls):04d}"
            tracer.install()
        gc.collect()  # every pass starts from the same heap state
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outcomes = work.run()
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        if traced:
            tracer.uninstall()
        passes[traced].append((cpu, wall))
        walls.append(wall)
        probe_s.append(probe.measure())  # the machine's speed after this pass
        problems, digest, pass_quality = work.check(outcomes)
        quality = pass_quality or quality
        attempted += len(outcomes)
        failed += min(len(problems), len(outcomes))  # each problem fails one operation
        failures += problems
        if digest:
            digests.add(digest)
    if len(digests) > 1:
        failures.append(f"outputs differ between identical passes: {sorted(digests)}")
        failed = max(failed, 1)

    summary = {
        "pass_cpu_s": [cpu for cpu, _ in passes[False]],
        "pass_wall_s": [wall for _, wall in passes[False]],
        "traced_pass_cpu_s": [cpu for cpu, _ in passes[True]],
        "probe_s": probe_s,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "output_sha256": min(digests, default=None),
        "quality": quality,
        "unique_edges": graph.edge_count,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        from spans import layer_metrics

        summary["per_layer"] = layer_metrics(
            tracer, summary["traced_pass_cpu_s"], summary["pass_cpu_s"]
        )
        summary["spans"] = tracer.to_json()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
