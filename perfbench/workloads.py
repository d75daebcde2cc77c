"""The benchmark's workloads and the metrics it reports, in one table.

A *pass* is the unit of timed work that a run repeats: one pipeline seed for
the alpha workloads, one ``stats`` plus one ``balance-report`` command for
``slashdot-report``.  Every pass of a run does identical work, so the median
pass time does not depend on how many passes fit in ``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass

# BLAS/OpenMP threads per process, fixed so figures do not depend on the host
THREAD_CAP = 1
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SIGAUG_THREADS",
)


@dataclass(frozen=True)
class Workload:
    name: str
    input_kind: str  # generator spec in gen.SPECS
    input_format: str  # sigaug loader format
    pipeline: str | None  # run_experiment pipeline; None runs the CLI pass
    epochs: int = 30
    auc_floor: float = 0.65  # planted bad actors make this reachable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("alpha-baseline", "alpha", "rating-csv", "baseline"),
        Workload("alpha-sga", "alpha", "rating-csv", "sga"),
        Workload("slashdot-report", "slashdot", "sign-tsv", None),
    )
}

# tiny variants of each workload for the benchmark's own smoke tests
SMOKE = {
    name: Workload(
        w.name, w.input_kind + "-smoke", w.input_format, w.pipeline, epochs=10, auc_floor=0.5
    )
    for name, w in WORKLOADS.items()
}

SPLIT_SEED = 0  # every pass runs this one pipeline seed, so passes repeat identical work
SETUPS_PER_RUN = 3  # set-up samples per run: two set-up-only workers and the main one

# name -> unit; printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# wrapped public functions: metric prefix -> (sigaug module, function)
TRACED_FUNCTIONS = {
    "graph.load_edge_list": ("graph", "load_edge_list"),
    "graph.build_graph": ("graph", "build_graph"),
    "graph.graph_from_samples": ("graph", "graph_from_samples"),
    "graph.split_train_test": ("graph", "split_train_test"),
    "balance.balance_report": ("balance", "balance_report"),
    "encoder.init_state": ("encoder", "init_state"),
    "encoder.train_encoder": ("encoder", "train_encoder"),
    "encoder.pair_class_probabilities": ("encoder", "pair_class_probabilities"),
    "augment.augment": ("augment", "augment"),
    "augment.generate_candidates": ("augment", "generate_candidates"),
    "augment.select_beneficial": ("augment", "select_beneficial"),
    "curriculum.score_and_sort": ("curriculum", "score_and_sort"),
    "curriculum.train_with_curriculum": ("curriculum", "train_with_curriculum"),
    "evalbench.run_experiment": ("evalbench", "run_experiment"),
    "evalbench.predict_test_signs": ("evalbench", "predict_test_signs"),
    "evalbench.compute_metrics": ("evalbench", "compute_metrics"),
    "cli.stats": ("cli", "cmd_stats"),
    "cli.balance_report": ("cli", "cmd_balance_report"),
}

COUNTERS = {
    "graph.load_edge_list.records": "count",
    "graph.graph_from_samples.calls": "count",
    "balance.balance_report.calls": "count",
    "balance.balance_report.distinct_graphs": "count",
    "balance.balance_report.distinct_ratio": "ratio",
    "balance.balance_report.edges": "count",
    "balance.triangles": "count",
    "encoder.init_state.calls": "count",
    "encoder.pair_class_probabilities.pairs": "count",
    "encoder.epoch_s": "s",
    "encoder.edge_epochs": "count",
    "augment.candidates": "count",
    "augment.accepted": "count",
    "augment.rejected": "count",
    "augment.accept_ratio": "ratio",
    "curriculum.schedule_edges": "count",
    "cli.per_edge_csv.bytes": "bytes",
    "trace.overhead_s": "s",
}

# name -> unit; printed with --trace 1
PER_LAYER = {
    **{f"{prefix}.{q}": "s" for prefix in TRACED_FUNCTIONS for q in ("s", "self_s")},
    **COUNTERS,
}
