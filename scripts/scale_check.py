#!/usr/bin/env python3
"""Scale check: the pipeline's heavy stages on a graph of Slashdot's full size.

Generates the benchmark's Slashdot-shaped graph (``perfbench/gen.py``, the
``slashdot`` spec) at the size of the real file, 82,140 nodes and 500,000
edges, and runs one stage after another in this process: generation,
``load_edge_list`` of the graph written as a sign-tsv in a temporary
directory (the write is not timed), graph build from the generated arrays,
``balance_report``, the balance of an 80% training split read from that
report's triangles as ``sigaug stats --split-ratio 0.8`` reads it (``split
balance``: the edge mask and ``BalanceReport.within``, after the split is
drawn; a ``#`` line after its row gives the size of ``report.triangles``),
the per-edge CSV that ``sigaug balance-report --per-edge-csv`` writes (into
the same temporary directory), the encoder's initial state (spectral
features) and ``--epochs`` training epochs.  For each stage it prints the
user and system CPU seconds, the wall seconds and the minor page faults the
stage took, the process's maximum resident set size so far, all from
``getrusage``, and the peak of the memory traced by ``tracemalloc`` during
the stage, above what was traced when it began.  The initial state and the
epochs are traced as one span, so the epochs row counts the frees of
arrays that ``init_state`` made, and a ``#`` line after the epochs row
gives the span's peak in n·d floats (n nodes, embedding width d, 8 bytes a
float).  Generation, which is pure Python, is not traced, nor is the
split balance.  Nor are the load, the build and the CSV write: tracing their
many small Python objects would swamp their CPU figures, so each runs a
second time, traced, and that row (``..., traced``) gives only its traced
peak.
Like the ``sigaug`` command, it needs sigaug importable (installed, or
``PYTHONPATH=src``).  Set ``OMP_NUM_THREADS=1`` (and the OpenBLAS and MKL
variables) for one-thread figures.

Usage:
    python scripts/scale_check.py [--epochs 2]
"""

import argparse
import dataclasses
import random
import resource
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
NODES, EDGES, SEED = 82140, 500000, 1  # Slashdot's size; the generator's seed
COLUMNS = ("stage", "user_s", "sys_s", "wall_s", "minflt", "maxrss_mb", "traced_mb")


@contextmanager
def stage(name: str, trace: bool = True):
    """Print one row of ``COLUMNS`` for the code run inside the block.

    Yields a dict; a traced stage sets ``peak_bytes``, the traced peak, and
    ``traced_bytes``, that peak above the traced memory at the block's
    start, on leaving the block.  Inside a span that is already tracing
    (see ``main``), the stage resets the peak and leaves tracing on.
    """
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    result = {}
    spanned = tracemalloc.is_tracing()
    if trace and spanned:
        tracemalloc.reset_peak()
    elif trace:
        tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0] if trace else 0
    try:
        yield result
        if trace:
            result["peak_bytes"] = tracemalloc.get_traced_memory()[1]
            result["traced_bytes"] = result["peak_bytes"] - base
        traced = f"{result['traced_bytes'] / 2**20:.1f}" if trace else "-"
    finally:
        if trace and not spanned:
            tracemalloc.stop()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    row = (
        name,
        f"{after.ru_utime - before.ru_utime:.2f}",
        f"{after.ru_stime - before.ru_stime:.2f}",
        f"{wall:.2f}",
        str(after.ru_minflt - before.ru_minflt),
        f"{after.ru_maxrss / 1024:.1f}",  # Linux reports KiB
        traced,
    )
    print("\t".join(row), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--epochs", type=int, default=2, help="encoder training epochs")
    args = parser.parse_args(argv)
    if args.epochs < 1:
        parser.error("--epochs must be >= 1")

    import numpy as np

    sys.path.insert(0, str(REPO / "perfbench"))
    import gen

    from sigaug.balance import balance_report
    from sigaug.cli import _write_per_edge_csv
    from sigaug.encoder import EncoderConfig, _train_loop, init_state
    from sigaug.graph import EdgeColumns, build_graph, load_edge_list, split_train_test

    spec = dataclasses.replace(gen.SPECS["slashdot"], nodes=NODES, edges=EDGES)
    config = EncoderConfig(epochs=args.epochs)

    def build():
        u, v = np.array(pairs, dtype=np.int64).T
        return build_graph(EdgeColumns(u, v, signs), num_nodes=spec.nodes)[0]

    print("\t".join(COLUMNS))
    with stage("generate", trace=False):
        rng = random.Random(f"slashdot-full:{SEED}")
        pairs = gen.wire_graph(spec, rng)
        signs = gen.sign_edges(spec, pairs, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slashdot-full.tsv"
        gen.write_sign_tsv(path, pairs, signs, random.Random(f"slashdot-full:{SEED}:file"))
        with stage("load_edge_list", trace=False):
            loaded = load_edge_list(path, format="sign-tsv")
        records = len(loaded.samples)
        del loaded
        with stage("load_edge_list, traced"):
            load_edge_list(path, format="sign-tsv")
        if records != EDGES:
            print(f"load_edge_list read {records} records, not {EDGES}", file=sys.stderr)
            return 1
        with stage("build graph", trace=False):
            graph = build()
        with stage("build graph, traced"):
            build()
        del pairs, signs
        with stage("balance_report"):
            report = balance_report(graph)
        split = split_train_test(graph.edge_columns(), 0.8, 0)
        with stage("split balance", trace=False):
            keep = np.zeros(graph.edge_count, dtype=bool)
            keep[split.train_positions] = True
            kept = report.within(keep)
        print(
            f"# split balance: the 80% split keeps {kept.total} of {report.stats.total} "
            f"triangles; report.triangles holds {report.triangles.nbytes / 2**20:.1f} MB"
        )
        per_edge = Path(tmp) / "per-edge.csv"
        with stage("per-edge CSV", trace=False):
            _write_per_edge_csv(report, per_edge)
        with stage("per-edge CSV, traced"):
            _write_per_edge_csv(report, per_edge)
    edges = graph.edge_columns()
    tracemalloc.start()  # one span: init_state's arrays stay traced through the epochs
    try:
        with stage("init_state") as init:
            state = init_state(graph, config)
        with stage(f"{args.epochs} epochs") as epochs:
            _train_loop(graph, state, config, edges, lambda _epoch: len(edges))
    finally:
        tracemalloc.stop()
    span_peak = max(init["peak_bytes"], epochs["peak_bytes"])
    nd = graph.num_nodes * config.embed_dim
    print(
        f"# init_state and {args.epochs} epochs: traced peak {span_peak / (8 * nd):.1f} n*d floats"
    )
    print(
        f"# {graph.num_nodes} nodes, {graph.edge_count} edges, "
        f"{report.stats.balanced} balanced and {report.stats.unbalanced} unbalanced triangles, "
        f"final loss {state.loss_history[-1]:.6f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
