"""Command-line driver: dataset stats, balance reports, augmentation,
experiment runs, and parameter sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The BLAS and OpenMP thread pools follow the usual ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` variables, which those
libraries read when numpy is first imported; every run records their values
in its ``config.resolved.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

log = logging.getLogger("sigaug")


def _print(obj, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, indent=2, sort_keys=True))
        return
    width = max(len(k) for k in obj)
    for key, value in obj.items():
        if isinstance(value, float):
            value = f"{value:.6g}"
        elif value is None:
            value = "N/A"
        print(f"{key.ljust(width)}  {value}")


def _cell(value: float | None, digits: int = 6) -> str:
    return "" if value is None else f"{value:.{digits}f}"


# -- argument plumbing ---------------------------------------------------------
#
# Every flag that sets a config field stores under that field's name, so
# ``config_from_dict`` overlays the parsed flags on a config file by name.


def _add_dataset_args(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--dataset", required=required, help="dataset name or edge-file path")
    p.add_argument(
        "--format",
        dest="dataset_format",
        choices=["rating-csv", "sign-tsv"],
        help="edge file format (default: inferred from name/extension)",
    )


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    from .encoder import INPUT_FEATURES

    p.add_argument("--embed-dim", type=int, help="embedding width per track")
    p.add_argument("--layers", type=int, help="message-passing layers")
    p.add_argument("--learning-rate", type=float, help="Adam step size")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument(
        "--input-features", choices=INPUT_FEATURES, help="fixed node input features"
    )


def _add_augment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-add-pos", type=float, help="add threshold, positive edges")
    p.add_argument("--eps-add-neg", type=float, help="add threshold, negative edges")
    p.add_argument("--eps-del-pos", type=float, help="delete threshold, positive edges")
    p.add_argument("--eps-del-neg", type=float, help="delete threshold, negative edges")


def _add_run_args(p: argparse.ArgumentParser, pipeline_help: str) -> None:
    """The flags ``run`` and ``sweep`` share: a config file and what overrides it."""
    p.add_argument("--config", help="TOML or JSON config file; flags override")
    _add_dataset_args(p, required=False)
    p.add_argument("--pipeline", help=pipeline_help)
    p.add_argument("--seeds", help="count (e.g. 5) or comma list (e.g. 0,1,2)")
    p.add_argument("--ratio", type=float, help="train fraction")
    p.add_argument("--outdir", dest="output_dir", metavar="OUTDIR", help="output directory")
    _add_encoder_args(p)
    _add_augment_args(p)
    p.add_argument("--lambda0", type=float, help="initial fraction of easiest edges")
    p.add_argument("--big-t", type=int, help="epoch at which the pacing reaches 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigaug",
        description="Signed-graph augmentation and link-sign-prediction benchmark toolkit",
    )
    parser.add_argument("--quiet", action="store_true", help="only warnings and errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset statistics, densities, triangle counts")
    _add_dataset_args(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--split-ratio", type=float, help="also report a train split's stats")
    p.add_argument("--split-seed", type=int, default=0)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("balance-report", help="global balance degree and per-edge scores")
    _add_dataset_args(p)
    p.add_argument("--per-edge-csv", help="write u,v,sign,b,ub,difficulty rows here")
    p.set_defaults(func=cmd_balance_report)

    p = sub.add_parser("augment", help="augment a training split and write the result")
    _add_dataset_args(p)
    _add_encoder_args(p)
    _add_augment_args(p)
    p.add_argument("--ratio", type=float, help="train fraction")
    p.add_argument(
        "--seed", dest="single_seed", metavar="SEED", type=int, default=0, help="experiment seed"
    )
    p.add_argument("--outdir", dest="output_dir", metavar="OUTDIR", help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("run", help="multi-seed experiment for one pipeline")
    _add_run_args(p, "baseline | sga | sa-only | tp-only | random:<kind>,<ratio>")
    p.add_argument(
        "--seed", dest="single_seed", metavar="SEED", type=int, help="single seed shorthand"
    )
    p.add_argument(
        "--diagnostic", action="store_true", default=None,
        help="emit generalization-gap diagnostics",
    )
    p.add_argument(
        "--save-encoders", action="store_true", default=None,
        help="write final encoder checkpoints",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    _add_run_args(p, "pipeline to sweep (default sga)")
    p.add_argument("--param", required=True, help="parameter to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=cmd_sweep)

    for p in sub.choices.values():
        # --quiet may follow the subcommand too; no default, so it never resets a --quiet before
        p.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="only warnings and errors")
    return parser


def _config_from_args(args: argparse.Namespace, defaults: dict | None = None):
    """The config file, if any, overlaid with the flags given.

    An empty flag value (``--outdir ""``) counts as not given.  ``--seed k``
    stands for ``--seeds k,`` unless ``--seeds`` is given.
    """
    from .config import config_from_dict, read_config_file

    data = read_config_file(args.config) if getattr(args, "config", None) else {}
    flags = {name: value for name, value in vars(args).items() if value != ""}
    if flags.get("seeds") is None and flags.get("single_seed") is not None:
        flags["seeds"] = [flags["single_seed"]]
    return config_from_dict(data, flags, defaults)


def _environment() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "sigaug_version": __version__,
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        **{var: os.environ.get(var)
           for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _load_graph(cfg):
    """Dataset file, loaded records and built graph of a config's dataset."""
    from .graph import build_graph, load_edge_list

    path, fmt = cfg.resolve_dataset()
    loaded = load_edge_list(path, format=fmt)
    graph, build_stats = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    return path, loaded, graph, build_stats


def _prepare_run(args: argparse.Namespace, defaults: dict | None = None,
                 param: str | None = None, values: tuple | list = ()):
    """Config, plan, loaded graph and output directory of a run or sweep.

    Plans the run, or the sweep of ``param`` over ``values``, then loads
    the dataset and checks that the split leaves a test edge: only a run
    that can start creates the output directory and writes
    ``config.resolved.json`` into it.
    """
    from .evalbench import plan_experiment

    cfg = _config_from_args(args, defaults)
    plan = plan_experiment([cfg.pipeline], cfg.seeds, cfg.encoder, cfg.augment, cfg.pacing,
                           cfg.ratio, param, values)
    _, _, graph, _ = _load_graph(cfg)
    return cfg, plan, graph, start_output(cfg, graph)


def start_output(cfg, graph) -> Path:
    """Create the output directory of ``cfg``'s run on ``graph`` and write its resolved config.

    Raises ``ValueError`` first if the split leaves ``graph`` no test edge.
    """
    from .config import write_resolved
    from .evalbench import check_test_half

    check_test_half(cfg.ratio, graph.edge_count)
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, outdir / "config.resolved.json", _environment())
    return outdir


# -- subcommands ----------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    import numpy as np

    from .balance import balance_report, global_balance_degree, split_totals
    from .graph import _density, _split_positions, density, record_density

    path, loaded, graph, build_stats = _load_graph(_config_from_args(args))
    if args.split_ratio is None:
        stats = balance_report(graph).stats
    else:
        # split_train_test's shuffle of the graph's edges, without building its halves
        order, train_edges = _split_positions(graph.edge_count, args.split_ratio, args.split_seed)
        keep = np.zeros(graph.edge_count, dtype=bool)
        keep[order[:train_edges]] = True
        del order  # the kernel pass below needs only the mask
        # the split's triangles are the graph's triangles whose three edges it keeps
        stats, kept = split_totals(graph, keep)
    bd = global_balance_degree(stats)
    out = {
        "dataset": str(path),
        "nodes": loaded.num_nodes,
        "links": len(loaded.samples),
        "positive_links": loaded.positive_count,
        "negative_links": loaded.negative_count,
        "density": record_density(loaded.samples, loaded.num_nodes),
        "unique_edges": graph.edge_count,
        "unique_positive": graph.positive_edge_count(),
        "unique_negative": graph.negative_edge_count(),
        "graph_density": density(graph),
        "zero_ratings_dropped": loaded.zero_rating_dropped,
        "self_loops_dropped": loaded.self_loops_dropped,
        "conflicting_pairs_dropped": build_stats.conflicts_dropped,
        "merged_duplicate_pairs": build_stats.merged_pairs,
        "balanced_triangles": stats.balanced,
        "unbalanced_triangles": stats.unbalanced,
        "balance_degree": None if bd is None else round(bd, 6),
    }
    if args.split_ratio is not None:
        tbd = global_balance_degree(kept)
        out["train_split_ratio"] = args.split_ratio
        out["train_split_seed"] = args.split_seed
        out["train_split_edges"] = train_edges
        out["train_split_density"] = _density(train_edges, graph.num_nodes)
        out["train_split_balance_degree"] = None if tbd is None else round(tbd, 6)
    _print(out, args.json)
    return 0


def _write_per_edge_csv(report, path) -> None:
    """Write a balance report's ``u,v,sign,b,ub,difficulty`` rows, one per edge, to ``path``.

    The rows are in the report's (u, v) order, in csv.writer's dialect: comma
    separated, ``\\r\\n`` line endings, nothing to quote.  Ids, like tails,
    are formatted once per value rather than once per edge.  Each id's
    ``%d,`` is formatted once, for every id up to the largest.  All of a row
    after ``u,v`` depends on the edge's (sign, b, ub) alone, because
    difficulty is an elementwise function of b and ub, so each distinct
    (sign, b, ub) tail is formatted once, from its first edge, and only
    those tails' difficulties are computed.  Every row is
    then its ``u`` string, its ``v`` string and its tail, and one join writes
    them all: the bytes are those of formatting all six fields of every row.
    Tails repeat heavily (751 distinct over the 500,000 edges of a
    Slashdot-sized graph), which makes this more than twice as fast as
    formatting every field; were every tail distinct, it would be about 30%
    slower.
    """
    import numpy as np

    from .balance import edge_difficulty
    from .graph import _unique_first

    balanced, unbalanced = report.balanced, report.unbalanced
    # an edge lies in fewer triangles than the graph has edges, so b and ub
    # are below this width and (b, ub, sign) packs into one int64 key
    width = len(balanced) + 1
    _, first, inverse = _unique_first((balanced * width + unbalanced) * 2 + (report.sign > 0))
    balanced, unbalanced = balanced[first], unbalanced[first]
    tail_columns = (report.sign[first], balanced, unbalanced,
                    edge_difficulty(balanced, unbalanced))
    tails = np.array(
        ["%d,%d,%d,%.6f\r\n" % tail for tail in zip(*(c.tolist() for c in tail_columns))],
        dtype=object,
    )
    # u < v on every edge, so the largest id is the largest v
    ids = np.array(["%d," % i for i in range(int(report.v.max(initial=-1)) + 1)], dtype=object)
    fields = [None] * (3 * len(inverse))
    fields[0::3] = ids[report.u].tolist()
    fields[1::3] = ids[report.v].tolist()
    fields[2::3] = tails[inverse].tolist()
    with Path(path).open("w", newline="") as fh:
        fh.write("u,v,sign,b,ub,difficulty\r\n")
        fh.write("".join(fields))


def cmd_balance_report(args: argparse.Namespace) -> int:
    from .balance import balance_report

    _, _, graph, _ = _load_graph(_config_from_args(args))
    report = balance_report(graph)
    if args.per_edge_csv:
        # written before the totals are printed, so a path it cannot write leaves stdout empty
        _write_per_edge_csv(report, args.per_edge_csv)
        log.info("wrote per-edge balance profiles to %s", args.per_edge_csv)
    bd = report.balance_degree
    print(
        json.dumps(
            {
                "bt": report.stats.balanced,
                "ut": report.stats.unbalanced,
                "bd": None if bd is None else round(bd, 6),
            }
        )
    )
    return 0


def _write_sign_tsv(edges, path: Path) -> None:
    from .graph import _columns, _rows

    with path.open("w") as fh:
        fh.write("# source target sign (dense node ids)\n")
        fh.write(_rows("%d\t%d\t%d\n", _columns(edges)))


def cmd_augment(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .augment import augment
    from .evalbench import _seed_scorer, _seed_split, plan_experiment

    cfg = _config_from_args(args)
    # the checks of `run --pipeline sa-only`, whose edges this writes
    (seed,) = plan_experiment(["sa-only"], cfg.seeds, cfg.encoder, cfg.augment, cfg.pacing,
                              cfg.ratio).seeds
    cfg.augment.log_low_add_thresholds()
    _, loaded, graph, _ = _load_graph(cfg)
    # the split, scorer and augmentation of `run --pipeline sa-only` for this seed, made by
    # the same code, so both write the same edges
    split, train_graph = _seed_split(graph.edge_columns(), graph.num_nodes, seed, cfg.ratio)
    scorer = _seed_scorer(train_graph, split.train, seed, cfg.encoder)
    augmented, logrec, _ = augment(train_graph, split.train, scorer, cfg.augment)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_sign_tsv(augmented, outdir / "augmented_train.tsv")
    (outdir / "id_map.json").write_text(
        json.dumps({str(i): orig for i, orig in enumerate(loaded.original_ids)})
    )
    payload = asdict(logrec)
    (outdir / "augment_log.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({k: v for k, v in payload.items() if k != "pretrain_loss"}, indent=2))
    return 0


def write_run(cfg, run, report, outdir: Path) -> None:
    """Write the files of ``cfg``'s planned ``run`` from its ``report``; print its summary row."""
    from .curriculum import schedule_to_csv
    from .encoder import save_checkpoint
    from .evalbench import METRIC_NAMES, report_payload, report_timing

    report.dataset = cfg.dataset  # report the user-facing name, not the path
    payload = report_payload(report)
    payload["timing"] = report_timing(report)
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with (outdir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", *METRIC_NAMES, "n_train", "n_test", "n_train_final",
                         "density_before", "density_after", "bd_before", "bd_after"])
        for r in report.results:
            writer.writerow([
                r.seed, *(_cell(getattr(r.metrics, name)) for name in METRIC_NAMES),
                r.n_train, r.n_test, r.n_train_final,
                _cell(r.density_before, 8), _cell(r.density_after, 8),
                _cell(r.bd_before), _cell(r.bd_after),
            ])
    for r in report.results:
        if r.schedule is not None:
            schedule_to_csv(r.schedule, outdir / f"schedule_seed{r.seed}.csv")
        if run.edge_source() != ("train",):  # it trains on other edges than the split's
            _write_sign_tsv(r.final_train, outdir / f"augmented_train_seed{r.seed}.tsv")
        if r.encoder_state is not None:
            save_checkpoint(r.encoder_state, outdir / f"encoder_seed{r.seed}.bin")
    print(report.summary_row())


def cmd_run(args: argparse.Namespace) -> int:
    from .evalbench import run_plan

    cfg, plan, graph, outdir = _prepare_run(args)
    (report,) = run_plan(graph, plan, diagnostic=cfg.diagnostic, keep_states=cfg.save_encoders)
    write_run(cfg, plan.runs[0], report, outdir)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .evalbench import METRIC_NAMES, run_plan, sweep_rows

    values = [float(v) for v in args.values.split(",") if v.strip()]
    _, plan, graph, outdir = _prepare_run(args, {"pipeline": "sga"}, args.param, values)
    rows = sweep_rows(args.param, values, run_plan(graph, plan))
    stats = [f"{name}_{stat}" for name in METRIC_NAMES for stat in ("mean", "std")]
    with (outdir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", *stats])
        for row in rows:
            writer.writerow([row["param"], row["value"], *(_cell(row[c]) for c in stats)])
    # gnuplot-style "value mean std" data file per metric
    for name in METRIC_NAMES:
        lines = [
            f"{row['value']} {row[f'{name}_mean']:.6f} {row[f'{name}_std']:.6f}"
            for row in rows
            if row[f"{name}_mean"] is not None
        ]
        (outdir / f"sweep_{name}.dat").write_text("\n".join(lines) + "\n")
    for row in rows:
        auc = row["auc_mean"]
        print(
            f"{row['param']}={row['value']}: "
            f"auc={'N/A' if auc is None else f'{auc:.4f}'} "
            f"f1_binary={row['f1_binary_mean']:.4f}"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
        ValueError,
        KeyError,
        TypeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures (divergence, numeric errors, IO mid-run)
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
