"""Command-line driver: dataset stats, balance reports, augmentation,
experiment runs, and parameter sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
``SIGAUG_THREADS`` caps the numeric libraries' internal thread pools (set
before anything numeric is imported); the effective value is recorded in
every run's ``config.resolved.json``.
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

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _apply_thread_cap() -> str | None:
    cap = os.environ.get("SIGAUG_THREADS")
    if cap:
        for var in _THREAD_ENV_VARS:
            os.environ.setdefault(var, cap)
    return cap


def _data_dirs() -> list[Path]:
    dirs = []
    env = os.environ.get("SIGAUG_DATA_DIR")
    if env:
        dirs.append(Path(env))
    dirs.append(Path("datasets"))
    return dirs


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


# -- argument plumbing ---------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="dataset name or edge-file path")
    p.add_argument(
        "--format",
        choices=["rating-csv", "sign-tsv"],
        help="edge file format (default: inferred from name/extension)",
    )


def _add_encoder_args(p: argparse.ArgumentParser) -> None:
    from .encoder import INPUT_FEATURES

    p.add_argument("--embed-dim", type=int, help="embedding width per track")
    p.add_argument("--layers", type=int, help="message-passing layers")
    p.add_argument("--learning-rate", type=float, help="optimizer step size")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--optimizer", choices=["adam", "sgd"])
    p.add_argument(
        "--input-features", choices=INPUT_FEATURES, help="fixed node input features"
    )


def _add_augment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-add-pos", type=float, help="add threshold, positive edges")
    p.add_argument("--eps-add-neg", type=float, help="add threshold, negative edges")
    p.add_argument("--eps-del-pos", type=float, help="delete threshold, positive edges")
    p.add_argument("--eps-del-neg", type=float, help="delete threshold, negative edges")
    p.add_argument("--candidate-scope", choices=["two-hop", "all-pairs"])
    p.add_argument("--max-additions", type=int)


def _add_pacing_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda0", type=float, help="initial fraction of easiest edges")
    p.add_argument("--big-t", type=int, help="epoch at which the pacing reaches 1")


def _parse_seeds(raw: str) -> list[int]:
    if "," in raw:
        return [int(s) for s in raw.split(",") if s.strip()]
    return list(range(int(raw)))


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
    p.add_argument("--ratio", type=float, default=0.8, help="train fraction")
    p.add_argument("--seed", type=int, default=0, help="experiment seed")
    p.add_argument("--outdir", default="sigaug-out", help="output directory")
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("run", help="multi-seed experiment for one pipeline")
    p.add_argument("--config", help="TOML or JSON config file; flags override")
    p.add_argument("--dataset", help="dataset name or edge-file path")
    p.add_argument("--format", choices=["rating-csv", "sign-tsv"])
    p.add_argument(
        "--pipeline",
        help="baseline | sga | sa-only | tp-only | random:<kind>,<ratio>",
    )
    p.add_argument("--seeds", help="count (e.g. 5) or comma list (e.g. 0,1,2)")
    p.add_argument("--ratio", type=float, help="train fraction")
    p.add_argument("--outdir", help="output directory")
    p.add_argument("--seed", type=int, help="single seed shorthand")
    p.add_argument("--diagnostic", action="store_true", help="emit generalization-gap diagnostics")
    p.add_argument("--save-encoders", action="store_true", help="write final encoder checkpoints")
    _add_encoder_args(p)
    _add_augment_args(p)
    _add_pacing_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    p.add_argument("--config", help="TOML or JSON config file; flags override")
    p.add_argument("--dataset", help="dataset name or edge-file path")
    p.add_argument("--format", choices=["rating-csv", "sign-tsv"])
    p.add_argument("--pipeline", help="pipeline to sweep (default sga)")
    p.add_argument("--seeds", help="count or comma list")
    p.add_argument("--ratio", type=float)
    p.add_argument("--outdir", help="output directory")
    p.add_argument("--param", required=True, help="parameter to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    _add_encoder_args(p)
    _add_augment_args(p)
    _add_pacing_args(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _config_from_args(args: argparse.Namespace):
    """Config file (if any) overlaid with the provided flags."""
    from dataclasses import replace

    from .config import RunConfig, load_config

    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    if getattr(args, "dataset", None):
        cfg.dataset = args.dataset
    if getattr(args, "format", None):
        cfg.dataset_format = args.format
    if getattr(args, "pipeline", None):
        cfg.pipeline = args.pipeline
    if getattr(args, "ratio", None) is not None:
        cfg.ratio = args.ratio
    if getattr(args, "seeds", None):
        cfg.seeds = _parse_seeds(args.seeds)
    elif getattr(args, "seed", None) is not None:
        cfg.seeds = [args.seed]
    if getattr(args, "outdir", None):
        cfg.output_dir = args.outdir
    if getattr(args, "diagnostic", False):
        cfg.diagnostic = True
    if getattr(args, "save_encoders", False):
        cfg.save_encoders = True

    enc_overrides = {
        "embed_dim": args.embed_dim,
        "layers": args.layers,
        "learning_rate": args.learning_rate,
        "epochs": args.epochs,
        "optimizer": args.optimizer,
        "input_features": args.input_features,
    }
    enc_overrides = {k: v for k, v in enc_overrides.items() if v is not None}
    if enc_overrides:
        cfg.encoder = replace(cfg.encoder, **enc_overrides)
    aug_overrides = {
        "eps_add_pos": args.eps_add_pos,
        "eps_add_neg": args.eps_add_neg,
        "eps_del_pos": args.eps_del_pos,
        "eps_del_neg": args.eps_del_neg,
        "candidate_scope": args.candidate_scope,
        "max_additions": args.max_additions,
    }
    aug_overrides = {k: v for k, v in aug_overrides.items() if v is not None}
    if aug_overrides:
        cfg.augment = replace(cfg.augment, **aug_overrides)
    pace_overrides = {}
    if getattr(args, "lambda0", None) is not None:
        pace_overrides["lambda0"] = args.lambda0
    if getattr(args, "big_t", None) is not None:
        pace_overrides["big_t"] = args.big_t
    if pace_overrides:
        base = cfg.resolved_pacing()
        cfg.pacing = replace(base, **pace_overrides)
    if not cfg.dataset:
        raise ValueError("no dataset given (use --dataset or a config file)")
    return cfg


def _environment(threads: str | None) -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "sigaug_version": __version__,
        "numpy_version": numpy.__version__,
        "scipy_version": scipy.__version__,
        "sigaug_threads": threads,
    }


# -- subcommands ----------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    from .balance import balance_report
    from .config import RunConfig
    from .graph import build_graph, density, load_edge_list, record_density, split_train_test
    from .graph import graph_from_samples

    cfg = RunConfig(dataset=args.dataset, dataset_format=args.format)
    path, fmt = cfg.resolve_dataset(_data_dirs())
    loaded = load_edge_list(path, format=fmt)
    graph, build_stats = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    report = balance_report(graph)
    bd = report.balance_degree
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
        "balanced_triangles": report.stats.balanced,
        "unbalanced_triangles": report.stats.unbalanced,
        "balance_degree": None if bd is None else round(bd, 6),
    }
    if args.split_ratio is not None:
        split = split_train_test(graph.edge_columns(), args.split_ratio, args.split_seed)
        train_graph = graph_from_samples(split.train, graph.num_nodes)
        train_report = balance_report(train_graph)
        tbd = train_report.balance_degree
        out["train_split_ratio"] = args.split_ratio
        out["train_split_seed"] = args.split_seed
        out["train_split_edges"] = len(split.train)
        out["train_split_density"] = density(train_graph)
        out["train_split_balance_degree"] = None if tbd is None else round(tbd, 6)
    _print(out, args.json)
    return 0


def cmd_balance_report(args: argparse.Namespace) -> int:
    from .balance import balance_report
    from .config import RunConfig
    from .graph import build_graph, load_edge_list

    cfg = RunConfig(dataset=args.dataset, dataset_format=args.format)
    path, fmt = cfg.resolve_dataset(_data_dirs())
    loaded = load_edge_list(path, format=fmt)
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    report = balance_report(graph)
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
    if args.per_edge_csv:
        with Path(args.per_edge_csv).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["u", "v", "sign", "b", "ub", "difficulty"])
            writer.writerows(
                zip(
                    report.u.tolist(),
                    report.v.tolist(),
                    report.sign.tolist(),
                    report.balanced.tolist(),
                    report.unbalanced.tolist(),
                    [f"{d:.6f}" for d in report.difficulty.tolist()],
                )
            )
        log.info("wrote per-edge balance profiles to %s", args.per_edge_csv)
    return 0


def _write_sign_tsv(edges, path: Path) -> None:
    with path.open("w") as fh:
        fh.write("# source target sign (dense node ids)\n")
        for e in edges:
            fh.write(f"{e.u}\t{e.v}\t{e.sign}\n")


def cmd_augment(args: argparse.Namespace) -> int:
    from dataclasses import asdict, replace

    from .augment import augment
    from .evalbench import _derive_seeds
    from .graph import build_graph, graph_from_samples, load_edge_list, split_train_test

    cfg = _config_from_args(args)
    path, fmt = cfg.resolve_dataset(_data_dirs())
    loaded = load_edge_list(path, format=fmt)
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    split_seed, pretrain_seed, _, _ = _derive_seeds(args.seed)
    split = split_train_test(graph.to_samples(), args.ratio, split_seed)
    train_graph = graph_from_samples(split.train, graph.num_nodes)
    enc_cfg = replace(cfg.encoder, seed=pretrain_seed)
    augmented, logrec = augment(train_graph, split.train, enc_cfg, cfg.augment)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_sign_tsv(augmented, outdir / "augmented_train.tsv")
    (outdir / "id_map.json").write_text(
        json.dumps({str(i): orig for i, orig in enumerate(loaded.original_ids)})
    )
    payload = asdict(logrec)
    (outdir / "augment_log.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({k: v for k, v in payload.items() if k != "pretrain_loss"}, indent=2))
    return 0


def _write_report_files(report, outdir: Path, save_encoders: bool) -> None:
    from .curriculum import schedule_to_csv
    from .encoder import save_checkpoint
    from .evalbench import report_payload, report_timing

    payload = report_payload(report)
    payload["timing"] = report_timing(report)
    (outdir / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    with (outdir / "report.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "seed",
                "auc",
                "f1_binary",
                "f1_micro",
                "f1_macro",
                "n_train",
                "n_test",
                "n_train_final",
                "density_before",
                "density_after",
                "bd_before",
                "bd_after",
            ]
        )
        for r in report.results:
            writer.writerow(
                [
                    r.seed,
                    "" if r.metrics.auc is None else f"{r.metrics.auc:.6f}",
                    f"{r.metrics.f1_binary:.6f}",
                    f"{r.metrics.f1_micro:.6f}",
                    f"{r.metrics.f1_macro:.6f}",
                    r.n_train,
                    r.n_test,
                    r.n_train_final,
                    f"{r.density_before:.8f}",
                    f"{r.density_after:.8f}",
                    "" if r.bd_before is None else f"{r.bd_before:.6f}",
                    "" if r.bd_after is None else f"{r.bd_after:.6f}",
                ]
            )
    pipeline_changes_edges = report.pipeline != "baseline" and report.pipeline != "tp-only"
    for r in report.results:
        if r.schedule is not None:
            schedule_to_csv(r.schedule, outdir / f"schedule_seed{r.seed}.csv")
        if pipeline_changes_edges:
            _write_sign_tsv(r.final_train, outdir / f"augmented_train_seed{r.seed}.tsv")
        if save_encoders and r.encoder_state is not None:
            save_checkpoint(r.encoder_state, outdir / f"encoder_seed{r.seed}.bin")


def cmd_run(args: argparse.Namespace) -> int:
    from .config import write_resolved
    from .evalbench import run_experiment

    cfg = _config_from_args(args)
    path, fmt = cfg.resolve_dataset(_data_dirs())
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    threads = os.environ.get("SIGAUG_THREADS")
    write_resolved(cfg, outdir / "config.resolved.json", _environment(threads))
    report = run_experiment(
        path,
        cfg.pipeline,
        cfg.seeds,
        enc_cfg=cfg.encoder,
        aug_cfg=cfg.augment,
        pace_cfg=cfg.resolved_pacing(),
        ratio=cfg.ratio,
        dataset_format=fmt,
        diagnostic=cfg.diagnostic,
        keep_states=cfg.save_encoders,
    )
    report.dataset = cfg.dataset  # report the user-facing name, not the path
    _write_report_files(report, outdir, cfg.save_encoders)
    print(report.summary_row())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .config import write_resolved
    from .evalbench import sensitivity_sweep

    cfg = _config_from_args(args)
    if cfg.pipeline == "baseline":
        cfg.pipeline = "sga"
    path, fmt = cfg.resolve_dataset(_data_dirs())
    values = [float(v) for v in args.values.split(",") if v.strip()]
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    threads = os.environ.get("SIGAUG_THREADS")
    write_resolved(cfg, outdir / "config.resolved.json", _environment(threads))
    rows = sensitivity_sweep(
        path,
        args.param,
        values,
        pipeline=cfg.pipeline,
        seeds=cfg.seeds,
        enc_cfg=cfg.encoder,
        aug_cfg=cfg.augment,
        pace_cfg=cfg.resolved_pacing(),
        ratio=cfg.ratio,
        dataset_format=fmt,
    )
    metric_names = ("auc", "f1_binary", "f1_micro", "f1_macro")
    with (outdir / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["param", "value"]
        for name in metric_names:
            header += [f"{name}_mean", f"{name}_std"]
        writer.writerow(header)
        for row in rows:
            record = [row["param"], row["value"]]
            for name in metric_names:
                mean = row[f"{name}_mean"]
                std = row[f"{name}_std"]
                record += [
                    "" if mean is None else f"{mean:.6f}",
                    "" if std is None else f"{std:.6f}",
                ]
            writer.writerow(record)
    # gnuplot-style "value mean std" data file per metric
    for name in metric_names:
        lines = []
        for row in rows:
            mean = row[f"{name}_mean"]
            std = row[f"{name}_std"]
            if mean is None:
                continue
            lines.append(f"{row['value']} {mean:.6f} {std:.6f}")
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
    threads = _apply_thread_cap()
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if threads:
        log.info("thread cap from SIGAUG_THREADS: %s", threads)
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
