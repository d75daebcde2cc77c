"""Link-sign-prediction evaluation: metrics, multi-seed experiments,
random-perturbation baselines, sensitivity sweeps, and a generalization-gap
diagnostic.

Experiments and sweeps take a built ``SignedGraph`` or edge samples; loading
a dataset file is the caller's step.

Test-edge signs are predicted by a binary logistic head on concatenated pair
embeddings [z_u, z_v] of the training edges, fit and scored in node space:
the embedding is projected once per step and gathered per pair, so the pair
matrix is never built.  AUC is the rank statistic with half credit for ties;
F1 comes in binary (positive class), micro, and macro flavors.  The gap
diagnostic evaluates the bound

    2*a_lx + sqrt(2) * a_ly * M * beta * (theta + t * eta * a_lx * a_f * beta) / n_t

with user-supplied Lipschitz-style constants, beta the largest embedding
magnitude and theta the initial weight norm, so only the bound's shape (its
decay in the training-edge count) is meaningful, not its absolute value.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .augment import AugmentConfig, AugmentationLog, augment
from .balance import balance_report
from .curriculum import (
    CurriculumSchedule,
    PacingConfig,
    score_and_sort,
    train_with_curriculum,
)
from .encoder import (
    EncoderConfig,
    EncoderState,
    _Optimizer,
    _pair_logits,
    _scatter_rows,
    train_encoder,
)
from .graph import (
    NEG,
    POS,
    EdgeColumns,
    EdgeSample,
    SignedGraph,
    density,
    graph_from_samples,
    split_train_test,
)
from .graph import _canonical, _columns, _concat

log = logging.getLogger(__name__)

PERTURBATION_KINDS = ("drop-edge", "add-pos", "del-pos", "add-neg", "del-neg", "flip-sign")
SWEEPABLE_PARAMS = (
    "eps_add_pos",
    "eps_add_neg",
    "eps_del_pos",
    "eps_del_neg",
    "big_t",
    "lambda0",
)
AUGMENTING = ("sga", "sa-only")  # pipelines whose edges pass the eps_* selection
PACED = ("sga", "tp-only")  # pipelines trained on the lambda0/big_t curriculum


# -- metrics -----------------------------------------------------------------


@dataclass
class MetricsSet:
    """Metrics of one run; ``auc`` is None when only one class is present."""

    auc: float | None
    f1_binary: float
    f1_micro: float
    f1_macro: float


METRIC_NAMES = tuple(f.name for f in fields(MetricsSet))


def auc_rank(scores: Sequence[float], labels: Sequence[int]) -> float | None:
    """Rank-statistic AUC with half credit for tied scores (which must not be NaN)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos_mask = labels == POS
    n_pos = int(pos_mask.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # midranks: a run of tied scores shares the mean of the ranks it spans
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse.ravel()]
    return float((ranks[pos_mask].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def compute_metrics(scores: Sequence[float], labels: Sequence[int]) -> MetricsSet:
    """AUC plus F1 variants; predictions are sign(score - 0.5), ties positive."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(scores) == 0 or len(scores) != len(labels):
        raise ValueError("scores and labels must be equal-length and non-empty")
    if not np.isin(labels, (POS, NEG)).all():
        raise ValueError("labels must be +1 or -1")
    if not np.isfinite(scores).all():
        raise ValueError(f"scores must be finite, got {scores[~np.isfinite(scores)][0]}")
    preds = np.where(scores >= 0.5, POS, NEG)
    tp = int(((preds == POS) & (labels == POS)).sum())
    fp = int(((preds == POS) & (labels == NEG)).sum())
    fn = int(((preds == NEG) & (labels == POS)).sum())
    tn = int(((preds == NEG) & (labels == NEG)).sum())
    f1_pos = _f1(tp, fp, fn)
    f1_neg = _f1(tn, fn, fp)
    return MetricsSet(
        auc=auc_rank(scores, labels),
        f1_binary=f1_pos,
        f1_micro=_f1(tp + tn, fp + fn, fn + fp),
        f1_macro=(f1_pos + f1_neg) / 2.0,
    )


# -- downstream sign classifier ----------------------------------------------


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    # exp overflows to inf on confidently separated pairs, and 1 / (1 + inf)
    # is exactly 0.0, so the overflow is harmless and not worth a warning
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-logits))


def fit_logistic(
    z: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    labels01: np.ndarray,
    lr: float = 0.1,
    steps: int = 300,
) -> tuple[np.ndarray, float]:
    """Unregularized binary logistic fit on pair embeddings ``[z_u, z_v]``.

    Full-batch Adam from zero init, worked in node space: logits project the
    (n x zdim) embedding once and gather per pair, and the weight gradient
    scatters the per-pair error onto nodes before the product with Z, so the
    (m x 2 zdim) pair matrix is never built.  Returns (w, b) with w of
    width 2 * zdim.
    """
    n, zdim = z.shape
    m = len(u)
    w = np.zeros(2 * zdim)
    b = np.zeros(1)
    opt = _Optimizer("adam", lr, [w, b])
    for _ in range(steps):
        p = _sigmoid(_pair_logits(z, w, u, v) + b[0])
        err = (p - labels01) / m
        gw = (np.stack([_scatter_rows(u, err, n), _scatter_rows(v, err, n)]) @ z).ravel()
        opt.step([gw, np.asarray([err.sum()])])
    return w, float(b[0])


def _sign_head_scores(
    state: EncoderState, train: Sequence[EdgeSample], edges: Sequence[EdgeSample]
) -> np.ndarray:
    """P(positive) per edge from one logistic head fit on the train edges."""
    if state.embeddings is None:
        raise ValueError("state has no embeddings; train or run forward first")
    # canonical (u < v) pairs, so [z_u, z_v] does not depend on how an edge was written
    fit, edges = _canonical(train), _canonical(edges)
    w, b = fit_logistic(state.embeddings, fit.u, fit.v, (fit.sign == POS).astype(np.float64))
    return _sigmoid(_pair_logits(state.embeddings, w, edges.u, edges.v) + b)


def predict_test_signs(
    state: EncoderState,
    train: Sequence[EdgeSample],
    test: Sequence[EdgeSample],
) -> tuple[np.ndarray, np.ndarray]:
    """P(positive) per test edge from a logistic head fit on the train edges."""
    if len(np.unique(_columns(train)[2])) < 2:
        raise ValueError("training set must contain both signs")
    return _sign_head_scores(state, train, test), np.array(_columns(test)[2])


# -- random perturbation baselines ---------------------------------------------


def random_perturbation(
    train: Sequence[EdgeSample],
    kind: str,
    ratio: float,
    seed: int,
    num_nodes: int | None = None,
) -> EdgeColumns:
    """Uniformly apply one random edit kind to ceil(ratio * |edges|) items.

    drop-edge/flip-sign draw from all edges, del-pos/del-neg only from that
    sign's edges (error when the pool is too small), add-pos/add-neg insert
    uniformly random absent pairs with the given sign.  Edges come back
    canonical (u < v) and in input order, additions last.
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    edges = _canonical(train)
    if ratio == 0.0:
        return edges
    if num_nodes is None:
        num_nodes = _node_count(edges)
    rng = np.random.Generator(np.random.PCG64(seed))
    count = math.ceil(ratio * len(edges))

    if kind in ("drop-edge", "del-pos", "del-neg", "flip-sign"):
        pool = np.arange(len(edges))
        if kind in ("del-pos", "del-neg"):
            pool = np.flatnonzero(edges.sign == (POS if kind == "del-pos" else NEG))
        if count > len(pool):
            raise ValueError(
                f"{kind}: cannot remove {count} edges from a pool of {len(pool)}"
            )
        chosen = np.zeros(len(edges), dtype=bool)
        chosen[rng.choice(pool, size=count, replace=False)] = True
        if kind == "flip-sign":
            return EdgeColumns(edges.u, edges.v, np.where(chosen, -edges.sign, edges.sign))
        return edges[~chosen]
    # additions
    sign = POS if kind == "add-pos" else NEG
    occupied = set(zip(edges.u.tolist(), edges.v.tolist()))
    max_pairs = num_nodes * (num_nodes - 1) // 2
    if count > max_pairs - len(occupied):
        raise ValueError("not enough absent pairs to add")
    added: list[tuple[int, int]] = []
    while len(added) < count:
        a = int(rng.integers(0, num_nodes))
        b = int(rng.integers(0, num_nodes))
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair in occupied:
            continue
        occupied.add(pair)
        added.append(pair)
    au, av = np.asarray(added, dtype=np.int64).reshape(-1, 2).T
    return _concat(edges, EdgeColumns(au, av, np.full(count, sign)))


# -- generalization-gap diagnostic ----------------------------------------------


@dataclass
class GapConstants:
    """User-supplied constants for the bound expression (defaults 1.0)."""

    alpha_lx: float = 1.0
    alpha_ly: float = 1.0
    alpha_f: float = 1.0
    m_const: float = 1.0
    eta: float = 0.01
    t: float = 300.0

    def __post_init__(self):
        for name in ("alpha_lx", "alpha_ly", "alpha_f", "m_const", "eta", "t"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class GapDiagnostic:
    train_error: float
    test_error: float
    empirical_gap: float
    z_inf_norm: float
    weight_norm: float
    init_weight_norm: float
    n_train_edges: int
    bound_value: float


def bound_value(
    constants: GapConstants, beta: float, theta: float, n_train_edges: int
) -> float:
    """Bound: 2*a_lx + sqrt(2)*a_ly*M*beta*(theta + t*eta*a_lx*a_f*beta)/n_t."""
    if n_train_edges <= 0:
        raise ValueError("n_train_edges must be positive")
    c = constants
    growth = theta + c.t * c.eta * c.alpha_lx * c.alpha_f * beta
    return 2 * c.alpha_lx + math.sqrt(2) * c.alpha_ly * c.m_const * beta * growth / n_train_edges


def _binary_cross_entropy(scores: np.ndarray, labels: np.ndarray) -> float:
    y = (labels == POS).astype(np.float64)
    p = np.clip(scores, 1e-12, 1 - 1e-12)
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def generalization_diagnostic(
    state: EncoderState,
    train: Sequence[EdgeSample],
    test: Sequence[EdgeSample],
    constants: GapConstants | None = None,
) -> GapDiagnostic:
    """Empirical train/test gap of the downstream classifier plus the bound.

    Train/test error is the mean binary cross-entropy of the logistic sign
    classifier; beta is max|Z| and theta the recorded initial weight norm.
    """
    edges = _concat(train, test)
    scores = _sign_head_scores(state, train, edges)
    return _gap_diagnostic(state, scores, edges.sign, len(train), constants)


def _gap_diagnostic(
    state: EncoderState,
    scores: np.ndarray,
    labels: np.ndarray,
    n_train: int,
    constants: GapConstants | None,
) -> GapDiagnostic:
    """The diagnostic from one head's scores of the train edges followed by the test edges."""
    constants = constants or GapConstants()
    train_err = _binary_cross_entropy(scores[:n_train], labels[:n_train])
    test_err = _binary_cross_entropy(scores[n_train:], labels[n_train:])
    beta = float(np.abs(state.embeddings).max())
    return GapDiagnostic(
        train_error=train_err,
        test_error=test_err,
        empirical_gap=abs(train_err - test_err),
        z_inf_norm=beta,
        weight_norm=state.weight_norm(),
        init_weight_norm=state.init_weight_norm,
        n_train_edges=n_train,
        bound_value=bound_value(constants, beta, state.init_weight_norm, n_train),
    )


# -- experiment orchestration -----------------------------------------------------


@dataclass
class SeedResult:
    """One seed of an experiment.

    ``final_train`` holds the edges the final model trained on (the split's
    train edges after augmentation or perturbation, if any) as canonical
    ``EdgeColumns``; ``schedule`` is their curriculum order.
    """

    seed: int
    metrics: MetricsSet
    n_train: int
    n_test: int
    n_train_final: int
    density_before: float
    density_after: float
    bd_before: float | None
    bd_after: float | None
    runtime_sec: float
    augmentation: AugmentationLog | None = None
    diagnostic: GapDiagnostic | None = None
    final_train: EdgeColumns = field(default_factory=lambda: EdgeColumns((), (), ()))
    schedule: CurriculumSchedule | None = None
    encoder_state: EncoderState | None = None


@dataclass
class ExperimentReport:
    dataset: str
    pipeline: str
    ratio: float
    seeds: list[int]
    results: list[SeedResult] = field(default_factory=list)

    def metric_values(self, name: str) -> list[float]:
        vals = []
        for r in self.results:
            v = getattr(r.metrics, name)
            if v is not None:
                vals.append(v)
        return vals

    def aggregate(self) -> dict[str, dict[str, float | None]]:
        out: dict[str, dict[str, float | None]] = {}
        for name in METRIC_NAMES:
            vals = self.metric_values(name)
            if vals:
                out[name] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals)),
                    "n": len(vals),
                }
            else:
                out[name] = {"mean": None, "std": None, "n": 0}
        return out

    def summary_row(self) -> str:
        agg = self.aggregate()

        def cell(name: str) -> str:
            a = agg[name]
            if a["mean"] is None:
                return "N/A"
            return f"{100 * a['mean']:.1f}+-{100 * a['std']:.1f}"

        return (
            f"{self.dataset} {self.pipeline} AUC {cell('auc')} "
            f"F1-binary {cell('f1_binary')} F1-micro {cell('f1_micro')} "
            f"F1-macro {cell('f1_macro')}"
        )


def _derive_seeds(seed: int) -> tuple[int, int, int, int]:
    """Independent child seeds for split / pre-train / final model / perturb."""
    children = np.random.SeedSequence(entropy=seed).spawn(4)
    return tuple(int(c.generate_state(1)[0]) for c in children)  # type: ignore[return-value]


def _parse_pipeline(pipeline: str) -> tuple[str, str | None, float]:
    if pipeline.startswith("random:"):
        spec = pipeline[len("random:") :]
        try:
            kind, ratio_s = spec.split(",")
            ratio = float(ratio_s)
        except ValueError:
            raise ValueError(
                f"random pipeline must look like random:<kind>,<ratio>, got {pipeline!r}"
            ) from None
        if kind not in PERTURBATION_KINDS:
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if not 0 <= ratio <= 1:  # NaN included
            raise ValueError(f"random perturbation ratio must be in [0, 1], got {ratio}")
        return "random", kind, ratio
    if pipeline not in ("baseline", "sga", "sa-only", "tp-only"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return pipeline, None, 0.0


def check_experiment(
    pipeline: str,
    seeds: Sequence[int],
    ratio: float,
    param: str | None = None,
    values: Sequence[float] = (),
) -> tuple[str, str | None, float]:
    """Raise ``ValueError`` for a run or sweep that cannot start; parse the pipeline.

    A run needs at least one seed, no seed twice, a known pipeline (with a
    ``random:`` ratio in [0, 1]) and a train ``ratio`` in (0, 1).  A sweep
    (``param`` given) needs a sweepable parameter that the pipeline uses and
    at least one value, and big_t values must be whole numbers.  Returns the
    pipeline kind, and the perturbation kind and ratio of a ``random:``
    pipeline.
    """
    if len(seeds) == 0:
        raise ValueError(
            "no seeds to run: give a seed count of at least 1 or a non-empty seed list"
        )
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds {list(seeds)} repeat a seed; give each seed once")
    parsed = _parse_pipeline(pipeline)
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if param is None:
        return parsed
    if param not in SWEEPABLE_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}; choose from {SWEEPABLE_PARAMS}")
    if not values:
        raise ValueError("sweep needs at least one value")
    users = AUGMENTING if param.startswith("eps_") else PACED
    if parsed[0] not in users:
        raise ValueError(
            f"pipeline {pipeline!r} ignores {param}; sweep it with one of {', '.join(users)}"
        )
    if param == "big_t" and not all(float(v).is_integer() for v in values):
        raise ValueError(f"big_t counts epochs and takes whole numbers, got {list(values)}")
    return parsed


def _node_count(edges: EdgeColumns) -> int:
    """One more than the largest node id of canonical (u < v) edges."""
    if len(edges) == 0:
        raise ValueError("edge set is empty; there are no nodes to count")
    return int(edges.v.max()) + 1


def _edges_and_nodes(dataset: SignedGraph | Sequence[EdgeSample]) -> tuple[EdgeColumns, int]:
    """The ``edge_columns()`` and node count of a graph, or of the graph of edge samples."""
    if not isinstance(dataset, SignedGraph):
        edges = _canonical(dataset)
        dataset = graph_from_samples(edges, _node_count(edges))
    return dataset.edge_columns(), dataset.num_nodes


def run_experiment(
    dataset: SignedGraph | Sequence[EdgeSample],
    pipeline: str,
    seeds: Sequence[int],
    enc_cfg: EncoderConfig | None = None,
    aug_cfg: AugmentConfig | None = None,
    pace_cfg: PacingConfig | None = None,
    ratio: float = 0.8,
    diagnostic: bool = False,
    encoder_cache: dict | None = None,
    keep_states: bool = False,
) -> ExperimentReport:
    """Split / augment / train / evaluate over every seed and aggregate.

    ``dataset`` is a built ``SignedGraph`` (as ``build_graph`` makes from a
    loaded file) or in-memory edge samples, which are deduplicated into one.
    Pipelines: ``baseline`` (plain training), ``sga`` (structure augmentation
    plus curriculum), ``sa-only``, ``tp-only``, and ``random:<kind>,<ratio>``.
    Plain training is realized as the lambda0 = 1 degenerate curriculum so a
    no-op-threshold ``sga`` run is bit-identical to ``baseline``.  A run that
    cannot start (see ``check_experiment``) raises ``ValueError`` before any
    seed runs.  When ``encoder_cache`` is given, pre-trained candidate
    scorers are reused per seed (valid while dataset, split, and encoder
    config are unchanged).  The gap diagnostic uses ``GapConstants`` with
    the encoder's learning rate and epochs.
    """
    kind, perturb_kind, perturb_ratio = check_experiment(pipeline, seeds, ratio)
    enc_cfg = enc_cfg or EncoderConfig()
    aug_cfg = aug_cfg or AugmentConfig()
    # training runs for the encoder's epochs; a pacing over other epochs is an error
    pace_cfg = PacingConfig.for_epochs(enc_cfg.epochs, **(asdict(pace_cfg) if pace_cfg else {}))
    edges, num_nodes = _edges_and_nodes(dataset)

    report = ExperimentReport(
        dataset="<in-memory>", pipeline=pipeline, ratio=ratio, seeds=list(seeds)
    )
    plain_pace = PacingConfig(lambda0=1.0, big_t=1, total_epochs=enc_cfg.epochs)
    for seed in seeds:
        started = time.perf_counter()
        stage = "split"
        try:
            split_seed, pretrain_seed, final_seed, perturb_seed = _derive_seeds(seed)
            split = split_train_test(edges, ratio, split_seed)
            train = split.train
            train_graph = graph_from_samples(train, num_nodes)
            before_report = balance_report(train_graph)
            aug_log: AugmentationLog | None = None

            if kind in AUGMENTING:
                stage = "augment"
                pre_cfg = replace(enc_cfg, seed=pretrain_seed)
                scorer = encoder_cache.get(seed) if encoder_cache is not None else None
                if scorer is None:
                    scorer = train_encoder(train_graph, train, pre_cfg)
                    if encoder_cache is not None:
                        encoder_cache[seed] = scorer
                final_train, aug_log, final_graph = augment(
                    train_graph, train, pre_cfg, aug_cfg, pretrained=scorer
                )
            elif kind == "random":
                stage = "perturb"
                final_train = random_perturbation(
                    train, perturb_kind, perturb_ratio, perturb_seed, num_nodes=num_nodes
                )
                final_graph = graph_from_samples(final_train, num_nodes)
            else:
                final_train, final_graph = train, train_graph

            # the final graph's balance report is computed once, then memoised on it
            stage = "schedule"
            schedule = score_and_sort(final_graph, final_train)
            pace = pace_cfg if kind in PACED else plain_pace

            stage = "train"
            model_cfg = replace(enc_cfg, seed=final_seed)
            state = train_with_curriculum(final_graph, schedule, model_cfg, pace)

            stage = "evaluate"
            # one head fit also scores the train edges, for the gap diagnostic
            n_fit = len(final_train)
            scored = _concat(final_train, split.test)
            scores, labels = predict_test_signs(state, final_train, scored)
            metrics = compute_metrics(scores[n_fit:], labels[n_fit:])
            after_report = balance_report(final_graph)
            diag = None
            if diagnostic:
                constants = GapConstants(eta=enc_cfg.learning_rate, t=enc_cfg.epochs)
                diag = _gap_diagnostic(state, scores, labels, n_fit, constants)
        except Exception as exc:
            raise RuntimeError(f"seed {seed}: stage {stage!r} failed: {exc}") from exc
        result = SeedResult(
            seed=seed,
            metrics=metrics,
            n_train=len(train),
            n_test=len(split.test),
            n_train_final=len(final_train),
            density_before=density(train_graph),
            density_after=density(final_graph),
            bd_before=before_report.balance_degree,
            bd_after=after_report.balance_degree,
            runtime_sec=time.perf_counter() - started,
            augmentation=aug_log,
            diagnostic=diag,
            final_train=final_train,
            schedule=schedule,
            encoder_state=state if keep_states else None,
        )
        report.results.append(result)
        log.info(
            "seed %d done: auc=%s f1b=%.4f (%.1fs)",
            seed,
            "N/A" if metrics.auc is None else f"{metrics.auc:.4f}",
            metrics.f1_binary,
            result.runtime_sec,
        )
    return report


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready report content, excluding volatile timing information."""
    per_seed = []
    for r in report.results:
        per_seed.append(
            {
                "seed": r.seed,
                "metrics": asdict(r.metrics),
                "n_train": r.n_train,
                "n_test": r.n_test,
                "n_train_final": r.n_train_final,
                "density_before": r.density_before,
                "density_after": r.density_after,
                "bd_before": r.bd_before,
                "bd_after": r.bd_after,
                "augmentation": asdict(r.augmentation) if r.augmentation else None,
                "diagnostic": asdict(r.diagnostic) if r.diagnostic else None,
            }
        )
    return {
        "dataset": report.dataset,
        "pipeline": report.pipeline,
        "ratio": report.ratio,
        "seeds": report.seeds,
        "aggregate": report.aggregate(),
        "per_seed": per_seed,
    }


def _swept_configs(
    param: str, values: Sequence[float], aug_cfg: AugmentConfig, pace_cfg: PacingConfig
) -> list[tuple[AugmentConfig, PacingConfig]]:
    """The augmentation and pacing configs of each swept value, in order.

    Builds them all at once, so a value out of range raises ``ValueError``
    before any of them runs.
    """
    if param.startswith("eps_"):
        return [(replace(aug_cfg, **{param: float(value)}), pace_cfg) for value in values]
    if param == "lambda0":
        return [(aug_cfg, replace(pace_cfg, lambda0=float(value))) for value in values]
    return [(aug_cfg, replace(pace_cfg, big_t=int(value))) for value in values]


def report_timing(report: ExperimentReport) -> dict:
    per_seed = [round(r.runtime_sec, 3) for r in report.results]
    return {"per_seed_sec": per_seed, "total_sec": round(sum(per_seed), 3)}


def sensitivity_sweep(
    dataset: SignedGraph | Sequence[EdgeSample],
    param: str,
    values: Sequence[float],
    pipeline: str = "sga",
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    enc_cfg: EncoderConfig | None = None,
    aug_cfg: AugmentConfig | None = None,
    pace_cfg: PacingConfig | None = None,
    ratio: float = 0.8,
) -> list[dict]:
    """One run_experiment per value of one augmentation/pacing parameter.

    The pipeline must use the parameter: the eps_* thresholds act only in
    ``sga`` and ``sa-only``, big_t and lambda0 only in ``sga`` and
    ``tp-only``.  big_t values must be whole numbers, and every value is
    range-checked before the first one runs.  Every value runs on the one
    ``dataset``, as ``run_experiment`` takes it.  The pre-trained
    candidate scorer is cached per seed and shared across values (none of
    the sweepable parameters affect it).
    """
    check_experiment(pipeline, seeds, ratio, param, values)
    enc_cfg = enc_cfg or EncoderConfig()
    aug_cfg = aug_cfg or AugmentConfig()
    pace_cfg = pace_cfg or PacingConfig.for_epochs(enc_cfg.epochs)
    configs = _swept_configs(param, values, aug_cfg, pace_cfg)
    return _sweep(
        param, values, configs,
        dataset=dataset, pipeline=pipeline, seeds=seeds, enc_cfg=enc_cfg, ratio=ratio,
    )


def _sweep(
    param: str,
    values: Sequence[float],
    configs: Sequence[tuple[AugmentConfig, PacingConfig]],
    **experiment,
) -> list[dict]:
    """The rows of a checked sweep: one ``run_experiment`` per value on its configs."""
    cache: dict = {}
    rows: list[dict] = []
    for value, (aug, pace) in zip(values, configs):
        rep = run_experiment(**experiment, aug_cfg=aug, pace_cfg=pace, encoder_cache=cache)
        agg = rep.aggregate()
        row = {"param": param, "value": value}
        for name in METRIC_NAMES:
            row[f"{name}_mean"] = agg[name]["mean"]
            row[f"{name}_std"] = agg[name]["std"]
        row["pretrain_curves"] = [
            list(r.augmentation.pretrain_loss) if r.augmentation else []
            for r in rep.results
        ]
        rows.append(row)
    return rows
