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

import hashlib
import logging
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .augment import AugmentConfig, AugmentationLog, augment
from .balance import balance_report, drop_report
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
    DatasetSplit,
    EdgeColumns,
    EdgeSample,
    SignedGraph,
    density,
    graph_from_samples,
    split_train_test,
)
from .graph import _canonical, _concat

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
HEAD_LR = 0.1  # the sign head's Adam step size
HEAD_STEPS = 300  # the sign head's full-batch steps


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
) -> tuple[np.ndarray, float]:
    """Unregularized binary logistic fit on pair embeddings ``[z_u, z_v]``.

    Full-batch Adam from zero init, ``HEAD_STEPS`` steps at ``HEAD_LR``,
    worked in node space: logits project the (n x zdim) embedding once and
    gather per pair, and the weight gradient scatters the per-pair error
    onto nodes before the product with Z, so the (m x 2 zdim) pair matrix is
    never built.  Returns (w, b) with w of width 2 * zdim.
    """
    n, zdim = z.shape
    m = len(u)
    w = np.zeros(2 * zdim)
    b = np.zeros(1)
    opt = _Optimizer(HEAD_LR, [w, b])
    for _ in range(HEAD_STEPS):
        p = _sigmoid(_pair_logits(z, w, u, v) + b[0])
        err = (p - labels01) / m
        gw = (np.stack([_scatter_rows(u, err, n), _scatter_rows(v, err, n)]) @ z).ravel()
        opt.step([gw, np.asarray([err.sum()])])
    return w, float(b[0])


def predict_test_signs(
    state: EncoderState,
    train: Sequence[EdgeSample],
    test: Sequence[EdgeSample],
) -> tuple[np.ndarray, np.ndarray]:
    """P(positive) and the sign per test edge, from a logistic head fit on the train edges."""
    if state.embeddings is None:
        raise ValueError("state has no embeddings; train or run forward first")
    # canonical (u < v) pairs, so [z_u, z_v] does not depend on how an edge was written
    fit, test = _canonical(train), _canonical(test)
    if len(np.unique(fit.sign)) < 2:
        raise ValueError("training set must contain both signs")
    w, b = fit_logistic(state.embeddings, fit.u, fit.v, (fit.sign == POS).astype(np.float64))
    return _sigmoid(_pair_logits(state.embeddings, w, test.u, test.v) + b), np.array(test.sign)


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


def _gap_diagnostic(
    state: EncoderState,
    scores: np.ndarray,
    labels: np.ndarray,
    n_train: int,
    constants: GapConstants,
) -> GapDiagnostic:
    """Empirical train/test gap of the downstream classifier plus the bound.

    ``scores`` and ``labels`` are one sign head's output on the first
    ``n_train`` (train) edges followed by the test edges.  Train/test error
    is their mean binary cross-entropy; beta is max|Z| and theta the
    recorded initial weight norm.
    """
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


def _parse_pipeline(pipeline: str) -> tuple[str, tuple[str, float] | None]:
    """A pipeline's kind, and the perturbation kind and ratio of a ``random:`` pipeline."""
    if not isinstance(pipeline, str):
        raise ValueError(f"pipeline must be a string, got {pipeline!r}")
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
        return "random", (kind, ratio)
    if pipeline not in ("baseline", "sga", "sa-only", "tp-only"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    return pipeline, None


class Run(NamedTuple):
    """One checked run: a pipeline, its parsed kind and perturbation, and its configs.

    ``kind`` is ``baseline``, ``sga``, ``sa-only``, ``tp-only`` or
    ``random``; ``perturbation`` is a ``random:`` pipeline's (kind, ratio).
    ``pace_cfg`` is the pacing the final model trains under, the lambda0 = 1
    degenerate curriculum for a pipeline that does not pace.
    """

    pipeline: str
    kind: str
    perturbation: tuple[str, float] | None
    aug_cfg: AugmentConfig
    pace_cfg: PacingConfig

    def edge_source(self) -> tuple:
        """The key of the run's final edges; runs with one key share them and their schedule.

        Only a run keyed ``("train",)`` trains on its split's train edges.
        """
        if self.kind in AUGMENTING:
            return ("augment", astuple(self.aug_cfg))
        if self.perturbation is not None:
            return ("random", *self.perturbation)
        return ("train",)


@dataclass(frozen=True)
class Plan:
    """A checked experiment: its runs, seeds, encoder config and train ratio.

    ``plan_experiment`` makes one and ``run_plan`` runs it.
    """

    runs: tuple[Run, ...]
    seeds: tuple[int, ...]
    enc_cfg: EncoderConfig
    ratio: float


def plan_experiment(
    pipelines: Sequence[str],
    seeds: Sequence[int],
    enc_cfg: EncoderConfig | None = None,
    aug_cfg: AugmentConfig | None = None,
    pace_cfg: PacingConfig | None = None,
    ratio: float = 0.8,
    param: str | None = None,
    values: Sequence[float] = (),
) -> Plan:
    """The checked plan of a run or sweep; ``ValueError`` for one that cannot start.

    A run needs at least one pipeline and at least one seed, no seed twice,
    no negative seed, an ``enc_cfg.seed`` of 0 (each run seed derives the
    seeds of its encoders, so any other value would go unused), known
    pipelines (with a ``random:`` ratio in [0, 1]), a train ``ratio`` in
    (0, 1) and a ``pace_cfg`` over the encoder's epochs.  A sweep (``param``
    given) needs a sweepable parameter that every pipeline uses and at least
    one value; big_t values must be whole numbers, and each value must be
    in its config's range.  The plan has one run per pipeline, in order, or
    for a sweep one run per value and pipeline, ordered by value.
    """
    if not pipelines:
        raise ValueError("no pipelines to run")
    if len(seeds) == 0:
        raise ValueError(
            "no seeds to run: give a seed count of at least 1 or a non-empty seed list"
        )
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds {list(seeds)} repeat a seed; give each seed once")
    negative = [seed for seed in seeds if seed < 0]
    if negative:
        raise ValueError(f"seeds must be >= 0, got {', '.join(map(str, negative))}")
    enc_cfg = enc_cfg or EncoderConfig()
    if enc_cfg.seed != 0:
        raise ValueError(
            f"EncoderConfig seed = {enc_cfg.seed} is not used: encoder seeds are derived from "
            "each run seed; leave it at 0"
        )
    parsed = [(pipeline, *_parse_pipeline(pipeline)) for pipeline in pipelines]
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if param is not None:
        if param not in SWEEPABLE_PARAMS:
            raise ValueError(
                f"unknown sweep parameter {param!r}; choose from {SWEEPABLE_PARAMS}")
        if not values:
            raise ValueError("sweep needs at least one value")
        users = AUGMENTING if param.startswith("eps_") else PACED
        for pipeline, kind, _ in parsed:
            if kind not in users:
                raise ValueError(f"pipeline {pipeline!r} ignores {param}; "
                                 f"sweep it with one of {', '.join(users)}")
        if param == "big_t" and not all(float(v).is_integer() for v in values):
            raise ValueError(f"big_t counts epochs and takes whole numbers, got {list(values)}")
    aug_cfg = aug_cfg or AugmentConfig()
    pace_cfg = PacingConfig.for_epochs(enc_cfg.epochs, **(asdict(pace_cfg) if pace_cfg else {}))
    # every swept config is built here, so a value out of range raises before any runs
    if param is None:
        configs = [(aug_cfg, pace_cfg)]
    elif param.startswith("eps_"):
        configs = [(replace(aug_cfg, **{param: float(v)}), pace_cfg) for v in values]
    elif param == "lambda0":
        configs = [(aug_cfg, replace(pace_cfg, lambda0=float(v))) for v in values]
    else:
        configs = [(aug_cfg, replace(pace_cfg, big_t=int(v))) for v in values]
    plain = PacingConfig(lambda0=1.0, big_t=1, total_epochs=enc_cfg.epochs)
    runs = tuple(Run(pipeline, kind, perturbation, aug, pace if kind in PACED else plain)
                 for aug, pace in configs for pipeline, kind, perturbation in parsed)
    return Plan(runs, tuple(seeds), enc_cfg, ratio)


def check_test_half(ratio: float, edge_count: int) -> None:
    """Raise ``ValueError`` if a ``ratio`` split of ``edge_count`` edges leaves no test edge."""
    if math.ceil(ratio * edge_count) == edge_count:
        raise ValueError(f"ratio {ratio} leaves no test edge out of {edge_count}; lower it")


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


def _seed_split(
    edges: EdgeColumns, num_nodes: int, seed: int, ratio: float
) -> tuple[DatasetSplit, SignedGraph]:
    """Run seed ``seed``'s train/test split of ``edges`` and the graph of its train edges."""
    split = split_train_test(edges, ratio, _derive_seeds(seed)[0])
    return split, graph_from_samples(split.train, num_nodes)


def _seed_scorer(
    train_graph: SignedGraph, train: EdgeColumns, seed: int, enc_cfg: EncoderConfig,
    encoder_cache: dict | None = None,
) -> EncoderState:
    """Run seed ``seed``'s candidate scorer, pre-trained on a ``_seed_split`` train half.

    An ``encoder_cache`` keeps each scorer under all it depends on: the run
    seed, a digest of the train columns, the node count and each ``enc_cfg`` field.
    """
    key = None
    if encoder_cache is not None:
        columns = b"".join(c.tobytes() for c in (train.u, train.v, train.sign))
        key = (seed, hashlib.sha256(columns).hexdigest(), train_graph.num_nodes, astuple(enc_cfg))
        if key in encoder_cache:
            return encoder_cache[key]
    scorer = train_encoder(train_graph, train, replace(enc_cfg, seed=_derive_seeds(seed)[1]))
    if key is not None:
        encoder_cache[key] = scorer
    return scorer


# the order a seed makes final edge sets in: each augmentation reads the training
# graph's memoised balance report before the train edges' schedule clears it
_SOURCE_ORDER = ("augment", "train", "random")


def _seed_results(
    edges: EdgeColumns, num_nodes: int, seed: int, plan: Plan, diagnostic: bool,
    encoder_cache: dict | None, keep_states: bool,
) -> list[SeedResult]:
    """Seed ``seed`` of each of the plan's runs, one ``SeedResult`` per run in its order.

    Every run, sweep and desk run goes through here, one call per seed.
    What a seed shares: it makes the split, the training graph and its
    report, and the scorer once (or takes the scorer from
    ``encoder_cache``, see ``_seed_scorer``); one augmentation per distinct
    ``AugmentConfig``, one perturbation per ``random:`` kind and ratio, and
    one schedule per final edge set (``baseline`` and ``tp-only`` share one,
    as do ``sga`` and ``sa-only``).  Each run trains its own final model.
    Densities and balance degrees are read as soon as their graphs exist.

    What it holds: besides the results, the split; the training graph and
    its memoised report until the last augmentation and the train-edge runs
    are done; the scorer until the last augmentation; and one final graph
    at a time, whose report is dropped once its schedule is scored.  So a
    one-run seed trains its final model holding no per-edge balance column,
    nor the training graph unless that is its final graph.  A result keeps
    its final encoder state only with ``keep_states``.

    How it charges time: a stage's time goes to the ``runtime_sec`` of the
    first run, in the plan's order, that reads what it makes (the split's
    to the first run), so a seed's runtimes add up to its wall time.  A
    failing stage raises ``RuntimeError`` naming the seed and the stage,
    and fails every run.
    """
    runs, enc_cfg = plan.runs, plan.enc_cfg
    runtimes = [0.0] * len(runs)
    mark = time.perf_counter()

    def charge(i: int) -> None:
        nonlocal mark
        now = time.perf_counter()
        runtimes[i] += now - mark
        mark = now

    readers: dict[tuple, list[int]] = {}
    for i, run in enumerate(runs):
        readers.setdefault(run.edge_source(), []).append(i)
    order = sorted(readers, key=lambda key: _SOURCE_ORDER.index(key[0]))
    results: dict[int, SeedResult] = {}
    stage = "split"
    try:
        _, _, final_seed, perturb_seed = _derive_seeds(seed)
        model_cfg = replace(enc_cfg, seed=final_seed)
        split, train_graph = _seed_split(edges, num_nodes, seed, plan.ratio)
        density_before = density(train_graph)
        bd_before = balance_report(train_graph).balance_degree
        scorer = None
        charge(0)
        for j, key in enumerate(order):
            later = order[j + 1][0] if j + 1 < len(order) else None
            aug_log: AugmentationLog | None = None
            if key[0] == "augment":
                stage = "augment"
                if scorer is None:
                    scorer = _seed_scorer(train_graph, split.train, seed, enc_cfg, encoder_cache)
                final_train, aug_log, final_graph = augment(
                    train_graph, split.train, scorer, runs[readers[key][0]].aug_cfg)
            elif key[0] == "random":
                stage = "perturb"
                final_train = random_perturbation(
                    split.train, *key[1:], perturb_seed, num_nodes=num_nodes
                )
                final_graph = graph_from_samples(final_train, num_nodes)
            else:
                final_train, final_graph = split.train, train_graph
            if later != "augment":
                scorer = None
            if later not in ("augment", "train"):
                train_graph = None  # only final graphs are read from here on
            density_after = density(final_graph)

            stage = "schedule"
            schedule = score_and_sort(final_graph, final_train)
            bd_after = balance_report(final_graph).balance_degree
            drop_report(final_graph)  # no later stage reads its per-edge columns
            charge(readers[key][0])

            for i in readers[key]:
                stage = "train"
                state = train_with_curriculum(final_graph, schedule, model_cfg, runs[i].pace_cfg)

                stage = "evaluate"
                # one head fit also scores the train edges, for the gap diagnostic
                n_fit = len(final_train)
                scored = _concat(final_train, split.test)
                scores, labels = predict_test_signs(state, final_train, scored)
                metrics = compute_metrics(scores[n_fit:], labels[n_fit:])
                diag = None
                if diagnostic:
                    constants = GapConstants(eta=enc_cfg.learning_rate, t=enc_cfg.epochs)
                    diag = _gap_diagnostic(state, scores, labels, n_fit, constants)
                charge(i)  # the last of this run's stages
                results[i] = SeedResult(
                    seed=seed,
                    metrics=metrics,
                    n_train=len(split.train),
                    n_test=len(split.test),
                    n_train_final=len(final_train),
                    density_before=density_before,
                    density_after=density_after,
                    bd_before=bd_before,
                    bd_after=bd_after,
                    runtime_sec=runtimes[i],
                    augmentation=aug_log,
                    diagnostic=diag,
                    final_train=final_train,
                    schedule=schedule,
                    encoder_state=state if keep_states else None,
                )
                del state  # the next run trains without it
                log.info("%s seed %d done: auc=%s f1b=%.4f (%.1fs)", runs[i].pipeline, seed,
                         "N/A" if metrics.auc is None else f"{metrics.auc:.4f}",
                         metrics.f1_binary, runtimes[i])
            del final_graph
    except Exception as exc:
        raise RuntimeError(f"seed {seed}: stage {stage!r} failed: {exc}") from exc
    return [results[i] for i in range(len(runs))]


def run_plan(
    dataset: SignedGraph | Sequence[EdgeSample], plan: Plan, diagnostic: bool = False,
    encoder_cache: dict | None = None, keep_states: bool = False,
) -> list[ExperimentReport]:
    """The seed loop: one report per run of ``plan``, with one ``_seed_results`` result a seed.

    Logs the add thresholds <= 0.5 of each run that augments once, then
    raises ``ValueError`` if the plan's ratio leaves the test half of
    ``dataset`` empty, before any seed runs.  A sweep's rows are
    ``sweep_rows(param, values, reports)``.
    """
    for run in plan.runs:
        if run.kind in AUGMENTING:
            run.aug_cfg.log_low_add_thresholds()
    edges, num_nodes = _edges_and_nodes(dataset)
    check_test_half(plan.ratio, len(edges))
    reports = [
        ExperimentReport(dataset="<in-memory>", pipeline=run.pipeline, ratio=plan.ratio,
                         seeds=list(plan.seeds))
        for run in plan.runs
    ]
    for seed in plan.seeds:
        results = _seed_results(edges, num_nodes, seed, plan, diagnostic, encoder_cache,
                                keep_states)
        for report, result in zip(reports, results):
            report.results.append(result)
    return reports


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
) -> ExperimentReport:
    """One pipeline's report over every seed: ``run_plan`` of a one-run ``plan_experiment`` plan.

    ``dataset`` is a built ``SignedGraph`` (as ``build_graph`` makes from a
    loaded file) or in-memory edge samples, which are deduplicated into one.
    Pipelines: ``baseline`` (plain training), ``sga`` (structure augmentation
    plus curriculum), ``sa-only``, ``tp-only``, and ``random:<kind>,<ratio>``.
    Plain training is realized as the lambda0 = 1 degenerate curriculum so a
    no-op-threshold ``sga`` run is bit-identical to ``baseline``.  A run that
    cannot start raises ``ValueError`` before any seed runs.  The gap
    diagnostic uses ``GapConstants`` with the encoder's learning rate and
    epochs.  Several pipelines or a sweep make one plan and run it with
    ``run_plan``, so their seeds share what ``_seed_results`` lists.
    """
    plan = plan_experiment([pipeline], seeds, enc_cfg, aug_cfg, pace_cfg, ratio)
    (report,) = run_plan(dataset, plan, diagnostic, encoder_cache)
    return report


def report_payload(report: ExperimentReport) -> dict:
    """JSON-ready report content, without timing or what a run writes to files of its own."""
    unreported = ("runtime_sec", "final_train", "schedule", "encoder_state")
    per_seed = []
    for r in report.results:
        values = {f.name: getattr(r, f.name) for f in fields(r) if f.name not in unreported}
        per_seed.append({k: asdict(v) if is_dataclass(v) else v for k, v in values.items()})
    return {
        "dataset": report.dataset,
        "pipeline": report.pipeline,
        "ratio": report.ratio,
        "seeds": report.seeds,
        "aggregate": report.aggregate(),
        "per_seed": per_seed,
    }


def report_timing(report: ExperimentReport) -> dict:
    per_seed = [round(r.runtime_sec, 3) for r in report.results]
    return {"per_seed_sec": per_seed, "total_sec": round(sum(per_seed), 3)}


def sweep_rows(param: str, values: Sequence[float], reports: list[ExperimentReport]) -> list[dict]:
    """One row of aggregate metrics per swept value, from its run's report."""
    rows: list[dict] = []
    for value, rep in zip(values, reports):
        agg = rep.aggregate()
        row = {"param": param, "value": value}
        for name in METRIC_NAMES:
            row[f"{name}_mean"] = agg[name]["mean"]
            row[f"{name}_std"] = agg[name]["std"]
        rows.append(row)
    return rows
