"""Structure augmentation: propose edge edits from the pair classifier, keep
the ones balance theory endorses.

Candidate additions are node pairs whose predicted edge probability clears an
add threshold; candidate deletions are training edges whose own-sign
probability falls below a delete threshold.  Deletions are always applied
(removing an edge never creates a triangle); an addition survives only if
every triangle it would close is balanced, checked against the working graph
as it evolves, most confident candidates first.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .balance import balance_report
from .encoder import (
    CLASS_NEG,
    CLASS_POS,
    EncoderConfig,
    EncoderState,
    _require_ints,
    pair_class_probabilities,
    pair_class_scorer,
    train_encoder,
)
from .graph import NEG, POS, EdgeColumns, EdgeSample, SignedGraph, density, graph_from_samples
from .graph import _canonical, _concat

log = logging.getLogger(__name__)

_SCAN_CHUNK = 200_000
_ALL_PAIRS_NODE_LIMIT = 10_000


@dataclass
class AugmentConfig:
    """Probability thresholds and scan scope for candidate generation.

    Add thresholds live in (0, 1] and delete thresholds in [0, 1) so the
    extremes (add at 1.0, delete at 0.0) express an exact no-op.
    """

    eps_add_pos: float = 0.9
    eps_add_neg: float = 0.9
    eps_del_pos: float = 0.2
    eps_del_neg: float = 0.2
    candidate_scope: str = "two-hop"
    max_additions: int | None = None

    def __post_init__(self):
        for name in ("eps_add_pos", "eps_add_neg"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {val}")
        for name in ("eps_del_pos", "eps_del_neg"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {val}")
        if self.candidate_scope not in ("two-hop", "all-pairs"):
            raise ValueError(f"unknown candidate_scope {self.candidate_scope!r}")
        if self.max_additions is not None:
            _require_ints(self, "max_additions")
            if self.max_additions < 0:
                raise ValueError("max_additions must be >= 0")

    def log_low_add_thresholds(self) -> None:
        """Warn of each add threshold <= 0.5; a run that augments calls this once."""
        for name in ("eps_add_pos", "eps_add_neg"):
            val = getattr(self, name)
            if val <= 0.5:
                log.warning("%s=%.3f is <= 0.5; expect many addition candidates", name, val)


@dataclass
class CandidateSets:
    """Proposed edits as canonical (u < v) columns.

    ``confidence[i]`` is the winning class probability of ``additions[i]``;
    ``generate_candidates`` sorts the additions by it, highest first.
    """

    additions: EdgeColumns
    confidence: np.ndarray
    deletions: EdgeColumns


@dataclass
class AugmentationLog:
    added_pos: int = 0
    added_neg: int = 0
    deleted_pos: int = 0
    deleted_neg: int = 0
    rejected: int = 0
    candidate_additions: int = 0
    candidate_deletions: int = 0
    bd_before: float | None = None
    bd_after: float | None = None
    density_before: float = 0.0
    density_after: float = 0.0
    pretrain_loss: list[float] = field(default_factory=list)


def _two_hop_pairs(graph: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """All (i < j) pairs sharing at least one neighbor, existing edges included."""
    adj = abs(graph.signed_adjacency())
    reach = (adj @ adj).tocoo()
    mask = reach.row < reach.col
    return reach.row[mask].astype(np.int64), reach.col[mask].astype(np.int64)


def _all_pairs(num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(num_nodes, k=1)
    return iu[0].astype(np.int64), iu[1].astype(np.int64)


def generate_candidates(
    graph: SignedGraph,
    state: EncoderState,
    train: Sequence[EdgeSample],
    config: AugmentConfig,
) -> CandidateSets:
    """Threshold the pair classifier into addition/deletion candidates.

    A scanned pair becomes an addition candidate when its positive (negative)
    probability exceeds the matching add threshold; if both fire the higher
    probability wins, positive on a tie.  ``graph`` holds the training
    pairs, as ``augment`` requires; pairs it already holds with the same
    sign are excluded.  Additions come back sorted by
    confidence (descending, then pair) and truncated to ``max_additions``.
    Deletions are the training edges, canonical and in training order,
    whose own-sign probability is below the matching delete threshold.
    """
    if state.epochs_trained == 0:
        raise ValueError("encoder state is untrained; train it before generating candidates")
    if config.candidate_scope == "all-pairs":
        if graph.num_nodes > _ALL_PAIRS_NODE_LIMIT:
            raise ValueError(
                f"all-pairs scan limited to {_ALL_PAIRS_NODE_LIMIT} nodes; "
                f"graph has {graph.num_nodes}"
            )
        us, vs = _all_pairs(graph.num_nodes)
    else:
        us, vs = _two_hop_pairs(graph)

    score = pair_class_scorer(state)  # projects Z once for the whole scan
    parts = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for lo in range(0, len(us), _SCAN_CHUNK):
        cu = us[lo : lo + _SCAN_CHUNK]
        cv = vs[lo : lo + _SCAN_CHUNK]
        probs = score(cu, cv)
        p_pos = probs[:, CLASS_POS]
        p_neg = probs[:, CLASS_NEG]
        fire_pos = p_pos > config.eps_add_pos
        fire_neg = p_neg > config.eps_add_neg
        # higher probability wins when both clear; positive wins ties
        pick_neg = fire_neg & (~fire_pos | (p_neg > p_pos))
        picked = np.flatnonzero(fire_pos | pick_neg)
        pick_neg = pick_neg[picked]
        conf = np.where(pick_neg, p_neg[picked], p_pos[picked])
        parts.append((cu[picked], cv[picked], np.where(pick_neg, NEG, POS), conf))
    au, av, sign, conf = (np.concatenate(column) for column in zip(*parts))

    # drop pairs the graph (the training set) holds with the same sign
    at = graph.edge_index(au, av)
    held = at >= 0
    held[held] = graph.edge_columns().sign[at[held]] == sign[held]
    fresh = np.flatnonzero(~held)
    order = fresh[np.lexsort((av[fresh], au[fresh], -conf[fresh]))][: config.max_additions]

    edges = _canonical(train)
    probs = pair_class_probabilities(state, edges.u, edges.v)
    own = np.where(edges.sign == POS, probs[:, CLASS_POS], probs[:, CLASS_NEG])
    threshold = np.where(edges.sign == POS, config.eps_del_pos, config.eps_del_neg)
    return CandidateSets(
        additions=EdgeColumns(au[order], av[order], sign[order]),
        confidence=conf[order],
        deletions=edges[own < threshold],
    )


def select_beneficial(
    train: Sequence[EdgeSample],
    candidates: CandidateSets,
    log_counts: AugmentationLog | None = None,
) -> EdgeColumns:
    """Apply deletions, then additions that close only balanced triangles.

    The kept training edges come first, canonical and in training order
    (the first record of a repeated pair wins), then the accepted additions.
    Additions are processed in the given (confidence-descending) order
    against the evolving working graph, so an accepted edge is visible to
    every later balance check.  Candidates whose pair is already occupied
    are skipped.
    """
    counts = log_counts if log_counts is not None else AugmentationLog()
    edges = _canonical(train)
    deletions = _canonical(candidates.deletions)
    width = int(max(edges.v.max(initial=0), deletions.v.max(initial=0))) + 1
    keys = edges.u * width + edges.v
    deleted = np.isin(keys, deletions.u * width + deletions.v)
    counts.deleted_pos += int(np.count_nonzero(deleted & (edges.sign == POS)))
    counts.deleted_neg += int(np.count_nonzero(deleted & (edges.sign == NEG)))
    first = np.zeros(len(edges), dtype=bool)
    first[np.unique(keys, return_index=True)[1]] = True
    kept = edges[first & ~deleted]

    adj: dict[int, dict[int, int]] = {}
    for u, v, sign in zip(kept.u.tolist(), kept.v.tolist(), kept.sign.tolist()):
        adj.setdefault(u, {})[v] = sign
        adj.setdefault(v, {})[u] = sign
    additions = _canonical(candidates.additions)
    accepted: list[int] = []
    for i, (u, v, sign) in enumerate(
        zip(additions.u.tolist(), additions.v.tolist(), additions.sign.tolist())
    ):
        nbrs_u = adj.setdefault(u, {})
        nbrs_v = adj.setdefault(v, {})
        if v in nbrs_u:
            continue  # pair occupied (same or opposite sign)
        if len(nbrs_v) < len(nbrs_u):
            nbrs_u, nbrs_v = nbrs_v, nbrs_u
        if any(k in nbrs_v and sign * s_uk * nbrs_v[k] < 0 for k, s_uk in nbrs_u.items()):
            counts.rejected += 1
            continue
        adj[u][v] = adj[v][u] = sign
        accepted.append(i)
    added = additions[np.asarray(accepted, dtype=np.int64)]
    counts.added_pos += int(np.count_nonzero(added.sign == POS))
    counts.added_neg += int(np.count_nonzero(added.sign == NEG))
    return _concat(kept, added)


def augment(
    graph: SignedGraph,
    train: Sequence[EdgeSample],
    enc_cfg: EncoderConfig,
    aug_cfg: AugmentConfig,
    pretrained: EncoderState | None = None,
) -> tuple[EdgeColumns, AugmentationLog, SignedGraph]:
    """Full structure-augmentation pass over a training edge set.

    ``graph`` must contain exactly the training edges (over the full node
    universe).  A freshly trained encoder scores candidates unless a
    ``pretrained`` state (from the same graph and config) is supplied.
    Returns the augmented edges, the log, and the graph of the augmented
    edges over the same node universe.
    """
    logrec = AugmentationLog()
    state = pretrained if pretrained is not None else train_encoder(graph, train, enc_cfg)
    logrec.pretrain_loss = list(state.loss_history)
    candidates = generate_candidates(graph, state, train, aug_cfg)
    logrec.candidate_additions = len(candidates.additions)
    logrec.candidate_deletions = len(candidates.deletions)
    augmented = select_beneficial(train, candidates, log_counts=logrec)

    after_graph = graph_from_samples(augmented, graph.num_nodes)
    logrec.bd_before = balance_report(graph).balance_degree
    logrec.bd_after = balance_report(after_graph).balance_degree
    logrec.density_before = density(graph)
    logrec.density_after = density(after_graph)
    log.info(
        "augment: +%d/-%d edges (%d rejected), balance %.4f -> %.4f",
        logrec.added_pos + logrec.added_neg,
        logrec.deleted_pos + logrec.deleted_neg,
        logrec.rejected,
        -1 if logrec.bd_before is None else logrec.bd_before,
        -1 if logrec.bd_after is None else logrec.bd_after,
    )
    return augmented, logrec, after_graph
