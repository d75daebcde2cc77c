"""Structure augmentation: propose edge edits from the pair classifier, keep
the ones balance theory endorses.

``augment`` takes the graph of the training edges and an encoder trained on
them, and refuses any other graph.  Candidate additions are node pairs whose
predicted edge probability clears an add threshold; candidate deletions are
training edges whose own-sign probability falls below a delete threshold.
Deletions are always applied (removing an edge never creates a triangle); an
addition survives only if every triangle it would close is balanced.
Selection is one walk over one working graph of per-sign neighbour sets: the
kept training records are linked first, then each addition, most confident
first, is checked against the graph as it evolves and linked if accepted.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .balance import balance_report
from .encoder import CLASS_NEG, CLASS_POS, EncoderState, _require_numbers, pair_class_scorer
from .graph import NEG, POS, EdgeColumns, EdgeSample, SignedGraph, density, graph_from_samples
from .graph import _budget_runs, _canonical, _concat

log = logging.getLogger(__name__)

# two-hop paths per block of scanned rows; bounds the pairs held at once
_SCAN_WORK = 1 << 16

# augmentation that leaves a sign with less than this share of its training
# edges is logged: the scorer is likely under-trained, not the edges wrong
_STRIPPED_SHARE = 0.5


@dataclass
class AugmentConfig:
    """Probability thresholds for candidate generation.

    Add thresholds live in (0, 1] and delete thresholds in [0, 1) so the
    extremes (add at 1.0, delete at 0.0) express an exact no-op.
    """

    eps_add_pos: float = 0.9
    eps_add_neg: float = 0.9
    eps_del_pos: float = 0.2
    eps_del_neg: float = 0.2

    def __post_init__(self):
        _require_numbers(self, "eps_add_pos", "eps_add_neg", "eps_del_pos", "eps_del_neg")
        for name in ("eps_add_pos", "eps_add_neg"):
            val = getattr(self, name)
            if not 0.0 < val <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {val}")
        for name in ("eps_del_pos", "eps_del_neg"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {val}")

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


def generate_candidates(
    graph: SignedGraph,
    state: EncoderState,
    train: Sequence[EdgeSample],
    config: AugmentConfig,
) -> CandidateSets:
    """Threshold the pair classifier into addition/deletion candidates.

    The scan covers every pair i < j that shares a neighbour, existing
    edges included.  It walks the graph's rows in blocks,
    ``graph._budget_runs`` of each row's two-hop paths within
    ``_SCAN_WORK``, so no more than one block of pairs is held and scored at
    a time.  A scanned pair becomes an addition candidate when its positive
    (negative) probability exceeds the matching add threshold; if both fire
    the higher probability wins, positive on a tie.  ``graph`` holds the
    training pairs, as ``augment`` requires; pairs it already holds with
    the same sign are excluded.  Additions come back sorted by confidence
    (descending, then pair); the pairs are unique, so the order does not
    depend on the blocks.  Deletions are
    the training edges, canonical and in training order, whose own-sign
    probability is below the matching delete threshold.
    """
    if state.epochs_trained == 0:
        raise ValueError("encoder state is untrained; train it before generating candidates")
    adj = abs(graph.signed_adjacency())
    work = (adj @ np.diff(adj.indptr)).astype(np.int64)  # two-hop paths from each row

    score = pair_class_scorer(state)  # projects Z once for the whole scan
    parts = [(np.empty(0, np.int64),) * 3 + (np.empty(0),)]
    for lo, hi in _budget_runs(work, _SCAN_WORK):
        rows, cols = (adj[lo:hi] @ adj).nonzero()
        cu = rows.astype(np.int64) + lo
        upper = cu < cols
        cu, cv = cu[upper], cols[upper].astype(np.int64)
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
    order = fresh[np.lexsort((av[fresh], au[fresh], -conf[fresh]))]

    edges = _canonical(train)
    probs = score(edges.u, edges.v)
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

    One walk over one working graph, ``nbrs[node, sign]``: the set of a
    node's neighbours through edges of that sign.  The canonical training
    records come first, in training order: a record whose pair is a
    deletion is counted and dropped, a repeat of a linked pair is dropped
    (the first record of a pair wins), and every other record is linked and
    kept.  The additions follow in the given (confidence-descending) order:
    one whose pair is occupied (with either sign) is skipped, one that
    would close an unbalanced triangle is rejected, and every other one is
    linked and accepted, so it is visible to every later check.  Returns
    the kept records, then the accepted additions.
    """
    counts = log_counts if log_counts is not None else AugmentationLog()
    nbrs: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
    edges = _canonical(train)
    deletions = _canonical(candidates.deletions)
    deleted = set(zip(deletions.u.tolist(), deletions.v.tolist()))
    kept: list[int] = []
    records = zip(edges.u.tolist(), edges.v.tolist(), edges.sign.tolist())
    for i, (u, v, sign) in enumerate(records):
        if (u, v) in deleted:
            counts.deleted_pos += sign == POS
            counts.deleted_neg += sign == NEG
        elif v not in nbrs[u, POS] and v not in nbrs[u, NEG]:
            nbrs[u, sign].add(v)
            nbrs[v, sign].add(u)
            kept.append(i)

    additions = _canonical(candidates.additions)
    accepted: list[int] = []
    proposed = zip(additions.u.tolist(), additions.v.tolist(), additions.sign.tolist())
    for i, (u, v, sign) in enumerate(proposed):
        if v in nbrs[u, POS] or v in nbrs[u, NEG]:
            continue
        # a common neighbour k with sign(u, k) * sign(k, v) = -sign: an unbalanced triangle
        if not (
            nbrs[u, POS].isdisjoint(nbrs[v, -sign]) and nbrs[u, NEG].isdisjoint(nbrs[v, sign])
        ):
            counts.rejected += 1
            continue
        nbrs[u, sign].add(v)
        nbrs[v, sign].add(u)
        accepted.append(i)
        counts.added_pos += sign == POS
        counts.added_neg += sign == NEG
    return _concat(
        edges[np.asarray(kept, dtype=np.int64)], additions[np.asarray(accepted, dtype=np.int64)]
    )


def _log_stripped_signs(
    train: EdgeColumns, augmented: EdgeColumns, logrec: AugmentationLog, aug_cfg: AugmentConfig
) -> None:
    """Warn once if ``augmented`` keeps less than ``_STRIPPED_SHARE`` of a sign's training edges."""
    stripped = []
    for sign, name, deleted, added, eps_del in [
        (POS, "positive", logrec.deleted_pos, logrec.added_pos, aug_cfg.eps_del_pos),
        (NEG, "negative", logrec.deleted_neg, logrec.added_neg, aug_cfg.eps_del_neg),
    ]:
        before = int(np.count_nonzero(train.sign == sign))
        after = int(np.count_nonzero(augmented.sign == sign))
        if after < _STRIPPED_SHARE * before:
            stripped.append(
                f"{after} of {before} {name} training edges remain ({deleted} deleted below "
                f"eps_del_{name[:3]}={eps_del:g}, {added} added)"
            )
    if stripped:
        log.warning(
            "augmentation stripped a sign: %s; the default thresholds assume a trained scorer",
            "; ".join(stripped),
        )


def augment(
    graph: SignedGraph,
    train: Sequence[EdgeSample],
    state: EncoderState,
    aug_cfg: AugmentConfig,
) -> tuple[EdgeColumns, AugmentationLog, SignedGraph]:
    """Full structure-augmentation pass over a training edge set.

    ``graph`` must be the graph of the training edges (over the full node
    universe), and ``state`` an encoder trained on them; it scores the
    candidates.  A ``graph`` that lacks a training pair, holds one with the
    other sign, or holds an edge that no training record names raises
    ``ValueError``.  Returns the augmented edges, the log, and the graph of
    the augmented edges over the same node universe.  Logs one warning when
    the augmented edges hold less than ``_STRIPPED_SHARE`` of the training
    edges of a sign.
    """
    edges = _canonical(train)
    at = graph.edge_index(edges.u, edges.v)
    if (at < 0).any():
        raise ValueError(f"graph lacks training pair {edges[int(np.argmax(at < 0))].pair}")
    if (graph.edge_columns().sign[at] != edges.sign).any():
        raise ValueError("graph holds a training pair with the other sign")
    if len(np.unique(at)) < graph.edge_count:
        raise ValueError("graph holds edges that no training record names")
    logrec = AugmentationLog()
    logrec.pretrain_loss = list(state.loss_history)
    candidates = generate_candidates(graph, state, edges, aug_cfg)
    logrec.candidate_additions = len(candidates.additions)
    logrec.candidate_deletions = len(candidates.deletions)
    augmented = select_beneficial(edges, candidates, log_counts=logrec)
    _log_stripped_signs(edges, augmented, logrec, aug_cfg)

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
