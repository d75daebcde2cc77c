"""Difficulty-ordered curriculum training.

Training edges are scored once on the (augmented) training graph by how
contradicted they are by balance theory, sorted easiest first, and exposed to
the model through a growing prefix: at epoch t the first ceil(g(t) * N)
edges are used, where g is a linear pacing function that starts at lambda0
and reaches 1 at epoch T.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .balance import balance_report
from .encoder import EncoderConfig, EncoderState, _require_ints, _train_loop, init_state
from .graph import EdgeColumns, EdgeSample, SignedGraph, _canonical


@dataclass
class PacingConfig:
    """Linear pacing: g(t) = min(1, lambda0 + (1 - lambda0) * t / big_t)."""

    lambda0: float = 0.25
    big_t: int = 150
    total_epochs: int = 300

    def __post_init__(self):
        _require_ints(self, "big_t", "total_epochs")
        if not 0.0 < self.lambda0 <= 1.0:
            raise ValueError(f"lambda0 must be in (0, 1], got {self.lambda0}")
        if self.total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if not 1 <= self.big_t <= self.total_epochs:
            raise ValueError(
                f"big_t must be in [1, total_epochs={self.total_epochs}], got {self.big_t}"
            )

    @classmethod
    def for_epochs(cls, epochs: int, **fields) -> "PacingConfig":
        """Pacing over ``epochs``; unless given, big_t is half of it (at least 1).

        Training runs for the encoder's epochs, so a ``total_epochs`` among
        ``fields`` that differs from ``epochs`` is an error.
        """
        total = fields.pop("total_epochs", epochs)
        if total != epochs:
            raise ValueError(
                f"pacing total_epochs = {total} disagrees with the encoder's epochs = {epochs}; "
                "drop it, it always equals the encoder's epochs"
            )
        fields.setdefault("big_t", max(1, epochs // 2))
        return cls(total_epochs=epochs, **fields)


@dataclass
class CurriculumSchedule:
    """Canonical edge columns sorted by (difficulty ascending, u, v) with parallel scores."""

    ordered_edges: EdgeColumns
    difficulties: list[float]


def pacing(t: int, config: PacingConfig) -> float:
    """Exposed fraction of the sorted training set at epoch t >= 0."""
    if t < 0:
        raise ValueError("epoch index must be >= 0")
    if t >= config.big_t:
        return 1.0  # saturation is exact, immune to float rounding
    return min(1.0, config.lambda0 + (1.0 - config.lambda0) * t / config.big_t)


def score_and_sort(graph: SignedGraph, train: Sequence[EdgeSample]) -> CurriculumSchedule:
    """Difficulty-score every training edge on ``graph`` and sort ascending.

    Every train edge must be present in the graph.  Ties are broken by the
    canonical (u, v) pair, so the order is a deterministic function of the
    edge multiset.
    """
    edges = _canonical(train)
    u, v = edges.u, edges.v
    at = graph.edge_index(u, v)
    if (at < 0).any():
        i = int(np.argmin(at))
        raise ValueError(f"train edge ({u[i]}, {v[i]}) not in scoring graph")
    # the report lists the edges as edge_columns() does
    difficulty = balance_report(graph).difficulty[at]
    order = np.lexsort((v, u, difficulty))
    return CurriculumSchedule(ordered_edges=edges[order], difficulties=difficulty[order].tolist())


def subset_size(n_edges: int, t: int, config: PacingConfig) -> int:
    return max(1, math.ceil(pacing(t, config) * n_edges))


def subset_at_epoch(
    schedule: CurriculumSchedule, t: int, config: PacingConfig
) -> Sequence[EdgeSample]:
    """The easiest ceil(g(t) * N) edges (never empty)."""
    return schedule.ordered_edges[: subset_size(len(schedule.ordered_edges), t, config)]


def train_with_curriculum(
    graph: SignedGraph,
    schedule: CurriculumSchedule,
    enc_cfg: EncoderConfig,
    pace_cfg: PacingConfig,
) -> EncoderState:
    """Train on growing easiest-first prefixes of the schedule.

    Epoch t trains on ``subset_at_epoch(schedule, t)`` plus an equal number
    of resampled no-edge pairs, for the encoder's epochs; a pacing whose
    ``total_epochs`` differs from them raises ``ValueError``.  With
    lambda0 = 1 this reduces exactly to plain full-set training on the
    schedule order.
    """
    if not schedule.ordered_edges:
        raise ValueError("schedule is empty")
    PacingConfig.for_epochs(enc_cfg.epochs, **asdict(pace_cfg))  # raises on other epochs
    state = init_state(graph, enc_cfg)
    edges = schedule.ordered_edges
    n = len(edges)
    return _train_loop(graph, state, enc_cfg, edges, lambda t: subset_size(n, t, pace_cfg))


def schedule_to_csv(schedule: CurriculumSchedule, path: str | Path) -> None:
    """Write ``rank,u,v,sign,difficulty`` rows for inspection/plotting."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "u", "v", "sign", "difficulty"])
        for rank, (edge, diff) in enumerate(
            zip(schedule.ordered_edges, schedule.difficulties)
        ):
            writer.writerow([rank, edge.u, edge.v, edge.sign, f"{diff:.6f}"])
