"""Shared fixtures: synthetic signed graphs and benchmark-dataset discovery."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sigaug.augment import CandidateSets
from sigaug.graph import EdgeColumns, EdgeSample, _columns, graph_from_samples

# CI selects this with --hypothesis-profile=ci: every run draws the same
# examples, so a property-test failure there reproduces locally.
settings.register_profile("ci", derandomize=True)

REPO_ROOT = Path(__file__).resolve().parent.parent

DATASET_FILES = {
    "bitcoin-alpha": "soc-sign-bitcoinalpha.csv",
    "bitcoin-otc": "soc-sign-bitcoinotc.csv",
}


def dataset_file(name: str) -> Path | None:
    """Locate a benchmark dataset under $SIGAUG_DATA_DIR or ./datasets."""
    dirs = []
    env = os.environ.get("SIGAUG_DATA_DIR")
    if env:
        dirs.append(Path(env))
    dirs.append(REPO_ROOT / "datasets")
    for base in dirs:
        candidate = base / DATASET_FILES[name]
        if candidate.exists():
            return candidate
    return None


def community_records(
    n: int = 40,
    seed: int = 0,
    p_intra: float = 0.25,
    p_inter: float = 0.12,
    flip: float = 0.05,
) -> list[EdgeSample]:
    """Two antagonistic communities: + inside, - across, with sign noise.

    Returns deduplicated undirected samples (u < v).
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if rng.random() < (p_intra if same else p_inter):
                sign = 1 if same else -1
                if rng.random() < flip:
                    sign = -sign
                edges.append(EdgeSample(u, v, sign))
    return edges


def candidate_sets(additions=(), deletions=()) -> CandidateSets:
    """``CandidateSets`` from ``(EdgeSample, confidence)`` pairs and deletion samples."""
    return CandidateSets(
        additions=EdgeColumns(*_columns([e for e, _ in additions])),
        confidence=np.asarray([conf for _, conf in additions], dtype=np.float64),
        deletions=EdgeColumns(*_columns(list(deletions))),
    )


def random_signed_records(
    rng: np.random.Generator,
    n: int,
    edge_prob: float = 0.25,
    pos_frac: float = 0.7,
) -> list[EdgeSample]:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append(EdgeSample(u, v, 1 if rng.random() < pos_frac else -1))
    return edges


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per evaluation of the balance kernel."""
    from sigaug import balance

    calls = []
    kernel = balance._incident_triangles
    monkeypatch.setattr(balance, "_incident_triangles",
                        lambda *args: calls.append(1) or kernel(*args))
    return calls


@pytest.fixture
def small_community():
    edges = community_records(n=30, seed=3, p_intra=0.3, p_inter=0.15, flip=0.06)
    return edges, graph_from_samples(edges, 30)


def _brute_force_triangle_scan(edges: list[EdgeSample], num_nodes: int):
    """O(n^3) scan of every node triple; yields (i, j, k, balanced) per triangle."""
    sign = {}
    for e in edges:
        sign[e.pair] = e.sign
    for i in range(num_nodes):
        for j in range(i + 1, num_nodes):
            s_ij = sign.get((i, j))
            if s_ij is None:
                continue
            for k in range(j + 1, num_nodes):
                s_ik = sign.get((i, k))
                s_jk = sign.get((j, k))
                if s_ik is None or s_jk is None:
                    continue
                yield i, j, k, s_ij * s_ik * s_jk > 0


def brute_force_triangles(edges: list[EdgeSample], num_nodes: int) -> tuple[int, int]:
    """O(n^3) oracle: scan every node triple for balanced/unbalanced triangles."""
    balanced = unbalanced = 0
    for *_, is_balanced in _brute_force_triangle_scan(edges, num_nodes):
        if is_balanced:
            balanced += 1
        else:
            unbalanced += 1
    return balanced, unbalanced


def brute_force_edge_triangles(
    edges: list[EdgeSample], num_nodes: int
) -> dict[tuple[int, int], tuple[int, int]]:
    """O(n^3) oracle per edge: pair -> (balanced, unbalanced) triangles through it."""
    counts = {e.pair: [0, 0] for e in edges}
    for i, j, k, is_balanced in _brute_force_triangle_scan(edges, num_nodes):
        for pair in ((i, j), (i, k), (j, k)):
            counts[pair][0 if is_balanced else 1] += 1
    return {pair: (b, ub) for pair, (b, ub) in counts.items()}
