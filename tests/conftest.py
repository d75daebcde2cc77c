"""Shared fixtures: synthetic signed graphs and benchmark-dataset discovery."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sigaug.augment import CandidateSets
from sigaug.config import RunConfig
from sigaug.graph import EdgeColumns, EdgeSample, _columns, graph_from_samples

# CI selects this with --hypothesis-profile=ci: every run draws the same
# examples, so a property-test failure there reproduces locally.
settings.register_profile("ci", derandomize=True)

REPO_ROOT = Path(__file__).resolve().parent.parent


def dataset_file(name: str) -> Path | None:
    """Locate a known benchmark dataset under $SIGAUG_DATA_DIR or the repo's datasets/."""
    try:
        return RunConfig(dataset=name).resolve_dataset(REPO_ROOT)[0]
    except FileNotFoundError:
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


def shuffled_planted_records() -> list[EdgeSample]:
    """A 200-node ``community_records`` graph with its ids shuffled.

    The generator numbers each community contiguously, so with u < v every
    cross-community pair has u in the first community; shuffling hides that
    (see README "Known limitations").
    """
    edges = community_records(n=200, seed=0, p_intra=0.1, p_inter=0.05, flip=0.05)
    perm = np.random.default_rng(1).permutation(200)
    return [EdgeSample(int(perm[e.u]), int(perm[e.v]), e.sign) for e in edges]


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


def planted_bad_actors(
    n: int = 1000,
    m: int = 4000,
    seed: int = 0,
    triad_prob: float = 0.9,
    bad_frac: float = 0.05,
    bad_neg_prob: float = 0.75,
    noise_neg_prob: float = 0.02,
) -> tuple[list[EdgeSample], np.ndarray]:
    """A trust network with planted bad actors, and its boolean bad-actor mask over the nodes.

    The network has ``m`` distinct edges over ``n`` nodes.  Node i has
    expected degree proportional to (i + 10) ** -0.7, so the low ids are
    hubs.  A random tree joins every node to an earlier one; the rest are
    Chung-Lu draws or, with ``triad_prob``, a neighbour of a neighbour,
    which closes triangles.  ``bad_frac`` of the nodes, drawn at random, are
    bad actors: an edge touching exactly one of them is negative with
    ``bad_neg_prob``, every other edge with ``noise_neg_prob``, so
    ``bayes_scores`` knows each pair's sign probability.  The edges are
    canonical (u < v) samples in the order they were wired.
    """
    rng = np.random.default_rng(seed)
    cum = np.cumsum((np.arange(n) + 10.0) ** -0.7)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    pairs: dict[tuple[int, int], None] = {}

    def link(a: int, b: int) -> None:
        pairs[min(a, b), max(a, b)] = None
        nbrs[a].append(b)
        nbrs[b].append(a)

    for i in range(1, n):
        link(i, int(np.searchsorted(cum, rng.random() * cum[i - 1], side="right")))
    while len(pairs) < m:
        a = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        if rng.random() < triad_prob:
            via = nbrs[a][rng.integers(len(nbrs[a]))]
            b = nbrs[via][rng.integers(len(nbrs[via]))]
        else:
            b = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        if a != b and (min(a, b), max(a, b)) not in pairs:
            link(a, b)
    bad = np.zeros(n, dtype=bool)
    bad[rng.choice(n, size=round(bad_frac * n), replace=False)] = True
    edges = []
    for u, v in pairs:
        p_neg = bad_neg_prob if bad[u] != bad[v] else noise_neg_prob
        edges.append(EdgeSample(u, v, -1 if rng.random() < p_neg else 1))
    return edges, bad


def bad_actor_records(
    n: int = 1000,
    m: int = 4000,
    seed: int = 0,
    triad_prob: float = 0.9,
    bad_frac: float = 0.05,
    bad_neg_prob: float = 0.75,
    noise_neg_prob: float = 0.02,
) -> list[EdgeSample]:
    """The edges of ``planted_bad_actors`` with the same arguments."""
    return planted_bad_actors(n, m, seed, triad_prob, bad_frac, bad_neg_prob, noise_neg_prob)[0]


def bayes_scores(
    bad: np.ndarray, u, v, bad_neg_prob: float = 0.75, noise_neg_prob: float = 0.02
) -> np.ndarray:
    """P(pos | u, v) for pairs of a ``planted_bad_actors`` graph with bad-actor mask ``bad``.

    It is the Bayes-optimal sign score: a pair with exactly one bad end is
    negative with ``bad_neg_prob``, any other pair with ``noise_neg_prob``.
    """
    cross = bad[np.asarray(u)] != bad[np.asarray(v)]
    return np.where(cross, 1.0 - bad_neg_prob, 1.0 - noise_neg_prob)


def hub_records(rng, n, hub_degree, extra_edges):
    """Node 0 joined to nodes 1..hub_degree, plus ``extra_edges`` random pairs; mixed signs."""
    pairs = {(0, v) for v in range(1, hub_degree + 1)}
    while len(pairs) < hub_degree + extra_edges:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    signs = rng.choice([1, -1], size=len(pairs), p=[0.7, 0.3])
    return [EdgeSample(u, v, int(s)) for (u, v), s in zip(sorted(pairs), signs)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """A list that grows by one entry per evaluation of the balance kernel."""
    from sigaug import balance

    calls = []
    kernel = balance._triangle_chunks
    monkeypatch.setattr(balance, "_triangle_chunks",
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
