"""Balance-theory quantities on signed graphs.

A triangle is balanced iff the product of its three edge signs is positive.
The global balance degree is the balanced fraction over all triangles; the
local balance degree of an edge is (b - ub) / (b + ub) over the b balanced
and ub unbalanced triangles containing it, and its difficulty score is
(1 - local) / 2 in [0, 1].

Every count comes from one sparse kernel.  With S the signed adjacency
(entries +1/-1) and S_i its row i, each common neighbor k of an edge (u, v)
with sign s closes the triangle {u, v, k}, which is balanced iff
s * S[u,k] * S[v,k] = +1.  So, per edge,

    s * <S_u, S_v>   = b - ub
    <|S_u|, |S_v|>   = b + ub

and both are read off the row-gathered Hadamard product S[u] * S[v]: its
row sum is <S_u, S_v> and its count of stored entries is <|S_u|, |S_v|>.
Each triangle touches three edges, so the global totals are sum(b) / 3 and
sum(ub) / 3.  This is the matrix form of triangle counting (Azad, Buluc &
Gilbert, IPDPSW 2015), evaluated in fixed-size edge chunks so the product's
memory stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .graph import EdgeSample, SignedGraph

# edges per row gather; bounds the Hadamard product held at once
_CHUNK_EDGES = 8192


@dataclass(frozen=True)
class TriangleStats:
    """Balanced/unbalanced triangle totals for a whole graph."""

    balanced: int
    unbalanced: int

    @property
    def total(self) -> int:
        return self.balanced + self.unbalanced


@dataclass
class EdgeBalanceProfile:
    """Per-edge triangle counts and the derived difficulty score."""

    edge: EdgeSample
    balanced_incident: int
    unbalanced_incident: int
    local_degree: float
    difficulty: float


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Global triangle stats plus one column entry per edge.

    Edges are listed once as u < v in (u, v) order, like
    ``SignedGraph.edges()``.  ``balanced``/``unbalanced`` count the
    triangles through each edge.  The arrays are read-only because one
    report is shared by every caller on the same graph.
    """

    stats: TriangleStats
    u: np.ndarray
    v: np.ndarray
    sign: np.ndarray
    balanced: np.ndarray
    unbalanced: np.ndarray

    @property
    def balance_degree(self) -> float | None:
        return global_balance_degree(self.stats)

    @property
    def local_degree(self) -> np.ndarray:
        return _local_degree(self.balanced, self.unbalanced)

    @property
    def difficulty(self) -> np.ndarray:
        return (1.0 - self.local_degree) / 2.0

    @property
    def profiles(self) -> list[EdgeBalanceProfile]:
        """The columns as one profile object per edge."""
        return _profiles(self.u, self.v, self.sign, self.balanced, self.unbalanced)


def _local_degree(balanced: np.ndarray, unbalanced: np.ndarray) -> np.ndarray:
    total = balanced + unbalanced
    # An edge in no triangle carries no imbalance evidence: treat as easiest.
    return np.divide(balanced - unbalanced, total, out=np.ones(len(total)), where=total > 0)


def _profiles(u, v, sign, balanced, unbalanced) -> list[EdgeBalanceProfile]:
    local = _local_degree(balanced, unbalanced)
    return [
        EdgeBalanceProfile(EdgeSample(*edge), b, ub, loc, (1.0 - loc) / 2.0)
        for *edge, b, ub, loc in zip(
            u.tolist(), v.tolist(), sign.tolist(),
            balanced.tolist(), unbalanced.tolist(), local.tolist(),
        )
    ]


def _incident_triangles(
    adj: sparse.csr_matrix, u: np.ndarray, v: np.ndarray, sign: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (balanced, unbalanced) triangle counts from the signed adjacency."""
    balanced = np.empty(len(u), dtype=np.int64)
    unbalanced = np.empty(len(u), dtype=np.int64)
    for lo in range(0, len(u), _CHUNK_EDGES):
        hi = lo + _CHUNK_EDGES
        common = adj[u[lo:hi]].multiply(adj[v[lo:hi]]).tocsr()
        both = np.diff(common.indptr)  # b + ub
        agree = sign[lo:hi] * np.asarray(common.sum(axis=1)).ravel().astype(np.int64)  # b - ub
        balanced[lo:hi] = (both + agree) // 2
        unbalanced[lo:hi] = (both - agree) // 2
    return balanced, unbalanced


def _compute_report(graph: SignedGraph) -> BalanceReport:
    adj = graph.signed_adjacency()
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), np.diff(adj.indptr))
    upper = adj.indices > rows
    u = rows[upper]
    v = adj.indices[upper].astype(np.int64)
    sign = adj.data[upper].astype(np.int64)
    balanced, unbalanced = _incident_triangles(adj, u, v, sign)
    for column in (u, v, sign, balanced, unbalanced):
        column.flags.writeable = False
    stats = TriangleStats(int(balanced.sum()) // 3, int(unbalanced.sum()) // 3)
    return BalanceReport(stats, u, v, sign, balanced, unbalanced)


def balance_report(graph: SignedGraph) -> BalanceReport:
    """Global triangle stats plus per-edge counts, computed once per graph.

    Per-edge incident counts sum to three times the global totals (each
    triangle touches three edges).  The graph is immutable, so the report
    is kept on it and later calls return the same object.
    """
    report = graph._balance_report
    if report is None:
        report = graph._balance_report = _compute_report(graph)
    return report


def enumerate_triangles(graph: SignedGraph) -> TriangleStats:
    """Balanced/unbalanced totals, each unordered triangle counted once."""
    return balance_report(graph).stats


def global_balance_degree(stats: TriangleStats) -> float | None:
    """Balanced fraction of all triangles; None when the graph has none."""
    if stats.total == 0:
        return None
    return stats.balanced / stats.total


def local_balance_degree(graph: SignedGraph, edge: EdgeSample) -> EdgeBalanceProfile:
    """Balance profile of one existing edge, read from the graph's report."""
    edge = edge.canonical()
    stored = graph.sign_of(edge.u, edge.v)
    if stored == 0:
        raise ValueError(f"edge ({edge.u}, {edge.v}) not in graph")
    if stored != edge.sign:
        raise ValueError(f"edge ({edge.u}, {edge.v}) has sign {stored}, not {edge.sign}")
    report = balance_report(graph)
    lo, hi = np.searchsorted(report.u, (edge.u, edge.u + 1))
    i = lo + int(np.searchsorted(report.v[lo:hi], edge.v))
    row = slice(i, i + 1)
    return _profiles(
        report.u[row], report.v[row], report.sign[row],
        report.balanced[row], report.unbalanced[row],
    )[0]
