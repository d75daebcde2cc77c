"""Balance-theory quantities on signed graphs.

A triangle is balanced iff the product of its three edge signs is positive.
The global balance degree is the balanced fraction over all triangles; the
local balance degree of an edge is (b - ub) / (b + ub) over the b balanced
and ub unbalanced triangles containing it, and its difficulty score is
(1 - local) / 2 in [0, 1].

Every count comes from one sparse kernel, the degree-ordered ("forward")
triangle listing of Chiba & Nishizeki (SIAM J. Comput. 1985) and Latapy
(Theor. Comput. Sci. 2008).  Rank the nodes by (degree, id) and point each
edge from its lower-ranked end to its higher-ranked one.  A triangle
{x, y, z} with x < y < z in rank then has the edges x -> y, x -> z and
y -> z.  Of its three edges only (x, y) has both ends pointing to the third
node, so intersecting the out-rows of the two ends of every edge lists each
triangle exactly once, from its lowest-ranked edge.

The kernel keeps the out-rows as one CSR matrix whose data is each edge's
position + 1.  It takes the intersections as the Hadamard product of the
gathered out-rows of the ``u`` ends with the 0/1 pattern of those of the
``v`` ends, a matrix that shares the out-rows' structure.  A stored entry
of that product is one triangle {u, v, c}: its data gives the (u, c) edge,
and ``SignedGraph.edge_index`` gives the (v, c) edge.  The triangle is
balanced iff the product of the three signs is +1, and each of its three
edges is credited with it, so the global totals are sum(b) / 3 and
sum(ub) / 3.

An edge costs outdeg(u) + outdeg(v) gathered out-row entries.  No out-degree
exceeds sqrt(2m) under this order, so a graph of m edges costs at most
2m * sqrt(2m), against the sum of deg(u) + deg(v) that gathering full rows
costs; heavy-tailed degrees make the gap large, because a hub's edges
mostly point into it and its own out-row stays short.  The edges are
evaluated in chunks whose gathered out-rows hold at most ``_CHUNK_WORK``
entries in all, so the product's memory stays bounded however large the
hub degrees are.  The chunks come from ``graph._budget_runs``, which also
cuts the candidate scan into row blocks.

The kernel yields each chunk's triangles as the positions of their three
edges and whether each is unbalanced, and keeps none of them past the
chunk.  ``balance_report`` bincounts them into the per-edge columns.
``split_totals(graph, keep)`` counts, in one kernel pass, the
triangles of the whole graph and of the subgraph that keeps the edges a
boolean mask selects.  It is exact without a second graph, because a
subgraph's triangles are exactly the parent's triangles whose three edges
it keeps, each with the same three signs.  ``sigaug stats --split-ratio``
reads the training split's balance degree from it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse

from .graph import SignedGraph, _budget_runs

# gathered out-row entries per chunk; bounds the Hadamard product held at once
_CHUNK_WORK = 1 << 20


@dataclass(frozen=True)
class TriangleStats:
    """Balanced/unbalanced triangle totals for a whole graph."""

    balanced: int
    unbalanced: int

    @property
    def total(self) -> int:
        return self.balanced + self.unbalanced


@dataclass(frozen=True, eq=False)
class BalanceReport:
    """Global triangle stats plus one column entry per edge.

    Edges are listed once as u < v in (u, v) order: ``u``, ``v`` and
    ``sign`` are the graph's own ``edge_columns()`` arrays, so edge (u, v)
    sits at ``graph.edge_index(u, v)`` in every column.
    ``balanced``/``unbalanced`` count the triangles through each edge.  The
    arrays are read-only because one report is shared by every caller on
    the same graph.
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
        return edge_difficulty(self.balanced, self.unbalanced)


def _local_degree(balanced: np.ndarray, unbalanced: np.ndarray) -> np.ndarray:
    total = balanced + unbalanced
    # An edge in no triangle carries no imbalance evidence: treat as easiest.
    return np.divide(balanced - unbalanced, total, out=np.ones(len(total)), where=total > 0)


def edge_difficulty(balanced: np.ndarray, unbalanced: np.ndarray) -> np.ndarray:
    """Difficulty ``(1 - local) / 2`` of edges in ``balanced``/``unbalanced`` triangles.

    Elementwise, so a subset of the edges' counts gives that subset of their
    difficulties.
    """
    return (1.0 - _local_degree(balanced, unbalanced)) / 2.0


def _out_rows(graph: SignedGraph) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Each edge pointed from its lower- to its higher-ranked end, as CSR out-rows.

    Nodes rank by (degree, id).  Edge a -> b is column b of row a, with data
    its position in ``edge_columns()`` + 1 (int32 below 2**31 edges).  Also
    returns the out-degrees.
    """
    edges = graph.edge_columns()
    u, v = edges.u, edges.v
    n, m = graph.num_nodes, graph.edge_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(np.diff(graph.signed_adjacency().indptr), kind="stable")] = np.arange(n)
    up = rank[u] < rank[v]
    tail, head = np.where(up, u, v), np.where(up, v, u)
    order = np.argsort(tail * n + head)
    outdeg = np.bincount(tail, minlength=n)
    position = order.astype(np.int32 if m < 2**31 else np.int64) + 1
    indptr = np.concatenate(([0], np.cumsum(outdeg)))
    return sparse.csr_matrix((position, head[order], indptr), shape=(n, n)), outdeg


def _triangle_chunks(graph: SignedGraph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every triangle once, chunk by chunk: a ``(3, t)`` array and a length-t mask.

    The array holds the positions in ``edge_columns()`` of each triangle's
    three edges, one column per triangle; the mask marks the unbalanced ones.
    """
    edges = graph.edge_columns()
    u, v, sign = edges.u, edges.v, edges.sign
    m = graph.edge_count
    out, outdeg = _out_rows(graph)
    pattern = sparse.csr_matrix(
        (np.ones(m, dtype=np.int8), out.indices, out.indptr), shape=out.shape, copy=False
    )
    for lo, hi in _budget_runs(outdeg[u] + outdeg[v], _CHUNK_WORK):
        # one stored entry per triangle {u, v, c} whose top-ranked node is c
        common = out[u[lo:hi]].multiply(pattern[v[lo:hi]]).tocsr()
        uv = np.repeat(np.arange(lo, hi), np.diff(common.indptr))
        uc = common.data - 1
        vc = graph.edge_index(v[uv], common.indices)
        yield np.stack((uv, uc, vc)), sign[uv] * sign[uc] * sign[vc] < 0


def _compute_report(graph: SignedGraph) -> BalanceReport:
    edges = graph.edge_columns()
    m = graph.edge_count
    both = np.zeros(m, dtype=np.int64)  # b + ub
    unbalanced = np.zeros(m, dtype=np.int64)
    for triangles, odd in _triangle_chunks(graph):
        both += np.bincount(triangles.ravel(), minlength=m)
        unbalanced += np.bincount(triangles[:, odd].ravel(), minlength=m)
    balanced = both - unbalanced
    for column in (balanced, unbalanced):
        column.flags.writeable = False
    stats = TriangleStats(int(balanced.sum()) // 3, int(unbalanced.sum()) // 3)
    return BalanceReport(stats, edges.u, edges.v, edges.sign, balanced, unbalanced)


# each live graph's report; a graph never changes, so its report never goes stale
_REPORTS: weakref.WeakKeyDictionary[SignedGraph, BalanceReport] = weakref.WeakKeyDictionary()


def balance_report(graph: SignedGraph) -> BalanceReport:
    """Global triangle stats plus per-edge counts, computed once per graph.

    Per-edge incident counts sum to three times the global totals (each
    triangle touches three edges).  The graph is immutable, so the report
    is memoised while the graph lives, and later calls return the same
    object until ``drop_report`` forgets it.
    """
    report = _REPORTS.get(graph)
    if report is None:
        report = _REPORTS[graph] = _compute_report(graph)
    return report


def drop_report(graph: SignedGraph) -> None:
    """Forget ``graph``'s memoised report; a further ``balance_report`` runs the kernel again."""
    _REPORTS.pop(graph, None)


def enumerate_triangles(graph: SignedGraph) -> TriangleStats:
    """Balanced/unbalanced totals, each unordered triangle counted once."""
    return balance_report(graph).stats


def split_totals(graph: SignedGraph, keep: np.ndarray) -> tuple[TriangleStats, TriangleStats]:
    """Triangle totals of the whole graph and of its subgraph of the edges ``keep`` marks.

    ``keep`` is a boolean mask over ``graph.edge_columns()``.  A subgraph's
    triangles are exactly this graph's triangles whose three edges it keeps,
    with the same signs, so both totals come exactly from one kernel pass.
    """
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.shape != (graph.edge_count,):
        raise ValueError(f"keep must be a boolean mask of {graph.edge_count} edges")
    total = unbalanced = kept_total = kept_unbalanced = 0
    for triangles, odd in _triangle_chunks(graph):
        kept = keep[triangles].all(axis=0)
        total += len(odd)
        unbalanced += int(np.count_nonzero(odd))
        kept_total += int(np.count_nonzero(kept))
        kept_unbalanced += int(np.count_nonzero(kept & odd))
    return (TriangleStats(total - unbalanced, unbalanced),
            TriangleStats(kept_total - kept_unbalanced, kept_unbalanced))


def global_balance_degree(stats: TriangleStats) -> float | None:
    """Balanced fraction of all triangles; None when the graph has none."""
    if stats.total == 0:
        return None
    return stats.balanced / stats.total
