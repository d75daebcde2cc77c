"""Signed-graph data model: loading, deduplication, splitting, densities.

A signed graph is undirected; every edge carries exactly one sign (+1 or -1).
Raw dataset files are directed rating records, so building a graph
symmetrizes them and resolves duplicate/conflicting records with a
sum-of-signs policy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from scipy import sparse

POS = 1
NEG = -1


class ParseError(ValueError):
    """Malformed dataset row; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, order=True)
class EdgeSample:
    """A (u, v, sign) record. Undirected samples are stored with u < v."""

    u: int
    v: int
    sign: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self loop ({self.u}, {self.v})")
        if self.sign not in (POS, NEG):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.u < 0 or self.v < 0:
            raise ValueError("node ids must be non-negative")

    def canonical(self) -> "EdgeSample":
        if self.u < self.v:
            return self
        return EdgeSample(self.v, self.u, self.sign)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass
class LoadResult:
    """Edge records with densified node ids plus bookkeeping counters."""

    samples: list[EdgeSample]
    num_nodes: int
    original_ids: list  # dense id -> original id
    zero_rating_dropped: int = 0
    self_loops_dropped: int = 0

    @property
    def positive_count(self) -> int:
        return sum(1 for s in self.samples if s.sign == POS)

    @property
    def negative_count(self) -> int:
        return sum(1 for s in self.samples if s.sign == NEG)


def load_edge_list(path: str | Path, format: str = "rating-csv") -> LoadResult:
    """Read a signed edge file into directed EdgeSample records.

    ``rating-csv`` rows are ``source,target,rating[,time]`` with an integer
    rating whose sign becomes the edge sign (rating 0 rows are dropped and
    counted).  ``sign-tsv`` rows are whitespace-separated ``src dst sign``
    with sign in {1, -1}; lines starting with '#' are skipped.  Node ids are
    densified to 0..n-1 in first-seen order; the original ids are kept in
    ``original_ids``.
    """
    if format not in ("rating-csv", "sign-tsv"):
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    id_map: dict = {}
    original_ids: list = []

    def dense(orig) -> int:
        idx = id_map.get(orig)
        if idx is None:
            idx = len(original_ids)
            id_map[orig] = idx
            original_ids.append(orig)
        return idx

    samples: list[EdgeSample] = []
    zero_dropped = 0
    loops_dropped = 0
    with path.open(newline="") as fh:
        if format == "rating-csv":
            rows: Iterator[tuple[int, list[str]]] = (
                (i, row) for i, row in enumerate(csv.reader(fh), start=1)
            )
        else:
            rows = ((i, line.split()) for i, line in enumerate(fh, start=1))
        for lineno, row in rows:
            if not row or (row[0].startswith("#") and format == "sign-tsv"):
                continue
            if len(row) < 3:
                raise ParseError(f"expected at least 3 fields, got {len(row)}", lineno)
            src_s, dst_s, val_s = row[0].strip(), row[1].strip(), row[2].strip()
            try:
                value = int(float(val_s))
            except ValueError:
                if lineno == 1 and format == "rating-csv":
                    continue  # optional header row
                raise ParseError(f"non-numeric rating/sign {val_s!r}", lineno) from None
            if format == "sign-tsv" and value not in (1, -1):
                raise ParseError(f"sign must be 1 or -1, got {value}", lineno)
            if value == 0:
                zero_dropped += 1
                continue
            if src_s == dst_s:
                loops_dropped += 1
                continue
            samples.append(EdgeSample(dense(src_s), dense(dst_s), POS if value > 0 else NEG))
    if not samples:
        raise ValueError(f"no usable edge records in {path}")
    return LoadResult(
        samples=samples,
        num_nodes=len(original_ids),
        original_ids=original_ids,
        zero_rating_dropped=zero_dropped,
        self_loops_dropped=loops_dropped,
    )


@dataclass
class BuildStats:
    """What the dedup/symmetrization step collapsed or dropped."""

    input_records: int = 0
    merged_pairs: int = 0
    conflicts_dropped: int = 0
    self_loops_dropped: int = 0


class SignedGraph:
    """Immutable undirected signed graph with per-node sorted neighbor sets.

    Neighbors of node i are split into positive and negative sets; the two
    sets are disjoint and symmetric (j in N_i^+ iff i in N_j^+).  Backed by a
    CSR-like layout so neighbor lookups are O(log deg) and row slices are
    numpy views.
    """

    __slots__ = ("num_nodes", "edge_count", "_indptr", "_indices", "_signs", "_balance_report")

    def __init__(self, num_nodes: int, pair_signs: dict[tuple[int, int], int]):
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        self.num_nodes = num_nodes
        self.edge_count = len(pair_signs)
        deg = np.zeros(num_nodes + 1, dtype=np.int64)
        for u, v in pair_signs:
            if not (0 <= u < v < num_nodes):
                raise ValueError(f"bad canonical pair ({u}, {v}) for n={num_nodes}")
            deg[u + 1] += 1
            deg[v + 1] += 1
        indptr = np.cumsum(deg)
        indices = np.empty(indptr[-1], dtype=np.int64)
        signs = np.empty(indptr[-1], dtype=np.int8)
        cursor = indptr[:-1].copy()
        for (u, v), s in pair_signs.items():
            indices[cursor[u]] = v
            signs[cursor[u]] = s
            cursor[u] += 1
            indices[cursor[v]] = u
            signs[cursor[v]] = s
            cursor[v] += 1
        # sort each row by neighbor id
        for i in range(num_nodes):
            lo, hi = indptr[i], indptr[i + 1]
            order = np.argsort(indices[lo:hi], kind="stable")
            indices[lo:hi] = indices[lo:hi][order]
            signs[lo:hi] = signs[lo:hi][order]
        for arr in (indptr, indices, signs):
            arr.flags.writeable = False
        self._indptr = indptr
        self._indices = indices
        self._signs = signs
        # filled by balance.balance_report; the graph never changes, so it never goes stale
        self._balance_report = None

    # -- neighbor access -------------------------------------------------
    def neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted neighbor ids of i and their parallel signs (views)."""
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return self._indices[lo:hi], self._signs[lo:hi]

    def pos_neighbors(self, i: int) -> np.ndarray:
        ids, signs = self.neighbors(i)
        return ids[signs == POS]

    def neg_neighbors(self, i: int) -> np.ndarray:
        ids, signs = self.neighbors(i)
        return ids[signs == NEG]

    def degree(self, i: int) -> int:
        return int(self._indptr[i + 1] - self._indptr[i])

    def sign_of(self, u: int, v: int) -> int:
        """Sign of edge (u, v), or 0 if absent."""
        ids, signs = self.neighbors(u)
        k = np.searchsorted(ids, v)
        if k < len(ids) and ids[k] == v:
            return int(signs[k])
        return 0

    def has_edge(self, u: int, v: int) -> bool:
        return self.sign_of(u, v) != 0

    def edges(self) -> Iterator[EdgeSample]:
        """Each undirected edge once, as EdgeSample(u < v), in (u, v) order."""
        for u in range(self.num_nodes):
            ids, signs = self.neighbors(u)
            above = ids > u
            for v, s in zip(ids[above], signs[above]):
                yield EdgeSample(u, int(v), int(s))

    def to_samples(self) -> list[EdgeSample]:
        return list(self.edges())

    def positive_edge_count(self) -> int:
        return int(np.count_nonzero(self._signs == POS)) // 2

    def negative_edge_count(self) -> int:
        return int(np.count_nonzero(self._signs == NEG)) // 2

    # -- matrix views ----------------------------------------------------
    def adjacency(self, sign: int, normalized: bool = True) -> sparse.csr_matrix:
        """Row-normalized adjacency of one sign; zero-degree rows stay zero."""
        mask = self._signs == sign
        rows = np.repeat(np.arange(self.num_nodes), np.diff(self._indptr))
        mat = sparse.csr_matrix(
            (np.ones(int(mask.sum())), (rows[mask], self._indices[mask])),
            shape=(self.num_nodes, self.num_nodes),
        )
        if normalized:
            deg = np.asarray(mat.sum(axis=1)).ravel()
            inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
            mat = sparse.diags(inv) @ mat
        return mat.tocsr()

    def signed_adjacency(self) -> sparse.csr_matrix:
        """Symmetric adjacency with +1/-1 entries (unnormalized)."""
        return sparse.csr_matrix(
            (self._signs.astype(np.float64), self._indices.copy(), self._indptr.copy()),
            shape=(self.num_nodes, self.num_nodes),
        )


def build_graph(
    edges: Sequence[EdgeSample],
    num_nodes: int | None = None,
    conflict_policy: str = "sum-sign",
) -> tuple[SignedGraph, BuildStats]:
    """Symmetrize directed records into a SignedGraph.

    Duplicate records between the same unordered pair are collapsed; under
    ``sum-sign`` the retained sign is the sign of the summed record signs and
    pairs that sum to zero are dropped (counted in the stats).
    """
    if conflict_policy != "sum-sign":
        raise ValueError(f"unknown conflict policy {conflict_policy!r}")
    stats = BuildStats(input_records=len(edges))
    sums: dict[tuple[int, int], int] = {}
    counts: dict[tuple[int, int], int] = {}
    max_node = -1
    for e in edges:
        pair = e.pair
        max_node = max(max_node, pair[1])
        sums[pair] = sums.get(pair, 0) + e.sign
        counts[pair] = counts.get(pair, 0) + 1
    if num_nodes is None:
        num_nodes = max_node + 1
    pair_signs: dict[tuple[int, int], int] = {}
    for pair, total in sums.items():
        if counts[pair] > 1:
            stats.merged_pairs += 1
        if total == 0:
            stats.conflicts_dropped += 1
            continue
        pair_signs[pair] = POS if total > 0 else NEG
    return SignedGraph(num_nodes, pair_signs), stats


def graph_from_samples(samples: Sequence[EdgeSample], num_nodes: int) -> SignedGraph:
    """Build a graph from already-deduplicated undirected samples."""
    pair_signs: dict[tuple[int, int], int] = {}
    for s in samples:
        prev = pair_signs.get(s.pair)
        if prev is not None and prev != s.sign:
            raise ValueError(f"conflicting signs for pair {s.pair}")
        pair_signs[s.pair] = s.sign
    return SignedGraph(num_nodes, pair_signs)


@dataclass
class DatasetSplit:
    """Train/test partition of an undirected edge list."""

    train: list[EdgeSample]
    test: list[EdgeSample]
    seed: int
    ratio: float = field(default=0.8)


def split_train_test(
    edges: Sequence[EdgeSample], ratio: float, seed: int
) -> DatasetSplit:
    """Randomly partition edges; first ceil(ratio*|E|) of a seeded shuffle."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if len(edges) < 2:
        raise ValueError("need at least 2 edges to split")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(edges))
    n_train = math.ceil(ratio * len(edges))
    train = [edges[i] for i in perm[:n_train]]
    test = [edges[i] for i in perm[n_train:]]
    return DatasetSplit(train=train, test=test, seed=seed, ratio=ratio)


def density(graph: SignedGraph) -> float:
    """Directed-record density: 2|E| / (n(n-1)) for an undirected graph."""
    n = graph.num_nodes
    if n < 2:
        raise ValueError("density needs at least 2 nodes")
    return 2.0 * graph.edge_count / (n * (n - 1))


def record_density(samples: Sequence[EdgeSample], num_nodes: int | None = None) -> float:
    """Density of raw directed records: |records| / (n(n-1)).

    ``n`` defaults to the number of distinct endpoint ids.
    """
    if num_nodes is None:
        seen = {s.u for s in samples} | {s.v for s in samples}
        num_nodes = len(seen)
    if num_nodes < 2:
        raise ValueError("density needs at least 2 nodes")
    return len(samples) / (num_nodes * (num_nodes - 1))
