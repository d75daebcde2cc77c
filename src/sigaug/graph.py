"""Signed-graph data model: loading, deduplication, splitting, densities.

A signed graph is undirected; every edge carries exactly one sign (+1 or -1).
Raw dataset files are directed rating records, so building a graph
symmetrizes them and resolves duplicate/conflicting records with a
sum-of-signs policy.

Edges travel as columns: three int64 arrays ``(u, v, sign)``.  The loader
parses straight into them, ``build_graph``, ``graph_from_samples`` and
``split_train_test`` work on them with sorts and bincounts, and
``SignedGraph`` keeps a CSR layout plus its upper-triangle columns in
(u, v) order.  The rest of the pipeline (candidate scan, selection,
perturbation, curriculum, encoder training and the sign head) reads and
returns ``EdgeColumns`` too.  ``EdgeSample`` objects exist only at the API
and file boundary: ``EdgeColumns`` is a read-only ``Sequence[EdgeSample]``
over the columns that builds a sample when indexed or iterated, and plain
lists of samples are accepted everywhere and converted to columns once.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterator

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


class EdgeColumns(Sequence):
    """Read-only ``Sequence[EdgeSample]`` backed by int64 ``u``/``v``/``sign`` columns.

    The columns are copied and validated by the same rules as
    ``EdgeSample``.  Indexing with an int builds one ``EdgeSample``;
    indexing with a slice or an index array selects rows into new columns.
    """

    __slots__ = ("u", "v", "sign")

    def __init__(self, u, v, sign):
        columns = [np.asarray(c) for c in (u, v, sign)]
        if any(c.shape != columns[0].shape for c in columns) or columns[0].ndim != 1:
            raise ValueError("u, v and sign must be 1-D and of one length")
        if any(c.size and c.dtype.kind not in "iu" for c in columns):
            raise ValueError("u, v and sign must hold integers")
        columns = [c.astype(np.int64) for c in columns]
        u, v, sign = columns
        bad = (u == v) | (u < 0) | (v < 0) | ((sign != POS) & (sign != NEG))
        if bad.any():
            i = int(np.argmax(bad))
            EdgeSample(int(u[i]), int(v[i]), int(sign[i]))  # raises its ValueError
        for c in columns:
            c.flags.writeable = False
        self.u, self.v, self.sign = columns

    def __len__(self) -> int:
        return len(self.u)

    def __getitem__(self, index):
        if isinstance(index, (slice, np.ndarray)):
            return EdgeColumns(self.u[index], self.v[index], self.sign[index])
        i = operator.index(index)
        return EdgeSample(int(self.u[i]), int(self.v[i]), int(self.sign[i]))

    def __iter__(self) -> Iterator[EdgeSample]:
        return map(EdgeSample, self.u.tolist(), self.v.tolist(), self.sign.tolist())


def _columns(samples: Sequence[EdgeSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(u, v, sign)`` columns of samples: read directly, or converted once."""
    if isinstance(samples, EdgeColumns):
        return samples.u, samples.v, samples.sign
    u, v, sign = (
        np.fromiter(map(operator.attrgetter(name), samples), dtype=np.int64, count=len(samples))
        for name in ("u", "v", "sign")
    )
    return u, v, sign


def _canonical(samples: Sequence[EdgeSample]) -> EdgeColumns:
    """Samples as columns with every pair written u < v, in input order."""
    u, v, sign = _columns(samples)
    return EdgeColumns(np.minimum(u, v), np.maximum(u, v), sign)


def _concat(*parts: Sequence[EdgeSample]) -> EdgeColumns:
    """The rows of ``parts`` one after another, as columns."""
    return EdgeColumns(*map(np.concatenate, zip(*map(_columns, parts))))


def _pair_keys(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """One int64 key ``lo * width + hi`` per unordered pair; width is the largest id + 1."""
    hi = np.maximum(u, v)
    width = int(hi.max()) + 1 if len(hi) else 1
    return np.minimum(u, v) * width + hi, width


@dataclass
class LoadResult:
    """Edge records with densified node ids plus bookkeeping counters."""

    samples: Sequence[EdgeSample]  # EdgeColumns from load_edge_list
    num_nodes: int
    original_ids: list  # dense id -> original id
    zero_rating_dropped: int = 0
    self_loops_dropped: int = 0

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(_columns(self.samples)[2] == POS))

    @property
    def negative_count(self) -> int:
        return int(np.count_nonzero(_columns(self.samples)[2] == NEG))


def _read_rows(fh, format: str) -> tuple[list[int], list, list, list, ParseError | None]:
    """Line numbers and the source, target and value fields of the data rows.

    Reading stops at the first row with fewer than three fields; the last
    item returned is a ``ParseError`` for it, or None when there is none.
    """
    tsv = format == "sign-tsv"
    if tsv:
        rows = enumerate(map(str.split, fh), start=1)
    else:
        rows = enumerate(csv.reader(fh), start=1)
    lines, src, dst, val = [], [], [], []
    for lineno, row in rows:
        if not row or (tsv and row[0].startswith("#")):
            continue
        if len(row) < 3:
            short = ParseError(f"expected at least 3 fields, got {len(row)}", lineno)
            return lines, src, dst, val, short
        lines.append(lineno)
        src.append(row[0])
        dst.append(row[1])
        val.append(row[2])
    if not tsv:
        src = [s.strip() for s in src]
        dst = [s.strip() for s in dst]
    return lines, src, dst, val, None


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _first_seen_ids(tokens: list) -> tuple[np.ndarray, list]:
    """Dense ids of tokens in first-seen order, and the token of each id."""
    values = np.array(tokens)
    if np.char.str_len(values).sum() != sum(map(len, tokens)):
        values = np.array(tokens, dtype=object)  # numpy's str dtype drops trailing NULs
    unique, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], unique[order].tolist()


def load_edge_list(path: str | Path, format: str = "rating-csv") -> LoadResult:
    """Read a signed edge file into directed (u, v, sign) columns.

    ``rating-csv`` rows are ``source,target,rating[,time]`` with an integer
    rating whose sign becomes the edge sign (rating 0 rows are dropped and
    counted; a fractional rating is truncated toward zero first).
    ``sign-tsv`` rows are whitespace-separated ``src dst sign`` with sign in
    {1, -1}; lines starting with '#' are skipped.  A rating or sign that is
    not a finite number raises ``ParseError``, except on line 1 of a
    rating-csv file, which is then taken as a header.  Node ids of the kept
    records are densified to 0..n-1 in first-seen order; the original ids
    are kept in ``original_ids``.
    """
    if format not in ("rating-csv", "sign-tsv"):
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    with path.open(newline="") as fh:
        lines, src, dst, val, short_row = _read_rows(fh, format)
    try:
        values = np.fromiter(map(float, val), dtype=np.float64, count=len(val))
    except ValueError:
        values = np.array([_float_or_nan(text) for text in val], dtype=np.float64)
    bad = ~np.isfinite(values)
    if format == "rating-csv" and lines[:1] == [1] and bad[0]:
        # optional header row
        lines, src, dst, val = lines[1:], src[1:], dst[1:], val[1:]
        values, bad = values[1:], bad[1:]
    truncated = np.trunc(values)  # int(float(text)) for every finite value
    if format == "sign-tsv":
        bad |= (truncated != 1) & (truncated != -1)
    if bad.any():
        i = int(np.argmax(bad))
        text = val[i].strip()
        if np.isfinite(values[i]):
            raise ParseError(f"sign must be 1 or -1, got {int(values[i])}", lines[i])
        kind = "non-numeric" if math.isnan(values[i]) else "non-finite"
        raise ParseError(f"{kind} rating/sign {text!r}", lines[i])
    if short_row is not None:
        raise short_row

    zero = truncated == 0
    loop = np.fromiter(map(operator.eq, src, dst), dtype=bool, count=len(src)) & ~zero
    keep = ~(zero | loop)
    if not keep.any():
        raise ValueError(f"no usable edge records in {path}")
    tokens = [None] * (2 * int(keep.sum()))
    tokens[0::2] = compress(src, keep)
    tokens[1::2] = compress(dst, keep)
    dense, original_ids = _first_seen_ids(tokens)
    return LoadResult(
        samples=EdgeColumns(dense[0::2], dense[1::2], np.where(values[keep] > 0, POS, NEG)),
        num_nodes=len(original_ids),
        original_ids=original_ids,
        zero_rating_dropped=int(zero.sum()),
        self_loops_dropped=int(loop.sum()),
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
    CSR layout so neighbor lookups are O(log deg) and row slices are numpy
    views.  Built from canonical columns: ``0 <= u < v < num_nodes`` and one
    sign in {+1, -1} per distinct pair, in any order.
    """

    __slots__ = (
        "num_nodes", "edge_count", "_indptr", "_indices", "_signs", "_edges", "_balance_report",
    )

    def __init__(self, num_nodes: int, u, v, sign):
        if num_nodes < 1:
            raise ValueError("graph needs at least one node")
        u, v, sign = (np.asarray(c, dtype=np.int64) for c in (u, v, sign))
        bad = (u < 0) | (u >= v) | (v >= num_nodes)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"bad canonical pair ({u[i]}, {v[i]}) for n={num_nodes}")
        self.num_nodes = num_nodes
        self.edge_count = len(u)
        # both directions of every edge, sorted by (row, neighbor) in one pass
        rows = np.concatenate((u, v))
        cols = np.concatenate((v, u))
        order = np.argsort(rows * num_nodes + cols)
        rows, indices = rows[order], cols[order]
        repeated = (rows[1:] == rows[:-1]) & (indices[1:] == indices[:-1])
        if repeated.any():
            i = int(np.argmax(repeated))
            raise ValueError(f"duplicate pair ({rows[i]}, {indices[i]})")
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        both_signs = np.concatenate((sign, sign))[order]
        upper = indices > rows  # each edge once, as u < v, in (u, v) order
        self._edges = EdgeColumns(rows[upper], indices[upper], both_signs[upper])
        signs = both_signs.astype(np.int8)
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

    def edge_columns(self) -> EdgeColumns:
        """Each undirected edge once, as u < v, in (u, v) order: the upper triangle."""
        return self._edges

    def edges(self) -> Iterator[EdgeSample]:
        """The rows of ``edge_columns()`` as ``EdgeSample`` objects."""
        return iter(self._edges)

    def to_samples(self) -> list[EdgeSample]:
        return list(self._edges)

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
    u, v, sign = _columns(edges)
    keys, width = _pair_keys(u, v)
    if num_nodes is None:
        num_nodes = width if len(u) else 0
    pairs, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    sums = np.bincount(inverse.ravel(), weights=sign, minlength=len(pairs))
    stats = BuildStats(
        input_records=len(u),
        merged_pairs=int(np.count_nonzero(counts > 1)),
        conflicts_dropped=int(np.count_nonzero(sums == 0)),
    )
    kept = sums != 0
    pairs = pairs[kept]
    signs = np.where(sums[kept] > 0, POS, NEG)
    return SignedGraph(num_nodes, pairs // width, pairs % width, signs), stats


def graph_from_samples(samples: Sequence[EdgeSample], num_nodes: int) -> SignedGraph:
    """Build a graph from already-deduplicated undirected samples.

    Repeats of a pair with the same sign collapse; opposite signs raise.
    """
    u, v, sign = _columns(samples)
    keys, width = _pair_keys(u, v)
    pairs, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    clash = sign != sign[first][inverse.ravel()]
    if clash.any():
        i = int(np.argmax(clash))
        pair = (int(keys[i] // width), int(keys[i] % width))
        raise ValueError(f"conflicting signs for pair {pair}")
    return SignedGraph(num_nodes, pairs // width, pairs % width, sign[first])


@dataclass
class DatasetSplit:
    """Train/test partition of an edge list, both halves as ``EdgeColumns``."""

    train: EdgeColumns
    test: EdgeColumns
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
    edges = EdgeColumns(*_columns(edges))
    return DatasetSplit(edges[perm[:n_train]], edges[perm[n_train:]], seed, ratio)


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
        u, v, _ = _columns(samples)
        num_nodes = len(np.union1d(u, v))
    if num_nodes < 2:
        raise ValueError("density needs at least 2 nodes")
    return len(samples) / (num_nodes * (num_nodes - 1))
