"""Signed-graph data model: loading, deduplication, splitting, densities.

A signed graph is undirected; every edge carries exactly one sign (+1 or -1).
Raw dataset files are directed rating records, so building a graph
symmetrizes them and resolves duplicate/conflicting records with a
sum-of-signs policy.

Edges travel as columns: three int64 arrays ``(u, v, sign)``.  The loader
parses straight into them, ``build_graph``, ``graph_from_samples`` and
``split_train_test`` work on them with sorts and bincounts, and
``SignedGraph`` keeps its upper-triangle columns in (u, v) order, their
sorted pair keys ``u * num_nodes + v``, and one symmetric scipy CSR matrix
with a +1.0/-1.0 entry per edge direction.  That matrix is
``signed_adjacency()``; the row-normalized ``adjacency(sign)`` views are
read from it.  The rest of the pipeline
(candidate scan, selection, perturbation, curriculum, encoder training and
the sign head) reads and returns ``EdgeColumns`` too.
``EdgeSample`` objects exist only at the API and file boundary:
``EdgeColumns`` is a read-only ``Sequence[EdgeSample]`` over the columns
that builds a sample when indexed or iterated, and plain lists of samples
are accepted everywhere and converted to columns once.

``SignedGraph.edge_index`` is the one lookup of node pairs in a graph.  The
candidate scan, no-edge sampling, curriculum scoring and per-edge balance
profiles all ask it where a pair sits in ``edge_columns()``, or whether the
pair is there at all, and none of them builds pair keys of its own.  It
binary-searches the sorted pair keys for its queries in key order, not in
query order, and puts each answer back at its query's place: consecutive
searches then read neighbouring, cached parts of the keys instead of each
missing cache, and the answers are those of searching each query alone.

The loader reads a file once and parses its longest *regular prefix* with
array operations: one precompiled regex per format matches the run of lines
that are plainly well formed (canonical decimal ids, a ``1``/``-1`` sign or
an integer rating, any unquoted rating-csv time field, ``\\n`` endings), and
numpy's text parser turns that run into int64 columns.  The sign-tsv regex
repeats possessively and keeps no match state per line; the rating-csv one
still backtracks, because the state it frees changes how glibc serves the
encoder's later allocations (see ``_REGULAR_PREFIX``).  Everything from the
first other line on goes through the row loop, which is the one
implementation of irregular input: headers, comments after data, CRLF,
quoting, padding, non-canonical or non-numeric ids, and every
``ParseError``.  Node ids are densified in first-seen order by one
quicksort-based ``np.unique`` plus ``np.minimum.at`` for first occurrences.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import re
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


def _rows(row: str, columns) -> str:
    """The %-format ``row`` filled once per index of the equal-length ``columns``."""
    width, length = len(columns), len(columns[0])
    fields = [None] * (width * length)
    for i, column in enumerate(columns):
        fields[i::width] = column.tolist()
    return (row * length) % tuple(fields)


def _canonical(samples: Sequence[EdgeSample]) -> EdgeColumns:
    """Samples as columns with every pair written u < v, in input order."""
    u, v, sign = _columns(samples)
    return EdgeColumns(np.minimum(u, v), np.maximum(u, v), sign)


def _concat(*parts: Sequence[EdgeSample]) -> EdgeColumns:
    """The rows of ``parts`` one after another, as columns."""
    return EdgeColumns(*map(np.concatenate, zip(*map(_columns, parts))))


def _budget_runs(work: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``[lo, hi)`` runs of items whose ``work`` sums to at most ``budget``.

    Each run is the longest that fits, found with one ``searchsorted`` on the
    running total; an item over budget on its own is a run alone.
    """
    done = np.cumsum(work, dtype=np.int64)  # work of the items up to and including each one
    del work  # the running total is all the runs need; free a caller's temporary
    lo = 0
    while lo < len(done):
        start = done[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(done, start + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi


def _pair_keys(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """One int64 key ``lo * width + hi`` per unordered pair; width is the largest id + 1."""
    hi = np.maximum(u, v)
    width = int(hi.max()) + 1 if len(hi) else 1
    return np.minimum(u, v) * width + hi, width


@dataclass
class LoadResult:
    """Edge records with densified node ids plus bookkeeping counters.

    ``ids`` gives the original id of each dense id: an int64 array when
    every id in the file was canonical, the file's id tokens otherwise.
    ``original_ids`` is the same as a list of strings.  It is built on its
    first read and kept, so a caller that never reads it (``stats``,
    ``balance-report``) never formats the ids.
    """

    samples: Sequence[EdgeSample]  # EdgeColumns from load_edge_list
    num_nodes: int
    ids: np.ndarray | list = field(compare=False)  # dense id -> original id
    zero_rating_dropped: int = 0
    self_loops_dropped: int = 0
    _original_ids: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def original_ids(self) -> list:
        """Dense id -> original id, as strings."""
        if self._original_ids is None:
            ids = self.ids
            self._original_ids = _id_strings(ids) if isinstance(ids, np.ndarray) else ids
        return self._original_ids

    @property
    def positive_count(self) -> int:
        return int(np.count_nonzero(_columns(self.samples)[2] == POS))

    @property
    def negative_count(self) -> int:
        return int(np.count_nonzero(_columns(self.samples)[2] == NEG))


def _id_strings(ids: np.ndarray) -> list:
    """Integer ids as their decimal strings."""
    return list(map(str, ids.tolist()))


# A canonical decimal id: ASCII digits, no leading zero, at most 18 digits.  It
# fits int64, and str(int(token)) == token, so ids compare equal as ints
# exactly when they do as strings.
_ID = r"(?:0|[1-9][0-9]{0,17})"
_CANONICAL_ID = re.compile(_ID)
# The longest run of regular lines at the start of a file, per format.  A
# regular line contains no '\r' (a lone '\r' ends a line under newline="").
# The sign-tsv repetition is possessive: nothing follows it, so it ends where
# the backtracking form ends, but it keeps no backtracking point per line (the
# backtracking form holds 225 MB of match state over Slashdot's 500,000 lines).
# The rating-csv repetition stays backtracking.  The match state it frees
# (16.3 MB at bitcoin-alpha size) raises glibc's mmap threshold, which keeps the
# encoder's per-epoch temporaries off mmap; the possessive form moved the
# alpha-baseline bench pass from 1.709 to 1.793 s (worse in 9 of 10 pairs).  It
# can follow once the encoder epoch reuses its work arrays.
_REGULAR_PREFIX = {
    "sign-tsv": re.compile(rf"(?:#[^\r\n]*\n|{_ID}[\t ]{_ID}[\t ]-?1\n)*+"),
    # the time field and any after it are ignored, so they may hold anything the
    # csv reader reads as plain unquoted text, in no more characters than it
    # reads in one field
    "rating-csv": re.compile(
        rf'(?:{_ID},{_ID},-?[0-9]{{1,18}}(?:,[^\r\n"\x00]{{0,{csv.field_size_limit()}}})?\n)*'
    ),
}


def _regular_prefix(text: str, format: str) -> tuple[int, int, np.ndarray]:
    """The longest regular prefix of ``text``, parsed with array operations.

    Returns its length in characters, its line count, and its records as an
    int64 ``(rows, 3)`` array of source id, target id and rating or sign.
    """
    end = _REGULAR_PREFIX[format].match(text).end()
    if end == 0:
        return 0, 0, np.empty((0, 3), dtype=np.int64)
    prefix = text[:end]
    if format == "sign-tsv":
        # in a regular prefix, '#' only starts a comment line, and every other
        # line is one record, so the lines are the comments plus the records
        data, comments = re.subn("#[^\n]*\n", "", prefix) if "#" in prefix else (prefix, 0)
        if not data:  # comment lines only
            return end, comments, np.empty((0, 3), dtype=np.int64)
        fields = np.fromstring(data[:-1], dtype=np.int64, sep=" ").reshape(-1, 3)
        return end, comments + len(fields), fields
    # rating-csv: cut each line at its third comma, where the ignored fields start
    chars = np.frombuffer(prefix.encode(), dtype=np.uint8)
    newlines = np.flatnonzero(chars == ord("\n"))
    commas = np.append(np.flatnonzero(chars == ord(",")), len(chars))
    line_starts = np.concatenate(([0], newlines[:-1] + 1))
    cuts = np.minimum(commas[np.searchsorted(commas, line_starts) + 2], newlines)
    inside = np.zeros(len(chars) + 1, dtype=np.int8)  # +1 at a cut, -1 at its newline
    inside[cuts] += 1
    inside[newlines] -= 1
    # each line up to its cut, and its newline
    kept = chars[np.cumsum(inside[:-1], dtype=np.int8) == 0]
    kept[kept == ord("\n")] = ord(",")
    fields = np.fromstring(kept[:-1].tobytes().decode("ascii"), dtype=np.int64, sep=",")
    return end, len(newlines), fields.reshape(-1, 3)


def _read_rows(
    fh, format: str, start: int = 1
) -> tuple[list[int], list, list, list, ParseError | None]:
    """Line numbers and the source, target and value fields of the data rows.

    Lines are numbered from ``start``.  Reading stops at the first row with
    fewer than three fields or that the csv reader rejects (a field over
    ``csv.field_size_limit()``); the last item returned is a ``ParseError``
    for it, or None when there is none.
    """
    tsv = format == "sign-tsv"
    rows = map(str.split, fh) if tsv else csv.reader(fh)
    lines, src, dst, val = [], [], [], []
    lineno, stop = start - 1, None
    try:
        for lineno, row in enumerate(rows, start=start):
            if not row or (tsv and row[0].startswith("#")):
                continue
            if len(row) < 3:
                stop = ParseError(f"expected at least 3 fields, got {len(row)}", lineno)
                break
            lines.append(lineno)
            src.append(row[0])
            dst.append(row[1])
            val.append(row[2])
    except csv.Error as exc:  # raised for the row after the last one read
        stop = ParseError(str(exc), lineno + 1)
    if not tsv:
        src = [s.strip() for s in src]
        dst = [s.strip() for s in dst]
    return lines, src, dst, val, stop


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _unique_first(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted unique values, the index of each one's first occurrence, and the inverse.

    The same three arrays ``np.unique`` returns when asked for indices and
    the inverse (the inverse raveled), but numpy finds first indices with a
    stable sort; here one quicksort-based ``np.unique`` gives the inverse,
    and ``np.minimum.at`` the smallest index behind each unique value.
    """
    unique, inverse = np.unique(values, return_inverse=True)
    inverse = inverse.ravel()
    first = np.full(len(unique), len(inverse), dtype=np.intp)
    np.minimum.at(first, inverse, np.arange(len(inverse)))
    return unique, first, inverse


def _first_seen(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids of values in first-seen order, and the value of each id, by sorting.

    First occurrences come from ``_unique_first``: one quicksort-based
    ``np.unique`` and ``np.minimum.at``.
    """
    unique, first, inverse = _unique_first(values)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], unique[order]


def _first_seen_ids(tokens: list) -> tuple[np.ndarray, list]:
    """Dense ids of string tokens in first-seen order, and the token of each id."""
    values = np.array(tokens)
    if np.char.str_len(values).sum() != sum(map(len, tokens)):
        values = np.array(tokens, dtype=object)  # numpy's str dtype drops trailing NULs
    dense, unique = _first_seen(values)
    return dense, unique.tolist()


def load_edge_list(path: str | Path, format: str = "rating-csv") -> LoadResult:
    """Read a signed edge file into directed (u, v, sign) columns.

    ``rating-csv`` rows are ``source,target,rating[,time]`` with an integer
    rating whose sign becomes the edge sign (rating 0 rows are dropped and
    counted; a fractional rating is truncated toward zero first).
    ``sign-tsv`` rows are whitespace-separated ``src dst sign`` with sign in
    {1, -1}; lines starting with '#' are skipped.  A rating or sign that is
    not a finite number raises ``ParseError``, except on line 1 of a
    rating-csv file, which is then taken as a header; so does a short row,
    or a rating-csv row the csv reader rejects.  Node ids of the kept
    records are densified to 0..n-1 in first-seen order; the original ids
    are kept in ``ids``, and read as strings from ``original_ids``.

    The file is read once.  Its longest regular prefix is parsed with array
    operations: lines ``ID<tab or space>ID<tab or space>(1|-1)`` and
    ``#`` comments for ``sign-tsv``, lines ``ID,ID,-?INT[,time...]`` for
    ``rating-csv``, each ending in ``\\n``, where an ``ID`` is a canonical
    decimal (``0`` or up to 18 digits without a leading zero) and the ignored
    time fields hold no quote, NUL or ``\\r`` and at most
    ``csv.field_size_limit()`` characters.  The row loop parses the rest,
    numbering lines on from the prefix, so the rules above hold for irregular
    lines exactly as they did, except that the whole file is decoded first:
    bytes that are not valid text raise ``UnicodeDecodeError`` (a
    ``ValueError``) even when a short row comes before them.  When every
    kept id is canonical, ids are densified by sorting them as int64 rather
    than as strings.  If any kept id is not canonical, all are densified as
    strings.
    """
    if format not in ("rating-csv", "sign-tsv"):
        raise ValueError(f"unknown format {format!r}")
    path = Path(path)
    with path.open(newline="") as fh:
        content = fh.read()
    end, prefix_lines, head = _regular_prefix(content, format)
    lines, src, dst, val, stop = _read_rows(
        io.StringIO(content[end:], newline=""), format, start=prefix_lines + 1
    )
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
    if stop is not None:
        raise stop

    head_src, head_dst, head_value = head.T
    zero = np.concatenate((head_value == 0, truncated == 0))
    loop = np.concatenate(
        (head_src == head_dst, np.fromiter(map(operator.eq, src, dst), dtype=bool, count=len(src)))
    ) & ~zero
    keep = ~(zero | loop)
    if not keep.any():
        raise ValueError(f"no usable edge records in {path}")
    head_keep, tail_keep = keep[: len(head)], keep[len(head) :]
    tokens = [None] * (2 * int(tail_keep.sum()))
    tokens[0::2] = compress(src, tail_keep)
    tokens[1::2] = compress(dst, tail_keep)
    head_ids = head[head_keep, :2].ravel()
    if all(map(_CANONICAL_ID.fullmatch, tokens)):
        ids = np.concatenate((head_ids, np.fromiter(map(int, tokens), np.int64, len(tokens))))
        dense, original_ids = _first_seen(ids)
    else:
        dense, original_ids = _first_seen_ids(_id_strings(head_ids) + tokens)
    signs = np.concatenate((head_value, truncated))[keep] > 0
    return LoadResult(
        samples=EdgeColumns(dense[0::2], dense[1::2], np.where(signs, POS, NEG)),
        num_nodes=len(original_ids),
        ids=original_ids,
        zero_rating_dropped=int(zero.sum()),
        self_loops_dropped=int(loop.sum()),
    )


@dataclass
class BuildStats:
    """What the dedup/symmetrization step collapsed or dropped."""

    input_records: int = 0
    merged_pairs: int = 0
    conflicts_dropped: int = 0


class SignedGraph:
    """Immutable undirected signed graph stored as one signed CSR matrix.

    The matrix is the symmetric adjacency with a +1.0 or -1.0 entry per
    edge direction, in canonical CSR format (sorted row indices, no
    duplicates, read-only arrays).  ``signed_adjacency`` returns it, and the
    ``adjacency`` views read it.  Next to it the graph
    keeps each edge once as u < v (``edge_columns``) and the sorted pair keys
    ``u * num_nodes + v`` behind ``edge_index``.  Built from canonical
    columns: ``0 <= u < v < num_nodes`` and one sign in {+1, -1} per distinct
    pair, in any order.
    """

    __slots__ = ("num_nodes", "edge_count", "_adjacency", "_edges", "_keys", "__weakref__")

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
        keys = u * num_nodes + v
        order = np.argsort(keys)
        keys = keys[order]
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            i = int(np.argmax(repeated))
            raise ValueError(f"duplicate pair ({keys[i] // num_nodes}, {keys[i] % num_nodes})")
        self._edges = EdgeColumns(u[order], v[order], sign[order])
        upper = sparse.csr_matrix(
            (self._edges.sign.astype(np.float64), (self._edges.u, self._edges.v)),
            shape=(num_nodes, num_nodes),
        )
        adjacency = upper + upper.T
        for arr in (keys, adjacency.data, adjacency.indices, adjacency.indptr):
            arr.flags.writeable = False
        self._keys = keys
        self._adjacency = adjacency

    def edge_index(self, u, v) -> np.ndarray:
        """Position of each pair ``(u, v)`` in ``edge_columns()``, in either order.

        ``u`` and ``v`` are ids, or id arrays that broadcast to one shape,
        the shape of the result.  A pair that is not an edge gets -1: an
        absent pair, a self pair, or one with an id outside ``[0, num_nodes)``.

        The pair keys are searched in ascending order, not in query order,
        and each answer is put back at its query's place, so the result is
        that of searching each query on its own.  In key order each search
        starts near where the last one ended, in sorted keys that are still
        in cache; in query order each one misses cache on its own.
        """
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if self.edge_count == 0:
            return np.full(lo.shape, -1, dtype=np.int64)
        wanted = lo * self.num_nodes + hi
        flat = wanted.ravel()
        order = np.argsort(flat)
        at = np.empty(flat.shape, dtype=np.int64)
        at[order] = np.searchsorted(self._keys, flat[order])
        at = np.minimum(at.reshape(wanted.shape), self.edge_count - 1)
        # an id out of range could alias another pair's key
        hit = (lo >= 0) & (hi < self.num_nodes) & (self._keys[at] == wanted)
        return np.where(hit, at, -1)

    def edge_columns(self) -> EdgeColumns:
        """Each undirected edge once, as u < v, in (u, v) order: the upper triangle."""
        return self._edges

    def to_samples(self) -> list[EdgeSample]:
        return list(self._edges)

    def positive_edge_count(self) -> int:
        return int(np.count_nonzero(self._edges.sign == POS))

    def negative_edge_count(self) -> int:
        return int(np.count_nonzero(self._edges.sign == NEG))

    # -- matrix views ----------------------------------------------------
    def adjacency(self, sign: int) -> sparse.csr_matrix:
        """Row-normalized adjacency of one sign; zero-degree rows stay zero."""
        mat = (self._adjacency == sign).astype(np.float64)
        deg = np.diff(mat.indptr)
        inv = np.divide(1.0, deg, out=np.zeros(len(deg)), where=deg > 0)
        return (sparse.diags(inv) @ mat).tocsr()

    def signed_adjacency(self) -> sparse.csr_matrix:
        """Symmetric adjacency with +1.0/-1.0 entries (unnormalized); read-only."""
        return self._adjacency


def build_graph(
    edges: Sequence[EdgeSample], num_nodes: int | None = None
) -> tuple[SignedGraph, BuildStats]:
    """Symmetrize directed records into a SignedGraph.

    Duplicate records between the same unordered pair are collapsed: the
    retained sign is the sign of the summed record signs, and pairs that sum
    to zero are dropped (counted in the stats).
    """
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
    pairs, first, inverse = _unique_first(keys)
    clash = sign != sign[first][inverse]
    if clash.any():
        i = int(np.argmax(clash))
        pair = (int(keys[i] // width), int(keys[i] % width))
        raise ValueError(f"conflicting signs for pair {pair}")
    return SignedGraph(num_nodes, pairs // width, pairs % width, sign[first])


@dataclass
class DatasetSplit:
    """Train/test partition of an edge list, both halves as ``EdgeColumns``.

    ``train_positions`` holds where each train edge sits in the edge list
    that was split, in ``train`` order (read-only), so a caller that split
    a graph's ``edge_columns()`` can mask the graph's own per-edge arrays
    with it.
    """

    train: EdgeColumns
    test: EdgeColumns
    train_positions: np.ndarray = field(repr=False, compare=False)


def _split_positions(count: int, ratio: float, seed: int) -> tuple[np.ndarray, int]:
    """The seeded shuffle of ``count`` edge positions, and how many of its first are train.

    ``split_train_test`` takes its halves from it; ``sigaug stats`` reads
    the train positions alone.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if seed < 0:
        raise ValueError(f"split seed must be >= 0, got {seed}")
    if count < 2:
        raise ValueError("need at least 2 edges to split")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.permutation(count), math.ceil(ratio * count)


def split_train_test(
    edges: Sequence[EdgeSample], ratio: float, seed: int
) -> DatasetSplit:
    """Randomly partition edges; first ceil(ratio*|E|) of a seeded shuffle."""
    perm, n_train = _split_positions(len(edges), ratio, seed)
    edges = EdgeColumns(*_columns(edges))
    train_positions = perm[:n_train]
    train_positions.flags.writeable = False
    return DatasetSplit(edges[train_positions], edges[perm[n_train:]], train_positions)


def _density(edge_count: int, num_nodes: int) -> float:
    """Directed-record density 2|E| / (n(n-1)) of |E| undirected edges on n nodes."""
    if num_nodes < 2:
        raise ValueError("density needs at least 2 nodes")
    return 2.0 * edge_count / (num_nodes * (num_nodes - 1))


def density(graph: SignedGraph) -> float:
    """Directed-record density: 2|E| / (n(n-1)) for an undirected graph."""
    return _density(graph.edge_count, graph.num_nodes)


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
