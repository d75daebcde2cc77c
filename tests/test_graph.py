import csv
import locale
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import community_records, random_signed_records
from sigaug.graph import (
    BuildStats,
    EdgeColumns,
    EdgeSample,
    ParseError,
    SignedGraph,
    _regular_prefix,
    build_graph,
    density,
    graph_from_samples,
    load_edge_list,
    record_density,
    split_train_test,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- loading -----------------------------------------------------------------


def test_load_rating_csv_signs_and_densification(tmp_path):
    path = write(tmp_path, "e.csv", "7,12,-10,1000000000\n12,9,5,1\n7,9,1,2\n")
    loaded = load_edge_list(path, format="rating-csv")
    # first-seen order: 7 -> 0, 12 -> 1, 9 -> 2
    assert loaded.original_ids == ["7", "12", "9"]
    assert loaded.samples[0] == EdgeSample(0, 1, -1)
    assert loaded.samples[1] == EdgeSample(1, 2, 1)
    assert loaded.num_nodes == 3


def test_load_three_ratings(tmp_path):
    path = write(tmp_path, "e.csv", "1,2,5\n2,3,-2\n3,1,1\n")
    loaded = load_edge_list(path)
    assert loaded.positive_count == 2
    assert loaded.negative_count == 1


def test_load_zero_rating_dropped_and_counted(tmp_path):
    path = write(tmp_path, "e.csv", "1,2,0\n1,3,4\n")
    loaded = load_edge_list(path)
    assert loaded.zero_rating_dropped == 1
    assert len(loaded.samples) == 1


def test_load_optional_header_and_self_loop(tmp_path):
    path = write(tmp_path, "e.csv", "src,dst,rating\n1,1,5\n1,2,5\n")
    loaded = load_edge_list(path)
    assert loaded.self_loops_dropped == 1
    assert len(loaded.samples) == 1


def test_load_malformed_row_reports_line(tmp_path):
    path = write(tmp_path, "e.csv", "1,2,5\n3,4\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(path)
    assert err.value.line == 2


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
def test_load_non_finite_rating_reports_line(tmp_path, value):
    path = write(tmp_path, "e.csv", f"1,2,5\n2,3,{value}\n")
    with pytest.raises(ParseError) as err:
        load_edge_list(path)
    assert err.value.line == 2


def test_load_empty_file_errors(tmp_path):
    path = write(tmp_path, "e.csv", "")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_load_sign_tsv(tmp_path):
    path = write(tmp_path, "e.tsv", "# comment\n10 20 1\n20 30 -1\n")
    loaded = load_edge_list(path, format="sign-tsv")
    assert [s.sign for s in loaded.samples] == [1, -1]


def test_load_sign_tsv_rejects_other_values(tmp_path):
    path = write(tmp_path, "e.tsv", "1 2 3\n")
    with pytest.raises(ParseError):
        load_edge_list(path, format="sign-tsv")


# -- building ----------------------------------------------------------------


def test_build_symmetrizes_duplicates():
    g, stats = build_graph([EdgeSample(1, 2, 1), EdgeSample(2, 1, 1)], num_nodes=3)
    assert g.edge_count == 1
    assert g.sign_of(1, 2) == 1 and g.sign_of(2, 1) == 1
    assert stats.merged_pairs == 1


def test_build_conflicting_pair_dropped():
    g, stats = build_graph([EdgeSample(1, 2, 1), EdgeSample(1, 2, -1)], num_nodes=3)
    assert g.edge_count == 0
    assert stats.conflicts_dropped == 1


def test_build_sum_sign_majority():
    records = [EdgeSample(1, 2, 1), EdgeSample(2, 1, 1), EdgeSample(1, 2, -1)]
    g, _ = build_graph(records, num_nodes=3)
    assert g.sign_of(1, 2) == 1  # sum = +1


edge_records = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([1, -1])).filter(
        lambda t: t[0] != t[1]
    ),
    min_size=1,
    max_size=40,
)


@given(edge_records)
@settings(max_examples=100)
def test_build_graph_invariants(records):
    samples = [EdgeSample(u, v, s) for u, v, s in records]
    g, _ = build_graph(samples, num_nodes=8)
    for i in range(g.num_nodes):
        pos = set(g.pos_neighbors(i).tolist())
        neg = set(g.neg_neighbors(i).tolist())
        assert not pos & neg  # one sign per edge
        assert i not in pos | neg  # no self loops
        for j in pos:
            assert i in set(g.pos_neighbors(j).tolist())  # symmetry
        for j in neg:
            assert i in set(g.neg_neighbors(j).tolist())


@given(edge_records, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_build_order_invariant_without_conflicts(records, shuffler):
    # keep one record per unordered pair so the conflict policy is inert
    unique = {}
    for u, v, s in records:
        unique.setdefault((min(u, v), max(u, v)), s)
    samples = [EdgeSample(u, v, s) for (u, v), s in unique.items()]
    g1, _ = build_graph(samples, num_nodes=8)
    shuffled = samples[:]
    shuffler.shuffle(shuffled)
    g2, _ = build_graph(shuffled, num_nodes=8)
    assert g1.to_samples() == g2.to_samples()
    assert density(g1) == density(g2)


# -- splitting ----------------------------------------------------------------


def test_split_exact_fraction():
    edges = [EdgeSample(i, i + 1, 1) for i in range(10)]
    split = split_train_test(edges, 0.8, seed=0)
    assert len(split.train) == 8 and len(split.test) == 2


def test_split_deterministic():
    edges = [EdgeSample(i, i + 1, 1) for i in range(10)]
    a = split_train_test(edges, 0.8, seed=5)
    b = split_train_test(edges, 0.8, seed=5)
    assert list(a.train) == list(b.train) and list(a.test) == list(b.test)


@given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
@settings(max_examples=60)
def test_split_is_partition(n_edges, seed, ratio):
    edges = [EdgeSample(i, i + 1, 1 if i % 3 else -1) for i in range(n_edges)]
    split = split_train_test(edges, ratio, seed)
    assert sorted([*split.train, *split.test]) == sorted(edges)
    assert len(split.train) == math.ceil(ratio * n_edges)


def test_split_too_few_edges():
    with pytest.raises(ValueError):
        split_train_test([EdgeSample(0, 1, 1)], 0.8, seed=0)


# -- densities ----------------------------------------------------------------


def test_record_density_complete_directed_three_nodes():
    records = [
        EdgeSample(u, v, 1) for u in range(3) for v in range(3) if u != v
    ]
    assert record_density(records) == 1.0


def test_graph_density_single_edge_two_nodes():
    g = graph_from_samples([EdgeSample(0, 1, 1)], 2)
    assert density(g) == 1.0


def test_density_errors_on_tiny_graph():
    g = graph_from_samples([], 1)
    with pytest.raises(ValueError):
        density(g)
    with pytest.raises(ValueError):
        record_density([], num_nodes=1)


def test_edge_sample_validation():
    with pytest.raises(ValueError):
        EdgeSample(2, 2, 1)
    with pytest.raises(ValueError):
        EdgeSample(0, 1, 2)


# -- the dict-based loader and builder, kept as an oracle for the columnar code --


def dict_load_edge_list(path, format="rating-csv"):
    """The row-at-a-time loader: one dict lookup and one EdgeSample per record.

    Returns ``(samples, original_ids, zero_rating_dropped, self_loops_dropped)``.
    It differs from the loader it was in two places only: a rating that
    overflows ``int``, and a row the csv reader rejects, raise ParseError, as
    the columnar loader does.
    """
    id_map: dict = {}
    original_ids: list = []

    def dense(orig) -> int:
        idx = id_map.get(orig)
        if idx is None:
            idx = len(original_ids)
            id_map[orig] = idx
            original_ids.append(orig)
        return idx

    samples = []
    zero_dropped = loops_dropped = 0
    with Path(path).open(newline="") as fh:
        if format == "rating-csv":
            rows = ((i, row) for i, row in enumerate(csv.reader(fh), start=1))
        else:
            rows = ((i, line.split()) for i, line in enumerate(fh, start=1))
        lineno = 0
        try:
            for lineno, row in rows:
                if not row or (row[0].startswith("#") and format == "sign-tsv"):
                    continue
                if len(row) < 3:
                    raise ParseError(f"expected at least 3 fields, got {len(row)}", lineno)
                src_s, dst_s, val_s = row[0].strip(), row[1].strip(), row[2].strip()
                try:
                    value = int(float(val_s))
                except (ValueError, OverflowError):
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
                samples.append(EdgeSample(dense(src_s), dense(dst_s), 1 if value > 0 else -1))
        except csv.Error as exc:  # raised for the row after the last one read
            raise ParseError(str(exc), lineno + 1) from None
    if not samples:
        raise ValueError(f"no usable edge records in {path}")
    return samples, original_ids, zero_dropped, loops_dropped


def dict_build(edges, num_nodes=None):
    """Sum-sign symmetrization through a pair dict: ``(num_nodes, pair_signs, stats)``."""
    stats = BuildStats(input_records=len(edges))
    sums: dict = {}
    counts: dict = {}
    max_node = -1
    for e in edges:
        max_node = max(max_node, e.pair[1])
        sums[e.pair] = sums.get(e.pair, 0) + e.sign
        counts[e.pair] = counts.get(e.pair, 0) + 1
    pair_signs = {}
    for pair, total in sums.items():
        if counts[pair] > 1:
            stats.merged_pairs += 1
        if total == 0:
            stats.conflicts_dropped += 1
            continue
        pair_signs[pair] = 1 if total > 0 else -1
    return max_node + 1 if num_nodes is None else num_nodes, pair_signs, stats


def dict_csr(num_nodes, pair_signs):
    """CSR arrays filled pair by pair, then each row sorted by its own argsort."""
    deg = np.zeros(num_nodes + 1, dtype=np.int64)
    for u, v in pair_signs:
        deg[u + 1] += 1
        deg[v + 1] += 1
    indptr = np.cumsum(deg)
    indices = np.empty(indptr[-1], dtype=np.int64)
    signs = np.empty(indptr[-1], dtype=np.float64)
    cursor = indptr[:-1].copy()
    for (u, v), s in pair_signs.items():
        indices[cursor[u]], signs[cursor[u]] = v, s
        cursor[u] += 1
        indices[cursor[v]], signs[cursor[v]] = u, s
        cursor[v] += 1
    for i in range(num_nodes):
        lo, hi = indptr[i], indptr[i + 1]
        order = np.argsort(indices[lo:hi], kind="stable")
        indices[lo:hi] = indices[lo:hi][order]
        signs[lo:hi] = signs[lo:hi][order]
    return indptr, indices, signs


def assert_csr_equal(graph, num_nodes, pair_signs):
    """``signed_adjacency()`` holds the oracle's CSR arrays, in canonical format, read-only."""
    indptr, indices, signs = dict_csr(num_nodes, pair_signs)
    adj = graph.signed_adjacency()
    assert adj.format == "csr" and adj.shape == (num_nodes, num_nodes)
    assert adj.has_canonical_format
    assert adj.data.dtype == np.float64
    assert np.array_equal(adj.indptr, indptr)
    assert np.array_equal(adj.indices, indices)
    assert np.array_equal(adj.data, signs)
    assert not any(a.flags.writeable for a in (adj.data, adj.indices, adj.indptr))


def assert_adjacency_matches_oracle(graph, num_nodes, pair_signs):
    """Each ``adjacency(sign)`` row holds that sign's neighbours, each at 1/degree."""
    for sign in (1, -1):
        rows = [set() for _ in range(num_nodes)]
        for (u, v), s in pair_signs.items():
            if s == sign:
                rows[u].add(v)
                rows[v].add(u)
        mat = graph.adjacency(sign)
        assert mat.format == "csr" and mat.shape == (num_nodes, num_nodes)
        assert mat.data.dtype == np.float64
        for i, nbrs in enumerate(rows):
            lo, hi = mat.indptr[i], mat.indptr[i + 1]
            got = dict(zip(mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()))
            assert hi - lo == len(got)  # no repeated column
            assert got == {j: 1.0 / len(nbrs) for j in nbrs}  # empty when the degree is 0


def outcome(load, path, format):
    """``("ok", result)``, ``("ParseError", line)`` or ``("ValueError",)``."""
    try:
        return "ok", load(path, format=format)
    except ParseError as err:
        return "ParseError", err.line
    except ValueError:
        return ("ValueError",)


# Record files mixing good rows with every row the loader skips, drops or rejects.
# "y\x00" differs from "y" only by a NUL, which numpy's str dtype would drop.
_IDS = ["1", "2", "3", "7", "07", "x", "y", "y\x00"]
_RATINGS = [
    "1", "-1", "5", "-10", "0", "0.5", "-0.5", "2.9", "1e3", " 3 ", "abc", "nan", "inf", "1e400",
]
_SIGNS = ["1", "-1", "1.0", "-1.5", "1.9", "2", "0", "abc", "nan", "-inf"]
_ROW_KINDS = ["record"] * 12 + ["blank", "comment", "timed", "short", "header"]


@st.composite
def record_files(draw, format):
    values = _RATINGS if format == "rating-csv" else _SIGNS
    sep = "," if format == "rating-csv" else "\t"
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(_ROW_KINDS))
        src, dst = draw(st.sampled_from(_IDS)), draw(st.sampled_from(_IDS))
        value = draw(st.sampled_from(values[:5] * 10 + values))  # mostly good values
        if kind == "blank":
            lines.append("")
        elif kind == "comment":
            lines.append(f"# {src}{sep}{dst}{sep}{value}")
        elif kind == "short":
            lines.append(f"{src}{sep}{dst}")
        elif kind == "header":
            lines.append(sep.join(["source", "target", "rating"]))
        elif kind == "timed":
            lines.append(sep.join([src, dst, value, "1234"]))
        else:
            lines.append(sep.join([src, dst, value]))
    return "\n".join(lines) + "\n"


def assert_load_matches_dict_oracle(path, format):
    """Load ``path`` both ways and compare; the loaded result and the oracle's samples.

    Returns ``(None, None)`` when both loaders fail the same way.
    """
    expected = outcome(dict_load_edge_list, path, format)
    loaded = outcome(load_edge_list, path, format)
    if expected[0] != "ok":
        assert loaded == expected
        return None, None
    assert loaded[0] == "ok", loaded
    samples, original_ids, zero_dropped, loops_dropped = expected[1]
    loaded = loaded[1]
    assert isinstance(loaded.samples, EdgeColumns)
    assert list(loaded.samples) == samples
    assert loaded.original_ids == original_ids
    assert loaded.num_nodes == len(original_ids)
    assert (loaded.zero_rating_dropped, loaded.self_loops_dropped) == (zero_dropped, loops_dropped)
    assert loaded.positive_count == sum(s.sign == 1 for s in samples)
    assert loaded.negative_count == sum(s.sign == -1 for s in samples)
    return loaded, samples


@pytest.mark.parametrize("format", ["rating-csv", "sign-tsv"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_columnar_load_and_build_match_dict_oracle(tmp_path_factory, format, data):
    text = data.draw(record_files(format))
    path = tmp_path_factory.mktemp("records") / "edges.txt"
    path.write_text(text)
    loaded, samples = assert_load_matches_dict_oracle(path, format)
    if loaded is None:
        return

    n, pair_signs, stats = dict_build(samples, loaded.num_nodes)
    for edges in (loaded.samples, samples):
        graph, build_stats = build_graph(edges, num_nodes=loaded.num_nodes)
        assert build_stats == stats
        assert_csr_equal(graph, n, pair_signs)
        assert_adjacency_matches_oracle(graph, n, pair_signs)


# Lines of the regular prefix that the loader parses with array operations.  The
# ids overlap the canonical ids of _IDS; the 18-digit one is the longest a
# prefix id can be.
_PREFIX_IDS = ["0", "1", "2", "3", "7", "12", "999999999999999999"]
_PREFIX_RATINGS = ["1", "-1", "5", "-10", "0", "-0", "007", "123456789012345678"]
# rating-csv time fields, which the loader ignores: integer and fractional
# epochs, an empty one, more fields after it, text, and padding
_PREFIX_TIMES = [
    "", ",0", ",1289000797", ",1289241911.72836", ",", ",1,x", ",\u00e9t\u00e9", ", 12 ", ",1e3\t",
]


comment_text = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\r\n"))


@st.composite
def regular_lines(draw, format):
    ids = st.sampled_from(_PREFIX_IDS[: draw(st.sampled_from([-1, None]))])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        src, dst = draw(ids), draw(ids)
        if format == "rating-csv":
            time = draw(st.sampled_from(_PREFIX_TIMES))
            lines.append(f"{src},{dst},{draw(st.sampled_from(_PREFIX_RATINGS))}{time}\n")
        elif draw(st.integers(0, 5)) == 0:
            lines.append(f"#{draw(comment_text)}\n")
        else:
            sep1, sep2 = draw(st.sampled_from(["\t", " "])), draw(st.sampled_from(["\t", " "]))
            lines.append(f"{src}{sep1}{dst}{sep2}{draw(st.sampled_from(['1', '-1']))}\n")
    return "".join(lines)


@pytest.mark.parametrize("format", ["rating-csv", "sign-tsv"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_regular_prefix_then_any_tail_matches_dict_oracle(tmp_path_factory, format, data):
    prefix = data.draw(regular_lines(format))
    tail = data.draw(record_files(format))
    tail = data.draw(st.sampled_from([tail, tail.rstrip("\n"), tail.replace("\n", "\r\n")]))
    text = prefix + tail
    # the array-parsed prefix covers at least the drawn regular lines
    assert _regular_prefix(text, format)[0] >= len(prefix)
    path = tmp_path_factory.mktemp("records") / "edges.txt"
    path.write_text(text)
    assert_load_matches_dict_oracle(path, format)


_NEAR_REGULAR = {
    "sign-tsv": [
        "7 1 1\n07 1 -1\n",  # a leading zero names another node
        "1 2 1\n1234567890123456789 2 1\n",  # 19 digits
        "1 2 1\n9223372036854775808 2 1\n",  # past int64
        "1 2 1\n2 3 +1\n3 4 1.0\n",
        "3 2 1\n\u0663 2 1\n",  # ARABIC-INDIC DIGIT THREE: int() reads it as 3
        "1 2 1\n1_0 2 1\n10 2 -1\n",  # int() reads 1_0 as 10
        "1 2 1\r\n2 3 -1\r\n",
        "1 2 1\n2 3 -1\r3 4 1\n",  # a lone \r ends a line
        "# a\rb 3 1\n1 2 1\n",  # ... also inside a comment
        "1 2 1\n# note\n2 3 -1\n",  # a comment after data rows
        "1 2 1\n2 3 -1",  # no trailing newline
        "1 2 1\n2 3",  # a short last row without a newline
        "1\x00 2 1\n1 2 1\n",  # a NUL in an id
        "4 4 1\n1 2 1\n",  # a self loop inside the prefix
        "1  2 1\n2\t\t3 -1\n 3 4 1\n",  # doubled and leading separators
        "1 2 1\n2 3 1 99\n3 4 -1\n",  # a fourth field
        "1 2 1\n\n2 3 -1\n",  # a blank line
    ],
    "rating-csv": [
        "7,1,5\n07,1,5\n",
        "1,2,5\n1234567890123456789,2,5\n",
        "1,2,5\n2,3,+1\n3,4,1.0\n",
        "3,2,5\n\u0663,2,5\n",
        "1,2,5\r\n2,3,-1\r\n",
        "1,2,5\n2,3,-1\r3,4,1\n",
        "1,2,5\n2,3,-1",
        "1,2,5\n1\x00,3,5\n",
        "1,2,5\n 1,3,5\n1 ,4,5\n",  # space-padded ids are stripped, and equal to 1
        '1,2,5\n"3",4,5\n',  # a quoted field
        '1,2,5\n"3\n",4,5\n5,6,1\n',  # a quoted field across lines
        "1,2,0\n3,3,5\n1,2,-0\n2,1,5\n",  # zero ratings and a self loop inside the prefix
        "1,2,5\nsrc,dst,rating\n",  # a header on line 2 is an error
        "src,dst,rating\n1,2,5\n",  # on line 1 it is a header
        "1,2,5,1289000797\n2,3,-1,12.5\n3,4,1\n",  # a fractional time
        '1,2,5,"12"\n3,4,1\n',  # a quoted time
        '1,2,5,"1\n2",3\n3,4,1\n',  # a quoted time across lines
        "1,2,5,1\x002\n3,4,1\n",  # a NUL in the time
        "1,2,5,12\r\n3,4,1\n",  # a CRLF after the time
        "1,2,5,12\r3,4,1\n",  # a lone \r after the time ends a line
        "1,2,5\n2,3,1e400\n",
        "1,2,99999999999999999999\n",  # a rating too long for the prefix
        # fields longer than the csv reader's limit, in an id and in the ignored time
        "1,2,5\n1,2,5\n" + "1" * 131073 + ",3,5\n",
        "1,2,5\n1,2,5," + "7" * 131072 + "\n3,4,1," + "7" * 131073 + "\n",
    ],
}


@pytest.mark.parametrize(
    "format, text",
    [(f, t) for f, texts in _NEAR_REGULAR.items() for t in texts],
    # pytest's own id for all but the over-long texts, which it would repeat whole
    ids=lambda param: f"{len(param)}-chars" if len(param) > 1000 else None,
)
def test_near_regular_inputs_match_dict_oracle(tmp_path, format, text):
    assert_load_matches_dict_oracle(write(tmp_path, "edges.txt", text), format)


def test_sparse_large_ids_load_without_an_id_sized_table(tmp_path):
    ids = [10**17 + k * 10**13 for k in range(6)]
    rows = [f"{ids[i]}\t{ids[(i + 1) % 6]}\t{1 - 2 * (i % 2)}\n" for i in range(6)]
    path = write(tmp_path, "e.tsv", "".join(rows))
    tracemalloc.start()
    try:
        loaded = load_edge_list(path, format="sign-tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert loaded.original_ids == [str(i) for i in ids]
    assert list(loaded.samples) == [EdgeSample(i, (i + 1) % 6, 1 - 2 * (i % 2)) for i in range(6)]


# Openings in the shapes of the SNAP files the experiments use (as published by
# SNAP, not copied from them): the whole of each is one regular prefix.
_SNAP_SHAPED = {
    "rating-csv": [
        "7188,1,10,1407470400\n430,1,10,1376539200\n3134,1,10,1369713600\n",  # bitcoin-alpha
        "6,2,4,1289241911.72836\n6,5,2,1289241941.53378\n1,15,1,1289243140.39049\n",  # -otc
    ],
    "sign-tsv": [
        "# Directed graph (each unordered pair of nodes is saved once): soc-sign-Slashdot090221.txt"
        " \n# Slashdot Zoo signed social network from February 21 2009\n"
        "# Nodes: 82144 Edges: 549202\n# FromNodeId\tToNodeId\tSign\n0\t1\t1\n0\t2\t1\n"
        "0\t3\t-1\n",
        "# Directed graph: soc-sign-epinions\n# Epinions signed social network\n"
        "# Nodes: 131828 Edges: 841372\n# FromNodeId\tToNodeId\tSign\n0\t1\t-1\n1\t128552\t-1\n",
    ],
}


@pytest.mark.parametrize(
    "format, text", [(f, t) for f, texts in _SNAP_SHAPED.items() for t in texts]
)
def test_snap_shaped_files_are_one_regular_prefix(tmp_path, format, text):
    assert _regular_prefix(text, format)[:2] == (len(text), text.count("\n"))
    loaded, _ = assert_load_matches_dict_oracle(write(tmp_path, "edges.txt", text), format)
    assert loaded is not None


@pytest.mark.skipif(
    locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
    reason="the file is decoded with the locale's encoding",
)
def test_bytes_that_are_not_text_fail_even_after_a_short_row(tmp_path):
    # The whole file is decoded before any row is parsed, so the decode error
    # wins over the short row on line 2, however far past it the bytes are.
    path = tmp_path / "e.csv"
    path.write_bytes(b"1,2,5\n3\n" + b"4,5,1\n" * 2000 + b"\xff,6,1\n")
    with pytest.raises(UnicodeDecodeError):
        load_edge_list(path, format="rating-csv")


def test_parse_error_lines_match_dict_oracle(tmp_path):
    cases = {
        "rating-csv": [
            "1,2,5\n3\n",  # short row
            "1,2,5\n1,3,abc\n",  # non-numeric
            "src,dst,rating\n1,2,5\n",  # header on line 1: accepted
            "1,2,5\nsrc,dst,rating\n",  # header on line 2: rejected
            "\nsrc,dst,rating\n1,2,5\n",  # the first row, but on line 2: rejected
            "1,2,abc\n1,2,x\n",  # non-numeric on line 1 is a header, line 2 fails
            "1,2,nan\n2,3,1e400\n",
            "#,2,1\n",  # '#' is an id in rating-csv
            "1,2,5\n2,3,x\n4\n",  # value error before a short row
        ],
        "sign-tsv": [
            "# comment\n1 2 1\n3 4\n",
            "1 2 1\n2 3 2\n",  # not +-1
            "1 2 1\n2 3 -1.5\n4 5 x\n",  # -1.5 truncates to -1: fine
            "source target sign\n1 2 1\n",  # no header rule for sign-tsv
            "1 2 0\n",  # sign 0 is rejected, not dropped
            "1 2 inf\n",
        ],
    }
    for format, texts in cases.items():
        for text in texts:
            path = write(tmp_path, "e.txt", text)
            expected = outcome(dict_load_edge_list, path, format)
            loaded = outcome(load_edge_list, path, format)
            if expected[0] != "ok":
                assert loaded == expected, (format, text)
            else:
                assert list(loaded[1].samples) == expected[1][0], (format, text)


def test_ids_that_differ_only_by_a_nul_stay_distinct(tmp_path):
    path = write(tmp_path, "e.tsv", "a\x00 b 1\na b -1\n")
    loaded = load_edge_list(path, format="sign-tsv")
    assert loaded.original_ids == ["a\x00", "b", "a"]
    assert list(loaded.samples) == [EdgeSample(0, 1, 1), EdgeSample(2, 1, -1)]


undirected_samples = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.sampled_from([1, -1])).filter(
        lambda t: t[0] != t[1]
    ),
    max_size=40,
)


@given(undirected_samples)
@settings(max_examples=100, deadline=None)
@example([])
def test_graph_from_samples_matches_dict_oracle(records):
    signs = {}
    for u, v, s in records:
        signs.setdefault((min(u, v), max(u, v)), s)
    # both orientations and same-sign repeats are fine; opposite signs are not
    samples = [EdgeSample(u, v, signs[min(u, v), max(u, v)]) for u, v, _ in records]
    columns = EdgeColumns(*np.array([(e.u, e.v, e.sign) for e in samples]).reshape(-1, 3).T)
    for edges in (samples, columns):
        graph = graph_from_samples(edges, 10)
        assert_csr_equal(graph, 10, signs)
        assert_adjacency_matches_oracle(graph, 10, signs)
        upper = sorted(EdgeSample(u, v, s) for (u, v), s in signs.items())
        assert list(graph.edge_columns()) == upper == graph.to_samples() == list(graph.edges())


@given(undirected_samples.filter(lambda r: len(r) >= 2), st.integers(0, 2**32 - 1),
       st.floats(0.1, 0.9))
@settings(max_examples=80, deadline=None)
def test_split_order_same_for_lists_and_columns(records, seed, ratio):
    edges = [EdgeSample(u, v, s) for u, v, s in records]
    columns = EdgeColumns(*np.array(records).T)
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(len(edges))
    n_train = math.ceil(ratio * len(edges))
    from_list = split_train_test(edges, ratio, seed)
    from_columns = split_train_test(columns, ratio, seed)
    assert list(from_list.train) == [edges[i] for i in perm[:n_train]]
    assert list(from_list.test) == [edges[i] for i in perm[n_train:]]
    assert isinstance(from_list.train, EdgeColumns)
    assert isinstance(from_columns.train, EdgeColumns)
    assert list(from_columns.train) == list(from_list.train)
    assert list(from_columns.test) == list(from_list.test)


def test_graph_from_samples_rejects_conflicting_signs():
    with pytest.raises(ValueError, match=r"conflicting signs for pair \(1, 2\)"):
        graph_from_samples([EdgeSample(0, 3, 1), EdgeSample(1, 2, 1), EdgeSample(2, 1, -1)], 4)
    with pytest.raises(ValueError, match="conflicting"):
        graph_from_samples(EdgeColumns([1, 2], [2, 1], [1, -1]), 4)


@pytest.mark.parametrize(
    "u, v",
    [
        ([1], [0]),  # not canonical
        ([1], [1]),  # self loop
        ([-1], [2]),  # negative id
        ([0], [4]),  # out of range for n = 4
        ([0, 1, 0], [1, 2, 1]),  # the same pair twice
    ],
)
def test_signed_graph_rejects_bad_pairs(u, v):
    with pytest.raises(ValueError):
        SignedGraph(4, u, v, [1] * len(u))


@pytest.mark.parametrize(
    "edges, n",
    [
        (community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08), 40),
        (community_records(n=30, seed=3, p_intra=0.3, p_inter=0.15, flip=0.06), 33),
        (random_signed_records(np.random.default_rng(9), 25, edge_prob=0.3), 25),
        ([], 5),
    ],
    ids=["golden-community", "community-isolated-tail", "random", "edgeless"],
)
def test_edge_index_matches_brute_force(edges, n):
    g = graph_from_samples(edges, n)
    position = {e.pair: i for i, e in enumerate(g.edges())}
    # every ordered pair of ids in [0, n + 2): both orders, self pairs, ids past the graph
    a, b = (ids.ravel() for ids in np.meshgrid(np.arange(n + 2), np.arange(n + 2)))
    expected = [position.get((min(x, y), max(x, y)), -1) for x, y in zip(a.tolist(), b.tolist())]
    got = g.edge_index(a, b)
    assert got.dtype == np.int64
    assert got.tolist() == expected
    assert [g.sign_of(x, y) for x, y in zip(a.tolist(), b.tolist())] == [
        g.edge_columns().sign[i] if i >= 0 else 0 for i in expected
    ]


@pytest.mark.parametrize(
    "edges, n",
    [
        (community_records(n=30, seed=3, p_intra=0.3, p_inter=0.15, flip=0.06), 33),
        (random_signed_records(np.random.default_rng(9), 25, edge_prob=0.3), 25),
        ([], 5),
    ],
    ids=["community-isolated-tail", "random", "edgeless"],
)
def test_matrix_views_match_dict_oracle(edges, n):
    g = graph_from_samples(edges, n)
    signs = {e.pair: e.sign for e in edges}
    assert_csr_equal(g, n, signs)
    assert_adjacency_matches_oracle(g, n, signs)
    adj = g.signed_adjacency()
    for i in range(n):
        ids, nbr_signs = g.neighbors(i)
        assert ids.dtype.kind == "i" and nbr_signs.dtype == np.float64
        assert np.shares_memory(ids, adj.indices) or len(ids) == 0
        assert sorted(ids.tolist()) == ids.tolist() == sorted(
            v if u == i else u for u, v in signs if i in (u, v)
        )
        assert nbr_signs.tolist() == [signs[min(i, j), max(i, j)] for j in ids.tolist()]
        assert g.degree(i) == len(ids)
    assert g.positive_edge_count() == sum(s == 1 for s in signs.values())
    assert g.negative_edge_count() == sum(s == -1 for s in signs.values())


def test_signed_graph_rejects_bad_sign_and_empty_node_set():
    with pytest.raises(ValueError):
        SignedGraph(4, [0], [1], [2])
    with pytest.raises(ValueError):
        SignedGraph(0, [], [], [])


def test_edge_columns_sequence_protocol():
    columns = EdgeColumns([0, 2, 1], [1, 0, 3], [1, -1, 1])
    assert len(columns) == 3
    assert columns[1] == EdgeSample(2, 0, -1) and columns[-1] == EdgeSample(1, 3, 1)
    assert list(columns[1:]) == [EdgeSample(2, 0, -1), EdgeSample(1, 3, 1)]
    assert list(columns[np.array([2, 0])]) == [EdgeSample(1, 3, 1), EdgeSample(0, 1, 1)]
    assert EdgeSample(1, 3, 1) in columns
    with pytest.raises(IndexError):
        columns[3]
    with pytest.raises(ValueError):
        columns.u[0] = 5  # read-only
    for bad in (([0], [0], [1]), ([0], [1], [0]), ([0, 1], [1], [1]), ([0.5], [1], [1])):
        with pytest.raises(ValueError):
            EdgeColumns(*bad)
