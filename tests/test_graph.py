import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigaug.graph import (
    BuildStats,
    EdgeColumns,
    EdgeSample,
    ParseError,
    SignedGraph,
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
    It differs from the loader it was in one place only: a rating that
    overflows ``int`` raises ParseError, as the columnar loader does.
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
    signs = np.empty(indptr[-1], dtype=np.int8)
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
    indptr, indices, signs = dict_csr(num_nodes, pair_signs)
    assert graph._indptr.dtype == indptr.dtype and np.array_equal(graph._indptr, indptr)
    assert graph._indices.dtype == indices.dtype and np.array_equal(graph._indices, indices)
    assert graph._signs.dtype == signs.dtype and np.array_equal(graph._signs, signs)


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


@pytest.mark.parametrize("format", ["rating-csv", "sign-tsv"])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_columnar_load_and_build_match_dict_oracle(tmp_path_factory, format, data):
    text = data.draw(record_files(format))
    path = tmp_path_factory.mktemp("records") / "edges.txt"
    path.write_text(text)
    expected = outcome(dict_load_edge_list, path, format)
    loaded = outcome(load_edge_list, path, format)
    if expected[0] != "ok":
        assert loaded == expected
        return
    samples, original_ids, zero_dropped, loops_dropped = expected[1]
    loaded = loaded[1]
    assert isinstance(loaded.samples, EdgeColumns)
    assert list(loaded.samples) == samples
    assert loaded.original_ids == original_ids
    assert loaded.num_nodes == len(original_ids)
    assert (loaded.zero_rating_dropped, loaded.self_loops_dropped) == (zero_dropped, loops_dropped)
    assert loaded.positive_count == sum(s.sign == 1 for s in samples)
    assert loaded.negative_count == sum(s.sign == -1 for s in samples)

    n, pair_signs, stats = dict_build(samples, loaded.num_nodes)
    for edges in (loaded.samples, samples):
        graph, build_stats = build_graph(edges, num_nodes=loaded.num_nodes)
        assert build_stats == stats
        assert_csr_equal(graph, n, pair_signs)


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
