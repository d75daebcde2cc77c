import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_edge_triangles,
    brute_force_triangles,
    hub_records,
    random_signed_records,
)
from sigaug import balance
from sigaug.balance import (
    TriangleStats,
    balance_report,
    enumerate_triangles,
    global_balance_degree,
    split_totals,
)
from sigaug.graph import EdgeSample, graph_from_samples, split_train_test


def graph_of(edges, n):
    return graph_from_samples(edges, n)


def edge_balance(g, u, v):
    """The report's balanced, unbalanced, local degree and difficulty at edge (u, v)."""
    report, i = balance_report(g), int(g.edge_index(u, v))
    assert i >= 0
    return report.balanced[i], report.unbalanced[i], report.local_degree[i], report.difficulty[i]


def test_single_positive_triangle_balanced():
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)], 3)
    stats = enumerate_triangles(g)
    assert (stats.balanced, stats.unbalanced) == (1, 0)


def test_four_node_hand_instance():
    # edges: 01+, 02+, 12-, 03+, 13+  (0-based version of the hand example)
    edges = [
        EdgeSample(0, 1, 1),
        EdgeSample(0, 2, 1),
        EdgeSample(1, 2, -1),
        EdgeSample(0, 3, 1),
        EdgeSample(1, 3, 1),
    ]
    g = graph_of(edges, 4)
    stats = enumerate_triangles(g)
    assert stats.balanced == 1  # {0,1,3}
    assert stats.unbalanced == 1  # {0,1,2}
    assert brute_force_triangles(edges, 4) == (1, 1)


def test_brute_force_equivalence_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        edges = random_signed_records(rng, n, edge_prob=0.2)
        g = graph_of(edges, n)
        stats = enumerate_triangles(g)
        assert (stats.balanced, stats.unbalanced) == brute_force_triangles(edges, n)


def test_global_balance_degree_values():
    assert global_balance_degree(TriangleStats(52126, 6971)) == pytest.approx(0.8820, abs=5e-5)
    assert global_balance_degree(TriangleStats(7, 0)) == 1.0
    assert global_balance_degree(TriangleStats(1, 1)) == 0.5
    assert global_balance_degree(TriangleStats(0, 0)) is None


def test_local_degree_extremes():
    # edge (0,1) in one balanced triangle only
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)], 3)
    *_, local, difficulty = edge_balance(g, 0, 1)
    assert local == 1.0 and difficulty == 0.0

    # one balanced + one unbalanced
    g = graph_of(
        [
            EdgeSample(0, 1, 1),
            EdgeSample(0, 2, 1),
            EdgeSample(1, 2, 1),
            EdgeSample(0, 3, 1),
            EdgeSample(1, 3, -1),
        ],
        4,
    )
    *_, local, difficulty = edge_balance(g, 0, 1)
    assert local == 0.0 and difficulty == 0.5


def test_local_degree_one_balanced_three_unbalanced():
    # edge (0,1) with common neighbors 2..5: one balanced, three unbalanced
    edges = [EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)]
    for k in (3, 4, 5):
        edges += [EdgeSample(0, k, 1), EdgeSample(1, k, -1)]
    g = graph_of(edges, 6)
    b, ub, local, difficulty = edge_balance(g, 0, 1)
    assert b == 1 and ub == 3
    assert local == pytest.approx(-0.5)
    assert difficulty == pytest.approx(0.75)


def test_local_degree_triangle_free_edge_is_easiest():
    g = graph_of([EdgeSample(0, 1, -1)], 2)
    *_, local, difficulty = edge_balance(g, 0, 1)
    assert local == 1.0 and difficulty == 0.0


def test_balance_report_single_triangle():
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)], 3)
    report = balance_report(g)
    assert report.balanced.tolist() == [1, 1, 1]
    assert report.unbalanced.tolist() == [0, 0, 0]


def test_balance_report_incident_sums():
    rng = np.random.default_rng(7)
    edges = random_signed_records(rng, 30, edge_prob=0.25)
    g = graph_of(edges, 30)
    report = balance_report(g)
    b, u = brute_force_triangles(edges, 30)
    assert report.stats.balanced == b and report.stats.unbalanced == u
    assert report.balanced.sum() == 3 * b
    assert report.unbalanced.sum() == 3 * u
    assert ((report.difficulty >= 0.0) & (report.difficulty <= 1.0)).all()
    assert np.array_equal(report.difficulty == 0.0, report.unbalanced == 0)


def test_sign_flip_flips_triangle_parity():
    rng = np.random.default_rng(11)
    edges = random_signed_records(rng, 20, edge_prob=0.3)
    g = graph_of(edges, 20)
    before = enumerate_triangles(g)
    target = edges[0]
    b, ub, _, _ = edge_balance(g, target.u, target.v)
    flipped = [EdgeSample(target.u, target.v, -target.sign)] + edges[1:]
    after = enumerate_triangles(graph_of(flipped, 20))
    # every triangle through the flipped edge swaps parity; the rest keep it
    assert after.balanced == before.balanced - b + ub
    assert after.total == before.total


@st.composite
def signed_graphs(draw, signs=(0, 1, -1)):
    """(edges, num_nodes): random signs on the pairs of n nodes, plus isolated trailing nodes."""
    n = draw(st.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    drawn = draw(st.lists(st.sampled_from(signs), min_size=len(pairs), max_size=len(pairs)))
    edges = [EdgeSample(u, v, s) for (u, v), s in zip(pairs, drawn) if s]
    return edges, n + draw(st.integers(0, 3))


def _complete(n, sign):
    return [EdgeSample(u, v, sign) for u in range(n) for v in range(u + 1, n)], n


def _mixed(pairs):
    """Samples of the pairs, negative where u + v is a multiple of 3."""
    return [EdgeSample(min(u, v), max(u, v), -1 if (u + v) % 3 == 0 else 1) for u, v in pairs]


# the kernel ranks nodes by (degree, id): these tie degrees or rank a node
# away from its id's place
_STAR = (_mixed((0, k) for k in range(1, 9)), 9)
_CYCLE = (_mixed((k, (k + 1) % 7) for k in range(7)), 7)
# K_6 on 0..5 next to a 40-spoke star at 6 whose spokes take in all of K_6
_K6_AND_STAR = (
    _mixed([(u, v) for u in range(6) for v in range(u + 1, 6)]
           + [(6, k) for k in [*range(6), *range(7, 41)]]),
    41,
)
# hub 11 joined to all of 0..10, which form a path with two chords
_TOP_ID_HUB = (_mixed([(k, 11) for k in range(11)] + [(k, k + 1) for k in range(10)]
                      + [(0, 5), (2, 9)]), 12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_graphs(), signed_graphs(signs=(0, -1))))
@example(([], 1))  # one node, no edges
@example(([], 6))  # edgeless graph
@example(([EdgeSample(0, 1, -1), EdgeSample(0, 2, -1), EdgeSample(1, 2, -1)], 7))  # isolated tail
@example(_complete(6, -1))  # all negative: every triangle unbalanced
@example(_complete(6, 1))
@example(_STAR)
@example(_CYCLE)
@example(_K6_AND_STAR)
@example(_TOP_ID_HUB)
def test_balance_report_matches_per_edge_oracle(graph_spec):
    edges, n = graph_spec
    g = graph_of(edges, n)
    report = balance_report(g)
    oracle = brute_force_edge_triangles(edges, n)

    assert [(u, v) for u, v in zip(report.u.tolist(), report.v.tolist())] == sorted(oracle)
    got = dict(zip(zip(report.u.tolist(), report.v.tolist()),
                   zip(report.balanced.tolist(), report.unbalanced.tolist())))
    assert got == oracle
    assert (report.stats.balanced, report.stats.unbalanced) == brute_force_triangles(edges, n)

    for i, e in enumerate(g.edge_columns()):
        b, ub = oracle[e.pair]
        local = 1.0 if b + ub == 0 else (b - ub) / (b + ub)
        assert g.edge_index(e.u, e.v) == g.edge_index(e.v, e.u) == i
        assert (report.u[i], report.v[i], report.sign[i]) == (e.u, e.v, e.sign)
        assert edge_balance(g, e.u, e.v) == (b, ub, local, (1.0 - local) / 2.0)


def gathered_entries(graph):
    """Adjacency-row entries of both ends over all edges: the sum of deg(u) + deg(v).

    This bounds the kernel's work, which counts out-row entries only.
    """
    degree = np.diff(graph.signed_adjacency().indptr)
    edges = graph.edge_columns()
    return int((degree[edges.u] + degree[edges.v]).sum())


@pytest.mark.parametrize("budget", [1, 7, None], ids=["one-edge-per-chunk", "7", "above-total"])
def test_balance_report_chunking_matches_single_chunk(monkeypatch, budget):
    rng = np.random.default_rng(5)
    graphs = [
        (random_signed_records(rng, 40, edge_prob=0.3), 40),
        (hub_records(rng, 60, hub_degree=45, extra_edges=120), 60),  # hub edges exceed 7
    ]
    for edges, n in graphs:
        total = gathered_entries(graph_of(edges, n))
        monkeypatch.setattr(balance, "_CHUNK_WORK", total)
        whole = balance_report(graph_of(edges, n))
        monkeypatch.setattr(balance, "_CHUNK_WORK", total + 1 if budget is None else budget)
        chunked = balance_report(graph_of(edges, n))
        assert chunked.stats == whole.stats
        assert (chunked.stats.balanced, chunked.stats.unbalanced) == brute_force_triangles(edges, n)
        for name in ("u", "v", "sign", "balanced", "unbalanced"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name))
        oracle = brute_force_edge_triangles(edges, n)
        got = zip(chunked.u.tolist(), chunked.v.tolist(),
                  chunked.balanced.tolist(), chunked.unbalanced.tolist())
        assert {(u, v): (b, ub) for u, v, b, ub in got} == oracle


def test_balance_report_memory_is_bounded_on_a_hub_graph(monkeypatch):
    # one hub joined to 2,500 of 4,000 nodes: the sum of deg(u) + deg(v) over
    # the 8,500 edges is 6.3M row entries, but ordered by (degree, id) the
    # hub's 2,500 edges all point into it and its empty out-row costs nothing,
    # so the kernel's work is 31,768 out-row entries; a chunk holds at most
    # _CHUNK_WORK of them whatever the hub degree
    rng = np.random.default_rng(3)
    edges = hub_records(rng, 4000, hub_degree=2500, extra_edges=6000)
    graph = graph_of(edges, 4000)
    assert gathered_entries(graph) > 6_000_000
    work, chunks = [], []
    runs = balance._budget_runs

    def counted_runs(items, budget):
        work.append(int(items.sum()))
        for run in runs(items, budget):
            chunks.append(run)
            yield run

    def traced_report():
        del work[:], chunks[:]
        tracemalloc.start()
        try:
            report = balance_report(graph_of(edges, 4000))
            return report, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(balance, "_budget_runs", counted_runs)
    whole, whole_peak = traced_report()
    assert len(work) == 1 and work[0] < 100_000
    assert len(chunks) == 1
    monkeypatch.setattr(balance, "_CHUNK_WORK", 1 << 12)
    chunked, peak = traced_report()
    assert len(chunks) > 1
    assert peak < 48 * 2**20
    assert peak < whole_peak  # a smaller budget holds less at once
    assert chunked.stats == whole.stats
    for name in ("u", "v", "sign", "balanced", "unbalanced"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name))


def test_balance_report_is_computed_once_per_graph(kernel_calls):
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, -1)], 3)
    first = balance_report(g)
    assert balance_report(g) is first and enumerate_triangles(g) is first.stats
    assert edge_balance(g, 0, 1)[0] == 0
    assert len(kernel_calls) == 1
    with pytest.raises(ValueError):
        first.balanced[0] = 5  # shared between callers, so read-only


@st.composite
def splittable_graphs(draw):
    """(edges, num_nodes) of a random graph with at least 2 edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 24))
    edges = random_signed_records(
        rng, n, draw(st.sampled_from([0.2, 0.5, 0.9])), draw(st.sampled_from([0.2, 0.5, 0.8]))
    )
    assume(len(edges) >= 2)
    return edges, n


# a split's (ratio, seed), or a mask that keeps no edge (False) or every edge (True)
_TRAIN = st.one_of(st.tuples(st.floats(0.01, 0.99), st.integers(0, 2**16)), st.booleans())


@settings(max_examples=150, deadline=None)
@given(splittable_graphs(), _TRAIN)
@example((_mixed([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]), 5), (0.6, 1))  # no triangle
@example(_complete(6, -1), (0.8, 3))  # all negative: every kept triangle unbalanced
@example(_K6_AND_STAR, False)  # empty mask
@example(_K6_AND_STAR, True)  # all-true mask
def test_split_totals_equal_the_reports_of_the_graph_and_the_kept_subgraph(graph_spec, train):
    edges, n = graph_spec
    g = graph_of(edges, n)
    columns = g.edge_columns()
    if isinstance(train, bool):
        keep = np.full(g.edge_count, train)
        kept = columns[keep]
    else:
        split = split_train_test(columns, *train)
        for name in ("u", "v", "sign"):
            assert np.array_equal(getattr(split.train, name),
                                  getattr(columns, name)[split.train_positions])
        keep = np.zeros(g.edge_count, dtype=bool)
        keep[split.train_positions] = True
        kept = split.train
    whole, within = split_totals(g, keep)
    assert whole == balance_report(g).stats
    assert within == balance_report(graph_from_samples(kept, n)).stats


def test_split_totals_refuse_anything_but_a_mask_of_every_edge(kernel_calls):
    g = graph_of(*_complete(4, 1))
    assert split_totals(g, np.ones(6, dtype=bool)) == (balance_report(g).stats,) * 2
    kernel_calls.clear()
    for keep in (np.ones(5, dtype=bool), np.ones(6, dtype=np.int64), np.arange(3)):
        with pytest.raises(ValueError, match="boolean mask of 6 edges"):
            split_totals(g, keep)
    assert kernel_calls == []  # refused before the kernel runs
