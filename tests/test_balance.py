import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_force_edge_triangles, brute_force_triangles, random_signed_records
from sigaug import balance
from sigaug.balance import (
    TriangleStats,
    balance_report,
    enumerate_triangles,
    global_balance_degree,
    local_balance_degree,
)
from sigaug.graph import EdgeSample, graph_from_samples


def graph_of(edges, n):
    return graph_from_samples(edges, n)


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
    prof = local_balance_degree(g, EdgeSample(0, 1, 1))
    assert prof.local_degree == 1.0 and prof.difficulty == 0.0

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
    prof = local_balance_degree(g, EdgeSample(0, 1, 1))
    assert prof.local_degree == 0.0 and prof.difficulty == 0.5


def test_local_degree_one_balanced_three_unbalanced():
    # edge (0,1) with common neighbors 2..5: one balanced, three unbalanced
    edges = [EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)]
    for k in (3, 4, 5):
        edges += [EdgeSample(0, k, 1), EdgeSample(1, k, -1)]
    g = graph_of(edges, 6)
    prof = local_balance_degree(g, EdgeSample(0, 1, 1))
    assert prof.balanced_incident == 1 and prof.unbalanced_incident == 3
    assert prof.local_degree == pytest.approx(-0.5)
    assert prof.difficulty == pytest.approx(0.75)


def test_local_degree_triangle_free_edge_is_easiest():
    g = graph_of([EdgeSample(0, 1, -1)], 2)
    prof = local_balance_degree(g, EdgeSample(0, 1, -1))
    assert prof.local_degree == 1.0 and prof.difficulty == 0.0


def test_local_degree_missing_edge_errors():
    g = graph_of([EdgeSample(0, 1, 1)], 3)
    with pytest.raises(ValueError):
        local_balance_degree(g, EdgeSample(0, 2, 1))
    with pytest.raises(ValueError):
        local_balance_degree(g, EdgeSample(0, 1, -1))  # wrong sign


def test_balance_report_single_triangle():
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, 1)], 3)
    report = balance_report(g)
    assert all(
        (p.balanced_incident, p.unbalanced_incident) == (1, 0) for p in report.profiles
    )


def test_balance_report_incident_sums():
    rng = np.random.default_rng(7)
    edges = random_signed_records(rng, 30, edge_prob=0.25)
    g = graph_of(edges, 30)
    report = balance_report(g)
    b, u = brute_force_triangles(edges, 30)
    assert report.stats.balanced == b and report.stats.unbalanced == u
    assert sum(p.balanced_incident for p in report.profiles) == 3 * b
    assert sum(p.unbalanced_incident for p in report.profiles) == 3 * u
    assert all(0.0 <= p.difficulty <= 1.0 for p in report.profiles)
    for p in report.profiles:
        assert (p.difficulty == 0.0) == (p.unbalanced_incident == 0)


def test_sign_flip_flips_triangle_parity():
    rng = np.random.default_rng(11)
    edges = random_signed_records(rng, 20, edge_prob=0.3)
    g = graph_of(edges, 20)
    before = enumerate_triangles(g)
    target = edges[0]
    prof = local_balance_degree(g, target)
    flipped = [EdgeSample(target.u, target.v, -target.sign)] + edges[1:]
    after = enumerate_triangles(graph_of(flipped, 20))
    # every triangle through the flipped edge swaps parity; the rest keep it
    assert after.balanced == before.balanced - prof.balanced_incident + prof.unbalanced_incident
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


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_graphs(), signed_graphs(signs=(0, -1))))
@example(([], 1))  # one node, no edges
@example(([], 6))  # edgeless graph
@example(([EdgeSample(0, 1, -1), EdgeSample(0, 2, -1), EdgeSample(1, 2, -1)], 7))  # isolated tail
@example(_complete(6, -1))  # all negative: every triangle unbalanced
@example(_complete(6, 1))
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

    for p, e in zip(report.profiles, g.edges()):
        b, ub = oracle[e.pair]
        local = 1.0 if b + ub == 0 else (b - ub) / (b + ub)
        assert p.edge == e
        assert (p.balanced_incident, p.unbalanced_incident) == (b, ub)
        assert p.local_degree == local and p.difficulty == (1.0 - local) / 2.0
        assert local_balance_degree(g, e) == p
    assert report.difficulty.tolist() == [p.difficulty for p in report.profiles]


def test_balance_report_chunking_matches_single_chunk(monkeypatch):
    rng = np.random.default_rng(5)
    edges = random_signed_records(rng, 40, edge_prob=0.3)
    whole = balance_report(graph_of(edges, 40))
    monkeypatch.setattr(balance, "_CHUNK_EDGES", 7)
    chunked = balance_report(graph_of(edges, 40))
    assert chunked.stats == whole.stats
    for name in ("u", "v", "sign", "balanced", "unbalanced"):
        assert np.array_equal(getattr(chunked, name), getattr(whole, name))


def test_balance_report_is_computed_once_per_graph(kernel_calls):
    g = graph_of([EdgeSample(0, 1, 1), EdgeSample(0, 2, 1), EdgeSample(1, 2, -1)], 3)
    first = balance_report(g)
    assert balance_report(g) is first and enumerate_triangles(g) is first.stats
    assert local_balance_degree(g, EdgeSample(0, 1, 1)).balanced_incident == 0
    assert len(kernel_calls) == 1
    with pytest.raises(ValueError):
        first.balanced[0] = 5  # shared between callers, so read-only
