import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import community_records
from sigaug import evalbench
from sigaug.augment import AugmentConfig
from sigaug.curriculum import PacingConfig
from sigaug.encoder import EncoderConfig, EncoderState, _pair_logits, train_encoder
from sigaug.evalbench import (
    PERTURBATION_KINDS,
    GapConstants,
    _sigmoid,
    auc_rank,
    bound_value,
    compute_metrics,
    fit_logistic,
    generalization_diagnostic,
    predict_test_signs,
    random_perturbation,
    run_experiment,
    sensitivity_sweep,
)
from sigaug.graph import EdgeColumns, EdgeSample, graph_from_samples


# -- AUC -----------------------------------------------------------------------


def pairwise_auc_oracle(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == -1]
    if not pos or not neg:
        return None
    wins = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            wins += 1.0
        elif p == n:
            wins += 0.5
    return wins / (len(pos) * len(neg))


def test_auc_perfect_ranking():
    assert auc_rank([0.9, 0.8, 0.2, 0.1], [1, 1, -1, -1]) == 1.0


def test_auc_all_ties():
    assert auc_rank([0.5] * 6, [1, 1, 1, -1, -1, -1]) == 0.5


def test_auc_hand_value():
    assert auc_rank([0.9, 0.8, 0.4, 0.3], [1, -1, 1, -1]) == pytest.approx(0.75)


def test_auc_single_class_is_undefined():
    assert auc_rank([0.1, 0.9], [1, 1]) is None


@given(st.lists(st.tuples(st.integers(0, 8), st.sampled_from([1, -1])), min_size=2, max_size=80))
@settings(max_examples=200, deadline=None)
def test_auc_midranks_match_rankdata_bit_for_bit(rows):
    from scipy.stats import rankdata

    scores = np.array([s for s, _ in rows]) / 8.0
    labels = np.array([l for _, l in rows])
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        assert auc_rank(scores, labels) is None
        return
    ranks = rankdata(scores)
    assert auc_rank(scores, labels) == float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite_scores(bad):
    with pytest.raises(ValueError, match="scores must be finite"):
        compute_metrics([0.9, bad, 0.2], [1, 1, -1])


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(2, 60))
        # discretized scores force plenty of ties
        scores = rng.integers(0, 7, size=m) / 6.0
        labels = np.where(rng.random(m) < 0.5, 1, -1)
        if len(set(labels.tolist())) < 2:
            labels[0] = -labels[0]
        expected = pairwise_auc_oracle(scores.tolist(), labels.tolist())
        assert auc_rank(scores, labels) == pytest.approx(expected, abs=1e-12)


# -- F1 ------------------------------------------------------------------------


def test_f1_micro_equals_accuracy():
    rng = np.random.default_rng(3)
    scores = rng.random(200)
    labels = np.where(rng.random(200) < 0.6, 1, -1)
    metrics = compute_metrics(scores, labels)
    preds = np.where(scores >= 0.5, 1, -1)
    assert metrics.f1_micro == pytest.approx(float((preds == labels).mean()))


def test_f1_against_sklearn():
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    rng = np.random.default_rng(5)
    scores = rng.random(300)
    labels = np.where(rng.random(300) < 0.7, 1, -1)
    metrics = compute_metrics(scores, labels)
    preds = np.where(scores >= 0.5, 1, -1)
    assert metrics.f1_binary == pytest.approx(
        sklearn_metrics.f1_score(labels, preds, pos_label=1)
    )
    assert metrics.f1_micro == pytest.approx(
        sklearn_metrics.f1_score(labels, preds, average="micro")
    )
    assert metrics.f1_macro == pytest.approx(
        sklearn_metrics.f1_score(labels, preds, average="macro")
    )


def test_compute_metrics_single_class_f1_still_defined():
    metrics = compute_metrics([0.9, 0.2], [1, 1])
    assert metrics.auc is None
    assert 0.0 <= metrics.f1_binary <= 1.0


def test_compute_metrics_validation():
    with pytest.raises(ValueError):
        compute_metrics([], [])
    with pytest.raises(ValueError):
        compute_metrics([0.5], [2])


# -- downstream classifier -------------------------------------------------------


def dense_gradient(features, labels01, w, b):
    err = (_sigmoid(features @ w + b) - labels01) / len(labels01)
    return features.T @ err, float(err.sum())


def dense_fit_logistic(features, labels01, lr=0.1, steps=300, grads=None):
    """The head as first written: Adam by hand on the materialised pair matrix.

    With ``grads``, step t applies ``grads[t - 1]`` instead of the gradient
    at the current weights, which replays another fit's trajectory.
    """
    dim = features.shape[1]
    w = np.zeros(dim)
    b = 0.0
    mw = np.zeros(dim)
    vw = np.zeros(dim)
    mb = vb = 0.0
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, steps + 1):
        if grads is None:
            gw, gb = dense_gradient(features, labels01, w, b)
        else:
            gw, gb = grads[t - 1]
        mw = b1 * mw + (1 - b1) * gw
        vw = b2 * vw + (1 - b2) * gw * gw
        mb = b1 * mb + (1 - b1) * gb
        vb = b2 * vb + (1 - b2) * gb * gb
        c1 = 1 - b1**t
        c2 = 1 - b2**t
        w -= lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
        b -= lr * (mb / c1) / (math.sqrt(vb / c2) + eps)
    return w, b


def pair_embedding(feats):
    """(z, u, v) whose pair rows [z[u_i], z[v_i]] are the rows of ``feats``.

    An odd width gets one zero column, whose weight stays exactly 0.
    """
    m, width = feats.shape
    half = (width + 1) // 2
    padded = np.hstack([feats, np.zeros((m, 2 * half - width))])
    return np.vstack([padded[:, :half], padded[:, half:]]), np.arange(m), m + np.arange(m)


@st.composite
def pair_problems(draw):
    """(z, u, v, labels01): repeated pairs, nodes in no pair, all-zero embedding rows."""
    n = draw(st.integers(2, 12))
    zdim = draw(st.integers(1, 5))
    values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    z = np.asarray(draw(st.lists(values, min_size=n * zdim, max_size=n * zdim))).reshape(n, zdim)
    for row in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        z[row] = 0.0
    # pairs draw from a prefix of the nodes, so the tail may appear in none
    used = draw(st.integers(2, n))
    node = st.integers(0, used - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=1, max_size=30))
    labels = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(pairs), max_size=len(pairs)))
    u, v = (np.asarray(side, dtype=np.int64) for side in zip(*pairs))
    return z, u, v, np.asarray(labels)


# conflicting labels on repeated pairs: the optimum sits at a zero gradient,
# where Adam's constant step rattles and rounding decides the trajectory
CONFLICTING_PAIRS = (
    np.vstack([np.zeros((7, 3)), [[0.0, 0.0, 3.0]], np.zeros((1, 3))]),
    np.asarray([0, 0, 0]),
    np.asarray([1, 7, 7]),
    np.asarray([0.0, 0.0, 1.0]),
)


@settings(max_examples=40, deadline=None)
@given(pair_problems())
@example(CONFLICTING_PAIRS)
def test_node_space_logistic_follows_dense_fit_step_by_step(problem):
    """Every step's gradient is the dense one at the same weights, and Adam
    by hand on those gradients lands on the same weights bit for bit.

    The final weights are not compared with an independent dense fit: on
    problems like ``CONFLICTING_PAIRS`` Adam amplifies rounding differences
    in the gradient sums up to the size of its step.
    """
    z, u, v, labels = problem
    trace = []

    class RecordingOptimizer(evalbench._Optimizer):
        def step(self, grads):
            trace.append(([p.copy() for p in self.params], [g.copy() for g in grads]))
            super().step(grads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evalbench, "_Optimizer", RecordingOptimizer)
        w, b = fit_logistic(z, u, v, labels)
    features = np.hstack([z[u], z[v]])
    for (w_t, b_t), (gw, gb) in trace:
        gw_dense, gb_dense = dense_gradient(features, labels, w_t, b_t[0])
        np.testing.assert_allclose(gw, gw_dense, rtol=1e-12, atol=1e-12)
        assert gb[0] == pytest.approx(gb_dense, rel=1e-12, abs=1e-12)
    replayed = [(gw, gb[0]) for _, (gw, gb) in trace]
    w_replay, b_replay = dense_fit_logistic(features, labels, grads=replayed)
    assert np.array_equal(w, w_replay) and b == b_replay
    np.testing.assert_allclose(
        _sigmoid(_pair_logits(z, w, u, v) + b), _sigmoid(features @ w + b), rtol=1e-12, atol=1e-12
    )


def test_node_space_logistic_matches_dense_fit_on_trained_embeddings():
    edges = community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08)
    graph = graph_from_samples(edges, 40)
    z = train_encoder(graph, edges, EncoderConfig(embed_dim=8, epochs=20)).embeddings
    u = np.asarray([e.u for e in edges])
    v = np.asarray([e.v for e in edges])
    labels = np.asarray([1.0 if e.sign == 1 else 0.0 for e in edges])
    w, b = fit_logistic(z, u, v, labels)
    features = np.hstack([z[u], z[v]])
    w_dense, b_dense = dense_fit_logistic(features, labels)
    np.testing.assert_allclose(w, w_dense, rtol=1e-12, atol=1e-12)
    assert b == pytest.approx(b_dense, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(
        _sigmoid(_pair_logits(z, w, u, v) + b),
        _sigmoid(features @ w_dense + b_dense),
        rtol=1e-12,
        atol=1e-12,
    )


@pytest.mark.xfail(
    strict=True,
    reason="the sign head is linear in [z_u, z_v] and cannot express sign = c_u * c_v; "
    "on community-ordered ids the u < v orientation alone separates the signs",
)
def test_sign_head_beats_chance_on_a_planted_graph_with_shuffled_ids():
    # Ids are permuted because the generator numbers each community contiguously:
    # with u < v, a cross-community pair then always has u in the first community,
    # and a linear head separates the signs from that (AUC about 0.95 here)
    edges = community_records(n=200, seed=0, p_intra=0.1, p_inter=0.05, flip=0.05)
    perm = np.random.default_rng(1).permutation(200)
    shuffled = [EdgeSample(int(perm[e.u]), int(perm[e.v]), e.sign) for e in edges]
    report = run_experiment(shuffled, "baseline", [0, 1, 2],
                            enc_cfg=EncoderConfig(embed_dim=16, epochs=30))
    assert np.mean(report.metric_values("auc")) >= 0.6


def test_logistic_matches_grid_search_oracle():
    feats = np.asarray(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [1.0, 1.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [2.0, 1.0],
            [1.0, 2.0],
            [0.5, 0.5],
        ]
    )
    labels = np.asarray([1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0])

    def bce(w1, w2, b):
        z = feats[:, 0] * w1 + feats[:, 1] * w2 + b
        p = 1.0 / (1.0 + np.exp(-z))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return float(-(labels * np.log(p) + (1 - labels) * np.log(1 - p)).mean())

    # gradient-free fit: iteratively refined grid over (w1, w2, b)
    center, width = (0.0, 0.0, 0.0), 8.0
    for _ in range(8):
        best = None
        grid = np.linspace(-width, width, 9)
        for dw1 in grid:
            for dw2 in grid:
                for db in grid:
                    cand = (center[0] + dw1, center[1] + dw2, center[2] + db)
                    val = bce(*cand)
                    if best is None or val < best[0]:
                        best = (val, cand)
        center = best[1]
        width /= 3.0
    w_oracle = np.asarray(center[:2])
    b_oracle = center[2]

    w_fit, b_fit = fit_logistic(*pair_embedding(feats), labels)
    p_oracle = 1.0 / (1.0 + np.exp(-(feats @ w_oracle + b_oracle)))
    p_fit = 1.0 / (1.0 + np.exp(-(feats @ w_fit + b_fit)))
    assert np.abs(p_fit - p_oracle).max() <= 0.05


def separable_state():
    z = np.zeros((6, 2))
    z[:3, 0] = 1.0  # community A
    z[3:, 1] = 1.0  # community B
    return EncoderState(
        pos_weights=[np.zeros((1, 2))],
        neg_weights=[np.zeros((1, 2))],
        mlg_weights=np.zeros((4, 3)),
        input_features=np.zeros((6, 1)),
        embeddings=z,
        epochs_trained=1,
    )


SEPARABLE_TRAIN = [
    EdgeSample(0, 1, 1),
    EdgeSample(1, 2, 1),
    EdgeSample(3, 4, 1),
    EdgeSample(4, 5, 1),
    EdgeSample(0, 3, -1),
    EdgeSample(1, 4, -1),
    EdgeSample(2, 5, -1),
]


def test_predict_test_signs_separable_all_correct():
    state = separable_state()
    train = SEPARABLE_TRAIN
    test = [EdgeSample(0, 2, 1), EdgeSample(3, 5, 1), EdgeSample(2, 4, -1), EdgeSample(0, 5, -1)]
    scores, labels = predict_test_signs(state, train, test)
    preds = np.where(scores >= 0.5, 1, -1)
    assert (preds == labels).all()
    # deterministic: zero-init optimizer, no randomness
    scores2, _ = predict_test_signs(state, train, test)
    assert np.array_equal(scores, scores2)


@pytest.mark.filterwarnings("error")
def test_logistic_head_silent_on_separable_data():
    # features of +-1e4 push the logits far past exp's float64 range
    feats = np.asarray([[1e4], [2e4], [-1e4], [-2e4]])
    w, b = fit_logistic(*pair_embedding(feats), np.asarray([1.0, 1.0, 0.0, 0.0]))
    assert np.isfinite(w).all() and math.isfinite(b)

    state = separable_state()
    state.embeddings = 1e4 * state.embeddings
    train = SEPARABLE_TRAIN
    test = [EdgeSample(0, 2, 1), EdgeSample(3, 5, 1), EdgeSample(2, 4, -1), EdgeSample(0, 5, -1)]
    scores, labels = predict_test_signs(state, train, test)
    assert np.array_equal(np.where(scores >= 0.5, 1, -1), labels)
    diag = generalization_diagnostic(state, train, test)
    assert math.isfinite(diag.train_error) and math.isfinite(diag.test_error)


def test_predict_test_signs_single_class_errors():
    state = separable_state()
    train = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1)]
    with pytest.raises(ValueError):
        predict_test_signs(state, train, [EdgeSample(0, 2, 1)])


def test_sign_head_needs_embeddings():
    state = separable_state()
    state.embeddings = None
    test = [EdgeSample(0, 2, 1)]
    with pytest.raises(ValueError, match="no embeddings"):
        predict_test_signs(state, SEPARABLE_TRAIN, test)
    with pytest.raises(ValueError, match="no embeddings"):
        generalization_diagnostic(state, SEPARABLE_TRAIN, test)


# -- random perturbations ----------------------------------------------------------


def edges_mixed(n_pos=70, n_neg=30):
    edges = []
    idx = 0
    for _ in range(n_pos):
        edges.append(EdgeSample(idx, idx + 1, 1))
        idx += 2
    for _ in range(n_neg):
        edges.append(EdgeSample(idx, idx + 1, -1))
        idx += 2
    return edges


def list_random_perturbation(train, kind, ratio, seed, num_nodes=None):
    """The per-sample perturbation, kept as an oracle for the columnar code."""
    edges = [e.canonical() for e in train]
    if ratio == 0.0:
        return edges
    if num_nodes is None:
        num_nodes = 1 + max(max(e.u, e.v) for e in edges)
    rng = np.random.Generator(np.random.PCG64(seed))
    count = math.ceil(ratio * len(edges))
    if kind.startswith("add-"):
        sign = 1 if kind == "add-pos" else -1
        occupied = {e.pair for e in edges}
        if count > num_nodes * (num_nodes - 1) // 2 - len(occupied):
            raise ValueError("not enough absent pairs to add")
        added = []
        while len(added) < count:
            a, b = int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes))
            pair = (min(a, b), max(a, b))
            if a != b and pair not in occupied:
                occupied.add(pair)
                added.append(EdgeSample(*pair, sign))
        return edges + added
    pool = [i for i, e in enumerate(edges)
            if kind in ("drop-edge", "flip-sign") or e.sign == (1 if kind == "del-pos" else -1)]
    chosen = set(rng.choice(pool, size=count, replace=False).tolist()) if count else set()
    if kind == "flip-sign":
        return [EdgeSample(e.u, e.v, -e.sign) if i in chosen else e for i, e in enumerate(edges)]
    return [e for i, e in enumerate(edges) if i not in chosen]


@given(
    st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14), st.sampled_from([1, -1]))
             .filter(lambda r: r[0] != r[1]), min_size=1, max_size=30),
    st.sampled_from(PERTURBATION_KINDS),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 15, 40]),
)
@settings(max_examples=150, deadline=None)
def test_perturbation_matches_list_oracle(rows, kind, ratio, seed, num_nodes):
    train = [EdgeSample(*r) for r in rows]
    try:
        expected = list_random_perturbation(train, kind, ratio, seed, num_nodes)
    except ValueError:  # a del-* pool too small, or too few absent pairs
        with pytest.raises(ValueError):
            random_perturbation(train, kind, ratio, seed, num_nodes)
        return
    for edges in (train, EdgeColumns(*np.array(rows).T)):
        assert list(random_perturbation(edges, kind, ratio, seed, num_nodes)) == expected


def test_perturbation_ratio_zero_is_identity():
    edges = edges_mixed()
    assert list(random_perturbation(edges, "drop-edge", 0.0, seed=1)) == edges


def test_perturbation_drop_count():
    edges = edges_mixed(70, 30)
    out = random_perturbation(edges, "drop-edge", 0.1, seed=2)
    assert len(out) == 90
    assert set(out) <= set(edges)


def test_perturbation_flip_all_swaps_counts():
    edges = edges_mixed(70, 30)
    out = random_perturbation(edges, "flip-sign", 1.0, seed=3)
    assert sum(1 for e in out if e.sign == 1) == 30
    assert sum(1 for e in out if e.sign == -1) == 70


def test_perturbation_del_pos_pool_too_small():
    edges = edges_mixed(20, 80)
    with pytest.raises(ValueError):
        random_perturbation(edges, "del-pos", 0.5, seed=0)  # needs 50, pool has 20


def test_perturbation_add_inserts_absent_pairs():
    edges = edges_mixed(10, 5)
    out = random_perturbation(edges, "add-neg", 0.2, seed=4, num_nodes=40)
    added = [e for e in out if e not in edges]
    assert len(added) == 3  # ceil(0.2 * 15)
    assert all(e.sign == -1 for e in added)
    existing = {e.pair for e in edges}
    assert all(e.pair not in existing for e in added)


def test_perturbation_deterministic():
    edges = edges_mixed()
    a = random_perturbation(edges, "drop-edge", 0.3, seed=9)
    b = random_perturbation(edges, "drop-edge", 0.3, seed=9)
    assert list(a) == list(b)


def test_perturbation_of_empty_edge_set_fails_clearly():
    with pytest.raises(ValueError, match="edge set is empty"):
        random_perturbation([], "add-pos", 0.5, seed=0)


def test_perturbation_validation():
    edges = edges_mixed()
    with pytest.raises(ValueError):
        random_perturbation(edges, "nuke", 0.1, seed=0)
    with pytest.raises(ValueError):
        random_perturbation(edges, "drop-edge", 1.5, seed=0)


# -- generalization bound ------------------------------------------------------------


def test_bound_hand_value():
    constants = GapConstants(alpha_lx=1, alpha_ly=1, alpha_f=1, m_const=1, eta=0.01, t=1)
    value = bound_value(constants, beta=1.0, theta=1.0, n_train_edges=100)
    assert value == pytest.approx(2 + math.sqrt(2) * 1.01 / 100, rel=1e-12)
    assert value == pytest.approx(2.01428, abs=5e-6)


def test_bound_strictly_decreasing_and_limit():
    constants = GapConstants(alpha_lx=1, alpha_ly=1, alpha_f=1, m_const=1, eta=1.0, t=1.0)
    values = [bound_value(constants, 1.0, 1.0, n) for n in (100, 1_000, 10_000, 1_000_000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert bound_value(constants, 1.0, 1.0, 10**9) - 2.0 * constants.alpha_lx < 1e-6
    assert bound_value(constants, 1.0, 1.0, 200) < bound_value(constants, 1.0, 1.0, 100)


def test_bound_validation():
    with pytest.raises(ValueError):
        GapConstants(alpha_lx=0)
    with pytest.raises(ValueError):
        bound_value(GapConstants(), 1.0, 1.0, 0)


def test_gap_diagnostic_zero_when_train_equals_test():
    state = separable_state()
    edges = [
        EdgeSample(0, 1, 1),
        EdgeSample(3, 4, 1),
        EdgeSample(0, 3, -1),
        EdgeSample(1, 4, -1),
    ]
    diag = generalization_diagnostic(state, edges, edges)
    assert diag.empirical_gap == 0.0
    assert diag.z_inf_norm == 1.0
    assert diag.n_train_edges == 4
    assert diag.bound_value > 0


# -- experiment orchestration ----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_setup():
    edges = community_records(n=26, seed=8, p_intra=0.35, p_inter=0.2, flip=0.08)
    enc = EncoderConfig(embed_dim=8, epochs=30, seed=0)
    return edges, enc


def test_noop_sga_is_metric_identical_to_baseline(tiny_setup):
    edges, enc = tiny_setup
    noop = AugmentConfig(eps_add_pos=1.0, eps_add_neg=1.0, eps_del_pos=0.0, eps_del_neg=0.0)
    pace1 = PacingConfig(lambda0=1.0, big_t=1, total_epochs=30)
    base = run_experiment(edges, "baseline", [0, 1], enc_cfg=enc)
    noop_sga = run_experiment(edges, "sga", [0, 1], enc_cfg=enc, aug_cfg=noop, pace_cfg=pace1)
    for b, s in zip(base.results, noop_sga.results):
        assert b.metrics == s.metrics


def test_random_ratio_zero_equals_baseline(tiny_setup):
    edges, enc = tiny_setup
    base = run_experiment(edges, "baseline", [0], enc_cfg=enc)
    rnd = run_experiment(edges, "random:drop-edge,0.0", [0], enc_cfg=enc)
    assert base.results[0].metrics == rnd.results[0].metrics


def test_run_experiment_records_densities_and_balance(tiny_setup):
    edges, enc = tiny_setup
    rep = run_experiment(edges, "sa-only", [0], enc_cfg=enc,
                         aug_cfg=AugmentConfig(eps_del_pos=0.15, eps_del_neg=0.15))
    r = rep.results[0]
    assert r.augmentation is not None
    assert r.n_train_final == len(r.final_train)
    assert r.density_before > 0 and r.density_after > 0
    assert rep.aggregate()["auc"]["n"] == 1


@pytest.mark.parametrize("pipeline, per_seed", [("baseline", 1), ("sga", 2)])
def test_balance_kernel_evaluations_per_seed(tiny_setup, kernel_calls, pipeline, per_seed):
    # baseline scores, trains and reports on its one train graph; sga
    # evaluates the train graph and augment's result graph, which it then
    # scores, trains and reports on
    edges, enc = tiny_setup
    run_experiment(edges, pipeline, [0, 1], enc_cfg=enc)
    assert len(kernel_calls) == 2 * per_seed


@pytest.mark.parametrize(
    "pipeline",
    ["baseline", "sga", "sa-only", "tp-only", *(f"random:{k},0.1" for k in PERTURBATION_KINDS)],
)
def test_run_experiment_on_columns_builds_no_edge_samples(monkeypatch, pipeline):
    edges = graph_from_samples(
        community_records(n=40, seed=21, p_intra=0.3, p_inter=0.15, flip=0.08), 40
    ).edge_columns()
    built = []
    post_init = EdgeSample.__post_init__
    monkeypatch.setattr(EdgeSample, "__post_init__", lambda e: built.append(e) or post_init(e))
    aug = AugmentConfig(eps_add_pos=0.6, eps_add_neg=0.6, eps_del_pos=0.2, eps_del_neg=0.2)
    report = run_experiment(edges, pipeline, [3, 4], enc_cfg=EncoderConfig(embed_dim=8, epochs=20),
                            aug_cfg=aug, diagnostic=True)
    assert len(report.results) == 2
    assert built == []


def test_diagnostic_run_fits_the_sign_head_once_per_seed(tiny_setup, monkeypatch):
    edges, enc = tiny_setup
    fits = []
    fit = evalbench.fit_logistic
    monkeypatch.setattr(evalbench, "fit_logistic", lambda *a, **k: fits.append(1) or fit(*a, **k))
    report = run_experiment(edges, "baseline", [0, 1], enc_cfg=enc, diagnostic=True)
    assert len(fits) == 2
    assert all(r.diagnostic is not None for r in report.results)


def test_run_experiment_on_empty_edge_set_fails_clearly():
    with pytest.raises(ValueError, match="edge set is empty"):
        run_experiment([], "baseline", [0])


def test_run_experiment_unknown_pipeline(tiny_setup):
    edges, enc = tiny_setup
    with pytest.raises(ValueError):
        run_experiment(edges, "magic", [0], enc_cfg=enc)
    with pytest.raises(ValueError):
        run_experiment(edges, "random:drop-edge", [0], enc_cfg=enc)


def test_run_experiment_takes_a_built_graph(tiny_setup):
    edges, enc = tiny_setup
    graph = graph_from_samples(edges, 26)
    on_samples = run_experiment(edges, "sga", [0], enc_cfg=enc)
    on_graph = run_experiment(graph, "sga", [0], enc_cfg=enc)
    assert evalbench.report_payload(on_graph) == evalbench.report_payload(on_samples)


@pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, math.nan])
def test_run_experiment_rejects_a_ratio_outside_the_unit_interval(tiny_setup, monkeypatch, ratio):
    edges, enc = tiny_setup

    def no_split(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(evalbench, "split_train_test", no_split)
    with pytest.raises(ValueError, match="ratio must be in"):
        run_experiment(edges, "baseline", [0], enc_cfg=enc, ratio=ratio)
    with pytest.raises(ValueError, match="ratio must be in"):
        sensitivity_sweep(edges, "lambda0", [0.5], seeds=[0], enc_cfg=enc, ratio=ratio)


@pytest.mark.parametrize("pipeline, seeds, message", [
    ("baseline", [3, 3, 5], "repeat a seed"),
    ("random:drop-edge,1.5", [0], r"ratio must be in \[0, 1\]"),
    ("random:add-pos,nan", [0], r"ratio must be in \[0, 1\]"),
])
def test_run_experiment_rejects_repeated_seeds_and_random_ratios(
    tiny_setup, monkeypatch, pipeline, seeds, message
):
    edges, enc = tiny_setup

    def no_split(*args, **kwargs):
        raise AssertionError("a seed ran")

    monkeypatch.setattr(evalbench, "split_train_test", no_split)
    with pytest.raises(ValueError, match=message):
        run_experiment(edges, pipeline, seeds, enc_cfg=enc)
    with pytest.raises(ValueError, match=message):
        sensitivity_sweep(edges, "eps_add_pos", [0.9], pipeline, seeds=seeds, enc_cfg=enc)


def test_run_experiment_rejects_pacing_over_other_epochs(tiny_setup):
    edges, _ = tiny_setup
    pace = PacingConfig(lambda0=0.5, big_t=5, total_epochs=300)
    with pytest.raises(ValueError, match="total_epochs = 300 disagrees with .* epochs = 10"):
        run_experiment(edges, "tp-only", [0], enc_cfg=EncoderConfig(epochs=10), pace_cfg=pace)


def test_sweep_single_value_matches_run(tiny_setup):
    edges, enc = tiny_setup
    pace = PacingConfig(lambda0=0.25, big_t=15, total_epochs=30)
    rows = sensitivity_sweep(edges, "lambda0", [0.25], pipeline="tp-only",
                             seeds=[0, 1], enc_cfg=enc, pace_cfg=pace)
    rep = run_experiment(edges, "tp-only", [0, 1], enc_cfg=enc, pace_cfg=pace)
    agg = rep.aggregate()
    assert len(rows) == 1
    assert rows[0]["auc_mean"] == agg["auc"]["mean"]
    assert rows[0]["f1_binary_mean"] == agg["f1_binary"]["mean"]


def test_sweep_reuses_pretrained_encoder(tiny_setup):
    edges, enc = tiny_setup
    rows = sensitivity_sweep(
        edges,
        "eps_add_pos",
        [0.8, 0.9, 0.95],
        pipeline="sga",
        seeds=[0],
        enc_cfg=enc,
    )
    assert len(rows) == 3
    curves = [row["pretrain_curves"][0] for row in rows]
    assert curves[0] == curves[1] == curves[2]
    assert len(curves[0]) == enc.epochs


def test_sweep_validation(tiny_setup, monkeypatch):
    edges, enc = tiny_setup

    def no_run(*args, **kwargs):
        raise AssertionError("a value ran before every value was checked")

    monkeypatch.setattr(evalbench, "run_experiment", no_run)
    with pytest.raises(ValueError):
        sensitivity_sweep(edges, "embed_dim", [8], enc_cfg=enc)
    with pytest.raises(ValueError):
        sensitivity_sweep(edges, "lambda0", [], enc_cfg=enc)
    # enc has 30 epochs, so big_t = 40 is out of range
    with pytest.raises(ValueError, match="big_t must be in"):
        sensitivity_sweep(edges, "big_t", [2, 40], seeds=[0], enc_cfg=enc)
    with pytest.raises(ValueError, match="eps_del_neg must be in"):
        sensitivity_sweep(edges, "eps_del_neg", [0.1, 1.5], seeds=[0], enc_cfg=enc)


def _leaves_scipy_stats_unloaded(code: str) -> bool:
    """Whether a fresh interpreter that runs ``code`` has not imported scipy.stats."""
    src = str(Path(evalbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code += "\nimport sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip() == "False"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats would cost most of sigaug's import time, and nothing needs it
    assert _leaves_scipy_stats_unloaded("import sigaug")


def test_an_experiment_leaves_scipy_stats_unloaded():
    # AUC midranks come from numpy, so a whole run never imports scipy.stats
    assert _leaves_scipy_stats_unloaded(
        "from sigaug import EdgeSample, EncoderConfig, run_experiment\n"
        "edges = [EdgeSample(u, v, 1 if (u < 4) == (v < 4) else -1)\n"
        "         for u in range(8) for v in range(u + 1, 8)]\n"
        "report = run_experiment(edges, 'sga', [0], enc_cfg=EncoderConfig(embed_dim=4, epochs=4))\n"
        "assert report.results[0].metrics.auc is not None"
    )
