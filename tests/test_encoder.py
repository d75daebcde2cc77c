import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import community_records, random_signed_records
from sigaug import encoder
from sigaug.augment import AugmentConfig
from sigaug.curriculum import PacingConfig
from sigaug.encoder import (
    CLASS_NONE,
    CLASS_POS,
    INPUT_FEATURES,
    EncoderConfig,
    EncoderState,
    TrainingDivergedError,
    _adjacency_pair,
    _as_index_arrays,
    _backward,
    _forward,
    _loss_and_mlg_grads,
    _pair_logits,
    _sample_absent_pairs,
    forward,
    init_state,
    load_checkpoint,
    mlg_loss,
    pair_class_probabilities,
    save_checkpoint,
    train_encoder,
)
from sigaug.graph import EdgeSample, graph_from_samples


def random_graph(seed=7, n=10, edge_prob=0.4):
    rng = np.random.default_rng(seed)
    edges = random_signed_records(rng, n, edge_prob=edge_prob)
    return edges, graph_from_samples(edges, n)


# -- initialization -----------------------------------------------------------


def test_init_deterministic():
    _, g = random_graph()
    cfg = EncoderConfig(embed_dim=8, seed=5)
    a, b = init_state(g, cfg), init_state(g, cfg)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert np.array_equal(a.input_features, b.input_features)


def test_init_weight_bound_and_shapes():
    _, g = random_graph(n=12)
    cfg = EncoderConfig(embed_dim=64, layers=2, seed=0)
    state = init_state(g, cfg)
    bound1 = math.sqrt(6.0 / (64 + 2 * 64))
    assert state.pos_weights[0].shape == (64, 128)
    assert state.neg_weights[0].shape == (64, 128)
    assert state.pos_weights[1].shape == (64, 192)
    assert state.neg_weights[1].shape == (64, 192)
    assert np.abs(state.pos_weights[0]).max() <= bound1
    # the documented bound for equal fan-in/fan-out 64
    assert math.sqrt(6.0 / 128) == pytest.approx(0.2165, abs=5e-5)
    sq = math.sqrt(6.0 / 128)
    square = np.random.Generator(np.random.PCG64(0)).uniform(-sq, sq, (64, 64))
    assert np.abs(square).max() <= sq


def test_init_input_feature_modes():
    _, g = random_graph(n=9)
    spectral = init_state(g, EncoderConfig(embed_dim=4, seed=1))
    assert spectral.input_features.shape == (9, 4)
    assert np.isfinite(spectral.input_features).all()
    assert np.abs(spectral.input_features).sum() > 0

    rand_state = init_state(g, EncoderConfig(embed_dim=4, seed=1, input_features="seeded-random"))
    assert rand_state.input_features.shape == (9, 4)
    assert np.abs(rand_state.input_features).max() <= 1.0


def test_spectral_features_deterministic_and_padded():
    _, g = random_graph(seed=11, n=7, edge_prob=0.5)
    a = init_state(g, EncoderConfig(embed_dim=10, seed=3))
    b = init_state(g, EncoderConfig(embed_dim=10, seed=3))
    assert np.array_equal(a.input_features, b.input_features)
    # rank is capped at n - 1 = 6; remaining columns stay zero
    assert all(a.input_features[:, j].any() for j in range(6))
    assert (a.input_features[:, 6:] == 0).all()


# -- forward pass ---------------------------------------------------------------


def dense_forward_oracle(edges, n, state):
    """Independent per-node implementation with explicit loops."""
    a_pos = [[0.0] * n for _ in range(n)]
    a_neg = [[0.0] * n for _ in range(n)]
    for e in edges:
        target = a_pos if e.sign == 1 else a_neg
        target[e.u][e.v] = target[e.v][e.u] = 1.0
    for mat in (a_pos, a_neg):
        for i in range(n):
            deg = sum(mat[i])
            if deg > 0:
                mat[i] = [x / deg for x in mat[i]]
    h_pos = h_neg = None
    h0 = [list(map(float, row)) for row in state.input_features]
    for layer, (w_pos, w_neg) in enumerate(zip(state.pos_weights, state.neg_weights)):
        new_pos, new_neg = [], []
        for i in range(n):
            if layer == 0:
                agg_p = [sum(a_pos[i][j] * h0[j][k] for j in range(n)) for k in range(len(h0[0]))]
                agg_n = [sum(a_neg[i][j] * h0[j][k] for j in range(n)) for k in range(len(h0[0]))]
                x_p = agg_p + h0[i]
                x_n = agg_n + h0[i]
            else:
                d = len(h_pos[0])
                ap_p = [sum(a_pos[i][j] * h_pos[j][k] for j in range(n)) for k in range(d)]
                an_n = [sum(a_neg[i][j] * h_neg[j][k] for j in range(n)) for k in range(d)]
                ap_n = [sum(a_pos[i][j] * h_neg[j][k] for j in range(n)) for k in range(d)]
                an_p = [sum(a_neg[i][j] * h_pos[j][k] for j in range(n)) for k in range(d)]
                x_p = ap_p + an_n + h_pos[i]
                x_n = ap_n + an_p + h_neg[i]
            new_pos.append([max(0.0, sum(w * x for w, x in zip(row, x_p))) for row in w_pos])
            new_neg.append([max(0.0, sum(w * x for w, x in zip(row, x_n))) for row in w_neg])
        h_pos, h_neg = new_pos, new_neg
    return np.asarray([h_pos[i] + h_neg[i] for i in range(n)])


def test_forward_matches_dense_oracle():
    edges, g = random_graph(seed=3, n=11, edge_prob=0.35)
    state = init_state(g, EncoderConfig(embed_dim=5, layers=2, seed=9))
    z = forward(g, state)
    expected = dense_forward_oracle(edges, 11, state)
    np.testing.assert_allclose(z, expected, atol=1e-10, rtol=0)


def test_forward_no_negative_edges_uses_self_block_only():
    edges = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1)]
    g = graph_from_samples(edges, 3)
    state = init_state(g, EncoderConfig(embed_dim=4, layers=1, seed=2))
    z = forward(g, state)
    d0 = state.input_features.shape[1]
    h_neg = np.maximum(state.input_features @ state.neg_weights[0][:, d0:].T, 0.0)
    np.testing.assert_allclose(z[:, 4:], h_neg, atol=1e-12)


def test_forward_permutation_equivariance():
    edges, g = random_graph(seed=5, n=9, edge_prob=0.4)
    cfg = EncoderConfig(embed_dim=4, layers=2, seed=4)
    state = init_state(g, cfg)
    z = forward(g, state)

    rng = np.random.default_rng(0)
    perm = rng.permutation(9)
    relabeled = [
        EdgeSample(int(perm[e.u]), int(perm[e.v]), e.sign).canonical() for e in edges
    ]
    g2 = graph_from_samples(relabeled, 9)
    state2 = init_state(g2, cfg)
    state2.input_features = state.input_features[np.argsort(perm)]
    z2 = forward(g2, state2)
    np.testing.assert_allclose(z2[perm], z, atol=1e-12)


def test_forward_nonfinite_names_layer():
    _, g = random_graph(n=6)
    state = init_state(g, EncoderConfig(embed_dim=4, layers=2, seed=0))
    state.pos_weights[1][:] = np.inf
    with pytest.raises(FloatingPointError, match="layer 2"):
        forward(g, state)


# -- classifier loss -------------------------------------------------------------


def test_mlg_loss_uniform_when_theta_zero():
    z = np.random.default_rng(0).normal(size=(5, 6))
    theta = np.zeros((12, 3))
    samples = [(0, 1, 1), (1, 2, -1), (3, 4, 0)]
    assert mlg_loss(z, samples, theta) == pytest.approx(math.log(3), abs=1e-12)


def test_mlg_loss_hand_evaluation():
    z = np.asarray([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.5]])
    rng = np.random.default_rng(3)
    theta = rng.normal(scale=0.7, size=(4, 3))
    samples = [(0, 1, 1), (1, 2, -1), (2, 3, 0), (0, 3, 1)]
    cls = {1: 0, -1: 1, 0: 2}
    total = 0.0
    for u, v, label in samples:
        feat = list(z[u]) + list(z[v])
        logits = [sum(f * theta[i][q] for i, f in enumerate(feat)) for q in range(3)]
        denom = sum(math.exp(l) for l in logits)
        total += -math.log(math.exp(logits[cls[label]]) / denom)
    expected = total / len(samples)
    assert mlg_loss(z, samples, theta) == pytest.approx(expected, rel=1e-12)


def test_mlg_loss_vanishes_with_large_margin():
    z = np.asarray([[1.0, 0.0], [1.0, 0.0]])
    theta = np.zeros((4, 3))
    theta[0, 0] = 1000.0  # huge correct-class logit for class "+"
    assert mlg_loss(z, [(0, 1, 1)], theta) < 1e-9


def test_mlg_loss_empty_errors():
    with pytest.raises(ValueError):
        mlg_loss(np.zeros((2, 2)), [], np.zeros((4, 3)))


# -- gradients --------------------------------------------------------------------


@pytest.mark.parametrize("seed", [7, 19])
def test_gradients_match_finite_differences(seed):
    edges, g = random_graph(seed=seed, n=10, edge_prob=0.4)
    state = init_state(g, EncoderConfig(embed_dim=5, layers=2, seed=seed + 1))
    a_pos, a_neg = _adjacency_pair(g)
    a_pos_t, a_neg_t = a_pos.T.tocsr(), a_neg.T.tocsr()
    samples = [(e.u, e.v, e.sign) for e in edges] + [(0, 9, 0), (2, 7, 0)]
    u, v, cls = _as_index_arrays(samples)

    z, caches = _forward(a_pos, a_neg, state, keep_caches=True)
    _, g_theta, dz = _loss_and_mlg_grads(z, state.mlg_weights, u, v, cls)
    d = state.embed_dim
    g_pos, g_neg = _backward(a_pos_t, a_neg_t, state, caches, dz[:, :d], dz[:, d:])
    analytic = [*g_pos, *g_neg, g_theta]

    def loss_now():
        zz, _ = _forward(a_pos, a_neg, state)
        return mlg_loss(zz, samples, state.mlg_weights)

    h = 1e-5
    for block, grad in zip(state.parameters(), analytic):
        numeric = np.zeros_like(block)
        it = np.nditer(block, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = block[idx]
            block[idx] = orig + h
            up = loss_now()
            block[idx] = orig - h
            down = loss_now()
            block[idx] = orig
            numeric[idx] = (up - down) / (2 * h)
            it.iternext()
        rel = np.linalg.norm(grad - numeric) / max(
            np.linalg.norm(grad), np.linalg.norm(numeric), 1e-12
        )
        assert rel < 1e-4, f"block {block.shape}: relative error {rel}"


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_backward_masks_dz_halves_in_place_bit_for_bit(layers):
    edges, g = random_graph(seed=layers, n=30, edge_prob=0.3)
    state = init_state(g, EncoderConfig(embed_dim=7, layers=layers, seed=layers))
    a_pos, a_neg = _adjacency_pair(g)
    u, v, cls = _as_index_arrays([(e.u, e.v, e.sign) for e in edges] + [(0, 29, 0), (3, 8, 0)])
    d = state.embed_dim
    z, caches = _forward(a_pos, a_neg, state, keep_caches=True)
    active = caches[-1][2]
    _, _, dz = _loss_and_mlg_grads(z, state.mlg_weights, u, v, cls, dz_out=z)
    halves = dz[:, :d].copy(), dz[:, d:].copy()
    expected = _backward(a_pos.T, a_neg.T, state, list(caches), *halves)
    unmasked = dz.copy()
    got = _backward(a_pos.T, a_neg.T, state, caches, dz[:, :d], dz[:, d:])
    for want, have in zip([*expected[0], *expected[1]], [*got[0], *got[1]]):
        assert np.array_equal(want, have)
    # the given halves now hold the last layer's pre-activation gradients
    assert np.array_equal(dz, unmasked * active)
    assert np.array_equal(dz, np.hstack(halves))


def add_at_mlg_grads(z, theta, u, v, cls):
    """_loss_and_mlg_grads as first written, scattering with np.add.at."""
    m = len(u)
    zdim = z.shape[1]
    logits = _pair_logits(z, theta, u, v)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    norm = expv.sum(axis=1)
    loss = float((np.log(norm) - shifted[np.arange(m), cls]).mean())
    dlogits = expv / norm[:, None]
    dlogits[np.arange(m), cls] -= 1.0
    dlogits /= m
    mu = np.zeros((z.shape[0], 3))
    mv = np.zeros((z.shape[0], 3))
    np.add.at(mu, u, dlogits)
    np.add.at(mv, v, dlogits)
    return loss, np.vstack([z.T @ mu, z.T @ mv]), mu @ theta[:zdim].T + mv @ theta[zdim:].T


def test_mlg_grads_scatter_matches_add_at_bit_for_bit():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((12, 6))
    theta = rng.standard_normal((12, 3))
    # nodes 9-11 appear in no pair; 0, 2 and 5 repeat on both sides
    u = np.asarray([0, 0, 2, 5, 5, 5, 1, 2, 0, 3])
    v = np.asarray([2, 2, 5, 0, 8, 8, 2, 0, 5, 7])
    cls = rng.integers(0, 3, size=len(u))
    got = _loss_and_mlg_grads(z, theta, u, v, cls)
    expected = add_at_mlg_grads(z, theta, u, v, cls)
    assert got[0] == expected[0]
    assert np.array_equal(got[1], expected[1])
    assert np.array_equal(got[2], expected[2])


@st.composite
def loss_batches(draw):
    block = draw(st.sampled_from([2, 4, 7, 16]))
    # n below, at and just above a multiple of the row block: one above
    # leaves a last block of one row
    n = max(1, block * draw(st.integers(1, 5)) + draw(st.sampled_from([-1, 0, 1])))
    zdim = draw(st.sampled_from([1, 2, 3, 8, 16, 32, 33, 64, 128]))
    m = draw(st.integers(1, 4 * n))
    only = draw(st.one_of(st.none(), st.integers(0, 2)))  # one class for every pair, or None
    return block, n, zdim, m, draw(st.integers(0, 2**32 - 1)), only


@given(loss_batches())
@settings(max_examples=100, deadline=None)
@example(batch=(2, 5, 8, 1, 0, None))  # one pair
@example(batch=(2, 1, 16, 4, 1, None))  # one node
@example(batch=(4, 9, 32, 30, 2, CLASS_NONE))  # every pair in one class
@example(batch=(4, 9, 32, 30, 3, CLASS_POS))
def test_loss_written_over_z_matches_whole_products_bit_for_bit(batch):
    block, n, zdim, m, seed, only = batch
    rng = np.random.default_rng(seed)
    z = np.abs(rng.standard_normal((n, zdim)))  # a ReLU output
    theta = rng.standard_normal((2 * zdim, 3))
    u, v, cls = rng.integers(0, n, size=m), rng.integers(0, n, size=m), rng.integers(0, 3, size=m)
    if only is not None:
        cls[:] = only
    expected = add_at_mlg_grads(z, theta, u, v, cls)  # two whole products
    with mock.patch.object(encoder, "_LOSS_BLOCK_ROWS", block):
        fresh = _loss_and_mlg_grads(z, theta, u, v, cls)
        loss, g_theta, dz = _loss_and_mlg_grads(z, theta, u, v, cls, dz_out=z)
    assert fresh[0] == loss == expected[0]
    assert np.array_equal(fresh[1], expected[1]) and np.array_equal(g_theta, expected[1])
    assert np.array_equal(fresh[2], expected[2]) and np.array_equal(dz, expected[2])
    assert dz is z


# -- training ----------------------------------------------------------------------


def test_training_beats_uniform_on_balanced_graph():
    # two triangle cliques, all positive inside, negative across
    edges = [
        EdgeSample(0, 1, 1),
        EdgeSample(0, 2, 1),
        EdgeSample(1, 2, 1),
        EdgeSample(3, 4, 1),
        EdgeSample(3, 5, 1),
        EdgeSample(4, 5, 1),
        EdgeSample(0, 3, -1),
        EdgeSample(1, 4, -1),
    ]
    g = graph_from_samples(edges, 6)
    state = train_encoder(g, edges, EncoderConfig(embed_dim=8, epochs=60, seed=0))
    assert state.loss_history[-1] < math.log(3)
    assert state.epochs_trained == 60


def test_training_deterministic_loss_curve():
    edges = community_records(n=20, seed=1)
    g = graph_from_samples(edges, 20)
    cfg = EncoderConfig(embed_dim=6, epochs=15, seed=3)
    a = train_encoder(g, edges, cfg)
    b = train_encoder(g, edges, cfg)
    assert a.loss_history == b.loss_history
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def test_cached_layer0_inputs_match_rebuilding_every_epoch(monkeypatch):
    edges = community_records(n=24, seed=5)
    g = graph_from_samples(edges, 24)
    cfg = EncoderConfig(embed_dim=6, epochs=12, seed=2)
    cached = train_encoder(g, edges, cfg)

    forward = encoder._forward

    def rebuilding_forward(a_pos, a_neg, state, keep_caches=False, layer0=None):
        return forward(a_pos, a_neg, state, keep_caches)

    monkeypatch.setattr(encoder, "_forward", rebuilding_forward)
    rebuilt = train_encoder(g, edges, cfg)
    assert cached.loss_history == rebuilt.loss_history
    assert np.array_equal(cached.embeddings, rebuilt.embeddings)
    for pa, pb in zip(cached.parameters(), rebuilt.parameters()):
        assert np.array_equal(pa, pb)


@pytest.mark.parametrize("layers, bound", [(2, 17.5), (3, 24)])
def test_training_frees_each_epochs_activations(layers, bound):
    # the embedding is n x 2d; a deeper layer's cache holds its two n x 3d
    # inputs and an n x 2d boolean ReLU mask.  With 2 layers, keeping every
    # cache, Z and dZ into the next epoch's forward peaked at 34 n d floats;
    # dropping them, 25.8; caching masks instead of float pre-activations,
    # writing Z in place and reusing one (m, 3) array in the loss, 20.5
    # (27.0 with 3 layers); writing dZ over Z, adding the loss's second
    # product in row blocks and freeing each layer's output once the next
    # layer's inputs hold its copies, 17.5 (24.1).  Those figures were traced
    # from after init_state; traced from before it, so that H0 counts, that
    # code peaked at 18.69 (25.32).  Holding H0 only inside the layer-1
    # inputs, a class-major loss and masking the gradients in place, 16.47
    # (23.10)
    n, d = 2000, 32
    rng = np.random.default_rng(0)
    pairs = set()
    while len(pairs) < 8000:
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    signs = rng.choice([1, -1], size=len(pairs), p=[0.8, 0.2])
    train = [EdgeSample(u, v, int(s)) for (u, v), s in zip(sorted(pairs), signs)]
    g = graph_from_samples(train, n)
    cfg = EncoderConfig(embed_dim=d, layers=layers, epochs=3, input_features="seeded-random")
    tracemalloc.start()
    try:
        state = init_state(g, cfg)
        encoder._train_loop(g, state, cfg, train, lambda _epoch: len(train))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * n * d * 8


def assert_owned_input_features(state, expected):
    h0 = state.input_features
    assert h0.tobytes() == expected.tobytes() and h0.shape == expected.shape
    assert h0.flags.c_contiguous and h0.flags.owndata and h0.base is None


@pytest.mark.parametrize("input_features", INPUT_FEATURES)
def test_training_gives_back_input_features_it_shares(tmp_path, input_features):
    # while training, H0 is the right half of the first layer-1 input
    edges = community_records(n=20, seed=4)
    g = graph_from_samples(edges, 20)
    cfg = EncoderConfig(embed_dim=6, epochs=5, seed=3, input_features=input_features)
    h0 = init_state(g, cfg).input_features
    state = train_encoder(g, edges, cfg)
    assert_owned_input_features(state, h0)
    path = tmp_path / "enc.bin"
    save_checkpoint(state, path)
    assert_owned_input_features(load_checkpoint(path), h0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_gives_back_input_features():
    edges = community_records(n=16, seed=2)
    g = graph_from_samples(edges, 16)
    cfg = EncoderConfig(embed_dim=6, epochs=50, seed=0, learning_rate=1e150)
    state = init_state(g, cfg)
    h0 = state.input_features.copy()
    with pytest.raises(TrainingDivergedError):
        encoder._train_loop(g, state, cfg, edges, lambda _epoch: len(edges))
    assert_owned_input_features(state, h0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_raises_with_epoch():
    edges = community_records(n=16, seed=2)
    g = graph_from_samples(edges, 16)
    cfg = EncoderConfig(embed_dim=6, epochs=50, seed=0, learning_rate=1e150)
    with pytest.raises(TrainingDivergedError) as err:
        train_encoder(g, edges, cfg)
    assert err.value.epoch >= 0


def test_training_loss_non_increasing_first_epochs():
    # complete signed graph: no absent pairs, so every epoch sees the same batch
    n = 20
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < n // 2) == (v < n // 2)
            edges.append(EdgeSample(u, v, 1 if same else -1))
    g = graph_from_samples(edges, n)
    state = train_encoder(g, edges, EncoderConfig(embed_dim=6, epochs=10, seed=0, learning_rate=1e-3))
    diffs = np.diff(state.loss_history)
    assert (diffs <= 1e-12).all(), state.loss_history


@pytest.mark.parametrize("make, field", [
    (lambda: EncoderConfig(embed_dim=4.5), "embed_dim"),
    (lambda: EncoderConfig(epochs=2.0), "epochs"),
    (lambda: EncoderConfig(layers=True), "layers"),
    (lambda: EncoderConfig(learning_rate=math.nan), "learning_rate"),
    (lambda: EncoderConfig(learning_rate=math.inf), "learning_rate"),
    (lambda: PacingConfig(big_t=2.5, total_epochs=10), "big_t"),
    (lambda: PacingConfig(big_t=2, total_epochs=10.0), "total_epochs"),
    # a bool is not a number: true would read as 1 and false as 0
    (lambda: EncoderConfig(learning_rate=True), "learning_rate"),
    (lambda: EncoderConfig(seed=True), "seed"),
    (lambda: AugmentConfig(eps_add_pos=True), "eps_add_pos"),
    (lambda: AugmentConfig(eps_del_pos=False), "eps_del_pos"),
    (lambda: PacingConfig(lambda0=True), "lambda0"),
    (lambda: PacingConfig.for_epochs(1, total_epochs=True), "total_epochs must be"),
    (lambda: EncoderConfig(input_features=5), "input_features must be a string, got 5"),
])
def test_configs_take_whole_counts_and_a_finite_learning_rate(make, field):
    with pytest.raises(ValueError, match=field):
        make()


def test_training_empty_train_errors():
    _, g = random_graph(n=5)
    with pytest.raises(ValueError):
        train_encoder(g, [], EncoderConfig(embed_dim=4, epochs=5))


# -- prediction --------------------------------------------------------------------


def _crafted_state(theta):
    z = np.asarray([[1.0, 0.0], [0.0, 0.0]])
    return EncoderState(
        pos_weights=[np.zeros((1, 2))],
        neg_weights=[np.zeros((1, 2))],
        mlg_weights=theta,
        input_features=np.zeros((2, 1)),
        embeddings=z,
        epochs_trained=1,
    )


def _pair_01(state):
    return pair_class_probabilities(state, [0], [1])[0].tolist()


def test_predict_uniform_when_theta_zero():
    p_pos, p_neg, p_none = _pair_01(_crafted_state(np.zeros((4, 3))))
    assert (p_pos, p_neg, p_none) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_predict_hand_softmax():
    theta = np.zeros((4, 3))
    theta[0, 0] = 2.0  # logits (2, 0, 0) for pair (0, 1)
    p_pos, p_neg, p_none = _pair_01(_crafted_state(theta))
    assert p_pos == pytest.approx(0.7870, abs=5e-5)
    assert p_neg == pytest.approx(0.1065, abs=5e-5)
    assert p_none == pytest.approx(0.1065, abs=5e-5)


def test_predict_probabilities_normalized():
    edges, g = random_graph(seed=13, n=12, edge_prob=0.4)
    state = train_encoder(g, edges, EncoderConfig(embed_dim=6, epochs=10, seed=5))
    rng = np.random.default_rng(2)
    u = rng.integers(0, 12, size=50)
    v = (u + 1 + rng.integers(0, 10, size=50)) % 12
    probs = pair_class_probabilities(state, u, v)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs >= 0).all()


# -- serialization -------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    edges, g = random_graph(seed=21, n=9, edge_prob=0.5)
    state = train_encoder(g, edges, EncoderConfig(embed_dim=5, epochs=8, seed=1))
    path = tmp_path / "enc.bin"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for a, b in zip(state.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    assert np.array_equal(state.input_features, loaded.input_features)
    assert np.array_equal(state.embeddings, loaded.embeddings)
    assert loaded.epochs_trained == state.epochs_trained
    assert loaded.init_weight_norm == state.init_weight_norm


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_absent_pair_sampling_warns_when_short(caplog):
    # complete graph on 6 nodes minus (0, 1): one absent pair, drawn with p = 1/18
    edges = [EdgeSample(u, v, 1) for u in range(6) for v in range(u + 1, 6) if (u, v) != (0, 1)]
    g = graph_from_samples(edges, 6)
    rng = np.random.default_rng(0)
    with caplog.at_level("WARNING", logger="sigaug.encoder"):
        qu, qv = _sample_absent_pairs(rng, g, 10_000)
    assert 0 < len(qu) < 10_000
    assert set(zip(qu.tolist(), qv.tolist())) == {(0, 1)}
    assert f"short by {10_000 - len(qu)} of 10000 pairs" in caplog.text

    caplog.clear()
    with caplog.at_level("WARNING", logger="sigaug.encoder"):
        qu, _ = _sample_absent_pairs(rng, g, 3)
    assert len(qu) == 3 and not caplog.records


def absent_pairs_oracle(rng, graph, count):
    """The sampler's rounds with every draw looked up; returns the pairs and the shortfall."""
    got_u, got_v, need = [], [], count
    for _ in range(encoder._ABSENT_PAIR_ROUNDS):
        if need <= 0:
            break
        k = max(64, 2 * need)
        a = rng.integers(0, graph.num_nodes, size=k)
        b = rng.integers(0, graph.num_nodes, size=k)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        valid = (lo != hi) & (graph.edge_index(lo, hi) < 0)
        idx = np.flatnonzero(valid)[:need]
        got_u.append(lo[idx])
        got_v.append(hi[idx])
        need -= len(idx)
    return np.concatenate(got_u), np.concatenate(got_v), need


@given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.floats(0.0, 1.0), st.integers(1, 3000),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
@settings(max_examples=150, deadline=None)
@example(seed=0, n=30, edge_prob=1.0, count=2000, prefix=None)  # complete: no absent pair
@example(seed=1, n=30, edge_prob=0.97, count=2000, prefix=None)  # near-complete: falls short
@example(seed=2, n=30, edge_prob=0.3, count=2000, prefix=0.0)  # every round looks up the rest
def test_absent_pair_sampling_matches_full_lookup(seed, n, edge_prob, count, prefix):
    # a drawn ``prefix`` replaces the lookup prefix by that share of each
    # round's draws, so the lookup of the rest of the draws runs too
    g = graph_from_samples(random_signed_records(np.random.default_rng(seed), n, edge_prob), n)
    oracle_rng = np.random.default_rng(seed)
    exp_u, exp_v, short = absent_pairs_oracle(oracle_rng, g, count)
    rng = np.random.default_rng(seed)
    cut = encoder._lookup_prefix if prefix is None else lambda _need, k, _r: int(prefix * k)
    with mock.patch.object(encoder, "_lookup_prefix", cut), \
            mock.patch.object(encoder.log, "warning") as warn:
        qu, qv = _sample_absent_pairs(rng, g, count)
    np.testing.assert_array_equal(qu, exp_u)
    np.testing.assert_array_equal(qv, exp_v)
    assert qu.dtype == qv.dtype == np.int64
    assert rng.bit_generator.state == oracle_rng.bit_generator.state  # the same draws
    if short:
        warn.assert_called_once()
        assert warn.call_args.args[1:3] == (short, count)
    else:
        warn.assert_not_called()
