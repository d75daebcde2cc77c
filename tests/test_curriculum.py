import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigaug.curriculum import (
    CurriculumSchedule,
    PacingConfig,
    pacing,
    schedule_to_csv,
    score_and_sort,
    subset_at_epoch,
    train_with_curriculum,
)
from sigaug.encoder import EncoderConfig, mlg_loss, train_encoder
from sigaug.graph import EdgeSample, graph_from_samples


def test_pacing_config_validation():
    with pytest.raises(ValueError):
        PacingConfig(lambda0=0.0)
    with pytest.raises(ValueError):
        PacingConfig(lambda0=1.5)
    with pytest.raises(ValueError):
        PacingConfig(lambda0=0.5, big_t=50, total_epochs=20)


def test_pacing_values():
    cfg = PacingConfig(lambda0=0.3, big_t=10, total_epochs=20)
    assert pacing(0, cfg) == pytest.approx(0.3)
    assert pacing(10, cfg) == 1.0
    assert pacing(15, cfg) == 1.0
    assert pacing(5, cfg) == pytest.approx(0.65)


@given(st.floats(0.05, 1.0), st.integers(1, 50), st.integers(0, 200))
@settings(max_examples=80)
def test_pacing_monotone_and_saturating(lambda0, big_t, t):
    cfg = PacingConfig(lambda0=lambda0, big_t=big_t, total_epochs=max(big_t, 200))
    g_t = pacing(t, cfg)
    assert lambda0 - 1e-12 <= g_t <= 1.0
    assert pacing(t + 1, cfg) >= g_t
    if t >= big_t:
        assert g_t == 1.0


def test_score_and_sort_triangle_free_is_lexicographic():
    edges = [EdgeSample(3, 4, 1), EdgeSample(0, 5, -1), EdgeSample(1, 2, 1)]
    g = graph_from_samples(edges, 6)
    schedule = score_and_sort(g, edges)
    assert np.array_equal(schedule.difficulties, [0.0, 0.0, 0.0])
    assert [(e.u, e.v) for e in schedule.ordered_edges] == [(0, 5), (1, 2), (3, 4)]


def test_score_and_sort_unbalanced_edges_last():
    edges = [
        EdgeSample(0, 1, 1),
        EdgeSample(0, 2, 1),
        EdgeSample(1, 2, 1),  # balanced triangle -> difficulty 0
        EdgeSample(5, 6, 1),
        EdgeSample(5, 7, 1),
        EdgeSample(6, 7, -1),  # unbalanced triangle -> difficulty 1
    ]
    g = graph_from_samples(edges, 8)
    schedule = score_and_sort(g, edges)
    assert np.array_equal(schedule.difficulties, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    assert {e.pair for e in schedule.ordered_edges[3:]} == {(5, 6), (5, 7), (6, 7)}


def test_score_and_sort_hand_instance():
    # triangles {0,1,2} unbalanced and {0,1,3} balanced:
    #   (0,3) and (1,3) sit only in the balanced one -> difficulty 0
    #   (0,1) sits in both -> 0.5; (0,2) and (1,2) only in the bad one -> 1
    edges = [
        EdgeSample(0, 1, 1),
        EdgeSample(0, 2, 1),
        EdgeSample(1, 2, -1),
        EdgeSample(0, 3, 1),
        EdgeSample(1, 3, 1),
    ]
    g = graph_from_samples(edges, 4)
    schedule = score_and_sort(g, edges)
    assert [(e.u, e.v) for e in schedule.ordered_edges] == [
        (0, 3),
        (1, 3),
        (0, 1),
        (0, 2),
        (1, 2),
    ]
    assert schedule.difficulties.dtype == np.float64
    assert np.array_equal(schedule.difficulties, [0.0, 0.0, 0.5, 1.0, 1.0])


def test_score_and_sort_requires_edges_present():
    edges = [EdgeSample(0, 1, 1)]
    g = graph_from_samples(edges, 3)
    with pytest.raises(ValueError):
        score_and_sort(g, [EdgeSample(0, 2, 1)])
    # (0, 5) is past the node range; its row-major key 0*3+5 would alias (1, 2)
    g = graph_from_samples([EdgeSample(1, 2, 1)], 3)
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        score_and_sort(g, [EdgeSample(1, 2, 1), EdgeSample(0, 5, 1)])
    with pytest.raises(ValueError):
        score_and_sort(graph_from_samples([], 3), [EdgeSample(0, 1, 1)])


def test_score_and_sort_is_stable_permutation():
    edges = [EdgeSample(i, j, 1) for i in range(5) for j in range(i + 1, 5)]
    g = graph_from_samples(edges, 5)
    schedule = score_and_sort(g, list(reversed(edges)))
    assert sorted(schedule.ordered_edges) == sorted(edges)
    assert np.array_equal(schedule.difficulties, np.sort(schedule.difficulties))


def test_subset_at_epoch_sizes():
    edges = [EdgeSample(i, i + 1, 1) for i in range(10)]
    schedule = CurriculumSchedule(ordered_edges=edges, difficulties=[0.0] * 10)
    cfg = PacingConfig(lambda0=0.5, big_t=4, total_epochs=8)
    assert subset_at_epoch(schedule, 0, cfg) == edges[:5]
    assert subset_at_epoch(schedule, 4, cfg) == edges
    sizes = [len(subset_at_epoch(schedule, t, cfg)) for t in range(8)]
    assert sizes == sorted(sizes)  # nested prefixes
    assert min(sizes) >= 1
    for t in range(7):
        assert subset_at_epoch(schedule, t, cfg) == edges[: sizes[t]]


def test_lambda0_one_equals_plain_training(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=25, seed=6)
    schedule = score_and_sort(g, edges)
    pace = PacingConfig(lambda0=1.0, big_t=1, total_epochs=25)
    cur = train_with_curriculum(g, schedule, enc, pace)
    plain = train_encoder(g, schedule.ordered_edges, enc)
    assert cur.loss_history == plain.loss_history
    for a, b in zip(cur.parameters(), plain.parameters()):
        assert np.array_equal(a, b)


def test_curriculum_trains_the_encoders_epochs_or_refuses(small_community):
    edges, g = small_community
    schedule = score_and_sort(g, edges)
    pace = PacingConfig(lambda0=0.5, big_t=2, total_epochs=5)
    with pytest.raises(ValueError, match="total_epochs = 5 disagrees with .* epochs = 3"):
        train_with_curriculum(g, schedule, EncoderConfig(embed_dim=4, epochs=3), pace)
    state = train_with_curriculum(g, schedule, EncoderConfig(embed_dim=4, epochs=5), pace)
    assert len(state.loss_history) == 5


def test_curriculum_deterministic(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=20, seed=2)
    pace = PacingConfig(lambda0=0.3, big_t=10, total_epochs=20)
    schedule = score_and_sort(g, edges)
    a = train_with_curriculum(g, schedule, enc, pace)
    b = train_with_curriculum(g, schedule, enc, pace)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)


def planted_noise_graph(seed, n=30, flip=0.15):
    """Community graph plus the clean (pre-noise) labels of every edge."""
    rng = np.random.default_rng(seed)
    half = n // 2
    edges, clean = [], []
    for u in range(n):
        for v in range(u + 1, n):
            same = (u < half) == (v < half)
            if rng.random() < (0.35 if same else 0.2):
                sign = 1 if same else -1
                noisy = -sign if rng.random() < flip else sign
                edges.append(EdgeSample(u, v, noisy))
                clean.append(noisy == sign)
    return edges, clean


def test_curriculum_fits_clean_edges_better_than_full_exposure():
    # planted sign noise creates unbalanced triangles; once both runs have
    # converged, the run that deferred those edges fits the clean majority
    # better, on average over seeds.  Random input features isolate the
    # training-dynamics effect (spectral features already smooth the noise).
    cur_losses, plain_losses = [], []
    for seed in range(5):
        edges, clean = planted_noise_graph(seed)
        g = graph_from_samples(edges, 30)
        schedule = score_and_sort(g, edges)
        enc = EncoderConfig(
            embed_dim=8, epochs=150, seed=100 + seed, input_features="seeded-random"
        )
        pace = PacingConfig(lambda0=0.25, big_t=75, total_epochs=150)
        cur = train_with_curriculum(g, schedule, enc, pace)
        plain = train_with_curriculum(
            g, schedule, enc, PacingConfig(lambda0=1.0, big_t=1, total_epochs=150)
        )
        clean_edges = [e for e, ok in zip(edges, clean) if ok]
        cur_losses.append(mlg_loss(cur.embeddings, clean_edges, cur.mlg_weights))
        plain_losses.append(mlg_loss(plain.embeddings, clean_edges, plain.mlg_weights))
    assert np.mean(cur_losses) < np.mean(plain_losses)


def test_schedule_csv(tmp_path):
    edges = [EdgeSample(0, 1, 1), EdgeSample(2, 3, -1)]
    schedule = CurriculumSchedule(ordered_edges=edges, difficulties=[0.0, 0.5])
    path = tmp_path / "schedule.csv"
    schedule_to_csv(schedule, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,u,v,sign,difficulty"
    assert lines[1].startswith("0,0,1,1,")
    assert len(lines) == 3
