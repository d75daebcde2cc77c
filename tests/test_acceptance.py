"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1-7 need the real Bitcoin-alpha / Bitcoin-otc files (see
datasets/README.md); they skip with a clear message when the files are
absent and run unchanged when present.  Criterion 8 is fully offline.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import candidate_sets, dataset_file, random_signed_records
from sigaug.augment import AugmentConfig, select_beneficial
from sigaug.balance import balance_report
from sigaug.curriculum import CurriculumSchedule, PacingConfig, pacing, subset_at_epoch
from sigaug.encoder import (
    EncoderConfig,
    _adjacency_pair,
    _as_index_arrays,
    _backward,
    _forward,
    _loss_and_mlg_grads,
    init_state,
    mlg_loss,
)
from sigaug.evalbench import GapConstants, auc_rank, bound_value, run_experiment
from sigaug.graph import EdgeSample, build_graph, graph_from_samples, load_edge_list

SEEDS = [0, 1, 2, 3, 4]
RATIO = 0.8


def announce(num: str, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: PASS{suffix}", flush=True)


def need_dataset(name: str):
    path = dataset_file(name)
    if path is None:
        print(f"\nACCEPTANCE: SKIP - {name} dataset not present (see datasets/README.md)")
        pytest.skip(f"{name} dataset not present; see datasets/README.md")
    return path


@pytest.fixture(scope="module")
def alpha_edges():
    path = need_dataset("bitcoin-alpha")
    loaded = load_edge_list(path, format="rating-csv")
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    return graph.to_samples(), loaded


@pytest.fixture(scope="module")
def experiment_cache():
    """Shared multi-seed runs so criteria 3, 4, 5, 6, 7 reuse each other."""
    cache: dict = {"scorer": {}}

    def get(key: str, dataset_edges, pipeline: str, **kwargs):
        if key not in cache:
            cache[key] = run_experiment(
                dataset_edges,
                pipeline,
                SEEDS,
                enc_cfg=EncoderConfig(),
                aug_cfg=AugmentConfig(),
                ratio=RATIO,
                encoder_cache=cache["scorer"] if pipeline in ("sga", "sa-only") else None,
                **kwargs,
            )
        return cache[key]

    return get


def mean_auc(report) -> float:
    return float(np.mean(report.metric_values("auc")))


# -- criterion 1: dataset fidelity ------------------------------------------------


def test_criterion_1_dataset_fidelity(capsys):
    path = need_dataset("bitcoin-alpha")
    from sigaug.cli import main

    started = time.perf_counter()
    assert main(["stats", "--dataset", str(path), "--json", "--quiet"]) == 0
    elapsed = time.perf_counter() - started
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] == 3783
    assert stats["links"] == 24186
    assert stats["positive_links"] == 22650
    assert stats["negative_links"] == 1536
    assert stats["density"] == pytest.approx(1.69e-3, abs=0.005e-3)
    assert elapsed < 5.0
    announce("1", "dataset fidelity", f"stats in {elapsed:.2f}s")


# -- criterion 2: balance fidelity -------------------------------------------------


def test_criterion_2_balance_fidelity():
    alpha = need_dataset("bitcoin-alpha")
    started = time.perf_counter()
    loaded = load_edge_list(alpha, format="rating-csv")
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    report = balance_report(graph)
    elapsed = time.perf_counter() - started
    assert abs(report.stats.balanced - 52126) <= 0.01 * 52126
    assert abs(report.stats.unbalanced - 6971) <= 0.01 * 6971
    assert report.balance_degree * 100 == pytest.approx(88.20, abs=0.5)
    assert elapsed < 30.0

    otc = need_dataset("bitcoin-otc")
    loaded_otc = load_edge_list(otc, format="rating-csv")
    graph_otc, _ = build_graph(loaded_otc.samples, num_nodes=loaded_otc.num_nodes)
    report_otc = balance_report(graph_otc)
    assert report_otc.balance_degree * 100 == pytest.approx(89.04, abs=0.5)
    announce(
        "2",
        "balance fidelity",
        f"alpha bt={report.stats.balanced} ut={report.stats.unbalanced} "
        f"bd={100 * report.balance_degree:.2f} in {elapsed:.1f}s; "
        f"otc bd={100 * report_otc.balance_degree:.2f}",
    )


# -- criterion 3: baseline reproduction ---------------------------------------------


def test_criterion_3_baseline_reproduction(alpha_edges, experiment_cache):
    edges, _ = alpha_edges
    started = time.perf_counter()
    report = experiment_cache("alpha-baseline", edges, "baseline")
    elapsed = time.perf_counter() - started
    auc = 100 * mean_auc(report)
    f1b = 100 * float(np.mean(report.metric_values("f1_binary")))
    assert auc == pytest.approx(75.3, abs=5.0)
    assert f1b == pytest.approx(90.5, abs=5.0)
    assert elapsed < 600.0
    announce("3", "baseline reproduction", f"AUC {auc:.1f} F1b {f1b:.1f} in {elapsed:.0f}s")


# -- criterion 4: augmentation improvement -------------------------------------------


def test_criterion_4_sga_improvement_alpha(alpha_edges, experiment_cache):
    edges, _ = alpha_edges
    base = experiment_cache("alpha-baseline", edges, "baseline")
    sga = experiment_cache("alpha-sga", edges, "sga")
    delta = 100 * (mean_auc(sga) - mean_auc(base))
    assert delta >= 2.0
    announce("4a", "augmentation gain, bitcoin-alpha", f"+{delta:.1f} AUC points")


def test_criterion_4_sga_improvement_otc(experiment_cache):
    path = need_dataset("bitcoin-otc")
    loaded = load_edge_list(path, format="rating-csv")
    graph, _ = build_graph(loaded.samples, num_nodes=loaded.num_nodes)
    edges = graph.to_samples()
    base = run_experiment(edges, "baseline", SEEDS, enc_cfg=EncoderConfig(), ratio=RATIO)
    sga = run_experiment(
        edges, "sga", SEEDS, enc_cfg=EncoderConfig(), aug_cfg=AugmentConfig(), ratio=RATIO
    )
    delta = 100 * (mean_auc(sga) - mean_auc(base))
    assert delta >= 1.0
    announce("4b", "augmentation gain, bitcoin-otc", f"+{delta:.1f} AUC points")


# -- criterion 5: augmentation statistics ---------------------------------------------


def test_criterion_5_augmentation_statistics(alpha_edges, experiment_cache):
    edges, _ = alpha_edges
    sga = experiment_cache("alpha-sga", edges, "sga")
    logrec = sga.results[0].augmentation
    assert logrec is not None
    gain = 100 * (logrec.bd_after - logrec.bd_before)
    assert gain >= 1.0
    assert logrec.density_after > logrec.density_before
    announce(
        "5",
        "augmentation statistics",
        f"balance {100 * logrec.bd_before:.2f} -> {100 * logrec.bd_after:.2f}, "
        f"density {logrec.density_before:.2e} -> {logrec.density_after:.2e}",
    )


# -- criterion 6: random perturbation is not augmentation ------------------------------


def test_criterion_6_random_perturbation_negative_result(alpha_edges, experiment_cache):
    edges, _ = alpha_edges
    base_auc = mean_auc(experiment_cache("alpha-baseline", edges, "baseline"))
    sga_auc = mean_auc(experiment_cache("alpha-sga", edges, "sga"))
    drop_aucs = {}
    for ratio in (0.05, 0.1, 0.15, 0.2):
        rep = experiment_cache(f"alpha-drop-{ratio}", edges, f"random:drop-edge,{ratio}")
        drop_aucs[ratio] = mean_auc(rep)
        assert drop_aucs[ratio] <= base_auc + 0.01
    assert sga_auc > base_auc + 0.01
    announce(
        "6",
        "random perturbation negative result",
        "drop-edge " + ", ".join(f"{r}:{100 * a:.1f}" for r, a in drop_aucs.items())
        + f" vs baseline {100 * base_auc:.1f}, sga {100 * sga_auc:.1f}",
    )


# -- criterion 7: ablation ordering -----------------------------------------------------


def test_criterion_7_ablation_ordering(alpha_edges, experiment_cache):
    edges, _ = alpha_edges
    sa = mean_auc(experiment_cache("alpha-sa", edges, "sa-only"))
    tp = mean_auc(experiment_cache("alpha-tp", edges, "tp-only"))
    sga = mean_auc(experiment_cache("alpha-sga", edges, "sga"))
    assert sa >= tp
    assert sga >= max(sa, tp) - 0.01
    announce(
        "7",
        "ablation ordering",
        f"SA {100 * sa:.1f} >= TP {100 * tp:.1f}; SGA {100 * sga:.1f}",
    )


# -- criterion 8: offline property suites -------------------------------------------------


def test_criterion_8a_gradient_check():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(2):
        edges = random_signed_records(rng, 10, edge_prob=0.4)
        graph = graph_from_samples(edges, 10)
        state = init_state(graph, EncoderConfig(embed_dim=5, layers=2, seed=trial))
        a_pos, a_neg = _adjacency_pair(graph)
        samples = [(e.u, e.v, e.sign) for e in edges] + [(0, 9, 0), (2, 7, 0)]
        u, v, cls = _as_index_arrays(samples)
        z, caches = _forward(a_pos, a_neg, state, keep_caches=True)
        _, g_theta, dz = _loss_and_mlg_grads(z, state.mlg_weights, u, v, cls)
        d = state.embed_dim
        g_pos, g_neg = _backward(
            a_pos.T.tocsr(), a_neg.T.tocsr(), state, caches, dz[:, :d], dz[:, d:]
        )
        for block, grad in zip(state.parameters(), [*g_pos, *g_neg, g_theta]):
            numeric = np.zeros_like(block)
            it = np.nditer(block, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = block[idx]
                block[idx] = orig + 1e-5
                z_up, _ = _forward(a_pos, a_neg, state)
                up = mlg_loss(z_up, samples, state.mlg_weights)
                block[idx] = orig - 1e-5
                z_dn, _ = _forward(a_pos, a_neg, state)
                down = mlg_loss(z_dn, samples, state.mlg_weights)
                block[idx] = orig
                numeric[idx] = (up - down) / 2e-5
                it.iternext()
            rel = np.linalg.norm(grad - numeric) / max(
                np.linalg.norm(grad), np.linalg.norm(numeric), 1e-12
            )
            worst = max(worst, rel)
    assert worst < 1e-4
    announce("8a", "gradients vs finite differences", f"max rel err {worst:.2e}")


def test_criterion_8b_triangle_counts_vs_brute_force():
    from conftest import brute_force_triangles
    from sigaug.balance import enumerate_triangles

    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(3, 51))
        edges = random_signed_records(rng, n, edge_prob=0.2)
        stats = enumerate_triangles(graph_from_samples(edges, n))
        assert (stats.balanced, stats.unbalanced) == brute_force_triangles(edges, n)
    announce("8b", "triangle counts vs O(n^3) oracle", "100 graphs exact")


def test_criterion_8c_auc_vs_pairwise_oracle():
    rng = np.random.default_rng(15)
    for _ in range(100):
        m = int(rng.integers(2, 80))
        scores = rng.integers(0, 9, size=m) / 8.0
        labels = np.where(rng.random(m) < 0.5, 1, -1)
        if len(set(labels.tolist())) < 2:
            labels[0] = -labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == -1]
        wins = sum(
            1.0 if p > q else 0.5 if p == q else 0.0
            for p, q in itertools.product(pos, neg)
        )
        expected = wins / (len(pos) * len(neg))
        assert auc_rank(scores, labels) == pytest.approx(expected, abs=1e-12)
    announce("8c", "AUC vs exhaustive pairwise oracle", "100 score sets exact")


def test_criterion_8d_pacing_properties():
    rng = np.random.default_rng(4)
    for _ in range(50):
        lambda0 = float(rng.uniform(0.05, 1.0))
        big_t = int(rng.integers(1, 40))
        total = big_t + int(rng.integers(0, 40))
        cfg = PacingConfig(lambda0=lambda0, big_t=big_t, total_epochs=total)
        assert pacing(0, cfg) == pytest.approx(lambda0)
        assert pacing(big_t, cfg) == 1.0
        assert pacing(big_t + 7, cfg) == 1.0
        values = [pacing(t, cfg) for t in range(total + 1)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        edges = [EdgeSample(i, i + 1, 1) for i in range(30)]
        schedule = CurriculumSchedule(ordered_edges=edges, difficulties=[0.0] * 30)
        prev: list = []
        for t in range(total + 1):
            subset = subset_at_epoch(schedule, t, cfg)
            assert len(subset) >= 1
            assert subset[: len(prev)] == prev  # nested prefixes
            prev = subset
    announce("8d", "pacing function properties", "50 random configs")


def test_criterion_8e_selection_safety():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(8, 30))
        train = random_signed_records(rng, n, edge_prob=0.15)
        original = {e.pair for e in train}
        proposals = []
        for _ in range(20):
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u == v or (u, v) in original:
                continue
            proposals.append(
                (EdgeSample(u, v, 1 if rng.random() < 0.6 else -1), float(rng.random()))
            )
        proposals.sort(key=lambda item: -item[1])
        out = select_beneficial(train, candidate_sets(proposals))
        sign = {e.pair: e.sign for e in out}
        added = set(sign) - original
        for (u, v) in added:
            for k in range(n):
                if k in (u, v):
                    continue
                s_uk = sign.get((min(u, k), max(u, k)))
                s_vk = sign.get((min(v, k), max(v, k)))
                if s_uk is None or s_vk is None:
                    continue
                assert sign[(u, v)] * s_uk * s_vk > 0
                checked += 1
    announce("8e", "selection safety post-hoc oracle", f"{checked} closed triangles, zero unbalanced")


def test_criterion_8f_bound_monotone_and_limit():
    constants = GapConstants(alpha_lx=1.0, alpha_ly=1.0, alpha_f=1.0, m_const=1.0, eta=1.0, t=1.0)
    values = [bound_value(constants, 1.0, 1.0, n) for n in (10**2, 10**3, 10**4, 10**6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    limit_err = bound_value(constants, 1.0, 1.0, 10**9) - 2.0 * constants.alpha_lx
    assert 0 < limit_err < 1e-6
    # hand-evaluated value of the full expression
    hand = GapConstants(alpha_lx=1, alpha_ly=1, alpha_f=1, m_const=1, eta=0.01, t=1)
    assert bound_value(hand, 1.0, 1.0, 100) == pytest.approx(2 + math.sqrt(2) * 1.01 / 100)
    announce("8f", "generalization bound shape", f"limit error {limit_err:.1e}")
