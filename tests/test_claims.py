"""The paper's claims, checked offline on planted graphs.

The acceptance criteria that restate the paper's results need the bitcoin
files and skip without them.  These tests check the same claims on a planted
two-community graph instead.  Each test's graph, epochs, seeds, thresholds
and margin were fixed from a pilot on other seeds (10-12), before the test
seeds ever ran; they are not re-picked after a failure.  A claim that does
not hold here is a strict xfail that says why.  The planted bad-actor
graphs know their ceiling: ``conftest.bayes_scores`` gives each pair's true
sign probability, and a test checks that the generator signs at it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import bad_actor_records, bayes_scores, planted_bad_actors, shuffled_planted_records
from sigaug.encoder import EncoderConfig
from sigaug.evalbench import run_experiment


@pytest.fixture(scope="module")
def sga_report():
    encoder = EncoderConfig(embed_dim=16, epochs=30)
    return run_experiment(shuffled_planted_records(), "sga", [0, 1, 2], enc_cfg=encoder)


def test_criterion_5_augmentation_raises_the_balance_degree(sga_report):
    # pilot: 0.864 -> 0.934, 0.858 -> 0.938 and 0.853 -> 0.916
    for r in sga_report.results:
        assert r.bd_after >= r.bd_before + 0.03, (r.seed, r.bd_before, r.bd_after)


@pytest.mark.xfail(
    strict=True,
    reason="at the default thresholds no two-hop pair clears the 0.9 add threshold, while the "
    "0.2 delete thresholds remove 241-278 edges: the pilot added 0 edges and density fell "
    "from 0.0602 to 0.046-0.048",
)
def test_criterion_5_augmentation_raises_the_density(sga_report):
    for r in sga_report.results:
        assert r.density_after > r.density_before, (r.seed, r.density_before, r.density_after)


@pytest.mark.parametrize("seed", [0, 1])
def test_planted_bad_actors_sign_each_pair_at_its_bayes_probability(seed):
    # the mask adds nothing to the edges, and bayes_scores gives the rate at
    # which the generator signed each edge: within 4 binomial standard
    # deviations on cross edges (one bad end) and on all others
    edges, bad = planted_bad_actors(seed=seed)
    assert edges == bad_actor_records(seed=seed)
    assert bad.shape == (1000,) and bad.sum() == 50
    u, v, sign = (np.array([getattr(e, name) for e in edges]) for name in ("u", "v", "sign"))
    p_pos = bayes_scores(bad, u, v)
    cross = bad[u] != bad[v]
    for on, p_neg in ((cross, 0.75), (~cross, 0.02)):
        assert np.all(p_pos[on] == 1.0 - p_neg)
        k = int(on.sum())
        negatives = int((sign[on] < 0).sum())
        assert k > 100
        assert abs(negatives - k * p_neg) <= 4 * math.sqrt(k * p_neg * (1 - p_neg)), (k, negatives)
