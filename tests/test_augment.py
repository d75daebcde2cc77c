import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_triangles,
    candidate_sets,
    community_records,
    random_signed_records,
)
from sigaug.augment import (
    AugmentConfig,
    AugmentationLog,
    augment,
    generate_candidates,
    select_beneficial,
)
from sigaug.encoder import (
    CLASS_NEG,
    CLASS_POS,
    EncoderConfig,
    EncoderState,
    init_state,
    pair_class_probabilities,
    train_encoder,
)
from sigaug.graph import EdgeColumns, EdgeSample, graph_from_samples


def crafted_state(embeddings, theta):
    return EncoderState(
        pos_weights=[np.zeros((1, 2))],
        neg_weights=[np.zeros((1, 2))],
        mlg_weights=theta,
        input_features=np.zeros((embeddings.shape[0], 1)),
        embeddings=embeddings,
        epochs_trained=1,
    )


def uniform_prob_state(num_nodes, probs):
    """Every pair gets identical class probabilities."""
    z = np.zeros((num_nodes, 2))
    z[:, 0] = 1.0
    theta = np.zeros((4, 3))
    theta[0] = np.log(np.asarray(probs))
    return crafted_state(z, theta)


# -- config -------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(eps_add_pos=0.0)
    with pytest.raises(ValueError):
        AugmentConfig(eps_del_pos=1.0)
    with pytest.raises(ValueError):
        AugmentConfig(candidate_scope="everything")
    with pytest.raises(ValueError):
        AugmentConfig(max_additions=-1)
    AugmentConfig(eps_add_pos=1.0, eps_del_pos=0.0)  # no-op extremes are legal


def test_config_warns_on_low_add_threshold(caplog):
    with caplog.at_level(logging.WARNING):
        AugmentConfig(eps_add_pos=0.4)
    assert any("0.5" in rec.message for rec in caplog.records)


# -- candidate generation ------------------------------------------------------


def path_graph():
    edges = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1)]
    return edges, graph_from_samples(edges, 3)


def test_generate_requires_trained_state():
    edges, g = path_graph()
    state = init_state(g, EncoderConfig(embed_dim=4, seed=0))
    with pytest.raises(ValueError, match="untrained"):
        generate_candidates(g, state, edges, AugmentConfig())


def test_generate_addition_above_threshold():
    edges, g = path_graph()
    state = uniform_prob_state(3, [0.95, 0.02, 0.03])
    cfg = AugmentConfig(eps_add_pos=0.9, eps_add_neg=0.9, eps_del_pos=0.0, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    assert [(c.u, c.v, c.sign) for c in cands.additions] == [(0, 2, 1)]
    assert cands.confidence[0] == pytest.approx(0.95)
    assert list(cands.deletions) == []


def test_generate_higher_probability_wins_when_both_fire():
    edges, g = path_graph()
    state = uniform_prob_state(3, [0.30, 0.45, 0.25])
    cfg = AugmentConfig(eps_add_pos=0.25, eps_add_neg=0.25, eps_del_pos=0.0, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    assert [(c.u, c.v, c.sign) for c in cands.additions] == [(0, 2, -1)]


def test_generate_tie_goes_positive():
    edges, g = path_graph()
    state = uniform_prob_state(3, [0.4, 0.4, 0.2])
    cfg = AugmentConfig(eps_add_pos=0.3, eps_add_neg=0.3, eps_del_pos=0.0, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    assert [(c.u, c.v, c.sign) for c in cands.additions] == [(0, 2, 1)]


def test_generate_deletion_below_threshold():
    edges, g = path_graph()
    state = uniform_prob_state(3, [0.02, 0.58, 0.40])
    cfg = AugmentConfig(eps_add_pos=0.99, eps_add_neg=0.99, eps_del_pos=0.05, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    assert list(cands.additions) == []
    assert {e.pair for e in cands.deletions} == {(0, 1), (1, 2)}


def test_generate_excludes_same_sign_train_pairs():
    edges = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1), EdgeSample(0, 2, 1)]
    g = graph_from_samples(edges, 3)
    state = uniform_prob_state(3, [0.95, 0.02, 0.03])
    cfg = AugmentConfig(eps_add_pos=0.9, eps_add_neg=0.9, eps_del_pos=0.0, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    assert list(cands.additions) == []  # the only two-hop pairs are existing + edges


def test_generate_confidence_order_and_cap():
    edges = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1), EdgeSample(2, 3, 1)]
    g = graph_from_samples(edges, 4)
    z = np.asarray([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    theta = np.zeros((4, 3))
    theta[0, 0] = 3.0  # pairs led by node 0 get logit 3
    theta[1, 0] = 2.0  # pairs led by node 1 get logit 2
    state = crafted_state(z, theta)
    cfg = AugmentConfig(eps_add_pos=0.7, eps_add_neg=0.99, eps_del_pos=0.0, eps_del_neg=0.0)
    cands = generate_candidates(g, state, edges, cfg)
    pairs = [(c.u, c.v) for c in cands.additions]
    confs = cands.confidence.tolist()
    assert pairs == [(0, 2), (1, 3)]
    assert confs[0] > confs[1]
    capped = generate_candidates(
        g, state, edges, AugmentConfig(eps_add_pos=0.7, eps_add_neg=0.99,
                                       eps_del_pos=0.0, eps_del_neg=0.0, max_additions=1)
    )
    assert [(c.u, c.v) for c in capped.additions] == [(0, 2)]


def test_generate_all_pairs_scope_limit():
    edges, g = path_graph()
    state = uniform_prob_state(3, [0.95, 0.02, 0.03])
    cfg = AugmentConfig(eps_add_pos=0.9, eps_add_neg=0.9, eps_del_pos=0.0,
                        eps_del_neg=0.0, candidate_scope="all-pairs")
    cands = generate_candidates(g, state, edges, cfg)
    assert {(c.u, c.v) for c in cands.additions} == {(0, 2)}  # (0,1),(1,2) are same-sign


# -- beneficial selection --------------------------------------------------------


def test_selection_rejects_unbalanced_closure():
    train = [EdgeSample(0, 1, 1), EdgeSample(1, 2, -1)]
    cands = candidate_sets([(EdgeSample(0, 2, 1), 0.9)])
    log = AugmentationLog()
    out = select_beneficial(train, cands, log)
    assert list(out) == train
    assert log.rejected == 1


def test_selection_accepts_vacuously_without_common_neighbors():
    train = [EdgeSample(0, 1, 1)]
    cands = candidate_sets([(EdgeSample(2, 3, -1), 0.9)])
    out = select_beneficial(train, cands)
    assert EdgeSample(2, 3, -1) in out


def test_selection_accepts_when_all_closures_balanced():
    train = [
        EdgeSample(0, 1, 1),
        EdgeSample(1, 3, 1),
        EdgeSample(0, 2, 1),
        EdgeSample(2, 3, 1),
    ]
    cands = candidate_sets([(EdgeSample(0, 3, 1), 0.9)])
    out = select_beneficial(train, cands)
    assert EdgeSample(0, 3, 1) in out
    assert brute_force_triangles(out, 4)[1] == 0  # no unbalanced triangles


def test_selection_sees_earlier_acceptances():
    train = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1), EdgeSample(0, 4, 1)]
    first = (EdgeSample(0, 2, 1), 0.9)  # accepted: closes balanced (0,1,2)
    second = (EdgeSample(2, 4, -1), 0.8)  # closes (0,2,4) via the new edge: unbalanced
    log = AugmentationLog()
    out = select_beneficial(train, candidate_sets([first, second]), log)
    assert EdgeSample(0, 2, 1) in out
    assert EdgeSample(2, 4, -1) not in out
    assert log.rejected == 1

    # reversed confidence: the negative edge lands first and blocks the other
    log2 = AugmentationLog()
    out2 = select_beneficial(
        train, candidate_sets([(second[0], 0.95), (first[0], 0.9)]), log2
    )
    assert EdgeSample(2, 4, -1) in out2
    assert EdgeSample(0, 2, 1) not in out2


def test_selection_deletion_then_opposite_sign_add():
    train = [EdgeSample(0, 1, 1), EdgeSample(1, 2, 1), EdgeSample(0, 2, -1)]
    cands = candidate_sets(
        additions=[(EdgeSample(0, 2, 1), 0.9)],
        deletions=[EdgeSample(0, 2, -1)],
    )
    log = AugmentationLog()
    out = select_beneficial(train, cands, log)
    assert EdgeSample(0, 2, 1) in out and EdgeSample(0, 2, -1) not in out
    assert log.deleted_neg == 1 and log.added_pos == 1


def test_selection_skips_occupied_pair():
    train = [EdgeSample(0, 1, 1)]
    cands = candidate_sets([(EdgeSample(0, 1, -1), 0.99)])
    log = AugmentationLog()
    out = select_beneficial(train, cands, log)
    assert list(out) == train
    assert log.added_neg == 0 and log.rejected == 0


def test_selection_safety_post_hoc_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(8, 26))
        train = random_signed_records(rng, n, edge_prob=0.15)
        original = {e.pair for e in train}
        proposals = []
        for _ in range(15):
            u, v = sorted(rng.integers(0, n, size=2).tolist())
            if u == v or (u, v) in original:
                continue
            proposals.append(
                (EdgeSample(u, v, 1 if rng.random() < 0.6 else -1), float(rng.random()))
            )
        proposals.sort(key=lambda item: -item[1])
        out = select_beneficial(train, candidate_sets(proposals))
        added = {e.pair for e in out} - original
        sign = {e.pair: e.sign for e in out}
        # every triangle touching an added edge must be balanced
        for (u, v) in added:
            for k in range(n):
                if k in (u, v):
                    continue
                s_uk = sign.get((min(u, k), max(u, k)))
                s_vk = sign.get((min(v, k), max(v, k)))
                if s_uk is None or s_vk is None:
                    continue
                assert sign[(u, v)] * s_uk * s_vk > 0


def test_deletion_only_never_creates_triangles():
    rng = np.random.default_rng(9)
    train = random_signed_records(rng, 15, edge_prob=0.3)
    deletions = [e for e in train[::3]]
    out = select_beneficial(train, candidate_sets(deletions=deletions))

    def triangle_set(edges):
        sign = {e.pair: e.sign for e in edges}
        triples = set()
        keys = sorted(sign)
        for i, (u, v) in enumerate(keys):
            for (a, b) in keys[i + 1 :]:
                nodes = {u, v, a, b}
                if len(nodes) != 3:
                    continue
                x, y, z = sorted(nodes)
                if ((x, y) in sign and (x, z) in sign and (y, z) in sign):
                    triples.add((x, y, z))
        return triples

    assert triangle_set(out) <= triangle_set(train)


# -- the list-based candidate scan and selection, kept as oracles for the columnar code --


def list_generate_candidates(graph, state, train, config):
    """Additions as ``[(EdgeSample, conf)]`` and deletions as a list, one pair at a time."""
    from sigaug.augment import _all_pairs, _two_hop_pairs

    if config.candidate_scope == "all-pairs":
        us, vs = _all_pairs(graph.num_nodes)
    else:
        us, vs = _two_hop_pairs(graph)
    train_signs = {e.pair: e.sign for e in train}
    additions = []
    probs = pair_class_probabilities(state, us, vs)
    for cu, cv, p in zip(us.tolist(), vs.tolist(), probs):
        p_pos, p_neg = p[CLASS_POS], p[CLASS_NEG]
        fire_pos, fire_neg = p_pos > config.eps_add_pos, p_neg > config.eps_add_neg
        pick_neg = fire_neg and (not fire_pos or p_neg > p_pos)
        if not (fire_pos or pick_neg):
            continue
        sign = -1 if pick_neg else 1
        if train_signs.get((cu, cv)) == sign:
            continue
        additions.append((EdgeSample(cu, cv, sign), float(p_neg if pick_neg else p_pos)))
    additions.sort(key=lambda item: (-item[1], item[0].u, item[0].v))
    if config.max_additions is not None:
        additions = additions[: config.max_additions]
    deletions = []
    for e in train:
        p = pair_class_probabilities(state, [e.pair[0]], [e.pair[1]])[0]
        if e.sign == 1 and p[CLASS_POS] < config.eps_del_pos:
            deletions.append(e.canonical())
        elif e.sign == -1 and p[CLASS_NEG] < config.eps_del_neg:
            deletions.append(e.canonical())
    return additions, deletions


def list_select_beneficial(train, additions, deletions, counts):
    """Kept records then accepted additions, checked on a dict-of-dicts working graph."""
    adj = {}
    kept = []
    deleted = {d.pair for d in deletions}
    for e in train:
        e = e.canonical()
        if e.pair in deleted:
            counts.deleted_pos += e.sign == 1
            counts.deleted_neg += e.sign == -1
        elif e.v not in adj.get(e.u, {}):
            adj.setdefault(e.u, {})[e.v] = adj.setdefault(e.v, {})[e.u] = e.sign
            kept.append(e)
    for cand in additions:
        u, v = cand.pair
        if v in adj.get(u, {}):
            continue
        nbrs_u, nbrs_v = adj.get(u, {}), adj.get(v, {})
        if any(cand.sign * s * nbrs_v[k] < 0 for k, s in nbrs_u.items() if k in nbrs_v):
            counts.rejected += 1
            continue
        adj.setdefault(u, {})[v] = adj.setdefault(v, {})[u] = cand.sign
        kept.append(EdgeSample(u, v, cand.sign))
        counts.added_pos += cand.sign == 1
        counts.added_neg += cand.sign == -1
    return kept


def records(max_nodes=12, max_size=40):
    """Signed records on a few nodes, in either orientation, repeats and clashes included."""
    pair = st.tuples(st.integers(0, max_nodes - 1), st.integers(0, max_nodes - 1))
    return st.lists(
        st.builds(lambda p, s: EdgeSample(p[0], p[1], s),
                  pair.filter(lambda p: p[0] != p[1]), st.sampled_from([1, -1])),
        max_size=max_size,
    )


def as_input(samples, columns):
    """``samples`` as given, or as ``EdgeColumns``."""
    if not columns:
        return samples
    rows = np.array([(e.u, e.v, e.sign) for e in samples], dtype=np.int64).reshape(-1, 3)
    return EdgeColumns(*rows.T)


@given(records(), records(), records(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_selection_matches_list_oracle(train, additions, deletions, columns):
    expected_log = AugmentationLog()
    expected = list_select_beneficial(train, additions, deletions, expected_log)
    log = AugmentationLog()
    cands = candidate_sets([(e, 0.5) for e in additions], deletions)
    out = select_beneficial(as_input(train, columns), cands, log)
    assert isinstance(out, EdgeColumns)
    assert list(out) == expected
    assert log == expected_log


@given(st.integers(0, 2**32 - 1), records(max_nodes=10), st.sampled_from(["two-hop", "all-pairs"]),
       st.floats(0.2, 0.9), st.floats(0.2, 0.9), st.floats(0.0, 0.6), st.floats(0.0, 0.6),
       st.one_of(st.none(), st.integers(0, 6)), st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_candidates_match_list_oracle(seed, train, scope, add_pos, add_neg, del_pos, del_neg,
                                      cap, columns, flat):
    rng = np.random.default_rng(seed)
    graph = graph_from_samples([e.canonical() for e in {e.pair: e for e in train}.values()], 10)
    if flat:  # every pair ties on confidence, so the (u, v) tie-break decides the order
        state = uniform_prob_state(10, rng.dirichlet(np.ones(3)))
    else:
        state = crafted_state(rng.normal(size=(10, 3)), rng.normal(scale=2.0, size=(6, 3)))
    cfg = AugmentConfig(eps_add_pos=add_pos, eps_add_neg=add_neg, eps_del_pos=del_pos,
                        eps_del_neg=del_neg, candidate_scope=scope, max_additions=cap)
    additions, deletions = list_generate_candidates(graph, state, train, cfg)
    cands = generate_candidates(graph, state, as_input(train, columns), cfg)
    assert list(cands.additions) == [e for e, _ in additions]
    assert cands.confidence.tolist() == [conf for _, conf in additions]
    assert list(cands.deletions) == deletions


# -- full augmentation pass --------------------------------------------------------


def test_augment_noop_extremes_is_identity(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=20, seed=0)
    cfg = AugmentConfig(eps_add_pos=1.0, eps_add_neg=1.0, eps_del_pos=0.0, eps_del_neg=0.0)
    out, logrec, _ = augment(g, edges, enc, cfg)
    assert list(out) == list(edges)
    assert logrec.added_pos == logrec.added_neg == 0
    assert logrec.deleted_pos == logrec.deleted_neg == 0
    assert logrec.density_before == logrec.density_after


def test_augment_deterministic(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=20, seed=4)
    cfg = AugmentConfig(eps_del_pos=0.15, eps_del_neg=0.15)
    a, _, _ = augment(g, edges, enc, cfg)
    b, _, _ = augment(g, edges, enc, cfg)
    assert list(a) == list(b)


def test_augment_uses_pretrained_state(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=20, seed=4)
    cfg = AugmentConfig()
    state = train_encoder(g, edges, enc)
    direct, log_direct, _ = augment(g, edges, enc, cfg, pretrained=state)
    fresh, log_fresh, _ = augment(g, edges, enc, cfg)
    assert list(direct) == list(fresh)
    assert log_direct.pretrain_loss == log_fresh.pretrain_loss


def test_augment_log_counts_consistent(small_community):
    edges, g = small_community
    enc = EncoderConfig(embed_dim=8, epochs=30, seed=1)
    cfg = AugmentConfig(eps_add_pos=0.8, eps_add_neg=0.8, eps_del_pos=0.15, eps_del_neg=0.15)
    out, logrec, after = augment(g, edges, enc, cfg)
    expected = (
        len(edges)
        - logrec.deleted_pos
        - logrec.deleted_neg
        + logrec.added_pos
        + logrec.added_neg
    )
    assert len(out) == expected
    # every addition candidate is accepted, rejected, or skipped as occupied
    assert logrec.rejected + logrec.added_pos + logrec.added_neg <= logrec.candidate_additions
    # the returned graph holds exactly the augmented edges
    assert after.num_nodes == g.num_nodes
    assert list(after.edge_columns()) == sorted(out)
