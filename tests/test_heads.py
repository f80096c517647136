"""Recall-head and rank-head tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import tensor as t
from xmc.cluster import ClusterMap
from xmc.errors import ConfigError, ContractError, DimensionError
from xmc.recall import (
    CandidateSet,
    GeneratorParams,
    init_generator,
    recall_loss,
    recall_scores,
    sample_candidates,
    top_clusters,
)
from xmc.rank import (
    DiscriminatorParams,
    gather_embeddings,
    init_discriminator,
    pad_candidates,
    rank_loss,
    rank_scores,
)

from helpers import param


def _map_of_pairs(num_clusters=4):
    members = [np.array([2 * c, 2 * c + 1]) for c in range(num_clusters)]
    assign = np.repeat(np.arange(num_clusters), 2)
    return ClusterMap(assign, members, s=2, seed=0)


def _gen(k=4, width=6, zero=True):
    params = init_generator(k, width, np.random.default_rng(0))
    if zero:
        params.weight.data[:] = 0.0
        params.bias.data[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# recall scores / loss


def test_recall_scores_zero_params_give_half():
    params = _gen()
    rep = t.constant(np.random.default_rng(1).normal(size=(3, 6)))
    scores = recall_scores(rep, params).data
    assert np.allclose(scores, 0.5)


def test_recall_scores_saturating_bias():
    params = _gen()
    params.bias.data[2] = 100.0
    scores = recall_scores(t.constant(np.zeros((1, 6))), params).data
    assert scores[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert scores[0, 2] <= 1.0


def test_recall_scores_row_permutation_equivariance():
    rng = np.random.default_rng(2)
    params = GeneratorParams(
        weight=t.Tensor(rng.normal(size=(4, 6)), requires_grad=True),
        bias=t.Tensor(rng.normal(size=4), requires_grad=True),
    )
    rep = t.constant(rng.normal(size=(2, 6)))
    base = recall_scores(rep, params).data
    perm = np.array([2, 0, 3, 1])
    permuted = GeneratorParams(
        weight=t.constant(params.weight.data[perm]), bias=t.constant(params.bias.data[perm])
    )
    assert np.allclose(recall_scores(rep, permuted).data, base[:, perm])


def test_recall_scores_width_mismatch():
    with pytest.raises(DimensionError):
        recall_scores(t.constant(np.zeros((1, 5))), _gen(width=6))


def test_recall_loss_all_half():
    scores = t.constant(np.full((2, 16), 0.5))
    y = np.zeros((2, 16))
    y[:, 0] = 1
    assert float(recall_loss(scores, y).data) == pytest.approx(16 * math.log(2), rel=1e-6)


def test_recall_loss_scalar_oracle():
    scores = t.constant(np.array([[0.9, 0.1]]))
    loss = float(recall_loss(scores, np.array([[1.0, 0.0]])).data)
    assert loss == pytest.approx(0.2107, abs=2e-4)


def test_recall_loss_rejects_non_binary_targets():
    with pytest.raises(ContractError):
        recall_loss(t.constant(np.array([[0.5]])), np.array([[0.3]]))


# ---------------------------------------------------------------------------
# candidate sampling


def test_sample_candidates_top2_example():
    cmap = _map_of_pairs()
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    (cs,) = sample_candidates(scores, cmap, b_top=2)
    assert cs.labels.tolist() == [0, 1, 4, 5]
    assert not cs.is_positive.any()
    assert cs.clusters.tolist() == [0, 0, 2, 2]


def test_sample_candidates_positive_injection():
    cmap = _map_of_pairs()
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    (cs,) = sample_candidates(scores, cmap, b_top=2, positives=[{6}])
    assert cs.labels.tolist() == [0, 1, 4, 5, 6]
    assert cs.is_positive.tolist() == [False, False, False, False, True]


def test_sample_candidates_positive_already_present_not_duplicated():
    cmap = _map_of_pairs()
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    (cs,) = sample_candidates(scores, cmap, b_top=2, positives=[{4, 7}])
    assert cs.labels.tolist() == [0, 1, 4, 5, 7]
    assert cs.is_positive.tolist() == [False, False, True, False, True]
    assert len(np.unique(cs.labels)) == len(cs.labels)


def test_sample_candidates_btop_k_exhaustive():
    cmap = _map_of_pairs()
    (cs,) = sample_candidates(np.array([0.1, 0.4, 0.3, 0.2]), cmap, b_top=4)
    assert sorted(cs.labels.tolist()) == list(range(8))


def test_sample_candidates_btop_out_of_range():
    cmap = _map_of_pairs()
    with pytest.raises(ConfigError):
        sample_candidates(np.zeros(4), cmap, b_top=5)
    with pytest.raises(ConfigError):
        sample_candidates(np.zeros(4), cmap, b_top=0)


def test_sample_candidates_tie_breaks_by_cluster_id():
    cmap = _map_of_pairs()
    (cs,) = sample_candidates(np.array([0.5, 0.5, 0.5, 0.5]), cmap, b_top=2)
    assert cs.labels.tolist() == [0, 1, 2, 3]


def test_sample_candidates_dynamic_recomputation():
    cmap = _map_of_pairs()
    scores = np.array([0.9, 0.1, 0.8, 0.2])
    (before,) = sample_candidates(scores, cmap, b_top=1)
    perturbed = scores.copy()
    perturbed[3] = 0.95
    (after,) = sample_candidates(perturbed, cmap, b_top=1)
    assert before.labels.tolist() == [0, 1]
    assert after.labels.tolist() == [6, 7]


def _lexsort_top_clusters(scores_row, b_top):
    """Reference: full O(K log K) sort by (score desc, id asc)."""
    return np.lexsort((np.arange(len(scores_row)), -scores_row))[:b_top]


@settings(max_examples=300, deadline=None)
@given(
    scores=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, math.nan]), min_size=1, max_size=40),
    data=st.data(),
)
def test_top_clusters_matches_full_sort_reference(scores, data):
    # few distinct values, so ties at the cut are common
    scores = np.array(scores)
    b_top = data.draw(st.integers(1, len(scores)))
    assert top_clusters(scores, b_top).tolist() == _lexsort_top_clusters(scores, b_top).tolist()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), b_top=st.integers(1, 4))
def test_candidate_properties_randomized(seed, b_top):
    rng = np.random.default_rng(seed)
    cmap = _map_of_pairs()
    scores = rng.random(4)
    positives = [set(rng.choice(8, size=rng.integers(1, 4), replace=False).tolist())]
    (cs,) = sample_candidates(scores, cmap, b_top=b_top, positives=positives)
    # positives always present, exactly once
    assert positives[0] <= set(cs.labels.tolist())
    assert len(np.unique(cs.labels)) == len(cs.labels)
    # size bound
    assert len(cs) <= b_top * cmap.s + len(positives[0])
    # prefix monotonicity of top-b selection
    if b_top < 4:
        smaller = set(top_clusters(scores, b_top).tolist())
        larger = set(top_clusters(scores, b_top + 1).tolist())
        assert smaller <= larger


# ---------------------------------------------------------------------------
# rank head


def _disc(num_labels=8, embed_dim=4, rep_width=6, seed=0):
    return init_discriminator(num_labels, embed_dim, rep_width, np.random.default_rng(seed))


def test_gather_single_row():
    disc = _disc()
    gathered = gather_embeddings(disc.label_emb, np.array([0]))
    assert np.array_equal(gathered.data[0], disc.label_emb.data[0])


def test_gather_scatter_locality():
    disc = _disc()
    with t.record() as tape:
        gathered = gather_embeddings(disc.label_emb, np.array([2, 5]))
        tape.backward(t.sum_all(gathered))
    grad = disc.label_emb.grad
    assert np.all(grad[[2, 5]] == 1.0)
    mask = np.ones(8, dtype=bool)
    mask[[2, 5]] = False
    assert np.all(grad[mask] == 0.0)


def test_gather_shape_embed_dim():
    disc = _disc(num_labels=700, embed_dim=400)
    gathered = gather_embeddings(disc.label_emb, np.arange(9))
    assert gathered.shape == (9, 400)


def test_gather_out_of_range():
    disc = _disc()
    with pytest.raises(ContractError):
        gather_embeddings(disc.label_emb, np.array([8]))


def test_rank_scores_zero_embeddings_half():
    disc = _disc()
    disc.label_emb.data[:] = 0.0
    rep = t.constant(np.random.default_rng(0).normal(size=(2, 6)))
    gathered = gather_embeddings(disc.label_emb, np.array([[0, 3, 7], [1, 2, 0]]))
    scores = rank_scores(rep, gathered, disc).data
    assert scores.shape == (2, 3)
    assert np.allclose(scores, 0.5)


def test_rank_scores_all_ones_row_oracle():
    # W=0, b=0 -> h = 0.5 everywhere; all-ones embedding row of dim d -> sigma(d/2)
    d = 4
    disc = _disc(embed_dim=d)
    disc.bottleneck_w.data[:] = 0.0
    disc.bottleneck_b.data[:] = 0.0
    disc.label_emb.data[0] = 1.0
    rep = t.constant(np.random.default_rng(0).normal(size=(1, 6)))
    gathered = gather_embeddings(disc.label_emb, np.array([[0]]))
    score = float(rank_scores(rep, gathered, disc).data[0, 0])
    assert score == pytest.approx(1.0 / (1.0 + math.exp(-d / 2)), rel=1e-6)


def test_rank_scores_decoupled_from_rep_when_w_zero():
    disc = _disc()
    disc.bottleneck_w.data[:] = 0.0
    gathered = gather_embeddings(disc.label_emb, np.array([[1, 2]]))
    rng = np.random.default_rng(1)
    a = rank_scores(t.constant(rng.normal(size=(1, 6))), gathered, disc).data
    b = rank_scores(t.constant(rng.normal(size=(1, 6)) * 10), gathered, disc).data
    assert np.allclose(a, b)


def test_rank_scores_candidate_permutation_equivariance():
    disc = _disc()
    rep = t.constant(np.random.default_rng(2).normal(size=(1, 6)))
    ids = np.array([[1, 4, 6]])
    base = rank_scores(rep, gather_embeddings(disc.label_emb, ids), disc).data
    perm = np.array([2, 0, 1])
    permuted = rank_scores(rep, gather_embeddings(disc.label_emb, ids[:, perm]), disc).data
    assert np.allclose(permuted, base[:, perm])



def _row(values):
    """One batch row of scores with every slot valid."""
    scores = t.constant(np.array([values]))
    return scores, np.ones(scores.shape, dtype=bool)


def test_rank_loss_symmetry_case():
    scores, keep = _row([0.5] * 6)
    loss = float(rank_loss(scores, np.array([[1, 0, 0, 0, 0, 0]], dtype=bool), keep).data)
    assert loss == pytest.approx(6 * math.log(2), rel=1e-6)


def test_rank_loss_perfect_near_zero():
    scores, keep = _row([1 - 1e-9, 1e-9])
    loss = float(rank_loss(scores, np.array([[True, False]]), keep).data)
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_rank_loss_scalar_oracle_and_inversion():
    scores, keep = _row([0.9, 0.1])
    flags = np.array([[True, False]])
    assert float(rank_loss(scores, flags, keep).data) == pytest.approx(0.2107, abs=2e-4)
    inverted = float(rank_loss(scores, ~flags, keep).data)
    assert inverted == pytest.approx(-2 * math.log(0.1), rel=1e-3)


def test_rank_loss_padding_adds_no_loss_or_gradient():
    # row 0 has two candidates, row 1 three; the padded slot scores 0.9 and is
    # flagged positive, and must still count for nothing
    sets = [
        CandidateSet(np.array([3, 5]), np.array([True, False]), np.array([1, 2])),
        CandidateSet(np.array([1, 4, 6]), np.array([False, True, False]), np.array([0, 2, 3])),
    ]
    ids, keep, flags = pad_candidates(sets)
    assert ids.tolist() == [[3, 5, 0], [1, 4, 6]]
    assert keep.tolist() == [[True, True, False], [True, True, True]]
    assert flags.tolist() == [[True, False, False], [False, True, False]]
    probs = param(np.array([[0.8, 0.3, 0.9], [0.2, 0.7, 0.4]]))
    with t.record() as tape:
        loss = rank_loss(probs, flags | ~keep, keep)
        tape.backward(loss)
    rows = [
        t.bce_loss(t.constant(np.array([0.8, 0.3])), np.array([1.0, 0.0])),
        t.bce_loss(t.constant(np.array([0.2, 0.7, 0.4])), np.array([0.0, 1.0, 0.0])),
    ]
    assert float(loss.data) == pytest.approx((float(rows[0].data) + float(rows[1].data)) / 2, rel=1e-12)
    assert probs.grad[0, 2] == 0.0
    assert np.all(probs.grad[keep] != 0.0)


def test_discriminator_param_count_formula():
    rng = np.random.default_rng(0)
    for _ in range(5):
        num_labels = int(rng.integers(5, 400))
        embed_dim = int(rng.integers(2, 64))
        rep_width = int(rng.integers(4, 128))
        disc = init_discriminator(num_labels, embed_dim, rep_width, rng)
        assert disc.param_count() == num_labels * embed_dim + embed_dim * (rep_width + 1)
