"""Prediction and evaluation tests, including the exhaustive-scoring oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import tensor as t
from xmc.cluster import ClusterMap
from xmc.corpus import Document, Vocab, XmcDataset
from xmc.errors import ConfigError
from xmc.predict import (
    EvalReport,
    Prediction,
    cluster_recall,
    ensemble_predict,
    evaluate,
    precision_at_k,
    predict_batch,
)
from xmc.recall import top_clusters
from xmc.trainer import TrainConfig, init_bundle


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _bundle(num_labels=8, num_clusters=4, seed=0, **cfg):
    config = TrainConfig(
        epochs=1,
        batch_size=2,
        b_top=2,
        embed_dim=4,
        cluster_size=num_labels // num_clusters,
        max_len=8,
        hidden=8,
        n_layers=2,
        n_heads=2,
        ff_dim=16,
        seed=seed,
        **cfg,
    )
    per = num_labels // num_clusters
    cmap = ClusterMap(np.repeat(np.arange(num_clusters), per), s=per, seed=seed)
    return init_bundle(config, vocab_size=30, cluster_map=cmap)


def _tokens(batch=2, seq=5, seed=0):
    rng = np.random.default_rng(seed)
    ids = np.concatenate(
        [np.ones((batch, 1), dtype=np.int64), rng.integers(3, 30, size=(batch, seq - 1))], axis=1
    )
    return ids, np.ones_like(ids, dtype=bool)


def brute_force_scores(bundle, token_ids, mask):
    """Independent oracle: score every label directly from raw arrays."""
    from xmc.encoder import encode
    from xmc.recall import recall_scores

    rep = encode(token_ids, mask, bundle.enc_config, bundle.params, False, bundle.rng).data
    cluster_probs = recall_scores(
        t.constant(rep), bundle.generator
    ).data
    E = bundle.discriminator.label_emb.data
    W = bundle.discriminator.bottleneck_w.data
    b = bundle.discriminator.bottleneck_b.data
    out = np.zeros((token_ids.shape[0], bundle.num_labels))
    for i in range(token_ids.shape[0]):
        h = _sigmoid(W @ rep[i] + b)
        for label in range(bundle.num_labels):
            rank_prob = _sigmoid(float(E[label] @ h))
            out[i, label] = cluster_probs[i, bundle.cluster_map.assign[label]] * rank_prob
    return out


# ---------------------------------------------------------------------------
# predict


def test_fused_score_is_product():
    bundle = _bundle()
    ids, mask = _tokens(batch=1)
    oracle = brute_force_scores(bundle, ids, mask)
    (pred,) = predict_batch(ids, mask, bundle, b_top=bundle.cluster_map.num_clusters, k=3)
    top = pred.labels[0]
    assert pred.scores[0] == pytest.approx(oracle[0, top], rel=1e-5)
    assert 0.0 < pred.scores[0] < 1.0


def test_predict_matches_exhaustive_oracle_ordering():
    for seed in range(5):
        bundle = _bundle(seed=seed)
        ids, mask = _tokens(batch=3, seed=seed)
        oracle = brute_force_scores(bundle, ids, mask)
        preds = predict_batch(ids, mask, bundle, b_top=bundle.cluster_map.num_clusters, k=8)
        for i, pred in enumerate(preds):
            expected = np.lexsort((np.arange(8), -oracle[i]))
            assert pred.labels.tolist() == expected.tolist()


def test_predict_scores_non_increasing_and_distinct_labels():
    bundle = _bundle(seed=2)
    ids, mask = _tokens(batch=2, seed=2)
    for pred in predict_batch(ids, mask, bundle, b_top=2, k=4):
        assert np.all(np.diff(pred.scores) <= 1e-12)
        assert len(set(pred.labels.tolist())) == len(pred.labels)


def test_predict_is_pure():
    bundle = _bundle(seed=4)
    ids, mask = _tokens(batch=2, seed=4)
    a = predict_batch(ids, mask, bundle, b_top=2, k=4)
    b = predict_batch(ids, mask, bundle, b_top=2, k=4)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.labels, pb.labels)
        assert np.array_equal(pa.scores, pb.scores)


def test_predict_short_list_flag():
    bundle = _bundle()  # 4 clusters of 2: b_top=1 -> only 2 candidates
    ids, mask = _tokens(batch=1)
    (pred,) = predict_batch(ids, mask, bundle, b_top=1, k=5)
    assert pred.short
    assert len(pred.labels) == 2


def test_predict_tie_breaks_by_label_id():
    bundle = _bundle()
    # zero embeddings make every rank prob 0.5; zero generator weights make
    # every cluster prob 0.5: all fused scores tie at 0.25
    bundle.discriminator.label_emb.data[:] = 0.0
    bundle.generator.weight.data[:] = 0.0
    bundle.generator.bias.data[:] = 0.0
    ids, mask = _tokens(batch=1)
    (pred,) = predict_batch(ids, mask, bundle, b_top=4, k=8)
    assert pred.labels.tolist() == list(range(8))


def test_fused_monotonicity_in_cluster_score():
    # raising a cluster's recall score never demotes its labels relative to
    # each other (their shared factor scales equally)
    bundle = _bundle(seed=6)
    ids, mask = _tokens(batch=1, seed=6)
    (before,) = predict_batch(ids, mask, bundle, b_top=4, k=8)
    bundle.generator.bias.data[0] += 2.0
    (after,) = predict_batch(ids, mask, bundle, b_top=4, k=8)
    cluster0 = set(bundle.cluster_map.members[0].tolist())
    rel_before = [l for l in before.labels.tolist() if l in cluster0]
    rel_after = [l for l in after.labels.tolist() if l in cluster0]
    assert rel_before == rel_after


# ---------------------------------------------------------------------------
# precision@k


def test_precision_worked_example():
    truth = {1, 2}
    ranking = [1, 3, 2, 4, 5]
    assert precision_at_k(ranking, truth, 1) == 1.0
    assert precision_at_k(ranking, truth, 3) == pytest.approx(2 / 3)
    assert precision_at_k(ranking, truth, 5) == pytest.approx(2 / 5)


def test_precision_perfect_and_disjoint():
    assert precision_at_k([4, 7], {4, 7}, 2) == 1.0
    assert precision_at_k([1, 2, 3], {9}, 3) == 0.0


def test_precision_short_ranking_counts_misses():
    assert precision_at_k([5], {5}, 5) == pytest.approx(1 / 5)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), k=st.integers(1, 10))
def test_precision_matches_set_oracle(seed, k):
    rng = np.random.default_rng(seed)
    ranking = rng.permutation(50)[: rng.integers(1, 20)].tolist()
    truth = set(rng.choice(50, size=rng.integers(1, 10), replace=False).tolist())
    oracle = len(set(ranking[:k]) & truth) / k
    assert precision_at_k(ranking, truth, k) == pytest.approx(oracle)


# ---------------------------------------------------------------------------
# cluster recall


def _toy_map():
    return ClusterMap(np.repeat(np.arange(4), 2), s=2, seed=0)


def test_cluster_recall_exhaustive_is_one():
    cmap = _toy_map()
    assert cluster_recall(top_clusters(np.array([0.1, 0.2, 0.3, 0.4]), 4), [0, 3, 6], cmap) == 1.0


def test_cluster_recall_single_cluster_covered():
    cmap = _toy_map()
    scores = np.array([0.9, 0.1, 0.1, 0.1])
    assert cluster_recall(top_clusters(scores, 1), [0, 1], cmap) == 1.0


def test_cluster_recall_half_covered():
    cmap = _toy_map()
    scores = np.array([0.9, 0.1, 0.1, 0.1])
    assert cluster_recall(top_clusters(scores, 1), [0, 7], cmap) == 0.5


# ---------------------------------------------------------------------------
# ensemble


def test_ensemble_of_identical_bundles_matches_single():
    bundle = _bundle(seed=8)
    ids, mask = _tokens(batch=2, seed=8)
    single = predict_batch(ids, mask, bundle, b_top=2, k=4)
    triple = ensemble_predict([bundle, bundle, bundle], ids, mask, b_top=2, k=4)
    for a, b in zip(single, triple):
        assert a.labels.tolist() == b.labels.tolist()
        assert np.allclose(a.scores, b.scores, atol=1e-7)


def test_ensemble_of_one_equals_predict():
    bundle = _bundle(seed=9)
    ids, mask = _tokens(batch=1, seed=9)
    (a,) = predict_batch(ids, mask, bundle, b_top=2, k=3)
    (b,) = ensemble_predict([bundle], ids, mask, b_top=2, k=3)
    assert a.labels.tolist() == b.labels.tolist()


def test_ensemble_absent_label_counts_zero():
    b1 = _bundle(seed=10)
    b2 = _bundle(seed=11)
    # force the two models to recall disjoint clusters
    b1.generator.bias.data[:] = np.array([10.0, -10.0, -10.0, -10.0])
    b2.generator.bias.data[:] = np.array([-10.0, 10.0, -10.0, -10.0])
    ids, mask = _tokens(batch=1, seed=10)
    (p1,) = predict_batch(ids, mask, b1, b_top=1, k=2)
    (pe,) = ensemble_predict([b1, b2], ids, mask, b_top=1, k=4)
    covered = dict(zip(p1.labels.tolist(), p1.scores.tolist()))
    for label, score in zip(pe.labels.tolist(), pe.scores.tolist()):
        if label in covered:
            assert score == pytest.approx(covered[label] / 2, rel=1e-6)


def test_ensemble_label_space_mismatch():
    b1 = _bundle(num_labels=8)
    b2 = _bundle(num_labels=12, num_clusters=4)
    ids, mask = _tokens(batch=1)
    with pytest.raises(ConfigError):
        ensemble_predict([b1, b2], ids, mask, b_top=1, k=2)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_perfect_memorizer_p1():
    # Rig a bundle so the fused score of label 0 dominates and evaluate docs
    # whose truth is always {0}: P@1 must be 1.
    bundle = _bundle(seed=12)
    bundle.generator.weight.data[:] = 0.0
    bundle.generator.bias.data[:] = np.array([10.0, -10.0, -10.0, -10.0])
    bundle.discriminator.bottleneck_w.data[:] = 0.0
    bundle.discriminator.label_emb.data[:] = -3.0
    bundle.discriminator.label_emb.data[0] = 3.0
    docs = [Document(i, [1, 4, 5], (0,), None) for i in range(6)]
    vocab = Vocab({f"tok{i}": 3 + i for i in range(27)})
    ds = XmcDataset(docs, num_labels=8, feature_dim=4, split="test", vocab=vocab)
    report = evaluate(ds, [bundle], b_top=1)
    assert report.precision[1] == 1.0
    assert report.cluster_recall == 1.0
    assert report.count == 6


def test_evaluate_report_formats():
    report = EvalReport(precision={1: 0.5, 3: 0.25, 5: 0.125}, cluster_recall=0.75, count=10)
    assert "P@1" in report.table()
    line = report.machine_lines()
    assert "p1=0.5" in line and "cluster_recall=0.75" in line and "instances=10" in line


def test_prediction_line_format():
    pred = Prediction(np.array([3, 1]), np.array([0.4, 0.25]))
    assert pred.as_line() == "3:0.4 1:0.25"
