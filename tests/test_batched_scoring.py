"""The batched rank path against per-instance reference implementations.

The references below are the per-document loops that scored candidates one
instance at a time before training, prediction and ensembling shared one
batched path.  In 64-bit verification mode the batched path must reproduce
them up to summation order: losses and every parameter gradient, prediction
label lists and fused scores.
"""

import numpy as np
import pytest

from xmc import tensor as t
from xmc.cluster import ClusterMap, cluster_targets
from xmc.corpus import Document, Vocab, XmcDataset, batch_iter
from xmc.encoder import encode
from xmc.predict import ensemble_predict, evaluate, predict_batch
from xmc.recall import recall_loss, recall_scores, sample_candidates, top_clusters
from xmc.trainer import TrainConfig, init_bundle, joint_losses

from helpers import dense_grad, verify_mode

RTOL = 1e-10
# Absolute floor for gradient entries that are zero in exact arithmetic: a
# key bias cannot change a softmax, so its gradient is rounding noise near
# 1e-20 whose value depends on summation order.
GRAD_ATOL = 1e-12
MODELS = 50
VOCAB = 30


# ---------------------------------------------------------------------------
# per-instance references


def _reference_rank_row(rep_row, gathered, disc):
    """Probabilities of one instance's candidates, shape (n,)."""
    pre = t.add(
        t.matmul(disc.bottleneck_w, t.reshape(rep_row, (rep_row.shape[0], 1))),
        t.reshape(disc.bottleneck_b, (disc.embed_dim, 1)),
    )
    h = t.sigmoid(pre)
    return t.reshape(t.sigmoid(t.matmul(gathered, h)), (gathered.shape[0],))


def _reference_joint_losses(batch, bundle, b_top, training=True):
    cmap = bundle.cluster_map
    rep = encode(batch.token_ids, batch.mask, bundle.enc_config, bundle.params, training, bundle.rng)
    scores = recall_scores(rep, bundle.generator)
    targets = np.stack([cluster_targets(labels, cmap) for labels in batch.labels])
    loss_g = recall_loss(scores, targets)
    candidates = sample_candidates(scores.data, cmap, b_top, positives=batch.labels)
    per_instance = []
    for i, cs in enumerate(candidates):
        gathered = t.embedding(bundle.discriminator.label_emb, cs.labels)
        probs = _reference_rank_row(t.take(rep, i, axis=0), gathered, bundle.discriminator)
        per_instance.append(t.bce_loss(probs, cs.is_positive.astype(np.float64)))
    loss_d = t.scale(t.add_n(per_instance), 1.0 / len(candidates))
    return t.add(loss_g, loss_d), loss_g, loss_d


def _reference_fused_candidates(view, rep_row, cluster_probs, b_top):
    cmap = view.cluster_map
    chosen = top_clusters(cluster_probs, b_top)
    labels = np.concatenate([cmap.members[c] for c in chosen])
    recall_part = np.concatenate([np.full(len(cmap.members[c]), cluster_probs[c]) for c in chosen])
    gathered = t.embedding(view.discriminator.label_emb, labels)
    rank_part = _reference_rank_row(rep_row, gathered, view.discriminator).data
    return labels, recall_part * rank_part


def _reference_top_k(labels, fused, k):
    order = np.lexsort((labels, -fused))[:k]
    return labels[order], fused[order]


def _reference_rows(view, token_ids, mask):
    rep = encode(token_ids, mask, view.enc_config, view.params, training=False, rng=view.rng)
    return rep, recall_scores(rep, view.generator).data


def _reference_predict_batch(token_ids, mask, bundle, b_top, k):
    rep, cluster_probs = _reference_rows(bundle, token_ids, mask)
    return [
        _reference_top_k(*_reference_fused_candidates(bundle, t.take(rep, i, axis=0), cluster_probs[i], b_top), k)
        for i in range(token_ids.shape[0])
    ]


def _reference_ensemble_predict(bundles, token_ids, mask, b_top, k):
    batch = token_ids.shape[0]
    totals = np.zeros((batch, bundles[0].num_labels))
    for view in bundles:
        rep, cluster_probs = _reference_rows(view, token_ids, mask)
        for i in range(batch):
            clamped = min(b_top, view.cluster_map.num_clusters)
            labels, fused = _reference_fused_candidates(view, t.take(rep, i, axis=0), cluster_probs[i], clamped)
            totals[i, labels] += fused
    totals /= len(bundles)
    out = []
    for i in range(batch):
        present = np.flatnonzero(totals[i] > 0.0)
        out.append(_reference_top_k(present, totals[i, present], k))
    return out


# ---------------------------------------------------------------------------
# random micro models


def _random_cluster_map(rng, num_labels):
    """Clusters of uneven sizes, so candidate sets are ragged within a batch."""
    cuts = np.sort(rng.choice(np.arange(1, num_labels), size=int(rng.integers(1, min(6, num_labels))), replace=False))
    assign = np.empty(num_labels, dtype=np.int64)
    for cid, labels in enumerate(np.split(rng.permutation(num_labels), cuts)):
        assign[labels] = cid
    return ClusterMap(assign, s=int(np.bincount(assign).max()), seed=0)


def _random_bundle(rng, num_labels):
    cmap = _random_cluster_map(rng, num_labels)
    config = TrainConfig(
        batch_size=int(rng.integers(1, 6)), b_top=int(rng.integers(1, cmap.num_clusters + 1)),
        embed_dim=int(rng.integers(2, 7)), cluster_size=cmap.s, max_len=8, dropout=0.3,
        hidden=8, n_layers=2, n_heads=2, ff_dim=16, seed=int(rng.integers(0, 10_000)),
    )
    bundle = init_bundle(config, vocab_size=VOCAB, cluster_map=cmap)
    # spread the initial scores so rankings are not decided by ties
    bundle.generator.bias.data[:] = rng.normal(size=cmap.num_clusters)
    bundle.discriminator.label_emb.data *= 3.0
    bundle.discriminator.bottleneck_b.data[:] = rng.normal(size=config.embed_dim)
    return bundle


def _random_dataset(rng, num_labels, batch_size):
    docs = []
    for i in range(batch_size):
        length = int(rng.integers(2, 8))
        tokens = [1] + rng.integers(3, VOCAB, size=length - 1).tolist()
        labels = tuple(sorted(rng.choice(num_labels, size=int(rng.integers(1, 4)), replace=False).tolist()))
        docs.append(Document(i, tokens, labels, None))
    vocab = Vocab({f"tok{i}": 3 + i for i in range(VOCAB - 3)})
    return XmcDataset(docs, num_labels=num_labels, feature_dim=4, split="test", vocab=vocab)


def _random_batch(rng, num_labels, batch_size):
    return next(batch_iter(_random_dataset(rng, num_labels, batch_size), batch_size, seed=0, shuffle=False))


def _problems():
    rng = np.random.default_rng(2101)
    for _ in range(MODELS):
        num_labels = int(rng.integers(4, 24))
        bundle = _random_bundle(rng, num_labels)
        yield rng, num_labels, bundle, _random_batch(rng, num_labels, bundle.config.batch_size)


def _assert_same_predictions(new, reference):
    assert len(new) == len(reference)
    for pred, (labels, scores) in zip(new, reference):
        assert pred.labels.tolist() == labels.tolist()
        np.testing.assert_allclose(pred.scores, scores, rtol=RTOL, atol=0.0)


# ---------------------------------------------------------------------------


def test_joint_losses_and_gradients_match_per_instance_reference():
    with verify_mode():
        for _, _, bundle, batch in _problems():
            config = bundle.config

            def run(forward):
                for p in bundle.params.values():
                    p.grad = None
                bundle.rng = np.random.default_rng(17)  # identical dropout masks
                with t.record() as tape:
                    total, loss_g, loss_d = forward()[:3]
                    tape.backward(total)
                grads = {n: None if p.grad is None else dense_grad(p).copy() for n, p in bundle.params.items()}
                return [float(v.data) for v in (total, loss_g, loss_d)], grads

            values, grads = run(lambda: joint_losses(batch, bundle, b_top=config.b_top))
            ref_values, ref_grads = run(lambda: _reference_joint_losses(batch, bundle, config.b_top))
            np.testing.assert_allclose(values, ref_values, rtol=RTOL, atol=0.0)
            assert grads.keys() == ref_grads.keys()
            for name, ref in ref_grads.items():
                if ref is None:
                    assert grads[name] is None, name
                else:
                    np.testing.assert_allclose(grads[name], ref, rtol=RTOL, atol=GRAD_ATOL, err_msg=name)


def test_predict_batch_matches_per_instance_reference():
    with verify_mode():
        for rng, num_labels, bundle, batch in _problems():
            b_top = int(rng.integers(1, bundle.cluster_map.num_clusters + 1))
            k = int(rng.integers(1, num_labels + 2))
            new = predict_batch(batch.token_ids, batch.mask, bundle, b_top, k)
            _assert_same_predictions(new, _reference_predict_batch(batch.token_ids, batch.mask, bundle, b_top, k))
            assert all(p.short == (len(p.labels) < k) for p in new)


def test_ensemble_predict_matches_dense_buffer_reference():
    with verify_mode():
        for rng, num_labels, bundle, batch in _problems():
            # members with their own cluster maps over the same label space
            members = [bundle] + [
                _random_bundle(rng, num_labels) for _ in range(int(rng.integers(1, 3)))
            ]
            # above some members' K, so their clamp is exercised
            b_top = max(m.cluster_map.num_clusters for m in members)
            k = int(rng.integers(1, num_labels + 2))
            new = ensemble_predict(members, batch.token_ids, batch.mask, b_top, k)
            reference = _reference_ensemble_predict(members, batch.token_ids, batch.mask, b_top, k)
            _assert_same_predictions(new, reference)


def _reference_cluster_recall(bundles, batch, b_top):
    """Micro-averaged cluster recall from a second encode of the batch."""
    covered = 0.0
    for view in bundles:
        _, cluster_probs = _reference_rows(view, batch.token_ids, batch.mask)
        for i, labels in enumerate(batch.labels):
            chosen = top_clusters(cluster_probs[i], min(b_top, view.cluster_map.num_clusters))
            frac = np.isin(view.cluster_map.assign[list(labels)], chosen).sum() / len(labels)
            covered += frac * len(labels) / len(bundles)
    return covered / sum(len(labels) for labels in batch.labels)


def test_evaluate_cluster_recall_matches_second_encode_reference():
    with verify_mode():
        rng = np.random.default_rng(7)
        for _ in range(10):
            num_labels = int(rng.integers(4, 24))
            members = [_random_bundle(rng, num_labels) for _ in range(2)]
            dataset = _random_dataset(rng, num_labels, int(rng.integers(1, 9)))
            batch = next(batch_iter(dataset, len(dataset), seed=0, shuffle=False))
            b_top = min(m.cluster_map.num_clusters for m in members)
            for bundles in (members[:1], members):
                report = evaluate(dataset, bundles, b_top=b_top)
                assert report.cluster_recall == pytest.approx(_reference_cluster_recall(bundles, batch, b_top), rel=1e-12)


@pytest.mark.parametrize("b_top", [0, 99])
def test_predict_batch_rejects_b_top_outside_range(b_top):
    from xmc.errors import ConfigError

    rng = np.random.default_rng(0)
    bundle = _random_bundle(rng, 8)
    batch = _random_batch(rng, 8, 2)
    with pytest.raises(ConfigError):
        predict_batch(batch.token_ids, batch.mask, bundle, b_top, 3)
