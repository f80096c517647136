"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9 (real-dataset
smoke) is optional: it runs only when XMC_EURLEX_DIR points at the dataset.
"""

import os
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from xmc import tensor as t
from xmc.cluster import ClusterMap, bound_feasible, build_cluster_map
from xmc.predict import evaluate, precision_at_k, predict_batch
from xmc.recall import sample_candidates, top_clusters
from xmc.rank import init_discriminator
from xmc.synth import make_synthetic_corpus
from xmc.trainer import (
    TrainConfig,
    apply_preset,
    init_bundle,
    micro_joint_grad_check,
    resolve_b_top,
    train,
)

from helpers import corpus_datasets, param_count, verify_mode


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"\n[acceptance {number}] PASS  {description} ({elapsed:.1f}s)")


def _random_reps(num_labels, dim, rng):
    """(num_labels, dim) CSR reps: 1-5 random features per label, unit norm."""
    indices, values = [], []
    for _ in range(num_labels):
        k = int(rng.integers(1, 6))
        indices.append(np.sort(rng.choice(dim, size=k, replace=False)))
        val = rng.normal(size=k)
        values.append(val / np.linalg.norm(val))
    indptr = np.cumsum([0] + [len(i) for i in indices])
    return sp.csr_array((np.concatenate(values), np.concatenate(indices), indptr), shape=(num_labels, dim))


def test_criterion_1_gradient_fidelity():
    with criterion(1, "joint-loss gradients match finite differences at <1e-4 in <30s"):
        started = time.perf_counter()
        with verify_mode():
            err = micro_joint_grad_check(seed=3)
        elapsed = time.perf_counter() - started
        print(f"  max rel err = {err:.3e}, runtime = {elapsed:.1f}s")
        assert err < 1e-4
        assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_2_clustering_invariants(golden_cluster_maps, cluster_map_digest):
    with criterion(2, "200 random cluster maps: size bound, inversion, determinism, golden bytes in <60s"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        infeasible = 0
        for i in range(200):
            num_labels = int(rng.integers(10, 2001))
            s = int(rng.integers(2, 65))
            reps = _random_reps(num_labels, 24, rng)
            cmap = build_cluster_map(reps, s, seed=i)
            for c, labels in enumerate(cmap.members):  # exact assign/members inversion
                assert np.array_equal(labels, np.flatnonzero(cmap.assign == c)), (i, c)
            sizes = np.array([len(m) for m in cmap.members])
            assert sizes.sum() == num_labels
            if cmap.num_clusters > 1:
                assert np.all(sizes <= s)
                if bound_feasible(num_labels, s):
                    assert np.all(sizes > s / 2), (num_labels, s, sizes.min())
                else:
                    # (L, s) admits no partition with every part > s/2
                    # (e.g. s=2 with odd L); the bound relaxes to ceil(s/2)
                    infeasible += 1
                    assert np.all(sizes >= (s + 1) // 2)
            replay = build_cluster_map(reps, s, seed=i)
            assert np.array_equal(replay.assign, cmap.assign)
            assert cluster_map_digest(cmap) == golden_cluster_maps["criterion_2"][i], i
        elapsed = time.perf_counter() - started
        print(f"  200 instances ({infeasible} with arithmetically infeasible strict bound), "
              f"runtime = {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_3_candidate_set_properties():
    with criterion(3, "1000 random candidate sets: injection, size bound, prefix monotonicity in <10s"):
        started = time.perf_counter()
        rng = np.random.default_rng(99)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            s = int(rng.integers(1, 6))
            members = [np.arange(c * s, (c + 1) * s) for c in range(k)]
            cmap = ClusterMap(np.repeat(np.arange(k), s), s=s, seed=0)
            num_labels = k * s
            scores = rng.random(k)
            b_top = int(rng.integers(1, k + 1))
            n_pos = int(rng.integers(1, min(4, num_labels) + 1))
            positives = set(rng.choice(num_labels, size=n_pos, replace=False).tolist())
            (cs,) = sample_candidates(scores, cmap, b_top, positives=[positives])
            labels = cs.labels.tolist()
            assert positives <= set(labels)
            assert len(set(labels)) == len(labels)
            assert len(labels) <= b_top * s + len(positives)
            assert set(labels[: b_top * s]) == {
                l for c in top_clusters(scores, b_top) for l in members[c]
            }
            if b_top < k:
                assert set(top_clusters(scores, b_top).tolist()) <= set(
                    top_clusters(scores, b_top + 1).tolist()
                )
        elapsed = time.perf_counter() - started
        print(f"  runtime = {elapsed:.1f}s")
        assert elapsed < 10.0


def test_criterion_4_precision_oracle():
    with criterion(4, "P@k equals the set-intersection oracle on 1000 random cases"):
        truth = {1, 2}
        ranking = [1, 3, 2, 4, 5]
        assert precision_at_k(ranking, truth, 1) == 1.0
        assert precision_at_k(ranking, truth, 3) == pytest.approx(2 / 3)
        assert precision_at_k(ranking, truth, 5) == pytest.approx(2 / 5)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            space = int(rng.integers(5, 200))
            ranking = rng.permutation(space)[: rng.integers(1, 30)].tolist()
            truth = set(
                rng.choice(space, size=rng.integers(1, min(space, 12)), replace=False).tolist()
            )
            k = int(rng.integers(1, 10))
            assert precision_at_k(ranking, truth, k) == len(set(ranking[:k]) & truth) / k


def _random_model(rng):
    num_clusters = int(rng.integers(2, 9))
    per = int(rng.integers(1, 9))
    num_labels = num_clusters * per
    if num_labels > 64:
        per = 64 // num_clusters
        num_labels = num_clusters * per
    cmap = ClusterMap(np.repeat(np.arange(num_clusters), per), s=per, seed=0)
    config = TrainConfig(
        batch_size=2, b_top=num_clusters, embed_dim=6, cluster_size=per, max_len=8,
        hidden=8, n_layers=2, n_heads=2, ff_dim=16, seed=int(rng.integers(0, 10_000)),
    )
    bundle = init_bundle(config, vocab_size=40, cluster_map=cmap)
    # scatter the initialized weights so scores are spread out
    bundle.generator.bias.data[:] = rng.normal(size=num_clusters)
    bundle.discriminator.label_emb.data *= 3.0
    return bundle, num_labels


def _brute_force_scores(bundle, token_ids, mask):
    """Independent oracle: fused score of every label from raw array math."""
    from xmc.encoder import encode
    from xmc.recall import recall_scores

    rep = encode(token_ids, mask, bundle.enc_config, bundle.params, False, bundle.rng).data
    cluster_probs = recall_scores(t.constant(rep), bundle.generator).data
    E = bundle.discriminator.label_emb.data
    W = bundle.discriminator.bottleneck_w.data
    b = bundle.discriminator.bottleneck_b.data
    out = np.zeros((token_ids.shape[0], bundle.num_labels))
    for i in range(token_ids.shape[0]):
        h = 1.0 / (1.0 + np.exp(-(W @ rep[i] + b)))
        for label in range(bundle.num_labels):
            rank_prob = 1.0 / (1.0 + np.exp(-float(E[label] @ h)))
            out[i, label] = cluster_probs[i, bundle.cluster_map.assign[label]] * rank_prob
    return out


def test_criterion_5_exhaustive_ranking_equivalence():
    with criterion(5, "predict ordering equals brute-force scoring on 100 random models in <30s"):
        started = time.perf_counter()
        with verify_mode():
            rng = np.random.default_rng(5)
            for _ in range(100):
                bundle, num_labels = _random_model(rng)
                batch = int(rng.integers(1, 4))
                ids = np.concatenate(
                    [np.ones((batch, 1), dtype=np.int64), rng.integers(3, 40, size=(batch, 5))],
                    axis=1,
                )
                mask = np.ones_like(ids, dtype=bool)
                oracle = _brute_force_scores(bundle, ids, mask)
                preds = predict_batch(
                    ids, mask, bundle, b_top=bundle.cluster_map.num_clusters, k=num_labels
                )
                for i, pred in enumerate(preds):
                    expected = np.lexsort((np.arange(num_labels), -oracle[i]))
                    assert pred.labels.tolist() == expected.tolist()
        elapsed = time.perf_counter() - started
        print(f"  runtime = {elapsed:.1f}s")
        assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_6_synthetic_convergence():
    with criterion(6, "synthetic corpus: test P@1 >= 0.95 and cluster_recall@3 >= 0.99 in <10min"):
        started = time.perf_counter()
        sc = make_synthetic_corpus(num_labels=64, num_topics=8, n_train=2000, n_test=500, seed=7)
        train_ds, test_ds, _ = corpus_datasets(sc, max_len=16)
        config = apply_preset(TrainConfig(), "synth-64")
        assert (config.cluster_size, config.b_top, config.epochs, config.seed) == (8, 3, 20, 7)
        bundle, metrics = train(train_ds, config, log=lambda *_: None)
        b_top = resolve_b_top(config, train_ds, bundle.cluster_map)
        report = evaluate(test_ds, [bundle], b_top=b_top)  # SWA weights (present)
        raw = evaluate(test_ds, [bundle.inference_params(False)], b_top=b_top)
        first = metrics[0]["loss_g"] + metrics[0]["loss_d"]
        last = metrics[-1]["loss_g"] + metrics[-1]["loss_d"]
        elapsed = time.perf_counter() - started
        print(f"  swa: {report.machine_lines()}")
        print(f"  raw: {raw.machine_lines()}")
        print(f"  train loss epoch1={first:.3f} epoch20={last:.3f} ratio={last / first:.3f}")
        print(f"  runtime = {elapsed:.1f}s")
        assert report.precision[1] >= 0.95
        assert report.cluster_recall >= 0.99
        assert last < 0.10 * first  # convergence contract for the fixed seed
        assert elapsed < 600.0


@pytest.mark.slow
def test_criterion_7_ablation_harness(tmp_path):
    with criterion(7, "ablate reports dynamic-vs-static and depth results; dynamic P@1 >= static P@1 - 0.02"):
        from xmc.cli import main

        out_dir = tmp_path / "ablation"
        code = main(
            ["ablate", "--synth", "--preset", "synth-64", "--epochs", "8",
             "--seed", "7", "--out-dir", str(out_dir)]
        )
        assert code == 0
        table = (out_dir / "ablation_table.txt").read_text().splitlines()
        assert table[1].startswith("D") and table[2].startswith("S")
        d_p1 = float(table[1].split()[1])
        s_p1 = float(table[2].split()[1])
        print(f"  dynamic P@1 = {d_p1:.4f}, static P@1 = {s_p1:.4f}")
        assert d_p1 >= s_p1 - 0.02
        curves = (out_dir / "layer_loss.csv").read_text().splitlines()
        assert len(curves) == 1 + 2 * 8  # header + epochs x 2 variants
        rerun_rows = {line.split(",")[1] for line in curves[1:]}
        assert rerun_rows == {"multi_layer", "single_layer"}


def test_criterion_8_discriminator_size_formula():
    with criterion(8, "discriminator parameter count = L*b + b*(rep_width+1) on 5 random configs"):
        rng = np.random.default_rng(8)
        for _ in range(5):
            num_labels = int(rng.integers(10, 5000))
            embed_dim = int(rng.integers(4, 512))
            rep_width = int(rng.integers(8, 640))
            disc = init_discriminator(num_labels, embed_dim, rep_width, rng)
            assert param_count(disc) == num_labels * embed_dim + embed_dim * (rep_width + 1)


EURLEX_DIR = os.environ.get("XMC_EURLEX_DIR")


@pytest.mark.slow
@pytest.mark.skipif(
    not EURLEX_DIR or not os.path.isdir(EURLEX_DIR),
    reason="set XMC_EURLEX_DIR to a directory with train.txt/test.txt/train_raw.txt/test_raw.txt",
)
def test_criterion_9_eurlex_smoke():
    with criterion(9, "real-dataset smoke: preset training completes and P@1 >= 0.55"):
        from pathlib import Path

        from xmc.corpus import build_vocab, load_dataset

        root = Path(EURLEX_DIR)
        config = apply_preset(TrainConfig(), "eurlex-4k")
        config = replace(config, hidden=128, n_layers=4, n_heads=4, ff_dim=256, embed_dim=256)
        vocab = build_vocab(root / "train_raw.txt", min_freq=config.min_freq)
        train_ds = load_dataset(root / "train.txt", root / "train_raw.txt", vocab,
                                max_len=config.max_len, split="train")
        test_ds = load_dataset(root / "test.txt", root / "test_raw.txt", vocab,
                               max_len=config.max_len, split="test")
        assert len(train_ds) == 15449
        assert train_ds.num_labels == 3956
        assert train_ds.feature_dim == 186104
        bundle, _ = train(train_ds, config)
        b_top = resolve_b_top(config, train_ds, bundle.cluster_map)
        report = evaluate(test_ds, [bundle], b_top=b_top)
        print(f"  {report.machine_lines()}")
        assert report.precision[1] >= 0.55
