"""Trainer tests: joint step semantics, static cache, SWA, determinism."""

import ast
from pathlib import Path

import numpy as np
import pytest

from xmc import tensor as t
from xmc import trainer as trainer_mod
from xmc.cluster import ClusterMap, build_cluster_map, build_label_reps
from xmc.corpus import Document, XmcDataset, Vocab, batch_iter
from xmc.errors import ConfigError, TrainingStateError
from xmc.optim import swa_update
from xmc.synth import make_synthetic_corpus
from xmc.trainer import (
    PRESETS,
    ModelBundle,
    TrainConfig,
    apply_preset,
    build_static_cache,
    default_b_top,
    init_bundle,
    joint_losses,
    load_bundle,
    resolve_b_top,
    train,
    train_step,
)

from helpers import corpus_datasets, verify_mode


def micro_train_config(**overrides) -> TrainConfig:
    base = dict(
        epochs=1,
        batch_size=2,
        b_top=2,
        embed_dim=4,
        cluster_size=2,
        max_len=8,
        learning_rate=1e-3,
        dropout=0.5,
        hidden=8,
        n_layers=2,
        n_heads=2,
        ff_dim=16,
        seed=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


def micro_setup(num_labels=8, vocab_size=50, n_docs=6, seed=3, **cfg):
    config = micro_train_config(seed=seed, **cfg)
    cmap = ClusterMap(np.repeat(np.arange(num_labels // 2), 2), s=2, seed=seed)
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(2, 6))
        tokens = [1] + rng.integers(3, vocab_size, size=length - 1).tolist()
        labels = tuple(sorted(rng.choice(num_labels, size=int(rng.integers(1, 3)), replace=False).tolist()))
        docs.append(Document(i, tokens, labels, None))
    vocab = Vocab({f"tok{i}": 3 + i for i in range(vocab_size - 3)})
    ds = XmcDataset(docs, num_labels=num_labels, feature_dim=10, vocab=vocab)
    bundle = init_bundle(config, vocab.size, cmap)
    return config, ds, bundle


def first_batch(ds, config):
    return next(batch_iter(ds, config.batch_size, seed=config.seed, epoch=1))


# ---------------------------------------------------------------------------
# presets / config plumbing


def test_presets_carry_pinned_values():
    for name, expected in {
        "eurlex-4k": dict(epochs=20, batch_size=16, max_len=512),
        "amazoncat-13k": dict(epochs=5, batch_size=16, max_len=512),
        "wiki10-31k": dict(epochs=30, batch_size=16, max_len=512),
        "wiki-500k": dict(epochs=10, batch_size=32, embed_dim=500, cluster_size=60, max_len=128),
        "amazon-670k": dict(epochs=15, batch_size=16, embed_dim=400, cluster_size=80, max_len=128),
    }.items():
        config = apply_preset(TrainConfig(), name)
        for key, value in expected.items():
            assert getattr(config, key) == value, (name, key)


def test_small_dataset_presets_use_singleton_clusters():
    for name in ("eurlex-4k", "amazoncat-13k", "wiki10-31k"):
        assert apply_preset(TrainConfig(), name).cluster_size == 1


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        apply_preset(TrainConfig(), "imagenet")


def test_default_b_top_heuristic():
    assert default_b_top(1.0, 100) == 15
    assert default_b_top(0.2, 100) == 15  # floor at one positive
    assert default_b_top(10.0, 20) == 20  # capped at K
    assert default_b_top(0.0, 3) == 3  # lower clamp bounded by K


# ---------------------------------------------------------------------------
# train_step semantics


def test_lr_zero_leaves_params_unchanged():
    config, ds, bundle = micro_setup(learning_rate=0.0, seed=5)
    config_no_decay = config
    before = {n: p.data.copy() for n, p in bundle.params.items()}
    lg, ld = train_step(first_batch(ds, config), bundle, config_no_decay, b_top=2)
    assert np.isfinite(lg) and np.isfinite(ld)
    for name, p in bundle.params.items():
        assert np.array_equal(p.data, before[name]), name


def test_total_loss_is_sum_of_parts():
    config, ds, bundle = micro_setup()
    batch = first_batch(ds, config)
    total, lg, ld, _ = joint_losses(batch, bundle, b_top=2, training=False)
    assert float(total.data) == pytest.approx(float(lg.data) + float(ld.data), abs=1e-6)


def test_gradient_flow_separation():
    # Backward on the rank loss alone: generator weight untouched, encoder trained.
    config, ds, bundle = micro_setup()
    batch = first_batch(ds, config)
    for p in bundle.params.values():
        p.grad = None
    with t.record() as tape:
        _, lg, ld, _ = joint_losses(batch, bundle, b_top=2, training=False)
        tape.backward(ld)
    assert bundle.params["generator.W_g"].grad is None
    assert bundle.params["encoder.tok_emb"].grad is not None
    assert np.any(bundle.params["encoder.tok_emb"].grad != 0.0)


def test_encoder_cooperation_grads_add():
    # encoder grad under L_g + L_d equals sum of separate backward passes (64-bit)
    with verify_mode():
        config, ds, bundle = micro_setup()
        batch = first_batch(ds, config)
        _, _, _, candidates = joint_losses(batch, bundle, b_top=2, training=False)

        def grads_from(which):
            for p in bundle.params.values():
                p.grad = None
            with t.record() as tape:
                total, lg, ld, _ = joint_losses(batch, bundle, candidates=candidates, training=False)
                tape.backward({"total": total, "g": lg, "d": ld}[which])
            g = bundle.params["encoder.tok_emb"].grad
            return np.zeros_like(bundle.params["encoder.tok_emb"].data) if g is None else g.copy()

        combined = grads_from("total")
        separate = grads_from("g") + grads_from("d")
        assert np.abs(combined - separate).max() < 1e-10


def test_joint_micro_gradcheck():
    with verify_mode():
        config, ds, bundle = micro_setup()
        batch = first_batch(ds, config)
        _, _, _, candidates = joint_losses(batch, bundle, b_top=2, training=False)
        rng_holder = bundle.rng

        def forward():
            bundle.rng = np.random.default_rng(17)  # fixed dropout masks per probe
            total, *_ = joint_losses(batch, bundle, candidates=candidates, training=True)
            return total

        err = t.grad_check(forward, list(bundle.params.values()))
        bundle.rng = rng_holder
        assert err < 1e-4


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_synth64_step_gradient_layout_and_tape_size(verify):
    """Every parameter gradient is C-contiguous and in its parameter's dtype.

    ``global_grad_norm`` sums ``g * g`` pairwise, grouped by memory layout, so
    a gradient in another layout with equal values changes the clipped update
    and with it the checkpoint bytes.
    """
    with verify_mode(verify):
        config = apply_preset(TrainConfig(), "synth-64")
        sc = make_synthetic_corpus(n_train=64, n_test=8, seed=config.seed)
        train_ds, _, vocab = corpus_datasets(sc, max_len=config.max_len)
        cmap = build_cluster_map(build_label_reps(train_ds), config.cluster_size, config.seed)
        bundle = init_bundle(config, vocab.size, cmap)
        with t.record() as tape:
            total, *_ = joint_losses(first_batch(train_ds, config), bundle, b_top=config.b_top)
            nodes = len(tape)  # backward empties the tape
            tape.backward(total)
    assert nodes <= 170
    for name, p in bundle.params.items():
        assert p.grad is not None, name
        assert p.grad.flags.c_contiguous and p.grad.dtype == p.data.dtype, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_loss_aborts_with_diagnostic():
    config, ds, bundle = micro_setup()
    bundle.params["generator.W_g"].data[:] = np.inf
    from xmc.errors import TrainingError

    with pytest.raises(TrainingError, match="loss"):
        with verify_mode(False):
            train_step(first_batch(ds, config), bundle, config, b_top=2)


# ---------------------------------------------------------------------------
# static sampling cache


def test_static_cache_covers_all_instances():
    config, ds, bundle = micro_setup(sampling_mode="static")
    cache = build_static_cache(ds, bundle)
    assert len(cache) == len(ds)
    for labels, cs in zip([d.labels for d in ds.documents], cache):
        assert set(labels) <= set(cs.labels.tolist())


def test_static_cache_first_step_equivalence():
    # With identical parameters, dynamic sampling and the cache agree.
    config, ds, bundle = micro_setup()
    cache = build_static_cache(ds, bundle)
    batch = first_batch(ds, config)
    _, _, _, dynamic = joint_losses(batch, bundle, b_top=resolve_b_top(config, ds, bundle.cluster_map), training=False)
    for idx, cs in zip(batch.doc_indices, dynamic):
        assert np.array_equal(cache[idx].labels, cs.labels)
        assert np.array_equal(cache[idx].is_positive, cs.is_positive)


def _count_sample_calls(monkeypatch) -> list:
    calls = []
    inner = trainer_mod.sample_candidates

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(trainer_mod, "sample_candidates", counting)
    return calls


def test_static_mode_never_resamples(monkeypatch):
    config, ds, bundle = micro_setup(sampling_mode="static")
    cache = build_static_cache(ds, bundle)
    calls = _count_sample_calls(monkeypatch)
    for epoch in range(2):
        for batch in batch_iter(ds, config.batch_size, seed=config.seed, epoch=epoch):
            train_step(batch, bundle, config, b_top=2, cache=cache)
    assert len(calls) == 0


def test_dynamic_mode_resamples_every_step(monkeypatch):
    config, ds, bundle = micro_setup()
    calls = _count_sample_calls(monkeypatch)
    steps = 0
    for batch in batch_iter(ds, config.batch_size, seed=config.seed, epoch=0):
        train_step(batch, bundle, config, b_top=2)
        steps += 1
    assert len(calls) == steps


# ---------------------------------------------------------------------------
# train loop


def _tiny_synth():
    sc = make_synthetic_corpus(num_labels=8, num_topics=4, n_train=40, n_test=16, seed=5)
    return corpus_datasets(sc, max_len=12)


def test_train_epochs_zero_returns_initial_bundle(tmp_path):
    train_ds, _, _ = _tiny_synth()
    config = micro_train_config(epochs=0, cluster_size=2, b_top=2, max_len=12)
    bundle, metrics = train(train_ds, config, out_dir=tmp_path, log=lambda *_: None)
    assert metrics == []
    assert bundle.opt.step_count == 0
    assert (tmp_path / "final.ckpt").exists()


def test_train_writes_per_epoch_checkpoints_and_metrics(tmp_path):
    train_ds, test_ds, _ = _tiny_synth()
    config = micro_train_config(epochs=3, cluster_size=2, b_top=2, max_len=12)
    bundle, metrics = train(train_ds, config, dev=test_ds, out_dir=tmp_path, log=lambda *_: None)
    assert (tmp_path / "epoch001.ckpt").exists()
    assert (tmp_path / "epoch002.ckpt").exists()
    assert (tmp_path / "epoch003.ckpt").exists()
    assert (tmp_path / "final.ckpt").exists()
    lines = (tmp_path / "metrics.log").read_text().splitlines()
    assert len(lines) == 3
    assert "loss_g=" in lines[0] and "p1=" in lines[0] and "cluster_recall=" in lines[0]
    assert len(metrics) == 3
    assert bundle.swa.count == 2  # epochs 2 and 3


def test_train_deterministic_checkpoints_byte_identical(tmp_path):
    with verify_mode():
        train_ds, _, _ = _tiny_synth()
        config = micro_train_config(epochs=1, cluster_size=2, b_top=2, max_len=12)
        train(train_ds, config, out_dir=tmp_path / "a", log=lambda *_: None)
        train(train_ds, config, out_dir=tmp_path / "b", log=lambda *_: None)
    a = (tmp_path / "a" / "final.ckpt").read_bytes()
    b = (tmp_path / "b" / "final.ckpt").read_bytes()
    assert a == b


def test_swa_checkpoint_equals_running_mean(tmp_path):
    train_ds, _, _ = _tiny_synth()
    config = micro_train_config(epochs=3, cluster_size=2, b_top=2, max_len=12)
    bundle, _ = train(train_ds, config, out_dir=tmp_path, log=lambda *_: None)
    assert bundle.swa.count == 2  # epochs 2 and 3
    from xmc.checkpoint import load_checkpoint

    stored = load_checkpoint(tmp_path / "final.ckpt")
    e2 = load_checkpoint(tmp_path / "epoch002.ckpt")
    e3 = load_checkpoint(tmp_path / "epoch003.ckpt")
    for name in bundle.params:
        mean = (e2[name].astype(np.float64) + e3[name].astype(np.float64)) / 2
        assert np.abs(stored[f"{name}.swa"] - mean).max() < 1e-5


def test_cluster_map_label_count_mismatch():
    train_ds, _, _ = _tiny_synth()
    wrong = ClusterMap(np.zeros(3, dtype=np.int64), s=4, seed=0)
    config = micro_train_config(cluster_size=2)
    with pytest.raises(ConfigError):
        train(train_ds, config, cluster_map=wrong, log=lambda *_: None)


def test_load_bundle_roundtrip(tmp_path):
    train_ds, _, _ = _tiny_synth()
    config = micro_train_config(epochs=1, cluster_size=2, b_top=2, max_len=12)
    bundle, _ = train(train_ds, config, out_dir=tmp_path, log=lambda *_: None)
    loaded = load_bundle(tmp_path / "final.ckpt", config, train_ds.vocab.size, bundle.cluster_map)
    for name in bundle.params:
        assert np.allclose(loaded.params[name].data, bundle.params[name].data, atol=1e-6)
    assert loaded.swa_available()


PIPELINE = ("encode", "recall_scores", "sample_candidates", "pad_candidates", "gather_embeddings", "rank_scores")
MODULES = {"encoder", "recall", "rank", "trainer", "predict"}


def test_forward_is_the_one_pipeline():
    """Parse src/xmc: the six pipeline functions are called only in ``trainer.forward``,
    once each.  The one exception is ``encode`` in ``encoder.encoder_grad_check``."""
    calls = []
    for path in sorted(Path(trainer_mod.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(stmt, 'name', '<module>')}"
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in MODULES:
                    calls.append((where, func.attr))
                elif isinstance(func, ast.Name):
                    calls.append((where, func.id))
    pipeline = sorted(call for call in calls if call[1] in PIPELINE)
    assert pipeline == sorted([("trainer.forward", name) for name in PIPELINE]
                              + [("encoder.encoder_grad_check", "encode")])
