"""Joint training of encoder, recall head and rank head.

``forward``, the one forward pass of training and inference, encodes a batch
once, scores all clusters, samples candidate labels from those scores unless
they are given, and scores the batch's candidates as one padded block.  A
training step adds the recall and rank losses and takes one AdamW step on
their sum, so the encoder receives gradient from both.  Static-sampling mode
freezes candidate sets built once from a model snapshot.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Literal

import numpy as np

from . import tensor as t
from .checkpoint import atomic_write, load_checkpoint, save_checkpoint
from .cluster import ClusterMap, build_cluster_map, build_label_reps, cluster_targets
from .corpus import Batch, Document, Vocab, XmcDataset, batch_iter
from .encoder import EncoderConfig, encode, init_encoder_params
from .errors import ConfigError, ContractError, TrainingError
from .optim import OptimizerState, SwaState, adamw_step, clip_grads, swa_update
from .rank import DiscriminatorParams, gather_embeddings, init_discriminator, pad_candidates, rank_loss, rank_scores
from .recall import (CandidateSet, GeneratorParams, check_b_top, init_generator, recall_loss, recall_scores,
                     sample_candidates)
from .tensor import Tensor

DEFAULT_EMBED_DIM = 256
GRAD_CLIP = 5.0  # global gradient-norm bound of every step
WEIGHT_DECAY = 0.01  # decoupled AdamW decay of every non-exempt parameter


@dataclass
class TrainConfig:
    preset: str | None = None
    epochs: int = 10
    batch_size: int = 16
    b_top: int | None = None  # resolved against the dataset when unset
    embed_dim: int | None = None  # falls back to DEFAULT_EMBED_DIM
    cluster_size: int = 8  # max labels per cluster (s)
    max_len: int = 128
    learning_rate: float = 1e-4
    dropout: float = 0.5
    sampling_mode: Literal["dynamic", "static"] = "dynamic"
    seed: int = 7
    # encoder dims are deliberately separate flags so a preset's training
    # regime can be reused unchanged at any encoder scale
    hidden: int = 64
    n_layers: int = 5
    n_heads: int = 4
    ff_dim: int = 128
    concat_layers: int = 5
    min_freq: int = 1

    def resolved_embed_dim(self) -> int:
        return self.embed_dim if self.embed_dim is not None else DEFAULT_EMBED_DIM


# Per-dataset training presets.  Datasets that skip clustering get
# cluster_size=1 (every label is its own cluster); embed_dim stays unset
# where the dataset regime does not pin it.
PRESETS: dict[str, dict] = {
    "eurlex-4k": dict(epochs=20, batch_size=16, max_len=512, cluster_size=1),
    "amazoncat-13k": dict(epochs=5, batch_size=16, max_len=512, cluster_size=1),
    "wiki10-31k": dict(epochs=30, batch_size=16, max_len=512, cluster_size=1),
    "wiki-500k": dict(epochs=10, batch_size=32, embed_dim=500, cluster_size=60, max_len=128),
    "amazon-670k": dict(epochs=15, batch_size=16, embed_dim=400, cluster_size=80, max_len=128),
    # desk-scale synthetic corpus (64 labels in 8 topics)
    "synth-64": dict(
        epochs=20,
        batch_size=16,
        b_top=3,
        embed_dim=128,
        cluster_size=8,
        max_len=16,
        learning_rate=2e-3,
        dropout=0.2,
        hidden=48,
        n_layers=5,
        n_heads=4,
        ff_dim=96,
    ),
}


def apply_preset(config: TrainConfig, preset: str) -> TrainConfig:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choices: {sorted(PRESETS)}")
    return replace(config, preset=preset, **PRESETS[preset])


def default_b_top(avg_positives: float, num_clusters: int) -> int:
    """Candidate volume heuristic: ceil(15 * avg positives), clamped to [5, K]."""
    raw = math.ceil(15.0 * max(avg_positives, 1.0))
    return max(min(raw, num_clusters), min(5, num_clusters))


@dataclass
class ModelBundle:
    """Everything trainable plus the state needed to keep training deterministic.

    ``params`` is the one store of the weights; the head records are views of it.
    """

    config: TrainConfig
    enc_config: EncoderConfig
    params: dict[str, Tensor]
    cluster_map: ClusterMap
    opt: OptimizerState
    swa: SwaState
    rng: np.random.Generator

    @property
    def generator(self) -> GeneratorParams:
        return GeneratorParams(self.params["generator.W_g"], self.params["generator.b_g"])

    @property
    def discriminator(self) -> DiscriminatorParams:
        p = self.params
        return DiscriminatorParams(p["discriminator.E"], p["discriminator.W_h"], p["discriminator.b_h"])

    @property
    def num_labels(self) -> int:
        return self.discriminator.num_labels

    def swa_available(self) -> bool:
        return self.swa.count > 0

    def inference_params(self, use_swa: bool | None = None) -> "ModelBundle":
        """A read-only view for prediction: the SWA weights when present, unless
        ``use_swa`` is False.  A raw view holds no SWA average, so it stays raw."""
        if use_swa is None:
            use_swa = self.swa_available()
        if not use_swa:
            return replace(self, swa=SwaState()) if self.swa_available() else self
        if not self.swa_available():
            raise ContractError("SWA weights requested but none accumulated")
        return replace(self, params={name: Tensor(self.swa.average[name]) for name in self.params})


def init_bundle(config: TrainConfig, vocab_size: int, cluster_map: ClusterMap) -> ModelBundle:
    enc_config = EncoderConfig(
        vocab_size=vocab_size,
        hidden=config.hidden,
        n_layers=config.n_layers,
        n_heads=config.n_heads,
        ff_dim=config.ff_dim,
        max_positions=config.max_len,
        dropout=config.dropout,
        concat_layers=config.concat_layers,
    )
    rng = np.random.default_rng(config.seed)
    params = init_encoder_params(enc_config, rng)
    generator = init_generator(cluster_map.num_clusters, enc_config.rep_width, rng)
    params["generator.W_g"] = generator.weight
    params["generator.b_g"] = generator.bias
    discriminator = init_discriminator(
        cluster_map.num_labels, config.resolved_embed_dim(), enc_config.rep_width, rng
    )
    params["discriminator.E"] = discriminator.label_emb
    params["discriminator.W_h"] = discriminator.bottleneck_w
    params["discriminator.b_h"] = discriminator.bottleneck_b

    opt = OptimizerState(learning_rate=config.learning_rate, weight_decay=WEIGHT_DECAY)
    return ModelBundle(config, enc_config, params, cluster_map, opt, SwaState(), rng)


def build_static_cache(dataset: XmcDataset, bundle: ModelBundle) -> list[CandidateSet]:
    """Candidate sets by dataset position, sampled once with the snapshot model."""
    config = bundle.config
    sets: list[CandidateSet] = [None] * len(dataset)  # type: ignore[list-item]
    for batch in batch_iter(dataset, max(config.batch_size, 32), seed=0, shuffle=False):
        sampled = forward(bundle, batch.token_ids, batch.mask, config.b_top, False, positives=batch.labels)[1]
        for idx, cs in zip(batch.doc_indices, sampled):
            sets[idx] = cs
    return sets


def resolve_b_top(config: TrainConfig, dataset: XmcDataset, cmap: ClusterMap) -> int:
    if config.b_top is not None:
        check_b_top(config.b_top, cmap.num_clusters)
        return config.b_top
    return default_b_top(dataset.avg_positives(), cmap.num_clusters)


def forward(bundle: ModelBundle, token_ids: np.ndarray, mask: np.ndarray, b_top: int | None, training: bool,
            positives: list | None = None, candidates: list[CandidateSet] | None = None):
    """Both heads on one text representation: (cluster probs, candidate sets, rank probs, keep,
    flags).  Candidates are sampled from this pass's cluster probs unless given, with
    ``positives`` injected when passed; rank probs, keep and flags are padded to (B, n_max)."""
    rep = encode(token_ids, mask, bundle.enc_config, bundle.params, training, bundle.rng)
    cluster_probs = recall_scores(rep, bundle.generator)
    if candidates is None:
        candidates = sample_candidates(cluster_probs.data, bundle.cluster_map, b_top, positives=positives)
    ids, keep, flags = pad_candidates(candidates)
    gathered = gather_embeddings(bundle.discriminator.label_emb, ids)
    rank_probs = rank_scores(rep, gathered, bundle.discriminator)
    return cluster_probs, candidates, rank_probs, keep, flags


def joint_losses(batch: Batch, bundle: ModelBundle, candidates: list[CandidateSet] | None = None,
                 b_top: int | None = None, training: bool = True):
    """The two losses on one ``forward``: (total, loss_g, loss_d, candidates).

    When ``candidates`` is None they are sampled dynamically from this
    forward's recall scores (training-time positive injection included).
    """
    if candidates is None and b_top is None:
        raise ContractError("dynamic sampling requires b_top")
    targets = np.stack([cluster_targets(labels, bundle.cluster_map) for labels in batch.labels])
    cluster_probs, candidates, rank_probs, keep, flags = forward(bundle, batch.token_ids, batch.mask, b_top,
                                                                 training, batch.labels, candidates)
    loss_g = recall_loss(cluster_probs, targets)
    loss_d = rank_loss(rank_probs, flags, keep)
    return t.add_n([loss_g, loss_d]), loss_g, loss_d, candidates


def train_step(
    batch: Batch,
    bundle: ModelBundle,
    config: TrainConfig,
    b_top: int,
    cache: list[CandidateSet] | None = None,  # static mode: candidate sets by dataset position
) -> tuple[float, float]:
    """One optimizer step on L = L_g + L_d; returns the two loss values."""
    for p in bundle.params.values():
        p.clear_grad()
    candidates = [cache[i] for i in batch.doc_indices] if cache is not None else None
    with t.record() as tape:
        total, loss_g, loss_d, _ = joint_losses(
            batch, bundle, candidates=candidates, b_top=b_top, training=True
        )
        lg, ld = float(loss_g.data), float(loss_d.data)
        if not (np.isfinite(lg) and np.isfinite(ld)):
            raise TrainingError(
                f"non-finite loss at step {bundle.opt.step_count + 1}: "
                f"loss_g={lg} loss_d={ld} lr={config.learning_rate}"
            )
        tape.backward(total)
    clip_grads(bundle.params, GRAD_CLIP)
    adamw_step(bundle.params, bundle.opt)
    return lg, ld


def format_metrics(record: dict) -> str:
    parts = []
    for key, value in record.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:.6g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def train(
    dataset: XmcDataset,
    config: TrainConfig,
    cluster_map: ClusterMap | None = None,
    dev: XmcDataset | None = None,
    out_dir: str | Path | None = None,
    log=print,
):
    """Run the full training loop; returns (bundle, per-epoch records). bundle.config holds the b_top used."""
    if cluster_map is None:
        reps = build_label_reps(dataset)
        cluster_map = build_cluster_map(reps, config.cluster_size, config.seed)
    if cluster_map.num_labels != dataset.num_labels:
        raise ConfigError(
            f"cluster map covers {cluster_map.num_labels} labels, dataset has {dataset.num_labels}"
        )
    if dataset.vocab is None:
        raise ConfigError("training requires a tokenized dataset (vocab missing)")

    b_top = resolve_b_top(config, dataset, cluster_map)
    config = replace(config, b_top=b_top)
    bundle = init_bundle(config, dataset.vocab.size, cluster_map)
    log(f"[train] K={cluster_map.num_clusters} labels={dataset.num_labels} b_top={b_top} "
        f"sampling={config.sampling_mode} rep_width={bundle.enc_config.rep_width}")

    cache = None
    if config.sampling_mode == "static":
        cache = build_static_cache(dataset, bundle)
        log(f"[train] static candidate cache built from the initialized snapshot "
            f"({len(cache)} instances)")
    elif config.sampling_mode != "dynamic":
        raise ConfigError(f"sampling_mode must be dynamic|static, got {config.sampling_mode!r}")

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    metrics: list[dict] = []
    swa_start = config.epochs // 2 + 1  # SWA averages every epoch after the first half
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        sum_g = sum_d = 0.0
        steps = 0
        for batch in batch_iter(dataset, config.batch_size, seed=config.seed, epoch=epoch):
            lg, ld = train_step(batch, bundle, config, b_top, cache)
            sum_g += lg
            sum_d += ld
            steps += 1
        for p in bundle.params.values():
            p.grad = None  # SWA and dev eval hold no gradient block or buffer; the next step makes them anew
        if epoch >= swa_start:
            swa_update(bundle.swa, bundle.params)
        record = {
            "epoch": epoch,
            "loss_g": sum_g / max(steps, 1),
            "loss_d": sum_d / max(steps, 1),
        }
        if dev is not None:
            from .predict import evaluate  # imported here: predict builds on this module
            report = evaluate(dev, [bundle.inference_params(False)], b_top=b_top)
            record.update(
                p1=report.precision[1],
                p3=report.precision[3],
                p5=report.precision[5],
                cluster_recall=report.cluster_recall,
            )
        record["wall_ms"] = (time.perf_counter() - started) * 1000.0
        metrics.append(record)
        log("[epoch] " + format_metrics(record))
        if out_path is not None:
            save_checkpoint(out_path / f"epoch{epoch:03d}.ckpt", {n: p.data for n, p in bundle.params.items()})

    if out_path is not None:
        final = {n: p.data for n, p in bundle.params.items()}
        if bundle.swa_available():
            final.update({f"{n}.swa": a for n, a in bundle.swa.average.items()})
        save_checkpoint(out_path / "final.ckpt", final)
        with atomic_write(out_path / "metrics.log") as fh:
            for record in metrics:
                fh.write(format_metrics(record) + "\n")
    return bundle, metrics


def build_micro_problem(seed: int = 3, num_labels: int = 8, n_docs: int = 6):
    """Tiny model + dataset for gradient-fidelity checks.

    Vocab 50, hidden 8, 2 layers / 2 heads, K=4 clusters over 8 labels,
    embed_dim 4, batch size 2.
    """
    config = TrainConfig(
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
        seed=seed,
    )
    cmap = ClusterMap(np.repeat(np.arange(num_labels // 2), 2), s=2, seed=seed)
    vocab = Vocab({f"tok{i}": 3 + i for i in range(47)})  # 50 ids with the 3 reserved ones
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(2, 6))
        tokens = [1] + rng.integers(3, vocab.size, size=length - 1).tolist()
        labels = tuple(
            sorted(rng.choice(num_labels, size=int(rng.integers(1, 3)), replace=False).tolist())
        )
        docs.append(Document(i, tokens, labels, None))
    dataset = XmcDataset(docs, num_labels=num_labels, feature_dim=10, vocab=vocab)
    bundle = init_bundle(config, vocab.size, cmap)
    return config, dataset, bundle


def micro_joint_grad_check(seed: int = 3) -> float:
    """Max relative gradient error of the joint loss on the micro model.

    Candidate sets are sampled once up front and then frozen (sampling is not
    differentiable); dropout stays active but is re-seeded identically on
    every finite-difference probe.
    """
    config, dataset, bundle = build_micro_problem(seed)
    batch = next(batch_iter(dataset, config.batch_size, seed=config.seed, epoch=1))
    candidates = forward(bundle, batch.token_ids, batch.mask, config.b_top, False, positives=batch.labels)[1]

    def loss():
        bundle.rng = np.random.default_rng(17)
        total, *_ = joint_losses(batch, bundle, candidates=candidates, training=True)
        return total

    return t.grad_check(loss, list(bundle.params.values()))


def load_bundle(ckpt_path: str | Path, config: TrainConfig, vocab_size: int, cluster_map: ClusterMap) -> ModelBundle:
    """Rebuild a bundle from a checkpoint (raw weights plus any SWA records)."""
    bundle = init_bundle(config, vocab_size, cluster_map)
    stored = load_checkpoint(ckpt_path)
    raw = {n: a for n, a in stored.items() if not n.endswith(".swa")}
    missing = set(bundle.params) - set(raw)
    if missing:
        raise ConfigError(f"checkpoint {ckpt_path} missing parameters: {sorted(missing)[:3]}...")
    for name, arr in raw.items():
        if name not in bundle.params:
            raise ConfigError(f"checkpoint {ckpt_path} has unexpected parameter {name}")
        if bundle.params[name].shape != arr.shape:
            raise ConfigError(
                f"checkpoint {ckpt_path}: shape mismatch for {name}: "
                f"{arr.shape} vs expected {bundle.params[name].shape}"
            )
        bundle.params[name].data = arr.astype(t.default_dtype(), copy=False)
    swa_records = {n[: -len(".swa")]: a for n, a in stored.items() if n.endswith(".swa")}
    if swa_records:
        if set(swa_records) != set(bundle.params):
            raise ConfigError(f"checkpoint {ckpt_path}: incomplete SWA record set")
        bundle.swa.average = {n: a.astype(t.default_dtype(), copy=False) for n, a in swa_records.items()}
        bundle.swa.count = 1
    return bundle
