#!/usr/bin/env python3
"""Benchmark for xmc: train, eval, predict and ensemble on generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload synth64 --seed 1 --seconds 20 --trace 0

Each invocation runs one workload in this process as a closed loop: a single
client runs the phases in order and each call waits for the previous one.

  setup     files on disk to a model ready to train (vocab, datasets, label
            reps, cluster map, init_bundle), repeated; the median is setup_s
  train     ``trainer.train`` with the setup's cluster map; writes epoch and
            final checkpoints
  eval      ``predict.evaluate`` on the reloaded final checkpoint (SWA weights)
  predict   ``predict_batch`` over batches of 64, as ``xmc predict`` does
  ensemble  ``evaluate`` with the epoch-1 and final bundles

Every phase is fixed work, so the figures do not depend on the machine's
speed and the quality numbers are deterministic at a seed.  After train, the
timed setup repeats and the predict, eval and ensemble calls run interleaved
in one fixed order, so each phase samples the whole measuring window; their
counts are the workload's for a ``REFERENCE_SECONDS`` run, scaled to
``--seconds``.  The correctness gate checks ``predict_batch`` against a
brute-force ranking, every train loss for finiteness, and P@k recomputed from
the predicted lists against ``evaluate``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layers'
public functions (see spans.py) and prints the per-layer metrics instead.
Human-readable lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: one thread per process keeps
# run-to-run spread down on a small shared box.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from gen import Shape, generate

try:
    import xmc.cluster
    import xmc.corpus
    import xmc.encoder
    import xmc.errors
    import xmc.predict
    import xmc.recall
    import xmc.tensor
    import xmc.trainer
except ImportError:
    xmc = None

EPOCHS = 2  # epoch 1 gives the ensemble's second bundle; SWA starts at epoch 2
WARMUP_STEPS = 2
REFERENCE_SECONDS = 20  # the Workload.calls counts are for a run of this length
TAIL_PCT = 80
MIN_PREDICT_CALLS = 50  # leaves 10 calls beyond the p80
PREDICT_K = 5
EVAL_KS = (1, 3, 5)
ORACLE_DOCS = 64
CHUNK = 64  # documents per predict_batch or evaluate call
# synth64 quality floor: the parent program's P@1 ranged 0.39-0.80 over seeds
# 1-40; a ranker that learned nothing scores about 0.03
MIN_P1 = 0.2


@dataclass(frozen=True)
class Workload:
    why: str
    shape: Shape
    overrides: dict  # on top of the synth-64 preset
    fit_docs: int | None  # train on the first fit_docs documents; None = all
    calls: dict  # timed calls per phase (setup, predict, eval, ensemble) in a REFERENCE_SECONDS run
    min_p1: float = 0.0  # quality floor of the correctness gate


def _shape(num_labels, n_train, n_test, *, repeat=2, fillers=3, pool=50, zipf=0.0):
    # 8 topics of 8 labels at L=64 (the synth-64 layout); 64-label topic blocks above
    return Shape(num_labels=num_labels, topic_size=min(num_labels // 8, 64),
                 n_train=n_train, n_test=n_test, max_labels=3, marker_repeat=repeat,
                 fillers=fillers, filler_pool=pool, zipf=zipf)


_LABEL_BOUND = dict(b_top=None, embed_dim=256)
_LONG = dict(_LABEL_BOUND, cluster_size=1, max_len=128)
_TINY = dict(hidden=16, n_layers=2, n_heads=2, ff_dim=32)
_TINY_CALLS = dict(setup=2, predict=MIN_PREDICT_CALLS, eval=1, ensemble=1)

WORKLOADS = {
    "synth64": Workload(
        "desk-scale shape; per-op Python and tape overhead on tiny matrices; the model learns (quality guard)",
        _shape(64, 2000, 1024), {}, fit_docs=None,
        calls=dict(setup=40, predict=200, eval=64, ensemble=64), min_p1=MIN_P1,
    ),
    "wide32k": Workload(
        "L=32768, K=4096, embed 256, power-law labels: label embeddings, their gradients and AdamW dominate",
        _shape(32768, 16000, 1024, zipf=0.5), _LABEL_BOUND, fit_docs=240,
        calls=dict(setup=3, predict=60, eval=16, ensemble=16),
    ),
    "longdoc": Workload(
        "128-token documents, s=1 so K=L=4096: attention and BLAS compute dominate, the cluster layer is bypassed",
        _shape(4096, 2000, 256, repeat=4, fillers=110, pool=2000, zipf=0.5), _LONG, fit_docs=240,
        calls=dict(setup=4, predict=MIN_PREDICT_CALLS, eval=4, ensemble=4),
    ),
    # tiny variants with a small encoder for the smoke test; not in BENCHMARK.json
    "synth64-tiny": Workload("smoke", _shape(64, 192, 64), _TINY, fit_docs=None, calls=_TINY_CALLS),
    "wide32k-tiny": Workload(
        "smoke", _shape(2048, 256, 64, zipf=0.5), dict(_LABEL_BOUND, **_TINY), fit_docs=192, calls=_TINY_CALLS,
    ),
    "longdoc-tiny": Workload(
        "smoke", _shape(256, 192, 64, repeat=4, fillers=110, pool=200, zipf=0.5), dict(_LONG, **_TINY),
        fit_docs=None, calls=_TINY_CALLS,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_docs_per_s": "docs/s",
    "eval_docs_per_s": "docs/s",
    "predict_docs_per_s": "docs/s",
    "predict_batch_p80_ms": "ms",
    "ensemble_docs_per_s": "docs/s",
    "peak_rss_mb": "MB",
}


class Outcome:
    """Operation counts for the result line; failures also mark the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.messages.append(message)


def tail_ms(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile (at most 90) with at least 10 samples
    beyond it; for the printed train-step tail, whose step count is fixed."""
    n = len(samples)
    pct = min(90, 100 * (n - 10) // n) if n else 0
    if pct < 50:
        raise SystemExit(f"error: {n} samples are too few for a tail percentile")
    return float(np.percentile(samples, pct)) * 1000.0, pct


def env_record() -> dict:
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": cfg.get("openblas configuration", cfg.get("name")),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# phases


def setup(config, data: Path):
    """Files on disk to a model ready to train; the modules are looked up at
    call time so the traced run sees its wrappers."""
    vocab = xmc.corpus.build_vocab(data / "train_raw.txt", min_freq=config.min_freq)
    train_ds = xmc.corpus.load_dataset(
        data / "train.txt", data / "train_raw.txt", vocab, max_len=config.max_len, split="train"
    )
    test_ds = xmc.corpus.load_dataset(
        data / "test.txt", data / "test_raw.txt", vocab, max_len=config.max_len, split="test"
    )
    reps = xmc.cluster.build_label_reps(train_ds)
    cmap = xmc.cluster.build_cluster_map(reps, config.cluster_size, config.seed)
    xmc.trainer.init_bundle(config, vocab.size, cmap)
    return vocab, train_ds, test_ds, cmap


@dataclass
class StepLog:
    durations: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    docs: list = field(default_factory=list)
    losses: list = field(default_factory=list)


def install_step_timer(log: StepLog, tracer) -> None:
    """Time every train_step; in a traced run, trace every other step after
    the warm-up only.

    The untraced steps of a traced run give the tracing-overhead baseline.
    """
    inner = xmc.trainer.train_step

    def timed_step(batch, bundle, config, b_top, cache=None):
        index = len(log.durations)
        traced = tracer is not None and index >= WARMUP_STEPS and index % 2 == 0
        if tracer is not None:
            tracer.enabled = traced
            tracer.step_id = index if traced else -1
        started = time.perf_counter()
        try:
            lg, ld = inner(batch, bundle, config, b_top, cache)
        finally:
            log.durations.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.enabled = True
                tracer.step_id = -1
        log.traced.append(traced)
        log.docs.append(len(batch.doc_indices))
        log.losses.append((lg, ld))
        return lg, ld

    xmc.trainer.train_step = timed_step


class Phase:
    """One repeated call, timed; ``first`` keeps the results of the first pass
    over the chunks."""

    def __init__(self, fn):
        self.fn = fn
        self.times: list[float] = []
        self.first: list = []

    def run(self, call: int):
        started = time.perf_counter()
        result = self.fn(call)
        self.times.append(time.perf_counter() - started)
        return result


def call_counts(wl: Workload, seconds: float, n_chunks: int) -> dict[str, int]:
    """The workload's calls per phase scaled to ``seconds``, with one pass over
    the chunks at least and enough predict calls for the tail percentile."""
    scale = seconds / REFERENCE_SECONDS
    floors = dict(setup=1, predict=max(n_chunks, MIN_PREDICT_CALLS), eval=n_chunks, ensemble=1)
    return {name: max(floors[name], round(n * scale)) for name, n in wl.calls.items()}


def schedule(counts: dict[str, int]) -> list[tuple[str, int]]:
    """(phase, call index) pairs with each phase's calls spread evenly over
    one fixed order."""
    slots = sorted(((i + 0.5) / n, name, i) for name, n in counts.items() for i in range(n))
    return [(name, i) for _, name, i in slots]


def oracle_top_k(view, token_ids, mask, b_top: int, k: int):
    """Brute-force scores of every label in the top-b_top clusters.

    The cluster probabilities are the program's own float32 recall scores, so
    the cluster choice sees the same ties; every label's rank probability is
    recomputed in float64.  Returns per document the top-k (labels, scores) by
    (score desc, label asc) and the full score vector (NaN outside the
    candidate clusters).
    """
    rep = xmc.encoder.encode(token_ids, mask, view.enc_config, view.params, training=False, rng=view.rng)
    cluster_p = xmc.recall.recall_scores(rep, view.generator).data.astype(np.float64)
    rep = rep.data.astype(np.float64)
    d = view.discriminator
    h = 1.0 / (1.0 + np.exp(-(rep @ d.bottleneck_w.data.astype(np.float64).T + d.bottleneck_b.data)))
    label_p = 1.0 / (1.0 + np.exp(-(h @ d.label_emb.data.astype(np.float64).T)))
    cmap = view.cluster_map
    out = []
    for i in range(token_ids.shape[0]):
        ranked = sorted(range(cmap.num_clusters), key=lambda c: (-cluster_p[i, c], c))
        eligible = np.zeros(cmap.num_labels, dtype=bool)
        for c in ranked[:b_top]:
            eligible[cmap.members[c]] = True
        fused = np.where(eligible, cluster_p[i, cmap.assign] * label_p[i], np.nan)
        labels = sorted(np.flatnonzero(eligible).tolist(), key=lambda l: (-fused[l], l))[:k]
        out.append((np.array(labels), fused[labels], fused))
    return out


def check_predictions(preds, oracle, outcome: Outcome, rtol: float = 1e-4) -> None:
    """Predicted top-k must equal the oracle's, up to float32 near-ties."""
    for i, (pred, (labels, scores, fused)) in enumerate(zip(preds, oracle)):
        ok = pred.labels.tolist() == labels.tolist()
        if not ok and len(pred.labels) == len(labels):
            # accept a different order only among labels whose exact scores tie
            # within float32 rounding, and only for genuine candidates
            mine = fused[pred.labels]
            ok = bool(
                np.all(np.isfinite(mine))
                and np.allclose(mine, scores, rtol=rtol)
                and np.allclose(pred.scores, scores, rtol=rtol)
            )
        ok = ok and np.allclose(pred.scores, scores, rtol=rtol)
        outcome.record(ok, f"oracle mismatch on document {i}: predicted {pred.labels.tolist()} "
                           f"{pred.scores.tolist()}, oracle {labels.tolist()} {scores.tolist()}")


def precision_from_predictions(preds, dataset) -> dict[int, float]:
    hits = {k: 0.0 for k in EVAL_KS}
    for pred, doc in zip(preds, dataset.documents):
        truth = set(doc.labels)
        top = pred.labels.tolist()
        for k in EVAL_KS:
            hits[k] += sum(1 for label in top[:k] if label in truth) / k
    return {k: hits[k] / len(dataset) for k in EVAL_KS}


def run_workload(wl: Workload, seed: int, seconds: float, tracer, work: Path, info,
                 outcome: Outcome) -> tuple[dict, StepLog]:
    data = work / "data"
    manifest = generate(data, wl.shape, seed)
    info("inputs", json.dumps(manifest, sort_keys=True))

    config = replace(
        xmc.trainer.apply_preset(xmc.trainer.TrainConfig(), "synth-64"), epochs=EPOCHS, **wl.overrides
    )
    if tracer is not None:
        tracer.current_phase = "setup"
    # the model's own setup is the cold one; setup_s comes from the repeats
    vocab, train_ds, test_ds, cmap = setup(config, data)
    info("setup", f"K={cmap.num_clusters} L={cmap.num_labels} vocab={vocab.size} "
         f"train_docs={len(train_ds)} test_docs={len(test_ds)}")

    fit = train_ds
    if wl.fit_docs is not None:
        fit = xmc.corpus.XmcDataset(train_ds.documents[: wl.fit_docs], train_ds.num_labels,
                                    train_ds.feature_dim, vocab=vocab)
    b_top = xmc.trainer.resolve_b_top(config, fit, cmap)
    info("config", json.dumps({**config.__dict__, "b_top": b_top, "fit_docs": len(fit)}, sort_keys=True))

    # -- train
    steps = StepLog()
    install_step_timer(steps, tracer)
    run_dir = work / "run"
    if tracer is not None:
        tracer.current_phase = "train"
    budget_start = time.perf_counter()
    try:
        xmc.trainer.train(fit, config, cluster_map=cmap, out_dir=run_dir, log=lambda *_: None)
    except xmc.errors.TrainingError as exc:
        outcome.record(False, f"train failed: {exc}")
        return {}, steps
    train_s = time.perf_counter() - budget_start
    for lg, ld in steps.losses:
        outcome.record(bool(np.isfinite(lg) and np.isfinite(ld)), f"non-finite loss {lg} {ld}")
    warm = sum(steps.durations[:WARMUP_STEPS])
    timed = steps.durations[WARMUP_STEPS:]
    metrics = {"train_docs_per_s": sum(steps.docs[WARMUP_STEPS:]) / (train_s - warm)}
    # step percentiles are printed, not gated: on a shared host the step-time
    # distribution is bimodal and its median and p90 flip between the modes
    tail, pct = tail_ms(timed)
    info("train", f"steps={len(steps.durations)} timed={len(timed)} "
         f"p50_ms={statistics.median(timed) * 1000.0!r} p{pct}_ms={tail!r} wall_s={train_s:.3f} "
         f"final_loss_g={steps.losses[-1][0]:.6g} final_loss_d={steps.losses[-1][1]:.6g}")

    # -- setup repeats, predict, eval and ensemble, interleaved in one fixed
    # order so that every phase samples the whole measuring window
    del fit, train_ds
    final = xmc.trainer.load_bundle(run_dir / "final.ckpt", config, vocab.size, cmap)
    first_epoch = xmc.trainer.load_bundle(run_dir / "epoch001.ckpt", config, vocab.size, cmap)
    # predict gets the inputs xmc predict builds from raw text
    lines = (data / "test_raw.txt").read_text(encoding="utf-8").splitlines()
    docs = [xmc.corpus.Document(i, xmc.corpus.tokenize(line, vocab, config.max_len), (), None)
            for i, line in enumerate(lines)]
    pred_ds = xmc.corpus.XmcDataset(docs, final.num_labels, feature_dim=0, split="test", vocab=vocab)
    batches = list(xmc.corpus.batch_iter(pred_ds, CHUNK, seed=0, shuffle=False))
    chunks = [xmc.corpus.XmcDataset(test_ds.documents[i : i + CHUNK], test_ds.num_labels,
                                    test_ds.feature_dim, split="test", vocab=vocab)
              for i in range(0, len(test_ds), CHUNK)]
    n = len(chunks)
    phases = {
        "setup": Phase(lambda _: setup(config, data)),
        "predict": Phase(lambda i: xmc.predict.predict_batch(
            batches[i % n].token_ids, batches[i % n].mask, final, b_top, PREDICT_K)),
        "eval": Phase(lambda i: xmc.predict.evaluate(chunks[i % n], [final], b_top=b_top, ks=EVAL_KS)),
        "ensemble": Phase(lambda i: xmc.predict.evaluate(chunks[i % n], [first_epoch, final], b_top=b_top, ks=EVAL_KS)),
    }
    counts = call_counts(wl, seconds, n)
    if tracer is not None:
        del counts["setup"]  # the traced run spans the model's own setup only
    for name in ("predict", "eval", "ensemble"):
        if tracer is not None:
            tracer.current_phase = name
        phases[name].fn(0)  # warm-up
    maps = [cmap.assign]
    for name, i in schedule(counts):
        phase = phases[name]
        if tracer is not None:
            tracer.current_phase = name
        if name == "setup":
            gc.collect()  # so no earlier garbage is collected inside the timing
        result = phase.run(i)
        if name == "setup":
            maps.append(result[3].assign)
        elif i < n:
            phase.first.append(result)
        del result
    outcome.record(all(np.array_equal(m, maps[0]) for m in maps), "setup repeats built different cluster maps")
    for name, count in counts.items():
        outcome.record(True, "", count if name == "setup" else CHUNK * count)
        info(name, f"calls={count}" + ("" if name == "setup" else f" docs_per_call={CHUNK} passes={count / n:.2f}"))

    setup_, predict, evals, ensemble = phases.values()
    if setup_.times:
        metrics["setup_s"] = statistics.median(setup_.times)
        info("setup", f"repeats={len(setup_.times)} min_s={min(setup_.times)!r} max_s={max(setup_.times)!r}")
    metrics["predict_docs_per_s"] = CHUNK * len(predict.times) / sum(predict.times)
    metrics["predict_batch_p80_ms"] = float(np.percentile(predict.times, TAIL_PCT)) * 1000.0
    metrics["eval_docs_per_s"] = CHUNK * len(evals.times) / sum(evals.times)
    metrics["ensemble_docs_per_s"] = CHUNK * len(ensemble.times) / sum(ensemble.times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    short = sum(p.short for preds in predict.first for p in preds)
    info("predict", f"calls={len(predict.times)} p50_ms={statistics.median(predict.times) * 1000.0!r} "
         f"p{TAIL_PCT}_ms={metrics['predict_batch_p80_ms']!r} short_predictions={short} of {len(test_ds)}")

    # -- correctness gate (untimed)
    if tracer is not None:
        tracer.current_phase = "check"
    view = final.inference_params()
    oracle = oracle_top_k(view, batches[0].token_ids[:ORACLE_DOCS], batches[0].mask[:ORACLE_DOCS], b_top, PREDICT_K)
    check_predictions(predict.first[0][:ORACLE_DOCS], oracle, outcome)
    for c, (preds, report) in enumerate(zip(predict.first, evals.first)):
        recomputed = precision_from_predictions(preds, chunks[c])
        for k in EVAL_KS:
            outcome.record(abs(recomputed[k] - report.precision[k]) <= 1e-12,
                           f"chunk {c}: P@{k} from predictions {recomputed[k]} != evaluate {report.precision[k]}")
    quality = {f"p{k}": sum(r.precision[k] * r.count for r in evals.first) / len(test_ds) for k in EVAL_KS}
    positives = [sum(len(d.labels) for d in chunk.documents) for chunk in chunks]
    quality["cluster_recall"] = sum(r.cluster_recall * n for r, n in zip(evals.first, positives)) / sum(positives)
    outcome.record(quality["p1"] >= wl.min_p1, f"P@1 {quality['p1']} below the workload's floor {wl.min_p1}")
    outcome.record(all(r.used_swa for r in evals.first), "eval did not use the SWA weights")
    info("quality", " ".join(f"{k}={v:.6f}" for k, v in quality.items()))
    metrics["quality.cluster_recall"] = quality["cluster_recall"]
    return metrics, steps


# ---------------------------------------------------------------------------
# per-layer metrics from the traced run


def layer_metrics(tracer, steps: StepLog, info) -> dict[str, tuple[float, str]]:
    import spans

    cols = tracer.arrays()
    name, dur, selft, phase, step = cols["name"], cols["dur"], cols["self"], cols["phase"], cols["step"]
    counters = tracer.counters

    missing = [s for s in spans.EXPECTED_SPANS if not np.any(name == s)]
    if missing:
        raise SystemExit(f"error: expected span {missing[0]} has zero calls (all missing: {missing})")

    in_steps = step >= 0
    step_spans = np.flatnonzero((name == "trainer.train_step") & in_steps)
    n_steps = len(step_spans)
    # self-time integrity: a step's descendants' self times plus its own add up to it
    for s in step_spans:
        members = step == step[s]
        if not np.all(selft[members] > -1e-9):
            raise SystemExit(f"error: overlapping child spans in train step {step[s]}")
        if abs(selft[members].sum() - dur[s]) > 1e-9 + 1e-6 * dur[s]:
            raise SystemExit(f"error: self times of train step {step[s]} do not add up to its span")

    def total(span, where):
        return float(dur[(name == span) & where].sum())

    def calls(span, where):
        return int(((name == span) & where).sum())

    def per_step(span):
        return total(span, in_steps) * 1000.0 / n_steps

    out: dict[str, tuple[float, str]] = {}
    setup_, train, eval_, predict_ = (phase == p for p in ("setup", "train", "eval", "predict"))
    out["corpus.load_s"] = (total("corpus.load_dataset", setup_), "s")
    out["corpus.batch_ms"] = (total("corpus.batch_iter", train) * 1000.0 / counters["train:corpus.batch_iter.items"], "ms")
    out["cluster.reps_s"] = (total("cluster.build_label_reps", setup_), "s")
    out["cluster.build_s"] = (total("cluster.build_cluster_map", setup_), "s")

    out["encoder.fwd_ms"] = (per_step("encoder.encode"), "ms")
    eval_batches = counters["eval:corpus.batch_iter.items"]
    out["encoder.eval_fwd_ms"] = (total("encoder.encode", eval_) * 1000.0 / eval_batches, "ms")
    out["encoder.calls_per_eval_batch"] = (calls("encoder.encode", eval_) / eval_batches, "count")

    out["recall.score_ms"] = (per_step("recall.recall_scores"), "ms")
    out["recall.sample_ms"] = (per_step("recall.sample_candidates"), "ms")
    out["recall.sample_calls"] = (calls("recall.sample_candidates", in_steps) / n_steps, "count")
    out["recall.top_clusters_ms"] = (per_step("recall.top_clusters"), "ms")
    out["recall.top_clusters_calls"] = (calls("recall.top_clusters", in_steps) / n_steps, "count")
    out["recall.candidates_per_doc"] = (counters["train:recall.candidates"] / counters["train:recall.docs"], "count")
    out["recall.hit_ratio"] = (counters["train:recall.hits"] / counters["train:recall.positives"], "fraction")

    out["rank.gather_ms"] = (per_step("rank.gather_embeddings"), "ms")
    out["rank.score_ms"] = (per_step("rank.rank_scores"), "ms")
    out["rank.calls_per_step"] = (calls("rank.rank_scores", in_steps) / n_steps, "count")
    out["rank.positive_ratio"] = (counters["train:rank.positives"] / counters["train:recall.candidates"], "fraction")

    out["tensor.backward_ms"] = (per_step("tensor.backward"), "ms")
    out["tensor.tape_nodes_per_step"] = (counters["train:tensor.tape_nodes"] / n_steps, "count")
    out["tensor.embedding_grad_bytes_per_step"] = (counters["train:tensor.embedding_grad_bytes"] / n_steps, "bytes")
    for op in spans.TENSOR_OPS:
        out[f"tensor.op.{op}.calls"] = (calls(f"tensor.op.{op}", in_steps) / n_steps, "count")
        out[f"tensor.op.{op}.ms"] = (per_step(f"tensor.op.{op}"), "ms")

    out["optim.clip_ms"] = (per_step("optim.clip_grads"), "ms")
    out["optim.adamw_ms"] = (per_step("optim.adamw_step"), "ms")
    out["optim.bytes_swept_per_step"] = (counters["train:optim.bytes_swept"] / n_steps, "bytes")
    out["optim.swa_ms"] = (total("optim.swa_update", train) * 1000.0 / calls("optim.swa_update", train), "ms")
    out["checkpoint.save_ms"] = (total("checkpoint.save_checkpoint", train) * 1000.0
                                 / calls("checkpoint.save_checkpoint", train), "ms")
    every = np.ones(len(name), dtype=bool)
    out["checkpoint.load_ms"] = (total("checkpoint.load_checkpoint", every) * 1000.0
                                 / calls("checkpoint.load_checkpoint", every), "ms")

    batch = (name == "predict.predict_batch") & predict_
    n_pred = int(batch.sum())
    out["predict.batch_ms"] = (float(dur[batch].sum()) * 1000.0 / n_pred, "ms")
    # self time of predict_batch: candidate concatenation and the top-k sort
    out["predict.batch_self_ms"] = (float(selft[batch].sum()) * 1000.0 / n_pred, "ms")
    out["predict.rank_ms"] = (total("rank.rank_scores", predict_) * 1000.0 / n_pred, "ms")
    out["predict.top_clusters_ms"] = (total("recall.top_clusters", predict_) * 1000.0 / n_pred, "ms")
    ens = phase == "ensemble"
    out["predict.ensemble_buffer_bytes"] = (counters["ensemble:predict.ensemble_buffer_bytes"]
                                            / calls("predict.ensemble_predict", ens), "bytes")

    step_dur = dur[step_spans]
    out["trainer.step_ms"] = (float(np.median(step_dur)) * 1000.0, "ms")
    out["trainer.step_self_ms"] = (float(selft[step_spans].sum()) * 1000.0 / n_steps, "ms")
    traced = [d for d, t in zip(steps.durations[WARMUP_STEPS:], steps.traced[WARMUP_STEPS:]) if t]
    untraced = [d for d, t in zip(steps.durations[WARMUP_STEPS:], steps.traced[WARMUP_STEPS:]) if not t]
    out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    out["trace.spans"] = (float(len(name)), "count")
    info("trace", f"traced_steps={n_steps} untraced_steps={len(untraced)} spans={len(name)} "
         f"embedding_grad_bytes and optim.bytes_swept are computed from tensor sizes")
    mean_step_ms = float(step_dur.mean()) * 1000.0
    parts = ("tensor.backward_ms", "optim.adamw_ms", "optim.clip_ms", "encoder.fwd_ms",
             "recall.sample_ms", "rank.score_ms", "trainer.step_self_ms")
    info("trace", "share of a traced step: " + " ".join(f"{k}={out[k][0] / mean_step_ms:.3f}" for k in parts))
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if xmc is None or not Path(xmc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: the xmc package is not in {ROOT / 'src'}", file=sys.stderr)
        return 2
    if xmc.tensor.default_dtype() is not np.float32 or xmc.tensor.verify_enabled():
        print("error: xmc is not in fast float32 mode", file=sys.stderr)
        return 2

    def info(tag, text):
        print(f"[{tag}] {text}", flush=True)

    wl = WORKLOADS[args.workload]
    info("env", json.dumps(env_record(), sort_keys=True))
    info("workload", f"{args.workload}: {wl.why}; closed loop, 1 client")
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    out_dir = HERE / "work"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    outcome = Outcome()
    reported: dict[str, tuple[float, str]] = {}
    try:
        metrics, steps = run_workload(wl, args.seed, args.seconds, tracer, work, info, outcome)
        if metrics and tracer is None:
            reported = {k: (metrics[k], unit) for k, unit in END_TO_END_UNITS.items()}
        elif metrics:
            tracer.enabled = False
            tracer.save(out_dir / f"trace-{args.workload}-seed{args.seed}.npz")
            reported = layer_metrics(tracer, steps, info)
            reported["quality.cluster_recall"] = (metrics["quality.cluster_recall"], "fraction")
    except Exception:
        # an error raised by the program is a failed operation, not a crash
        traceback.print_exc()
        outcome.record(False, "the run raised an exception; traceback on stderr")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in outcome.messages:
        info("FAIL", message)
    for key, (value, unit) in reported.items():
        print(f"{key} {value!r} {unit}")
    info("ops", f"attempted={outcome.attempted} failed={outcome.failed} "
         f"failed_share={outcome.failed / max(outcome.attempted, 1)!r}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
