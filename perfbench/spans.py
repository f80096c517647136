"""Span tracer that wraps xmc's public functions from outside the program.

Each wrapped call records one span: name, start, end, parent span, the train
step it ran in and the benchmark phase.  Spans stay in memory and are written
out when the run ends.  Wrapping happens where callers look the names up:
``trainer`` and ``predict`` import most layer functions by name, so the names
are replaced in those modules; the other modules call tensor ops as ``t.<op>``,
so replacing them on ``xmc.tensor`` covers every caller.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

import xmc.cluster
import xmc.corpus
import xmc.predict
import xmc.recall
import xmc.tensor
import xmc.trainer

TENSOR_OPS = (
    "matmul", "add", "add_n", "scale", "reshape", "transpose", "take", "concat",
    "embedding", "masked_fill", "sigmoid", "gelu", "softmax", "layer_norm",
    "dropout", "bce_loss",
)

# (span name, modules whose global of that function name gets wrapped)
LAYER_FUNCTIONS = (
    ("corpus.build_vocab", (xmc.corpus,)),
    ("corpus.load_dataset", (xmc.corpus,)),
    ("corpus.batch_iter", (xmc.trainer, xmc.predict)),
    ("cluster.build_label_reps", (xmc.cluster,)),
    ("cluster.build_cluster_map", (xmc.cluster,)),
    ("encoder.encode", (xmc.trainer, xmc.predict)),
    ("recall.recall_scores", (xmc.trainer, xmc.predict)),
    ("recall.recall_loss", (xmc.trainer,)),
    ("recall.sample_candidates", (xmc.trainer,)),
    ("recall.top_clusters", (xmc.recall, xmc.predict)),
    ("rank.gather_embeddings", (xmc.trainer, xmc.predict)),
    ("rank.rank_scores", (xmc.trainer, xmc.predict)),
    ("rank.rank_loss", (xmc.trainer,)),
    ("optim.clip_grads", (xmc.trainer,)),
    ("optim.adamw_step", (xmc.trainer,)),
    ("optim.swa_update", (xmc.trainer,)),
    ("checkpoint.save_checkpoint", (xmc.trainer,)),
    ("checkpoint.load_checkpoint", (xmc.trainer,)),
    ("trainer.init_bundle", (xmc.trainer,)),
    ("trainer.train", (xmc.trainer,)),
    ("trainer.train_step", (xmc.trainer,)),
    ("trainer.load_bundle", (xmc.trainer,)),
    ("predict.predict_batch", (xmc.predict,)),
    ("predict.ensemble_predict", (xmc.predict,)),
    ("predict.evaluate", (xmc.predict,)),
)

# every span a workload must produce; a missing one means a wrapped function
# was renamed or bypassed
EXPECTED_SPANS = (
    tuple(name for name, _ in LAYER_FUNCTIONS)
    + tuple(f"tensor.op.{op}" for op in TENSOR_OPS)
    + ("tensor.backward", "trace.count")
)


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        self.phase: list[str] = []
        self.enabled = True
        self.current_phase = "setup"
        self.step_id = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self.step_id)
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[f"{self.current_phase}:{name}"] += value

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns; ``self`` is duration minus direct children's durations."""
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.names),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
            "parent": parent,
            "step": np.array(self.step, dtype=np.int64),
            "phase": np.array(self.phase),
        }

    def save(self, path) -> None:
        cols = self.arrays()
        del cols["dur"], cols["self"]
        np.savez_compressed(path, **cols)


def _wrap_function(tracer: Tracer, name: str, fn, hook=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args)
        idx = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Each ``next()`` on the returned iterator is one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            traced = tracer.enabled
            idx = tracer.open(name) if traced else -1
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                if traced:
                    tracer.close(idx)
            if traced:
                tracer.count(name + ".items")
            yield item

    return wrapper


def _sample_counts(tracer: Tracer, fn):
    """Wrap sample_candidates to count candidates, positives and recall hits."""

    @functools.wraps(fn)
    def wrapper(scores, cmap, b_top, positives=None):
        result = fn(scores, cmap, b_top, positives=positives)
        if not tracer.enabled or positives is None:
            return result
        # counting gets its own span so it is not charged to any layer
        idx = tracer.open("trace.count")
        try:
            for cs, pos in zip(result, positives):
                _, first = np.unique(cs.clusters, return_index=True)
                # candidates list the chosen clusters' members first, in
                # cluster-rank order; injected positives come after them
                chosen = cs.clusters[np.sort(first)][:b_top]
                pos = np.array(sorted(set(pos)), dtype=np.int64)
                tracer.count("recall.docs")
                tracer.count("recall.candidates", len(cs))
                tracer.count("rank.positives", int(cs.is_positive.sum()))
                tracer.count("recall.positives", len(pos))
                tracer.count("recall.hits", int(np.isin(cmap.assign[pos], chosen).sum()))
        finally:
            tracer.close(idx)
        return result

    return wrapper


# Hooks derive counts from call arguments; they run only while tracing.


def _embedding_hook(tracer, args):
    weight = args[0]
    if tracer.step_id >= 0 and weight.requires_grad and xmc.tensor._active is not None:
        # the backward pass allocates one dense zero gradient of weight's size
        tracer.count("tensor.embedding_grad_bytes", weight.data.nbytes)


def _adamw_hook(tracer, args):
    # AdamW reads and writes param, grad, m and v of every parameter
    tracer.count("optim.bytes_swept", 4 * sum(p.data.nbytes for p in args[0].values()))


def _clip_hook(tracer, args):
    # the norm reads every gradient once
    tracer.count("optim.bytes_swept", sum(p.grad.nbytes for p in args[0].values() if p.grad is not None))


def _ensemble_hook(tracer, args):
    bundles, token_ids = args[0], args[1]
    tracer.count("predict.ensemble_buffer_bytes", token_ids.shape[0] * bundles[0].num_labels * 8)


def _backward_hook(tracer, args):
    tracer.count("tensor.tape_nodes", len(args[0]))


HOOKS = {
    "tensor.op.embedding": _embedding_hook,
    "optim.adamw_step": _adamw_hook,
    "optim.clip_grads": _clip_hook,
    "predict.ensemble_predict": _ensemble_hook,
    "tensor.backward": _backward_hook,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in place for the rest of the process."""
    for op in TENSOR_OPS:
        name = f"tensor.op.{op}"
        setattr(xmc.tensor, op, _wrap_function(tracer, name, getattr(xmc.tensor, op), HOOKS.get(name)))
    xmc.tensor.Tape.backward = _wrap_function(
        tracer, "tensor.backward", xmc.tensor.Tape.backward, HOOKS["tensor.backward"]
    )
    for name, modules in LAYER_FUNCTIONS:
        attr = name.split(".", 1)[1]
        for module in modules:
            fn = getattr(module, attr)
            if attr == "batch_iter":
                wrapped = _wrap_generator(tracer, name, fn)
            else:
                wrapped = _wrap_function(tracer, name, fn, HOOKS.get(name))
                if attr == "sample_candidates":
                    wrapped = _sample_counts(tracer, wrapped)
            setattr(module, attr, wrapped)
