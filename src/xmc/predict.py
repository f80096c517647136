"""End-to-end inference and P@k evaluation.

Scoring is training's forward pass (``trainer.forward``) with dropout off and
no positives: it encodes a batch once, samples each row's candidates from its
top ``b_top`` clusters and ranks all rows' candidates as one padded block.  A
label's fused score is its cluster's recall probability times its own rank
probability.  ``predict_batch`` takes the top K by that score;
``ensemble_predict`` averages it over the union of the members' candidates (a
member that did not recall a label adds 0); ``evaluate`` takes cluster recall
from the clusters each member just ranked.  No positives are injected, so
fewer than K candidates may exist; short result lists are returned as-is and
flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cluster import ClusterMap
from .corpus import XmcDataset, batch_iter
from .errors import ConfigError
from .trainer import ModelBundle, forward
# only for the benchmark's tracer (perfbench/spans.py), which wraps these names here
from .encoder import encode  # noqa: F401
from .rank import gather_embeddings, rank_scores  # noqa: F401
from .recall import recall_scores, top_clusters  # noqa: F401

BATCH_SIZE = 64  # documents per inference batch of evaluate and xmc predict


@dataclass
class Prediction:
    labels: np.ndarray  # descending fused score, ties by ascending label id
    scores: np.ndarray
    short: bool = False  # fewer than K candidates were available
    # per member model: the cluster of every candidate it ranked
    recalled: list[np.ndarray] = field(default_factory=list)

    def as_line(self) -> str:
        return " ".join(f"{l}:{s:.6g}" for l, s in zip(self.labels, self.scores))


@dataclass
class EvalReport:
    precision: dict[int, float]
    cluster_recall: float
    count: int
    used_swa: bool = False

    def table(self) -> str:
        rows = [f"{'metric':<18}{'value':>10}"]
        for k in sorted(self.precision):
            rows.append(f"{f'P@{k}':<18}{self.precision[k]:>10.4f}")
        rows.append(f"{'cluster_recall':<18}{self.cluster_recall:>10.4f}")
        rows.append(f"{'instances':<18}{self.count:>10d}")
        return "\n".join(rows)

    def machine_lines(self) -> str:
        parts = [f"p{k}={self.precision[k]:.6f}" for k in sorted(self.precision)]
        parts.append(f"cluster_recall={self.cluster_recall:.6f}")
        parts.append(f"instances={self.count}")
        parts.append(f"swa={int(self.used_swa)}")
        return " ".join(parts)


def _score_batch(view: ModelBundle, token_ids: np.ndarray, mask: np.ndarray, b_top: int):
    """Per row of a padded batch: (candidate set, fused score of each candidate)."""
    cluster_probs, sets, rank_probs, _, _ = forward(view, token_ids, mask, b_top, training=False)
    cluster_probs, rank_probs = cluster_probs.data, rank_probs.data
    return [(cs, cluster_probs[row, cs.clusters] * rank_probs[row, : len(cs)]) for row, cs in enumerate(sets)]


def _top_k(labels: np.ndarray, fused: np.ndarray, k: int, recalled: list[np.ndarray]) -> Prediction:
    order = np.lexsort((labels, -fused))[:k]
    return Prediction(labels[order], fused[order], short=len(order) < k, recalled=recalled)


def predict_batch(
    token_ids: np.ndarray,
    mask: np.ndarray,
    bundle: ModelBundle,
    b_top: int,
    k: int,
) -> list[Prediction]:
    """Top-K fused predictions of ``bundle.inference_params()`` for a padded batch (dropout off)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    view = bundle.inference_params()
    return [_top_k(cs.labels, fused, k, [cs.clusters]) for cs, fused in _score_batch(view, token_ids, mask, b_top)]


def ensemble_predict(
    bundles: Sequence[ModelBundle],
    token_ids: np.ndarray,
    mask: np.ndarray,
    b_top: int,
    k: int,
) -> list[Prediction]:
    """Average fused per-label scores across bundles (absent labels score 0).

    Each member clamps ``b_top`` to its own cluster count.
    """
    if not bundles:
        raise ConfigError("ensemble needs at least one bundle")
    if any(b.num_labels != bundles[0].num_labels for b in bundles):
        raise ConfigError("ensemble bundles must share the label space")
    members = []
    for bundle in bundles:
        view = bundle.inference_params()
        members.append(_score_batch(view, token_ids, mask, min(b_top, view.cluster_map.num_clusters)))
    out = []
    for rows in zip(*members):
        # summed in member order, as a dense per-label accumulator would
        present, slot = np.unique(np.concatenate([cs.labels for cs, _ in rows]), return_inverse=True)
        totals = np.bincount(slot, weights=np.concatenate([fused for _, fused in rows])) / len(bundles)
        scored = totals > 0.0
        out.append(_top_k(present[scored], totals[scored], k, [cs.clusters for cs, _ in rows]))
    return out


def precision_at_k(predicted: Iterable[int], truth: set[int], k: int) -> float:
    """|top-k of the ranking that are true| / k; missing slots count as misses."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    top = list(predicted)[:k]
    return sum(1 for label in top if label in truth) / k


def cluster_recall(recalled: np.ndarray, truth: Iterable[int], cmap: ClusterMap) -> float:
    """Fraction of positive labels whose cluster is among the ``recalled`` cluster ids."""
    truth = list(truth)
    if not truth:
        return 1.0
    covered = int(np.isin(cmap.assign[truth], recalled).sum())
    return covered / len(truth)


def evaluate(
    dataset: XmcDataset,
    bundles: Sequence[ModelBundle],
    b_top: int,
    ks: tuple[int, ...] = (1, 3, 5),
) -> EvalReport:
    """P@k over a dataset plus micro-averaged cluster recall.

    With an ensemble, predictions use the score average; cluster recall is
    averaged over the member models.  Bundles predict with their ``inference_params()``.
    """
    if len(dataset) == 0:
        raise ConfigError("cannot evaluate an empty dataset")
    hits = {k: 0.0 for k in ks}
    covered = 0.0
    total_pos = 0
    for batch in batch_iter(dataset, BATCH_SIZE, seed=0, shuffle=False):
        if len(bundles) == 1:
            preds = predict_batch(batch.token_ids, batch.mask, bundles[0], b_top, max(ks))
        else:
            preds = ensemble_predict(bundles, batch.token_ids, batch.mask, b_top, max(ks))
        for pred, labels in zip(preds, batch.labels):
            for bundle, recalled in zip(bundles, pred.recalled):
                covered += cluster_recall(recalled, labels, bundle.cluster_map) * len(labels) / len(bundles)
            total_pos += len(labels)
            truth = set(labels)
            for k in ks:
                hits[k] += precision_at_k(pred.labels.tolist(), truth, k)
    n = len(dataset)
    return EvalReport(
        precision={k: hits[k] / n for k in ks},
        cluster_recall=covered / max(total_pos, 1),
        count=n,
        used_swa=any(b.swa_available() for b in bundles),
    )
