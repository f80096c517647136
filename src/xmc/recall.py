"""Cluster-recall head: scores all label clusters and samples candidate labels.

The candidate set of an instance is the union of the member labels of its
top-scoring clusters, in cluster-rank order.  At training time every positive
label is injected (appended if missing) so the rank head always sees its
positives; at prediction time the set is used as generated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as t
from .cluster import ClusterMap
from .errors import ConfigError, ContractError, DimensionError
from .tensor import Tensor


@dataclass
class GeneratorParams:
    weight: Tensor  # (K, rep_width)
    bias: Tensor  # (K,)


def init_generator(num_clusters: int, rep_width: int, rng: np.random.Generator) -> GeneratorParams:
    return GeneratorParams(
        weight=Tensor(rng.normal(0.0, 0.02, size=(num_clusters, rep_width)), requires_grad=True),
        bias=Tensor(np.zeros(num_clusters), requires_grad=True),
    )


def recall_scores(rep: Tensor, params: GeneratorParams) -> Tensor:
    """Independent per-cluster probabilities, shape (batch, K)."""
    if rep.shape[-1] != params.weight.shape[1]:
        raise DimensionError(
            f"recall_scores: rep width {rep.shape[-1]} != generator width {params.weight.shape[1]}"
        )
    logits = t.linear(rep, t.transpose(params.weight, (1, 0)), params.bias)
    return t.sigmoid(logits)


def recall_loss(scores: Tensor, targets: np.ndarray) -> Tensor:
    """Summed BCE over clusters, averaged over the batch."""
    targets = np.asarray(targets)
    if not np.all((targets == 0) | (targets == 1)):
        raise ContractError("recall_loss targets must be 0/1 multi-hot")
    return t.bce_loss(scores, targets)


@dataclass
class CandidateSet:
    """Per-instance candidate labels with positivity flags and source clusters."""

    labels: np.ndarray  # (n,) int64, no duplicates
    is_positive: np.ndarray  # (n,) bool
    clusters: np.ndarray  # (n,) int64, cluster of each candidate

    def __len__(self) -> int:
        return len(self.labels)


def check_b_top(b_top: int, num_clusters: int) -> None:
    """ConfigError unless ``b_top`` is in [1, K]."""
    if not 1 <= b_top <= num_clusters:
        raise ConfigError(f"b_top={b_top} outside [1, {num_clusters}]")


def top_clusters(scores_row: np.ndarray, b_top: int) -> np.ndarray:
    """Indices of the b_top highest-scoring clusters, ties by ascending id.

    O(K): a partition finds the b_top-th highest score, and only the clusters
    scoring at least that much are sorted.
    """
    neg = -np.asarray(scores_row)
    candidates = np.arange(len(neg))
    if b_top < len(neg):
        cut = np.partition(neg, b_top - 1)[b_top - 1]
        # every tie at the cut stays a candidate; NaN compares false, so a NaN
        # cut keeps every cluster and NaN scores sort last, as in a full sort
        candidates = np.flatnonzero(~(neg > cut))
    return candidates[np.argsort(neg[candidates], kind="stable")[:b_top]]


def sample_candidates(
    scores: np.ndarray,
    cmap: ClusterMap,
    b_top: int,
    positives: list | None = None,
) -> list[CandidateSet]:
    """Candidate sets for a batch of recall-score rows.

    Recomputed from the given scores on every call; nothing is cached, which
    is what makes training-time sampling dynamic.
    """
    scores = np.asarray(scores)
    if scores.ndim == 1:
        scores = scores[None, :]
    if scores.shape[1] != cmap.num_clusters:
        raise DimensionError(
            f"scores have {scores.shape[1]} clusters, map has {cmap.num_clusters}"
        )
    check_b_top(b_top, cmap.num_clusters)
    if positives is not None and len(positives) != scores.shape[0]:
        raise ContractError("positives must align with the score rows")

    out = []
    for i in range(scores.shape[0]):
        chosen = top_clusters(scores[i], b_top)
        labels = np.concatenate([cmap.members[c] for c in chosen])
        if positives is not None:
            pos = np.array(sorted(set(positives[i])), dtype=np.int64)
            missing = pos[~np.isin(pos, labels)]
            labels = np.concatenate([labels, missing])
            flags = np.isin(labels, pos)
        else:
            flags = np.zeros(len(labels), dtype=bool)
        out.append(CandidateSet(labels, flags, cmap.assign[labels]))
    return out
