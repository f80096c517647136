"""Label-rank head: bottleneck projection plus learned label embeddings.

One batched path scores candidates for training, prediction, evaluation and
ensembles: the batch's candidate sets are padded into one (B, n_max) block,
their embedding rows are gathered at once, and one batched matmul against the
bottleneck activations of the text representations gives every logit.  The
bottleneck keeps the head's size at L*b + b*(rep_width+1) parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as t
from .errors import ContractError, DimensionError
from .optim import _blocks
from .recall import CandidateSet
from .tensor import Tensor


@dataclass
class DiscriminatorParams:
    label_emb: Tensor  # (L, embed_dim), random init
    bottleneck_w: Tensor  # (embed_dim, rep_width)
    bottleneck_b: Tensor  # (embed_dim,)

    @property
    def num_labels(self) -> int:
        return self.label_emb.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.label_emb.shape[1]


def init_discriminator(
    num_labels: int, embed_dim: int, rep_width: int, rng: np.random.Generator
) -> DiscriminatorParams:
    # drawn a block of rows at a time: the (L, e) table is never held in float64
    label_emb = np.empty((num_labels, embed_dim), dtype=t.default_dtype())
    for _, (rows,) in _blocks(label_emb):
        rows[...] = rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=rows.shape)
    return DiscriminatorParams(
        label_emb=Tensor(label_emb, requires_grad=True),
        bottleneck_w=Tensor(rng.normal(0.0, 0.02, size=(embed_dim, rep_width)), requires_grad=True),
        bottleneck_b=Tensor(np.zeros(embed_dim), requires_grad=True),
    )


def pad_candidates(sets: Sequence[CandidateSet]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(label ids, validity mask, positive flags), each (B, n_max).

    Padded slots hold label 0, mask False and flag False.
    """
    lengths = np.array([len(cs) for cs in sets])
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    ids = np.zeros(keep.shape, dtype=np.int64)
    flags = np.zeros(keep.shape, dtype=bool)
    ids[keep] = np.concatenate([cs.labels for cs in sets])
    flags[keep] = np.concatenate([cs.is_positive for cs in sets])
    return ids, keep, flags


def gather_embeddings(label_emb: Tensor, ids: np.ndarray) -> Tensor:
    """Embedding rows for an array of label ids (gradient scatters back)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= label_emb.shape[0]):
        raise ContractError(f"candidate label id outside [0, {label_emb.shape[0]})")
    return t.embedding(label_emb, ids)


def rank_scores(rep: Tensor, gathered: Tensor, params: DiscriminatorParams) -> Tensor:
    """Candidate probabilities (B, n_max) from reps (B, w) and gathered rows (B, n_max, e)."""
    if rep.ndim != 2 or rep.shape[1] != params.bottleneck_w.shape[1]:
        raise DimensionError(f"rank_scores: rep shape {rep.shape} vs bottleneck {params.bottleneck_w.shape}")
    h = t.sigmoid(t.linear(rep, t.transpose(params.bottleneck_w, (1, 0)), params.bottleneck_b))
    batch, n_max = gathered.shape[:2]
    logits = t.matmul(gathered, t.reshape(h, (batch, params.embed_dim, 1)))
    return t.reshape(t.sigmoid(logits), (batch, n_max))


def rank_loss(scores: Tensor, is_positive: np.ndarray, keep: np.ndarray) -> Tensor:
    """BCE with positives as target 1, summed over candidates, averaged over the batch.

    Slots where ``keep`` is False are padding and add no loss and no gradient.
    """
    flags = np.asarray(is_positive, dtype=bool)
    keep = np.asarray(keep, dtype=bool)
    if scores.ndim != 2 or flags.shape != scores.shape or keep.shape != scores.shape:
        raise DimensionError(f"rank_loss: {scores.shape} scores vs {flags.shape} flags, {keep.shape} mask")
    # a padded slot scores 0 against target 0, which costs exactly nothing
    return t.bce_loss(t.masked_fill(scores, keep, 0.0), flags & keep)
