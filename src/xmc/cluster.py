"""Balanced label clustering over sparse label representations.

Labels are represented by the L2-normalized sum of the sparse features of
the training documents that carry them, then recursively bisected with a
balanced 2-means (cosine similarity) until every leaf holds at most ``s``
labels.  Leaves become clusters, numbered in depth-first order, left first.

Cluster sizes target the bound s/2 < size <= s.  Exact halving cannot
always respect the lower bound (a node of 9 labels with s=8 can only split
5+4), so each split picks the partition closest to half whose sides can
both still be divided within the bound; for the few (L, s) pairs where no
partition of L into (s/2, s] parts exists at all (see
:func:`bound_feasible`), the lower bound degrades to ceil(s/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .checkpoint import atomic_write
from .corpus import XmcDataset, read_text, split_lines
from .errors import ConfigError, ContractError, ParseError

MAX_ITERS = 50
INIT_SAMPLE = 32


@dataclass
class ClusterMap:
    """Label -> cluster assignment and its exact inverse."""

    assign: np.ndarray  # (L,) int64
    members: list[np.ndarray]  # cluster id -> sorted label ids
    s: int
    seed: int

    @property
    def num_clusters(self) -> int:
        return len(self.members)

    @property
    def num_labels(self) -> int:
        return len(self.assign)

    def validate(self) -> None:
        seen = np.zeros(self.num_labels, dtype=bool)
        for cid, labels in enumerate(self.members):
            if len(labels) == 0:
                raise ContractError(f"cluster {cid} is empty")
            if np.any(np.diff(labels) <= 0):
                raise ContractError(f"cluster {cid} members not sorted/unique")
            if np.any(self.assign[labels] != cid):
                raise ContractError(f"assign/members disagree for cluster {cid}")
            seen[labels] = True
        if not seen.all():
            raise ContractError("some label belongs to no cluster")

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write(f"{self.num_clusters} {self.num_labels} {self.s} {self.seed}\n")
            for labels in self.members:
                fh.write(" ".join(str(l) for l in labels) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ClusterMap":
        """A map as :meth:`save` writes it; anything else is a ParseError at file:line (the header's at line 1)."""
        lines = split_lines(read_text(path))
        try:
            k, num_labels, s, seed = (int(v) for v in (lines[0].split() if lines else ()))
        except ValueError as exc:
            raise ParseError(f"{path}:1: header must be 'K L s seed'") from exc
        if num_labels < 1:
            raise ParseError(f"{path}:1: label count must be >= 1, got {num_labels}")
        if len(lines) - 1 != k:
            raise ParseError(f"{path}:1: header says {k} clusters, file has {len(lines) - 1}")
        members = []
        for lineno, line in enumerate(lines[1:], 2):
            try:
                labels = np.array([int(v) for v in line.split()], dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}:{lineno}: label ids must be integers") from exc
            if len(labels) == 0 or labels.min() < 0 or labels.max() >= num_labels or np.any(np.diff(labels) <= 0):
                raise ParseError(f"{path}:{lineno}: expected strictly increasing label ids in [0, {num_labels})")
            members.append(labels)
        held = sum(len(labels) for labels in members)
        if held < num_labels:  # checked before the (L,) array is allocated
            raise ParseError(f"{path}:1: header says {num_labels} labels, its clusters hold {held}")
        assign = np.full(num_labels, -1, dtype=np.int64)
        for cid, labels in enumerate(members):
            again = labels[assign[labels] >= 0]
            if len(again):
                raise ParseError(f"{path}:{cid + 2}: label {again[0]} is already in cluster {assign[again[0]]}")
            assign[labels] = cid
        # every label in range, none twice, at least L of them: each label once
        return cls(assign, members, s, seed)


def build_label_reps(dataset: XmcDataset) -> sp.csr_array:
    """PIFA label representations as one (L, D) float64 CSR matrix.

    Row ``l`` is the sum of the sparse features of the documents carrying
    label ``l`` (``Yᵀ X``), scaled to unit L2 norm; unused labels are empty
    rows.  A feature whose contributions cancel to exactly 0 stays stored:
    a label is an empty row only when its documents carry no feature at all.
    """
    docs = dataset.documents
    if any(doc.sparse is None for doc in docs):
        raise ContractError("build_label_reps requires sparse features on every document")
    # The sparse product drops sums that come out exactly 0.  An imaginary 1 on
    # every feature value counts its contributions, so no stored sum is 0, and
    # the real part is Yᵀ X summed in document order.
    x = _stack([doc.sparse.indices for doc in docs], [doc.sparse.values + 1j for doc in docs], dataset.feature_dim)
    y = _stack([doc.labels for doc in docs], None, dataset.num_labels)
    reps = (y.T.tocsr() @ x).real
    reps.sort_indices()
    bounds = zip(reps.indptr[:-1], reps.indptr[1:])
    norms = np.array([np.sqrt((reps.data[a:b] ** 2).sum()) for a, b in bounds])
    norms[norms == 0] = 1.0
    reps.data = reps.data / np.repeat(norms, np.diff(reps.indptr))
    return reps


def _stack(rows, values, width: int) -> sp.csr_array:
    """CSR matrix from per-row column ids and values (all ones when ``values`` is None)."""
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64)] + [np.asarray(r, dtype=np.int64) for r in rows])
    data = np.ones(len(indices)) if values is None else np.concatenate([np.empty(0)] + list(values))
    return sp.csr_array((data, indices, indptr), shape=(len(rows), width))


def _bisect(reps: sp.csr_array, rows: np.ndarray, left_size: int, rng: np.random.Generator):
    """One balanced 2-means pass over ``rows``; the top ``left_size`` go left.

    Ordering per iteration: non-zero reps first by cosine margin descending,
    zero reps last, ties by ascending label id.
    """
    counts = reps.indptr[rows + 1] - reps.indptr[rows]
    is_zero = counts == 0
    nonzero = np.flatnonzero(~is_zero)
    # without a seed pair every margin is 0
    order = np.lexsort((rows, is_zero))
    if len(nonzero) >= 2:
        sub = reps[rows]
        n, dim = sub.shape
        row_of = np.repeat(np.arange(n), counts)
        # seeds: the sampled pair with minimal mutual cosine, first in row-major order
        k = min(INIT_SAMPLE, len(nonzero))
        sample = np.sort(rng.choice(nonzero, size=k, replace=False))
        seeds = sub[sample]
        gram = (seeds @ seeds.T).toarray()
        gram[np.tri(k, dtype=bool)] = np.inf
        a, b = divmod(int(np.argmin(gram)), k)
        c_left, c_right = np.zeros(dim), np.zeros(dim)
        for target, local in ((c_left, sample[a]), (c_right, sample[b])):
            lo, hi = sub.indptr[local], sub.indptr[local + 1]
            target[sub.indices[lo:hi]] = sub.data[lo:hi]

        prev = None
        for _ in range(MAX_ITERS):
            order = np.lexsort((rows, -(sub @ (c_left - c_right)), is_zero))
            in_left = np.zeros(n, dtype=bool)
            in_left[order[:left_size]] = True
            if prev is not None and np.array_equal(in_left, prev):
                break
            prev = in_left
            for target, side in ((c_left, in_left), (c_right, ~in_left)):
                mask = side[row_of]
                target[:] = np.bincount(sub.indices[mask], sub.data[mask], minlength=dim)
                norm = np.sqrt((target**2).sum())
                if norm > 0:
                    target /= norm
    left = np.sort(rows[order[:left_size]])
    right = np.sort(rows[order[left_size:]])
    return left, right


# ---------------------------------------------------------------------------
# size-bound arithmetic


def bound_feasible(n: int, s: int) -> bool:
    """Can ``n`` labels be partitioned into parts of size in (s/2, s]?

    Equivalent to: exists k >= 1 with k*lower <= n <= k*s, where
    ``lower = s//2 + 1`` is the smallest size above s/2.
    """
    lower = s // 2 + 1
    if n < lower:
        return False
    k_min = -(-n // s)
    return k_min * lower <= n


def _choose_left_size(p: int, s: int) -> int:
    """Split size for the left child: nearest to half with both sides feasible."""
    half = (p + 1) // 2
    if bound_feasible(p, s):
        for delta in range(p):
            for a in (half + delta, half - delta):
                if 1 <= a < p and bound_feasible(a, s) and bound_feasible(p - a, s):
                    return a
    # (p, s) cannot meet the strict lower bound anywhere in this subtree:
    # fall back to plain halving under the relaxed bound ceil(s/2).
    return half


def build_cluster_map(reps: sp.csr_array, s: int, seed: int) -> ClusterMap:
    """Recursively partition the rows (labels) of ``reps`` until every leaf has size <= s."""
    if s < 1:
        raise ConfigError(f"cluster size must be >= 1, got {s}")
    num_labels = reps.shape[0]
    if num_labels == 0:
        raise ContractError("cannot cluster an empty label set")

    if s == 1:
        members = [np.array([l], dtype=np.int64) for l in range(num_labels)]
        return ClusterMap(np.arange(num_labels, dtype=np.int64), members, s, seed)

    leaves: list[np.ndarray] = []

    def recurse(rows: np.ndarray, node_id: int) -> None:
        if len(rows) <= s:
            leaves.append(rows)
            return
        rng = np.random.default_rng([seed, node_id])
        left, right = _bisect(reps, rows, _choose_left_size(len(rows), s), rng)
        recurse(left, 2 * node_id)
        recurse(right, 2 * node_id + 1)

    recurse(np.arange(num_labels, dtype=np.int64), 1)

    assign = np.empty(num_labels, dtype=np.int64)
    for cid, labels in enumerate(leaves):
        assign[labels] = cid
    cmap = ClusterMap(assign, leaves, s, seed)
    cmap.validate()
    return cmap


def cluster_targets(labels, cmap: ClusterMap) -> np.ndarray:
    """Multi-hot vector over clusters: bit c set iff some label lies in cluster c."""
    out = np.zeros(cmap.num_clusters, dtype=np.float64)
    for label in labels:
        if label < 0 or label >= cmap.num_labels:
            raise ContractError(f"label id {label} outside [0, {cmap.num_labels})")
        out[cmap.assign[label]] = 1.0
    return out
