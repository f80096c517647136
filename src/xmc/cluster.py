"""Balanced label clustering over sparse label representations.

Labels are represented by the L2-normalized sum of the sparse features of
the training documents that carry them, then recursively bisected with a
balanced 2-means (cosine similarity) until every leaf holds at most ``s``
labels.  Leaves become clusters, numbered in depth-first order, left first.
Each node reads only its own entries of the (L, D) reps, on its columns
renumbered to a compact range, as PECOS's hierarchical k-means does; every
margin, centroid and seed cosine is summed in the order of scipy's products
over all D columns, so the maps are those of that full-width build.

Cluster sizes target the bound s/2 < size <= s.  Exact halving cannot
always respect the lower bound (a node of 9 labels with s=8 can only split
5+4), so each split picks the partition closest to half whose sides can
both still be divided within the bound; for the few (L, s) pairs where no
partition of L into (s/2, s] parts exists at all (see
:func:`bound_feasible`), the lower bound degrades to ceil(s/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """Label -> cluster assignment, the map's one store; every id in [0, K) is used."""

    assign: np.ndarray  # (L,) int64
    s: int
    seed: int

    def __post_init__(self) -> None:
        self.assign = np.asarray(self.assign, dtype=np.int64)
        if self.assign.min(initial=0) < 0:
            raise ContractError(f"cluster id {self.assign.min()} is negative")
        sizes = np.bincount(self.assign)
        if not sizes.all():
            raise ContractError(f"cluster {np.argmin(sizes)} is empty")
        self.num_clusters = len(sizes)

    @property
    def num_labels(self) -> int:
        return len(self.assign)

    @cached_property
    def members(self) -> list[np.ndarray]:
        """Cluster id -> its label ids, ascending; derived from ``assign`` on first use."""
        order = np.argsort(self.assign, kind="stable")
        ends = np.cumsum(np.bincount(self.assign)).tolist()
        return [order[a:b] for a, b in zip([0, *ends], ends)]

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
        if s < 1:
            raise ParseError(f"{path}:1: cluster size must be >= 1, got {s}")
        if seed < 0:
            raise ParseError(f"{path}:1: seed must be >= 0, got {seed}")
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
        return cls(assign, s, seed)


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
    norms = _row_norms(reps)
    norms[norms == 0] = 1.0
    reps.data = reps.data / np.repeat(norms, np.diff(reps.indptr))
    return reps


def _row_norms(reps: sp.csr_array) -> np.ndarray:
    """Each row's ``np.sqrt((row ** 2).sum())``, bit for bit: rows with the same
    number of entries are gathered as one (k, n) block, whose ``.sum(axis=1)``
    sums every row in the order its own ``.sum()`` does."""
    counts = np.diff(reps.indptr)
    squares = reps.data**2
    norms = np.zeros(len(counts))
    order = np.argsort(counts, kind="stable")
    edges = np.flatnonzero(np.diff(counts[order], prepend=-1, append=-1))
    for a, b in zip(edges[:-1], edges[1:]):
        rows, n = order[a:b], counts[order[a]]
        if n:
            norms[rows] = np.sqrt(squares[reps.indptr[rows, None] + np.arange(n)].sum(axis=1))
    return norms


def _stack(rows, values, width: int) -> sp.csr_array:
    """CSR matrix from per-row column ids and values (all ones when ``values`` is None)."""
    indptr = np.cumsum([0] + [len(r) for r in rows], dtype=np.int64)
    indices = np.concatenate([np.empty(0, np.int64)] + [np.asarray(r, dtype=np.int64) for r in rows])
    data = np.ones(len(indices)) if values is None else np.concatenate([np.empty(0)] + list(values))
    return sp.csr_array((data, indices, indptr), shape=(len(rows), width))


def _seed_gram(cols: np.ndarray, data: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Gram matrix of ``k`` sparse rows (ascending column ids), +inf on and below the diagonal;
    each pair sums its shared columns in ascending order from 0.0, as scipy's CSR product does."""
    k = len(counts)
    by_col = np.argsort(cols, kind="stable")  # rows stay ascending within a column
    row, col, val = np.repeat(np.arange(k), counts)[by_col], cols[by_col], data[by_col]
    # each entry pairs with the later entries of its column: the upper triangle only
    later = np.searchsorted(col, col, side="right") - np.arange(len(col)) - 1
    first = np.repeat(np.arange(len(col)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    sums = np.bincount(row[first] * k + row[second], val[first] * val[second], minlength=k * k)
    gram = sums.reshape(k, k).astype(np.float64)  # int zeros if no pair shares a column
    gram[np.tri(k, dtype=bool)] = np.inf
    return gram


def _bisect(reps: sp.csr_array, rows: np.ndarray, left_size: int, rng_key: list[int], scratch: np.ndarray):
    """One balanced 2-means pass over ``rows`` (ascending); the top ``left_size`` go left.

    Ordering per iteration: non-zero reps first by cosine margin descending,
    zero reps last, ties by ascending label id.  ``reps`` rows hold ascending
    column ids; ``scratch`` holds D zeros, and holds them again on return.
    """
    begin = reps.indptr[rows]
    counts = reps.indptr[rows + 1] - begin
    is_zero = counts == 0
    nonzero = np.flatnonzero(~is_zero)
    # without a seed pair every margin is 0; stable sorts break ties by label id
    order = np.argsort(is_zero, kind="stable")
    if len(nonzero) >= 2:
        offset = np.cumsum(counts) - counts  # row starts in the node's arrays
        at = np.arange(offset[-1] + counts[-1]) + np.repeat(begin - offset, counts)  # its entries in reps, row by row
        data, local = reps.data[at], reps.indices[at]
        del at  # entry-length arrays set the build's peak memory: hold only those the loop reads
        cols = np.unique(local)  # renumbered through ``scratch``, not by sorting the entries
        scratch[cols] = np.arange(len(cols))
        local, dim = scratch[local].astype(np.intp), len(cols)
        scratch[cols] = 0.0
        row_of = np.repeat(np.arange(len(rows)), counts)
        # seeds: the sampled pair with minimal mutual cosine, first in row-major order
        k = min(INIT_SAMPLE, len(nonzero))
        sample = np.sort(np.random.default_rng(rng_key).choice(nonzero, size=k, replace=False))
        picked = np.isin(row_of, sample)
        a, b = divmod(int(np.argmin(_seed_gram(local[picked], data[picked], counts[sample]))), k)
        centroids = np.zeros((2, dim))
        for target, r in zip(centroids, sample[[a, b]]):
            span = slice(offset[r], offset[r] + counts[r])
            target[local[span]] = data[span]

        prev = None
        for _ in range(MAX_ITERS):
            margins = np.bincount(row_of, data * (centroids[0] - centroids[1])[local], minlength=len(rows))
            order = np.lexsort((-margins, is_zero))
            in_left = np.zeros(len(rows), dtype=bool)
            in_left[order[:left_size]] = True
            if prev is not None and np.array_equal(in_left, prev):
                break
            prev = in_left
            centroids = np.bincount(local + dim * ~in_left[row_of], data, minlength=2 * dim).reshape(2, dim)
            for target in centroids:  # norms summed over D columns, in numpy's order for a dense centroid
                scratch[cols] = target**2
                norm = np.sqrt(scratch.sum())
                scratch[cols] = 0.0
                if norm > 0:
                    target /= norm
    return np.sort(rows[order[:left_size]]), np.sort(rows[order[left_size:]])


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
        return ClusterMap(np.arange(num_labels), s, seed)

    assign = np.empty(num_labels, dtype=np.int64)
    num_leaves = 0  # leaves are numbered in the order they are reached
    scratch = np.zeros(reps.shape[1])  # _bisect's working row of width D, zero between nodes
    stack = [(np.arange(num_labels, dtype=np.int64), 1)]  # (rows, node id), taken depth first, left first
    while stack:
        rows, node_id = stack.pop()
        if len(rows) <= s:
            assign[rows] = num_leaves
            num_leaves += 1
            continue
        left, right = _bisect(reps, rows, _choose_left_size(len(rows), s), [seed, node_id], scratch)
        stack += [(right, 2 * node_id + 1), (left, 2 * node_id)]
    return ClusterMap(assign, s, seed)


def cluster_targets(labels, cmap: ClusterMap) -> np.ndarray:
    """Multi-hot vector over clusters: bit c set iff some label lies in cluster c."""
    out = np.zeros(cmap.num_clusters, dtype=np.float64)
    for label in labels:
        if label < 0 or label >= cmap.num_labels:
            raise ContractError(f"label id {label} outside [0, {cmap.num_labels})")
        out[cmap.assign[label]] = 1.0
    return out
