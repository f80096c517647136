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

from .corpus import SparseVec, XmcDataset
from .errors import ConfigError, ContractError, ParseError

MAX_ITERS = 50
INIT_SAMPLE = 32


@dataclass
class LabelRep:
    label: int
    rep: SparseVec  # unit L2 norm, or the zero vector for unused labels


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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.num_clusters} {self.num_labels} {self.s} {self.seed}\n")
            for labels in self.members:
                fh.write(" ".join(str(l) for l in labels) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ClusterMap":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ParseError(f"{path}: empty cluster map")
        try:
            k, num_labels, s, seed = (int(v) for v in lines[0].split())
        except ValueError as exc:
            raise ParseError(f"{path}:1: header must be 'K L s seed'") from exc
        if len(lines) - 1 != k:
            raise ParseError(f"{path}: header says {k} clusters, file has {len(lines) - 1}")
        members = []
        assign = np.full(num_labels, -1, dtype=np.int64)
        for lineno, line in enumerate(lines[1:], 2):
            try:
                labels = np.array([int(v) for v in line.split()], dtype=np.int64)
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: label ids must be integers") from exc
            if len(labels) and (labels.min() < 0 or labels.max() >= num_labels):
                raise ParseError(f"{path}:{lineno}: label id outside [0, {num_labels})")
            assign[labels] = len(members)
            members.append(labels)
        cmap = cls(assign, members, s, seed)
        cmap.validate()
        return cmap


def build_label_reps(dataset: XmcDataset) -> list[LabelRep]:
    """Unit-normalized sum of sparse doc features per label; zero if unused."""
    sums: list[dict[int, float]] = [dict() for _ in range(dataset.num_labels)]
    for doc in dataset.documents:
        if doc.sparse is None:
            raise ContractError("build_label_reps requires sparse features on every document")
        for label in doc.labels:
            acc = sums[label]
            for i, v in zip(doc.sparse.indices, doc.sparse.values):
                acc[int(i)] = acc.get(int(i), 0.0) + float(v)
    reps = []
    for label, acc in enumerate(sums):
        if acc:
            idx = np.array(sorted(acc), dtype=np.int64)
            val = np.array([acc[int(i)] for i in idx], dtype=np.float64)
            norm = np.sqrt((val**2).sum())
            if norm > 0:
                val = val / norm
            reps.append(LabelRep(label, SparseVec(idx, val, dataset.feature_dim)))
        else:
            reps.append(
                LabelRep(label, SparseVec(np.empty(0, np.int64), np.empty(0), dataset.feature_dim))
            )
    return reps


# ---------------------------------------------------------------------------
# internal CSR machinery


class _Csr:
    """Row-compressed view of the label reps for vectorized centroid math."""

    def __init__(self, reps: list[LabelRep]):
        self.dim = reps[0].rep.dim if reps else 0
        counts = np.array([r.rep.nnz for r in reps], dtype=np.int64)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self.indices = (
            np.concatenate([r.rep.indices for r in reps]) if len(reps) else np.empty(0, np.int64)
        )
        self.values = (
            np.concatenate([r.rep.values for r in reps]) if len(reps) else np.empty(0)
        )

    def row_counts(self, rows: np.ndarray) -> np.ndarray:
        return self.indptr[rows + 1] - self.indptr[rows]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(feature ids, values, per-nnz local row) for the given rows, concatenated."""
        counts = self.row_counts(rows)
        pos = _concat_ranges(self.indptr[rows], counts)
        return self.indices[pos], self.values[pos], np.repeat(np.arange(len(rows)), counts)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges [start, start+count) without a Python loop."""
    nz = counts > 0
    s, c = starts[nz], counts[nz]
    if len(s) == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(int(c.sum()), dtype=np.int64)
    out[0] = s[0]
    if len(s) > 1:
        boundaries = np.cumsum(c)[:-1]
        out[boundaries] = s[1:] - (s[:-1] + c[:-1] - 1)
    return np.cumsum(out)


def _min_cosine_pair(idx, val, row_of, n, dim, sample):
    """Among sampled local rows, the pair with minimal mutual cosine (first wins)."""
    buf = np.zeros(dim)
    best = (np.inf, -1, -1)
    sample_mask = np.isin(row_of, sample)
    s_idx, s_val, s_row = idx[sample_mask], val[sample_mask], row_of[sample_mask]
    for a in sample:
        a_mask = s_row == a
        buf[s_idx[a_mask]] = s_val[a_mask]
        dots = np.zeros(n)
        np.add.at(dots, s_row, buf[s_idx] * s_val)
        for b in sample:
            if b <= a:
                continue
            if dots[b] < best[0]:
                best = (dots[b], a, b)
        buf[s_idx[a_mask]] = 0.0
    return best[1], best[2]


def _bisect(csr: _Csr, rows: np.ndarray, left_size: int, rng: np.random.Generator):
    """One balanced 2-means pass over ``rows``; the top ``left_size`` go left.

    Ordering per iteration: non-zero reps first by cosine margin descending,
    zero reps last, ties by ascending label id.
    """
    n = len(rows)
    idx, val, row_of = csr.gather(rows)
    counts = csr.row_counts(rows)
    is_zero = counts == 0

    nonzero = np.flatnonzero(~is_zero)
    c_left = np.zeros(csr.dim)
    c_right = np.zeros(csr.dim)
    have_seeds = len(nonzero) >= 2
    if have_seeds:
        k = min(INIT_SAMPLE, len(nonzero))
        sample = np.sort(rng.choice(nonzero, size=k, replace=False))
        a, b = _min_cosine_pair(idx, val, row_of, n, csr.dim, sample)
        for target, local in ((c_left, a), (c_right, b)):
            m = row_of == local
            target[idx[m]] = val[m]

    prev = None
    for _ in range(MAX_ITERS if have_seeds else 1):
        diff = c_left - c_right
        scores = np.zeros(n)
        np.add.at(scores, row_of, val * diff[idx])
        order = np.lexsort((rows, -scores, is_zero))
        in_left = np.zeros(n, dtype=bool)
        in_left[order[:left_size]] = True
        if prev is not None and np.array_equal(in_left, prev):
            break
        prev = in_left
        for target, side in ((c_left, in_left), (c_right, ~in_left)):
            mask = side[row_of]
            target[:] = 0.0
            np.add.at(target, idx[mask], val[mask])
            norm = np.sqrt((target**2).sum())
            if norm > 0:
                target /= norm
    left = np.sort(rows[order[:left_size]])
    right = np.sort(rows[order[left_size:]])
    return left, right


def balanced_2means(reps: list[LabelRep], seed: int):
    """Split labels into two halves (sizes differ by at most one, extra left)."""
    if len(reps) < 2:
        raise ContractError(f"balanced_2means needs at least 2 labels, got {len(reps)}")
    rows = np.array([r.label for r in reps], dtype=np.int64)
    order = np.argsort(rows)
    rows = rows[order]
    # reorder csr rows to match ascending label ids
    csr_sorted = _Csr([reps[i] for i in order])
    local = np.arange(len(rows))
    left, right = _bisect(
        csr_sorted, local, (len(rows) + 1) // 2, np.random.default_rng([seed, 1])
    )
    return rows[left].tolist(), rows[right].tolist()


# ---------------------------------------------------------------------------
# size-bound arithmetic


def bound_feasible(n: int, s: int, lower: int | None = None) -> bool:
    """Can ``n`` labels be partitioned into parts of size in (s/2, s]?

    Equivalent to: exists k >= 1 with k*lower <= n <= k*s, where
    ``lower = s//2 + 1`` is the smallest size above s/2.
    """
    if lower is None:
        lower = s // 2 + 1
    if n < lower:
        return False
    k_min = -(-n // s)
    return k_min * lower <= n


def _choose_left_size(p: int, s: int) -> int:
    """Split size for the left child: nearest to half with both sides feasible."""
    half = (p + 1) // 2
    strict = s // 2 + 1
    if bound_feasible(p, s, strict):
        for delta in range(p):
            for a in (half + delta, half - delta):
                if 1 <= a < p and bound_feasible(a, s, strict) and bound_feasible(p - a, s, strict):
                    return a
    # (p, s) cannot meet the strict lower bound anywhere in this subtree:
    # fall back to plain halving under the relaxed bound ceil(s/2).
    return half


def build_cluster_map(reps: list[LabelRep], s: int, seed: int) -> ClusterMap:
    """Recursively partition all labels until every leaf has size <= s."""
    if s < 1:
        raise ConfigError(f"cluster size must be >= 1, got {s}")
    num_labels = len(reps)
    if num_labels == 0:
        raise ContractError("cannot cluster an empty label set")
    if sorted(r.label for r in reps) != list(range(num_labels)):
        raise ContractError("label reps must cover 0..L-1 exactly once")

    if s == 1:
        members = [np.array([l], dtype=np.int64) for l in range(num_labels)]
        return ClusterMap(np.arange(num_labels, dtype=np.int64), members, s, seed)

    by_label = sorted(reps, key=lambda r: r.label)
    csr = _Csr(by_label)
    leaves: list[np.ndarray] = []

    def recurse(rows: np.ndarray, node_id: int) -> None:
        if len(rows) <= s:
            leaves.append(rows)
            return
        rng = np.random.default_rng([seed, node_id])
        left, right = _bisect(csr, rows, _choose_left_size(len(rows), s), rng)
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
