"""Balanced label clustering over sparse label representations.

Labels are represented by the L2-normalized sum of the sparse features of
the training documents that carry them, then recursively bisected with a
balanced 2-means (cosine similarity) until every leaf holds at most ``s``
labels.  Leaves become clusters, numbered in depth-first order, left first.
The tree grows a depth at a time, as PECOS builds its hierarchical k-means:
a batched 2-means splits all nodes of a depth, each on its own entries and
columns, in batches of whole nodes that bound its memory.  Every product adds
in the order scipy's products over all D columns do, each centroid's norm
adds its own columns in the order numpy's pairwise ``.sum()`` adds a dense
(D,) vector, and an exact top-k selection breaks ties by label id as a stable
sort does, so the maps are those of the node-by-node full-width build.

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


def _sum_tree(cols: np.ndarray, dim):
    """Where numpy's ``.sum()`` of a dense float64 vector of ``dim`` values adds each of ``cols``:
    its block's left-aligned path (a bit per split, 1 for right), its lane (8: the block's tail)
    and the number of splits.  A span over 128 long splits at half its length rounded down to a
    multiple of 8; a block of 8 to 128 adds element i into lane i % 8, joins the lanes as
    ((0+1)+(2+3))+((4+5)+(6+7)) and adds its last n % 8 elements in turn; a shorter block adds
    its elements in turn."""
    lo, n, path, depth = np.zeros_like(cols), np.full_like(cols, dim), np.zeros_like(cols), 0
    while (n > 128).any():
        half = np.where(n > 128, n // 16 * 8, n)  # a block's "left half" is all of it
        right = cols >= lo + half
        lo, n, path, depth = lo + half * right, np.where(right, n - half, half), 2 * path + right, depth + 1
    return path, np.where(cols - lo < n - n % 8, (cols - lo) % 8, 8).astype(np.int8), depth


def _dense_sums(group: np.ndarray, tree, num_groups: int):
    """The map from ``values`` (rows of entries sorted by group, then column; all >= 0) to, per
    row and group, the ``.sum()`` of the dense vector holding them where ``tree`` (:func:`_sum_tree`
    of the columns) puts them and 0.0 elsewhere, bit for bit: adding 0.0 to such sums is exact."""
    path, lane, depth = tree
    key = group.astype(np.int64) << depth | path  # each entry's block
    first = np.diff(key, prepend=-1) != 0
    block, key, main = np.cumsum(first, dtype=np.int32) - 1, key[first], lane < 8
    blocks, bins, joins = len(key), block[main] * 8 + lane[main], []
    rest = np.append(np.arange(blocks, dtype=np.int32), block[~main])  # a block's lanes, then its tail in turn
    for _ in range(depth):  # sibling spans, deepest first
        key >>= 1
        joins.append(np.flatnonzero(np.diff(key, prepend=-1)).astype(np.int32))
        key = key[joins[-1]]

    def sums(values) -> np.ndarray:
        out = []
        for v in values:
            r = np.bincount(bins, v[main], minlength=8 * blocks).reshape(-1, 8)
            lanes = ((r[:, 0] + r[:, 1]) + (r[:, 2] + r[:, 3])) + ((r[:, 4] + r[:, 5]) + (r[:, 6] + r[:, 7]))
            out.append(np.bincount(rest, np.append(lanes, v[~main])))
        out = np.stack(out)
        for starts in joins:
            out = np.add.reduceat(out, starts, axis=1)
        full = np.zeros((len(out), num_groups))
        full[:, key] = out
        return full
    return sums


def _select(node: np.ndarray, key: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Per node, whether each row is among the ``take[node]`` (>= 1) rows a stable sort of the
    node's rows on ``key`` (finite) puts first; ``node`` ascends through all of [0, len(take))."""
    counts, groups = np.bincount(node, minlength=len(take)), np.arange(len(take))
    start = np.cumsum(counts) - counts
    grid = np.full((len(take), counts.max() + 1), np.inf)  # each node's keys, sorted, then inf
    grid[node, np.arange(len(node)) - start[node]] = key
    grid.sort(axis=1)
    cut = grid[groups, take - 1][node]  # each node's take-th key; of the rows equal to it, the first count
    ties = np.cumsum(key == cut)
    rank = ties - (ties - (key == cut))[start][node]  # 1 for a node's first row at its cut
    return (key < cut) | ((key == cut) & (rank <= (take - np.bincount(node[key < cut], minlength=len(take)))[node]))


def _seed_gram(seeds: sp.sparray, sizes: np.ndarray) -> np.ndarray:
    """Gram matrices of groups of ``sizes`` rows of ``seeds`` (no column shared between groups),
    by scipy's product, each (k, k) flattened in turn, +inf on the diagonal: a pair shows first
    above it, so a group's first minimum is its first minimal pair in row-major order."""
    base, k = np.repeat(np.cumsum(sizes**2) - sizes**2, sizes), np.repeat(sizes, sizes)
    local = np.arange(len(k)) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # row within its group
    pairs, gram = (seeds @ seeds.T).tocoo(), np.zeros((sizes**2).sum())
    gram[(base + local * k)[pairs.row] + local[pairs.col]] = pairs.data
    gram[base + local * (k + 1)] = np.inf
    return gram


def _two_means(rows: np.ndarray, node: np.ndarray, take: np.ndarray, ids: np.ndarray, seed: int, entries):
    """Which ``rows`` (non-empty reps, ascending in each node; ``node`` ascends from 0) go left in
    a balanced 2-means of each node, ``take[node]`` of its rows.  Nodes run in batches of about
    2**16 entries and seed pairs, which bounds the memory of the levels rich in small nodes.
    ``entries``: the reps, their entries' ids and rows by column, then row, and the distinct
    columns with their :func:`_sum_tree`."""
    reps, by_col, label_of, _ = entries
    node_of = np.full(reps.shape[0], len(take), dtype=np.min_scalar_type(len(take)))
    node_of[rows] = node
    order = np.argsort(node_of[label_of], kind="stable").astype(np.int32)  # by (node, column, row), then no node's
    at = np.empty(reps.shape[0], dtype=np.int32)  # a label's place in ``rows``
    at[rows] = np.arange(len(rows))
    held, sizes = np.bincount(node, np.diff(reps.indptr)[rows]).astype(np.int64), np.bincount(node)
    weight, in_left = held + np.minimum(sizes, INIT_SAMPLE) ** 2, np.empty(len(rows), dtype=bool)
    cuts = np.flatnonzero(np.diff((np.cumsum(weight) - weight) >> 16, prepend=-1, append=-1)).tolist()
    row_at, entry_at = np.append(0, np.cumsum(sizes)).tolist(), np.append(0, np.cumsum(held)).tolist()
    for a, b in zip(cuts[:-1], cuts[1:]):
        lo, hi, part = row_at[a], row_at[b], order[entry_at[a]:entry_at[b]]
        row_of, batch = at[label_of[part]] - lo, node[lo:hi] - a
        in_left[lo:hi] = _bisect(row_of, part, held[a:b], batch, take[a:b], ids[a:b], seed, entries)
    return in_left


def _bisect(row_of, part, held, node, take, ids, seed, entries):
    """Which rows of one batch of nodes go left, ``take[node]`` of each node's: ``row_of`` and
    ``part`` (positions in ``entries``' by-column order) give the batch's entries by (node,
    column, row), ``held`` their count in each node.  ``xt`` (slots x rows) holds them, a slot per
    node and column in that order, so every product over it adds what the node alone would."""
    reps, by_col, _, (columns, path, lane, depth) = entries
    col = reps.indices[by_col[part]]
    new = np.diff(col, prepend=-1) != 0
    new[np.cumsum(held) - held] = True  # each node's first entry
    first = np.flatnonzero(new)
    slot_node, at = node[row_of[first]], np.searchsorted(columns, col[first])
    path, lane = path[at], lane[at]
    del col, new, at
    xt = sp.csr_array((reps.data[by_col[part]], row_of, np.append(first, len(part)).astype(np.int32)),
                      shape=(len(first), len(node)))
    del first
    # seeds: per node, the sampled pair with minimal mutual cosine, first in row-major order
    sizes = np.bincount(node)
    k, start = np.minimum(INIT_SAMPLE, sizes), np.cumsum(sizes) - sizes
    picked = (sizes <= INIT_SAMPLE)[node]  # a sample of every row, in any order, is every row
    for j in np.flatnonzero(sizes > INIT_SAMPLE):
        rng = np.random.default_rng([seed, int(ids[j])])
        picked[start[j] + rng.choice(sizes[j], INIT_SAMPLE, replace=False)] = True
    sample, base = np.flatnonzero(picked), np.cumsum(k**2) - k**2
    gram = _seed_gram(xt.T[sample], k)
    least = np.flatnonzero(gram == np.repeat(np.minimum.reduceat(gram, base), k**2))
    seeds = np.zeros((2, len(node)))
    seeds[[[0], [1]], sample[np.cumsum(k) - k + np.divmod(least[np.searchsorted(least, base)] - base, k)]] = 1.0
    diff = xt @ seeds[1] - xt @ seeds[0]  # a row's margin, negated, as ascending keys: one entry a slot
    del seeds
    norm_sums = _dense_sums(slot_node, (path, lane, depth), len(take))
    in_left, live, prev = np.zeros(len(node), dtype=bool), np.arange(len(node)), np.full(len(node), -1)
    for _ in range(MAX_ITERS):
        side = _select(node, (xt.T @ diff)[live], take)
        in_left[live] = side
        stop = np.bincount(node, side != prev, minlength=len(take)) == 0  # repeats its split from here on
        if stop.all():
            break
        if stop.any():  # drop the stopped nodes
            go, slot_go, renumber = ~stop[node], ~stop[slot_node], np.cumsum(~stop) - 1
            xt, path, lane, slot_node = xt[slot_go], path[slot_go], lane[slot_go], renumber[slot_node[slot_go]]
            live, side, node, take = live[go], side[go], renumber[node[go]], take[~stop]
            norm_sums = _dense_sums(slot_node, (path, lane, depth), len(take))
        prev, left = side, in_left.astype(np.float64)
        centroids, diff = (xt @ left, xt @ (1.0 - left)), None  # the old diff goes before the norms' buffers come
        norms = np.sqrt(norm_sums(c**2 for c in centroids))  # as numpy sums the dense (D,) centroids
        norms[norms == 0] = 1.0
        diff = np.divide(centroids[1], norms[1][slot_node], out=centroids[1])
        diff -= np.divide(centroids[0], norms[0][slot_node], out=centroids[0])
    return in_left


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

    by_col = np.argsort(reps.indices, kind="stable").astype(np.int32)  # the entries by column, then row
    label_of = np.repeat(np.arange(num_labels, dtype=np.int32), np.diff(reps.indptr))[by_col]
    columns = np.unique(reps.indices)
    entries = reps, by_col, label_of, (columns, *_sum_tree(columns, reps.shape[1]))
    leaf, depth_of = np.empty(num_labels, dtype=np.int64), np.empty(num_labels, dtype=np.int8)
    rows, ids, sizes, depth = np.arange(num_labels), np.ones(1, dtype=np.int64), np.array([num_labels]), 0
    while True:  # a depth at a time: the nodes in id order, each node's rows ascending
        done = np.repeat(sizes <= s, sizes)
        leaf[rows[done]], depth_of[rows[done]] = np.repeat(ids, sizes)[done], depth
        if done.all():  # leaves numbered depth first, left first: in the order of their left-aligned paths
            return ClusterMap(np.unique(leaf << (depth - depth_of), return_inverse=True)[1], s, seed)
        rows, ids, sizes = rows[~done], ids[sizes > s], sizes[sizes > s]
        choices, which = np.unique(sizes, return_inverse=True)
        left_sizes = np.array([_choose_left_size(int(p), s) for p in choices])[which]
        node, nonzero = np.repeat(np.arange(len(sizes)), sizes), reps.indptr[rows + 1] > reps.indptr[rows]
        in_left = _select(node, ~nonzero, left_sizes)  # without a seed pair: non-zero reps first, by label id
        counts = np.bincount(node[nonzero], minlength=len(sizes))
        if (live := nonzero & (counts >= 2)[node]).any():
            active, at = np.unique(node[live], return_inverse=True)
            take = np.minimum(left_sizes, counts)[active]
            in_left[live] = _two_means(rows[live], at.astype(np.int32), take, ids[active], seed, entries)
        rows = rows[np.argsort(2 * node + ~in_left, kind="stable")]
        ids, sizes = np.stack([2 * ids, 2 * ids + 1], 1).ravel(), np.stack([left_sizes, sizes - left_sizes], 1).ravel()
        depth += 1


def cluster_targets(labels, cmap: ClusterMap) -> np.ndarray:
    """Multi-hot vector over clusters: bit c set iff some label lies in cluster c."""
    out = np.zeros(cmap.num_clusters, dtype=np.float64)
    for label in labels:
        if label < 0 or label >= cmap.num_labels:
            raise ContractError(f"label id {label} outside [0, {cmap.num_labels})")
        out[cmap.assign[label]] = 1.0
    return out
