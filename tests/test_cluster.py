"""Label clustering tests: reps, balanced 2-means, cluster map invariants."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import cluster
from xmc.cluster import (
    INIT_SAMPLE,
    MAX_ITERS,
    ClusterMap,
    _choose_left_size,
    _dense_sums,
    _row_norms,
    _seed_gram,
    _select,
    _sum_tree,
    bound_feasible,
    build_cluster_map,
    build_label_reps,
    cluster_targets,
)
from xmc.corpus import Document, SparseVec, XmcDataset
from xmc.errors import ContractError, ParseError
from xmc.synth import make_synthetic_corpus

from helpers import corpus_datasets


def _vec(pairs):
    idx = np.array([i for i, _ in pairs], dtype=np.int64)
    val = np.array([v for _, v in pairs], dtype=np.float64)
    return SparseVec(idx, val)


def _reps(rows, dim):
    """(L, dim) CSR label reps from per-label (feature, value) pairs, each scaled to unit norm."""
    indptr, indices, data = [0], [], []
    for pairs in rows:
        val = np.array([v for _, v in pairs], dtype=np.float64)
        norm = np.sqrt((val**2).sum())
        indices += [i for i, _ in pairs]
        data += list(val / norm if norm else val)
        indptr.append(len(indices))
    data = np.array(data, dtype=np.float64)
    return sp.csr_array((data, np.array(indices, dtype=np.int64), indptr), shape=(len(rows), dim))


def _row(reps, label):
    lo, hi = reps.indptr[label], reps.indptr[label + 1]
    return reps.indices[lo:hi], reps.data[lo:hi]


def _dataset(doc_specs, num_labels, dim):
    docs = [Document(i, [1], labels, _vec(pairs)) for i, (labels, pairs) in enumerate(doc_specs)]
    return XmcDataset(docs, num_labels=num_labels, feature_dim=dim)


def _random_reps(num_labels, dim, rng, zero_frac=0.0):
    rows = []
    for _ in range(num_labels):
        if rng.random() < zero_frac:
            rows.append([])
            continue
        k = int(rng.integers(1, min(dim, 6)))
        idx = np.sort(rng.choice(dim, size=k, replace=False))
        val = rng.normal(size=k)
        rows.append(list(zip(idx.tolist(), val.tolist())))
    return _reps(rows, dim)


# ---------------------------------------------------------------------------
# label reps


def test_single_doc_label_rep_is_unit_features():
    ds = _dataset([((0,), [(1, 3.0), (4, 4.0)])], num_labels=2, dim=6)
    reps = build_label_reps(ds)
    assert reps.shape == (2, 6)
    idx, val = _row(reps, 0)
    assert list(idx) == [1, 4]
    assert np.allclose(val, [0.6, 0.8])
    assert np.sqrt((val**2).sum()) == pytest.approx(1.0)


def test_two_orthogonal_docs_rep():
    ds = _dataset(
        [((0,), [(0, 1.0)]), ((0,), [(3, 1.0)])],
        num_labels=1,
        dim=4,
    )
    idx, val = _row(build_label_reps(ds), 0)
    assert np.allclose(val, [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert list(idx) == [0, 3]


def test_unused_label_rep_is_zero():
    ds = _dataset([((0,), [(0, 1.0)])], num_labels=3, dim=4)
    reps = build_label_reps(ds)
    assert len(_row(reps, 1)[0]) == 0
    assert len(_row(reps, 2)[0]) == 0


def test_exact_zero_feature_sums_stay_stored():
    # label 2's features cancel to exactly 0 and label 0's only feature is 0.0:
    # both rows stay non-empty, so they are clustered as non-zero reps
    ds = _dataset(
        [
            ((0,), [(1, 0.0)]),
            ((1,), [(2, 1.0)]),
            ((2,), [(1, 0.5), (3, -0.5)]),
            ((2,), [(1, -0.5), (3, 0.5)]),
            ((3,), [(0, 1.0)]),
            ((4,), [(0, 1.0), (2, 1.0)]),
        ],
        num_labels=6,
        dim=4,
    )
    reps = build_label_reps(ds)
    assert list(_row(reps, 2)[0]) == [1, 3]
    assert not _row(reps, 2)[1].any()
    cmap = build_cluster_map(reps, s=2, seed=1)
    assert [m.tolist() for m in cmap.members] == [[0, 2], [3, 4], [1, 5]]


def _reference_label_reps(dataset):
    """The per-label dict accumulation that preceded the CSR product."""
    sums = [dict() for _ in range(dataset.num_labels)]
    for doc in dataset.documents:
        for label in doc.labels:
            for i, v in zip(doc.sparse.indices, doc.sparse.values):
                sums[label][int(i)] = sums[label].get(int(i), 0.0) + float(v)
    rows = []
    for acc in sums:
        idx = np.array(sorted(acc), dtype=np.int64)
        val = np.array([acc[int(i)] for i in idx], dtype=np.float64)
        norm = np.sqrt((val**2).sum())
        rows.append((idx, val / norm if norm > 0 else val))
    return rows


def test_label_reps_bit_identical_to_dict_reference():
    sc = make_synthetic_corpus(num_labels=64, num_topics=8, n_train=500, seed=3)
    train, _, _ = corpus_datasets(sc)
    for dataset in (train, _dataset([((0, 1), [(0, 1.0), (2, -1.0)]), ((1,), [(2, 1.0)])], 3, 4)):
        reps = build_label_reps(dataset)
        assert reps.shape == (dataset.num_labels, dataset.feature_dim)
        for label, (idx, val) in enumerate(_reference_label_reps(dataset)):
            got_idx, got_val = _row(reps, label)
            assert np.array_equal(got_idx, idx)
            assert got_val.tobytes() == val.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_row_norms_equal_per_row_sums_bitwise(seed):
    rng = np.random.default_rng(seed)
    # many rows share a count; lengths cross numpy's 8-lane and 128-value sum blocks
    counts = rng.choice([0, 1, 7, 8, 9, 127, 128, 129, 300, 1031], size=400)
    counts[: int(rng.integers(1, 20))] = int(rng.integers(0, 2000))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    data = rng.normal(size=indptr[-1]) * 10.0 ** rng.integers(-5, 5, size=indptr[-1])
    indices = np.concatenate([np.sort(rng.choice(2000, size=n, replace=False)) for n in counts])
    reps = sp.csr_array((data, indices, indptr), shape=(len(counts), 2000))
    expected = np.array([np.sqrt((data[a:b] ** 2).sum()) for a, b in zip(indptr[:-1], indptr[1:])])
    assert _row_norms(reps).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# balanced 2-means: build_cluster_map with s = ceil(L/2) bisects the root
# once; members[0] is its left side and members[1] its right side


def _one_bisection(reps, seed):
    num_labels = reps.shape[0]
    cmap = build_cluster_map(reps, s=-(-num_labels // 2), seed=seed)
    assert cmap.num_clusters == 2
    return cmap.members[0].tolist(), cmap.members[1].tolist()


def _brute_force_best_pairing(reps):
    """Oracle: the balanced 2-partition of 4 labels maximizing within-pair cosine."""
    vecs = reps.toarray()
    best, best_score = None, -np.inf
    for left in itertools.combinations(range(4), 2):
        right = tuple(i for i in range(4) if i not in left)
        score = sum(
            float(vecs[a] @ vecs[b]) for side in (left, right) for a, b in itertools.combinations(side, 2)
        )
        if score > best_score:
            best, best_score = (set(left), set(right)), score
    return best


def test_2means_matches_brute_force_on_two_blocks():
    reps = _reps([[(0, 1.0)], [(0, 0.95), (1, 0.05)], [(1, 1.0)], [(0, 0.05), (1, 0.95)]], 2)
    left, right = _one_bisection(reps, seed=0)
    oracle_left, oracle_right = _brute_force_best_pairing(reps)
    assert {frozenset(left), frozenset(right)} == {
        frozenset(oracle_left),
        frozenset(oracle_right),
    }
    assert {frozenset(left), frozenset(right)} == {frozenset({0, 1}), frozenset({2, 3})}


def test_2means_two_labels_one_each_side():
    # s = ceil(2/2) = 1 is the identity map: two labels are never bisected
    reps = _reps([[(0, 1.0)], [(1, 1.0)]], 2)
    cmap = build_cluster_map(reps, s=1, seed=3)
    assert [m.tolist() for m in cmap.members] == [[0], [1]]


def test_2means_identical_reps_split_by_id():
    left, right = _one_bisection(_reps([[(0, 1.0)]] * 6, 2), seed=5)
    assert left == [0, 1, 2]
    assert right == [3, 4, 5]


def test_2means_odd_count_extra_left():
    left, right = _one_bisection(_reps([[(0, 1.0)]] * 5, 2), seed=5)
    assert len(left) == 3 and len(right) == 2


# ---------------------------------------------------------------------------
# cluster map


def test_cluster_map_100_labels_s8():
    rng = np.random.default_rng(0)
    reps = _random_reps(100, 16, rng)
    cmap = build_cluster_map(reps, s=8, seed=1)
    sizes = sorted(len(m) for m in cmap.members)
    assert all(5 <= size <= 8 for size in sizes)
    assert 13 <= cmap.num_clusters <= 20
    _assert_members_invert_assign(cmap)


def test_cluster_map_single_cluster_when_small():
    rng = np.random.default_rng(1)
    reps = _random_reps(3, 8, rng)
    cmap = build_cluster_map(reps, s=60, seed=0)
    assert cmap.num_clusters == 1
    assert list(cmap.members[0]) == [0, 1, 2]


def test_cluster_map_s1_identity():
    rng = np.random.default_rng(2)
    reps = _random_reps(7, 8, rng)
    cmap = build_cluster_map(reps, s=1, seed=0)
    assert cmap.num_clusters == 7
    assert np.array_equal(cmap.assign, np.arange(7))


def test_cluster_map_determinism():
    rng = np.random.default_rng(3)
    reps = _random_reps(64, 16, rng)
    a = build_cluster_map(reps, s=8, seed=11)
    b = build_cluster_map(reps, s=8, seed=11)
    assert np.array_equal(a.assign, b.assign)
    c = build_cluster_map(reps, s=8, seed=12)
    # different seed may or may not differ, but must still be a partition
    _assert_members_invert_assign(c)


@settings(max_examples=30, deadline=None)
@given(num_labels=st.integers(10, 300), s=st.integers(2, 32), seed=st.integers(0, 1000))
def test_cluster_map_invariants_randomized(num_labels, s, seed):
    rng = np.random.default_rng(seed)
    reps = _random_reps(num_labels, 12, rng, zero_frac=0.05)
    cmap = build_cluster_map(reps, s=s, seed=seed)
    _assert_members_invert_assign(cmap)
    sizes = [len(m) for m in cmap.members]
    if cmap.num_clusters > 1:
        lower = s // 2 + 1 if bound_feasible(num_labels, s) else (s + 1) // 2
        assert all(lower <= size <= s for size in sizes)
    assert sum(sizes) == num_labels


def test_block_structure_recovered():
    # 4 blocks of 8 labels; same-block reps share a feature axis
    rng = np.random.default_rng(7)
    rows = [[(label // 8, 1.0), (4 + label, 0.2 * rng.random())] for label in range(32)]
    cmap = build_cluster_map(_reps(rows, 40), s=8, seed=2)
    same = total = 0
    for a in range(32):
        for b in range(a + 1, 32):
            if a // 8 == b // 8:
                total += 1
                same += int(cmap.assign[a] == cmap.assign[b])
    assert same / total >= 0.95


def _assert_members_invert_assign(cmap):
    for c, labels in enumerate(cmap.members):
        assert np.array_equal(labels, np.flatnonzero(cmap.assign == c))


@pytest.mark.parametrize("cid, assign", [(0, [1, 2, 2]), (1, [0, 2, 2]), (2, [0, 1, 1, 4])], ids=["0", "1", "2"])
def test_construction_names_the_first_empty_cluster(cid, assign):
    with pytest.raises(ContractError, match=f"^cluster {cid} is empty$"):
        ClusterMap(assign, s=2, seed=0)


def test_construction_refuses_a_negative_cluster_id():
    with pytest.raises(ContractError, match="^cluster id -1 is negative$"):
        ClusterMap([0, -1, 1], s=2, seed=0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 40), extra=st.integers(0, 160), seed=st.integers(0, 2**32 - 1))
def test_members_derived_from_assign(tmp_path_factory, k, extra, seed):
    # a shuffled assignment that uses every id in [0, k)
    rng = np.random.default_rng(seed)
    assign = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=extra)]))
    cmap = ClusterMap(assign, s=8, seed=seed % 100)
    assert cmap.num_clusters == k and cmap.num_labels == k + extra
    _assert_members_invert_assign(cmap)
    folder = tmp_path_factory.mktemp("map")
    first, second = folder / "first.txt", folder / "second.txt"
    cmap.save(first)
    loaded = ClusterMap.load(first)
    loaded.save(second)
    assert np.array_equal(loaded.assign, assign)
    assert first.read_bytes() == second.read_bytes()


# each loader message: the file's text and what follows "<path>:" in the message
_BAD_MAPS = {
    "header-three-ints": ("3 8 2\n0 1 2\n", "1: header must be 'K L s seed'"),
    "header-not-int": ("a 8 2 7\n0 1 2\n", "1: header must be 'K L s seed'"),
    "empty-file": ("", "1: header must be 'K L s seed'"),
    "no-labels": ("1 0 2 7\n0\n", "1: label count must be >= 1, got 0"),
    "size-zero": ("2 4 0 7\n0 1\n2 3\n", "1: cluster size must be >= 1, got 0"),
    "size-negative": ("3 8 -5 7\n0 3 5\n1 2 7\n4 6\n", "1: cluster size must be >= 1, got -5"),
    "seed-negative": ("2 4 2 -9\n0 1\n2 3\n", "1: seed must be >= 0, got -9"),
    "k-vs-lines": ("3 4 2 7\n0 1\n2 3\n", "1: header says 3 clusters, file has 2"),
    "id-not-int": ("2 4 2 7\n0 x\n2 3\n", "2: label ids must be integers"),
    "unsorted": ("2 4 2 7\n0 1\n3 2\n", "3: expected strictly increasing label ids in [0, 4)"),
    "repeated": ("2 4 2 7\n0 1 1\n2 3\n", "2: expected strictly increasing label ids in [0, 4)"),
    "above-range": ("2 4 2 7\n0 1\n2 4\n", "3: expected strictly increasing label ids in [0, 4)"),
    "negative": ("2 4 2 7\n-1 0 1\n2 3\n", "2: expected strictly increasing label ids in [0, 4)"),
    "empty-cluster": ("2 4 2 7\n\n0 1 2 3\n", "2: expected strictly increasing label ids in [0, 4)"),
    "two-clusters": ("3 4 2 7\n0 1\n2 3\n1 2\n", "4: label 1 is already in cluster 0"),
    "too-few-labels": ("2 5 2 7\n0 1\n2 3\n", "1: header says 5 labels, its clusters hold 4"),
}


@pytest.mark.parametrize("text, message", _BAD_MAPS.values(), ids=_BAD_MAPS)
def test_load_names_the_file_line_and_fault(tmp_path, text, message):
    path = tmp_path / "map.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as caught:
        ClusterMap.load(path)
    assert str(caught.value) == f"{path}:{message}"


def test_cluster_map_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    reps = _random_reps(30, 10, rng)
    cmap = build_cluster_map(reps, s=4, seed=3)
    path = tmp_path / "map.txt"
    cmap.save(path)
    loaded = ClusterMap.load(path)
    assert loaded.num_clusters == cmap.num_clusters
    assert np.array_equal(loaded.assign, cmap.assign)
    assert (loaded.s, loaded.seed) == (4, 3)
    header = path.read_text().splitlines()[0].split()
    assert header == [str(cmap.num_clusters), "30", "4", "3"]


@pytest.mark.parametrize(
    "num_labels, n_train",
    [(64, 2000), (8192, 8000), pytest.param(32768, 16000, marks=pytest.mark.slow)],
)
def test_synth_cluster_maps_match_golden(num_labels, n_train, golden_cluster_maps, cluster_map_digest):
    sc = make_synthetic_corpus(
        num_labels=num_labels, num_topics=max(8, num_labels // 64), n_train=n_train, seed=7
    )
    train, _, _ = corpus_datasets(sc)
    cmap = build_cluster_map(build_label_reps(train), s=8, seed=7)
    assert cluster_map_digest(cmap) == golden_cluster_maps["synth_s8_seed7"][str(num_labels)]


def _zipf_dataset(num_labels, n_docs, seed, exponent=0.8, block=64, fillers=50):
    """Power-law labels in topic blocks of ``block``: topic and in-topic label
    popularity fall as rank**-exponent, so a few labels carry many documents,
    the tail few or none.  A document holds 1-3 labels of one topic; its
    features are unit-norm counts of its topic word, one word per label (each
    twice) and three fillers."""
    rng = np.random.default_rng(seed)
    num_topics = num_labels // block
    topic_p = rng.permutation(np.arange(1, num_topics + 1) ** -exponent)
    label_p = np.arange(1, block + 1) ** -exponent
    docs = []
    for i in range(n_docs):
        topic = int(rng.choice(num_topics, p=topic_p / topic_p.sum()))
        picks = rng.choice(block, size=int(rng.integers(1, 4)), replace=False, p=label_p / label_p.sum())
        labels = tuple(sorted(int(topic * block + j) for j in picks))
        words = [topic] * 2 + [num_topics + l for l in labels for _ in (0, 1)]
        words += (num_topics + num_labels + rng.integers(fillers, size=3)).tolist()
        idx, counts = np.unique(words, return_counts=True)
        docs.append(Document(i, [1], labels, SparseVec(idx, counts / np.sqrt((counts**2.0).sum()))))
    return XmcDataset(docs, num_labels=num_labels, feature_dim=num_topics + num_labels + fillers)


def test_zipf_cluster_map_matches_golden(golden_cluster_maps, cluster_map_digest):
    # about half the labels are unused: many nodes hold fewer than two non-empty reps
    reps = build_label_reps(_zipf_dataset(num_labels=4096, n_docs=3000, seed=11))
    cmap = build_cluster_map(reps, s=8, seed=11)
    assert cluster_map_digest(cmap) == golden_cluster_maps["zipf_s8_seed11"]["4096"]


def test_deep_zipf_cluster_map_matches_golden(golden_cluster_maps, cluster_map_digest):
    # eleven levels of splits, the deeper ones run in several batches of nodes
    reps = build_label_reps(_zipf_dataset(num_labels=16384, n_docs=12000, seed=11))
    cmap = build_cluster_map(reps, s=8, seed=11)
    assert cluster_map_digest(cmap) == golden_cluster_maps["zipf_s8_seed11"]["16384"]


# ---------------------------------------------------------------------------
# the level-by-level build against a node-by-node build on scipy products over the whole (L, D) matrix


def _reference_cluster_assign(reps, s, seed, max_iters=MAX_ITERS):
    """The build as it ran before each node worked on its own columns: scipy
    row slices and products over all D columns, dense centroids of width D,
    node by node, depth first."""
    leaves = []

    def recurse(rows, node_id):
        if len(rows) <= s:
            leaves.append(rows)
            return
        left_size = _choose_left_size(len(rows), s)
        counts = reps.indptr[rows + 1] - reps.indptr[rows]
        is_zero = counts == 0
        nonzero = np.flatnonzero(~is_zero)
        order = np.lexsort((rows, is_zero))
        if len(nonzero) >= 2:
            sub = reps[rows]
            n, dim = sub.shape
            row_of = np.repeat(np.arange(n), counts)
            k = min(INIT_SAMPLE, len(nonzero))
            sample = np.sort(np.random.default_rng([seed, node_id]).choice(nonzero, size=k, replace=False))
            seeds = sub[sample]
            gram = (seeds @ seeds.T).toarray()
            gram[np.tri(k, dtype=bool)] = np.inf
            a, b = divmod(int(np.argmin(gram)), k)
            c_left, c_right = sub[[sample[a]]].toarray()[0], sub[[sample[b]]].toarray()[0]
            prev = None
            for _ in range(max_iters):
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
        recurse(np.sort(rows[order[:left_size]]), 2 * node_id)
        recurse(np.sort(rows[order[left_size:]]), 2 * node_id + 1)

    recurse(np.arange(reps.shape[0]), 1)
    assign = np.empty(reps.shape[0], dtype=np.int64)
    for cid, labels in enumerate(leaves):
        assign[labels] = cid
    return assign


@st.composite
def _sparse_reps(draw, max_rows=120, max_dim=400):
    """Unit-norm CSR reps with sorted columns: some empty rows, some rows that
    share a block of columns (so seed pairs overlap), values of mixed sign."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_labels = draw(st.integers(2, max_rows))
    dim = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(seed)
    rows = []
    shared = rng.choice(dim, size=min(dim, 4), replace=False)
    for _ in range(num_labels):
        if rng.random() < draw(st.sampled_from([0.0, 0.3])):
            rows.append([])
            continue
        idx = rng.choice(dim, size=int(rng.integers(1, min(dim, 12) + 1)), replace=False)
        if rng.random() < 0.5:
            idx = np.union1d(idx, shared)
        idx = np.sort(idx)
        rows.append(list(zip(idx.tolist(), (rng.normal(size=len(idx)) * 10.0 ** rng.integers(-3, 3)).tolist())))
    return _reps(rows, dim)


@settings(max_examples=60, deadline=None)
@given(reps=_sparse_reps(), s=st.integers(2, 16), seed=st.integers(0, 1000))
def test_build_matches_full_width_reference(reps, s, seed):
    assert np.array_equal(build_cluster_map(reps, s, seed).assign, _reference_cluster_assign(reps, s, seed))


@pytest.mark.parametrize("max_iters", [1, 2, 3])
def test_build_matches_full_width_reference_when_nodes_stop_unconverged(monkeypatch, max_iters):
    # a node that has not converged after MAX_ITERS keeps its last split, while the
    # nodes of its depth that converged earlier keep theirs
    monkeypatch.setattr(cluster, "MAX_ITERS", max_iters)

    @settings(max_examples=40, deadline=None)
    @given(reps=_sparse_reps(), s=st.integers(2, 16), seed=st.integers(0, 1000))
    def check(reps, s, seed):
        want = _reference_cluster_assign(reps, s, seed, max_iters)
        assert np.array_equal(build_cluster_map(reps, s, seed).assign, want)

    check()


@settings(max_examples=60, deadline=None)
@given(reps=_sparse_reps(), seed=st.integers(0, 2**32 - 1))
def test_compact_margins_equal_scipy_matvec_bitwise(reps, seed):
    # the node's margins: its entries summed per row in stored order from 0.0
    rng = np.random.default_rng(seed)
    x = rng.normal(size=reps.shape[1]) * 10.0 ** rng.integers(-3, 4, size=reps.shape[1])
    cols, local = np.unique(reps.indices, return_inverse=True)
    row_of = np.repeat(np.arange(reps.shape[0]), np.diff(reps.indptr))
    compact = np.bincount(row_of, reps.data * x[cols][local], minlength=reps.shape[0])
    assert np.array_equal(compact.view(np.int64), (reps @ x).view(np.int64))


_DIMS = st.one_of(st.integers(1, 7), st.integers(8, 128), st.sampled_from([128, 129, 136]), st.integers(1, 70000))


@settings(max_examples=200, deadline=None)
@given(dim=_DIMS, supports=st.lists(st.integers(0, 400), min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_scattered_norm_equals_dense_norm(dim, supports, seed):
    # each centroid's squares summed over its own columns, several centroids at once,
    # equal the sum numpy's .sum() makes of the dense (D,) centroid, bit for bit
    rng = np.random.default_rng(seed)
    dense = np.zeros((len(supports), dim))
    group, cols = [], []
    for g, nnz in enumerate(supports):
        support = np.sort(rng.choice(dim, size=min(dim, nnz), replace=False))
        dense[g, support] = rng.normal(size=len(support)) * 10.0 ** rng.integers(-4, 4, size=len(support))
        group += [g] * len(support)
        cols += support.tolist()
    group, cols = np.array(group, dtype=np.int64), np.array(cols, dtype=np.int64)
    values = np.stack([dense[group, cols], dense[group, cols][::-1]]) ** 2
    got = _dense_sums(group, _sum_tree(cols, dim), len(supports))(values)
    other = np.zeros_like(dense)
    other[group, cols] = values[1]
    want = np.stack([[(row**2).sum() for row in dense], [row.sum() for row in other]])
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1),
       values=st.sampled_from([(-0.0, 0.0, 1.0, -1.0), (0.5,), (-0.0, 0.0), (1e-300, -1e-300, 2.0)]))
def test_select_equals_stable_sort_first_take(sizes, seed, values):
    # ties, -0.0 against +0.0, and flags of zero reps as keys: each node's first ``take``
    # rows under a stable sort, ties by position
    rng = np.random.default_rng(seed)
    node = np.repeat(np.arange(len(sizes)), sizes)
    take = np.array([int(rng.integers(1, n + 1)) for n in sizes])
    for key in (rng.choice(values, size=len(node)) * rng.choice([1.0, -1.0], size=len(node)),
                rng.random(len(node)) < 0.4):
        want = np.zeros(len(node), dtype=bool)
        for g, start in enumerate(np.cumsum(sizes) - sizes):
            want[start + np.argsort(key[node == g], kind="stable")[:take[g]]] = True
        assert np.array_equal(_select(node, key, take), want)


@settings(max_examples=60, deadline=None)
@given(reps=_sparse_reps(max_rows=INIT_SAMPLE, max_dim=60), cut=st.integers(0, INIT_SAMPLE))
def test_seed_gram_equals_scipy_product(reps, cut):
    # two groups of seeds on disjoint columns: each one's (k, k) block of the product, +inf on its diagonal
    rows = np.flatnonzero(np.diff(reps.indptr))
    if len(rows) < 2:
        return
    cut = min(cut, len(rows))
    seeds = [reps[rows[:cut]], reps[rows[cut:]]]
    sizes = np.array([len(rows[:cut]), len(rows[cut:])])
    both = sp.block_diag([s for s in seeds if s.shape[0]], format="csr")
    got = _seed_gram(sp.csr_array(both), sizes[sizes > 0])
    at = 0
    for block, k in zip(seeds, sizes):
        if k:
            want = (block @ block.T).toarray()
            want[np.eye(k, dtype=bool)] = np.inf
            assert np.array_equal(got[at:at + k * k].view(np.int64), want.ravel().view(np.int64))
            at += k * k
    assert at == len(got)


# ---------------------------------------------------------------------------
# cluster targets


def _toy_map():
    return ClusterMap(np.array([0, 0, 1, 1, 2, 2, 3, 3]), s=2, seed=0)


def test_cluster_targets_one_hot():
    cmap = _toy_map()
    y = cluster_targets({2, 3}, cmap)
    assert y.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_cluster_targets_empty():
    assert cluster_targets(set(), _toy_map()).tolist() == [0.0] * 4


def test_cluster_targets_three_clusters():
    y = cluster_targets({0, 2, 6}, _toy_map())
    assert y.sum() == 3.0


def test_cluster_targets_unknown_label():
    with pytest.raises(ContractError):
        cluster_targets({9}, _toy_map())
