"""Label clustering tests: reps, balanced 2-means, cluster map invariants."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc.cluster import (
    ClusterMap,
    bound_feasible,
    build_cluster_map,
    build_label_reps,
    cluster_targets,
)
from xmc.corpus import Document, SparseVec, XmcDataset
from xmc.errors import ContractError
from xmc.synth import corpus_datasets, make_synthetic_corpus


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
    cmap.validate()


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
    # different seed may or may not differ, but must still validate
    c.validate()


@settings(max_examples=30, deadline=None)
@given(num_labels=st.integers(10, 300), s=st.integers(2, 32), seed=st.integers(0, 1000))
def test_cluster_map_invariants_randomized(num_labels, s, seed):
    rng = np.random.default_rng(seed)
    reps = _random_reps(num_labels, 12, rng, zero_frac=0.05)
    cmap = build_cluster_map(reps, s=s, seed=seed)
    cmap.validate()
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


# ---------------------------------------------------------------------------
# cluster targets


def _toy_map():
    members = [np.array([0, 1]), np.array([2, 3]), np.array([4, 5]), np.array([6, 7])]
    assign = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    return ClusterMap(assign, members, s=2, seed=0)


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
