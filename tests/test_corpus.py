"""Corpus parsing, vocabulary, tokenization and batching tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import corpus
from xmc.corpus import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    TfidfVectorizer,
    batch_iter,
    build_vocab,
    load_dataset,
    load_sparse,
    save_sparse,
    tokenize,
)
from xmc.errors import ConfigError, ParseError


@pytest.fixture
def tiny_sparse(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("2 5 3\n0,2 1:0.5 4:1.0\n1 0:2.0 2:0.25\n")
    return p


def test_load_sparse_direct_parse(tiny_sparse):
    rows, n, dim, num_labels = load_sparse(tiny_sparse)
    assert (n, dim, num_labels) == (2, 5, 3)
    labels, vec = rows[0]
    assert labels == (0, 2)
    assert list(vec.indices) == [1, 4]
    assert list(vec.values) == [0.5, 1.0]


def test_load_sparse_header_row_mismatch(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3 5 2\n0 1:1.0\n1 2:1.0\n")
    with pytest.raises(ParseError, match="3 rows"):
        load_sparse(p)


def test_load_sparse_non_monotone_indices(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 5 2\n0 3:1.0 1:1.0\n")
    with pytest.raises(ParseError, match="non-monotone"):
        load_sparse(p)


def test_load_sparse_empty_train_labels_names_row(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 5 2\n0 1:1.0\n 2:1.0\n")
    with pytest.raises(ParseError, match=":3"):
        load_sparse(p, require_labels=True)


def test_load_sparse_test_split_allows_empty_labels(tmp_path):
    p = tmp_path / "test.txt"
    p.write_text("1 5 2\n2:1.0\n")
    rows, *_ = load_sparse(p, require_labels=False)
    assert rows[0][0] == ()


def test_sparse_roundtrip_semantic(tmp_path, tiny_sparse):
    rows, n, dim, num_labels = load_sparse(tiny_sparse)
    out = tmp_path / "copy.txt"
    save_sparse(out, rows, dim, num_labels)
    rows2, n2, dim2, L2 = load_sparse(out)
    assert (n, dim, num_labels) == (n2, dim2, L2)
    for (la, va), (lb, vb) in zip(rows, rows2):
        assert la == lb
        assert np.array_equal(va.indices, vb.indices)
        assert np.allclose(va.values, vb.values)


def test_load_sparse_rejects_bad_features_with_location(tmp_path):
    cases = {
        "0 3:1.0 1:1.0": "non-monotone",
        "0 1:1.0 7:1.0": "feature index 7 >= dim",
        "0 1:nan": "non-finite",
        "0 1:1.0 2:inf": "non-finite",
        "0 4:-inf": "non-finite",
    }
    p = tmp_path / "bad.txt"
    for row, message in cases.items():
        p.write_text(f"2 5 2\n1 0:1.0\n{row}\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}:3: {message}")):
            load_sparse(p)


# ---------------------------------------------------------------------------
# vocab / tokenize


def test_build_vocab_frequency_then_lex(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("a b\na c\n")
    vocab = build_vocab(p, min_freq=1)
    assert vocab.id_for("a") == 3  # highest frequency gets the first free id
    assert {vocab.id_for("b"), vocab.id_for("c")} == {4, 5}
    assert vocab.id_for("b") < vocab.id_for("c")  # lexicographic tie-break


def test_build_vocab_min_freq_threshold(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("a b\na c\n")
    vocab = build_vocab(p, min_freq=2)
    assert vocab.id_for("a") == 3
    assert vocab.id_for("b") == UNK_ID
    assert vocab.id_for("c") == UNK_ID


def test_build_vocab_deterministic(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("z y x\nx y\nw\n")
    assert build_vocab(p).token_to_id == build_vocab(p).token_to_id


def test_build_vocab_empty_corpus(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("")
    with pytest.raises(ConfigError):
        build_vocab(p)


def test_tokenize_empty_text(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("hello world\n")
    vocab = build_vocab(p)
    assert tokenize("", vocab, 128) == [CLS_ID]


def test_tokenize_truncates_to_max_len(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("tok\n")
    vocab = build_vocab(p)
    text = " ".join(["tok"] * 600)
    assert len(tokenize(text, vocab, 512)) == 512


def test_tokenize_known_tokens(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("aa bb cc\n")
    vocab = build_vocab(p)
    ids = tokenize("aa bb cc", vocab, 128)
    assert len(ids) == 4
    assert ids[0] == CLS_ID
    assert UNK_ID not in ids


def test_vocab_save_load_roundtrip(tmp_path):
    p = tmp_path / "raw.txt"
    p.write_text("red green blue red\n")
    vocab = build_vocab(p, min_freq=1)
    vp = tmp_path / "vocab.txt"
    vocab.save(vp)
    loaded = corpus.Vocab.load(vp)
    assert loaded.token_to_id == vocab.token_to_id
    assert loaded.min_freq == vocab.min_freq


# ---------------------------------------------------------------------------
# batching


def _make_dataset(n_docs, seed=0):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        length = int(rng.integers(1, 7))
        tokens = [CLS_ID] + list(rng.integers(3, 20, size=length))
        docs.append(corpus.Document(i, tokens, (int(rng.integers(0, 4)),), None))
    return corpus.XmcDataset(docs, num_labels=4, feature_dim=10)


def test_short_batch_kept():
    ds = _make_dataset(10)
    batches = list(batch_iter(ds, 16, seed=0))
    assert len(batches) == 1
    assert batches[0].token_ids.shape[0] == 10


def test_batch_sizes_4_4_2():
    ds = _make_dataset(10)
    sizes = [b.token_ids.shape[0] for b in batch_iter(ds, 4, seed=0)]
    assert sizes == [4, 4, 2]


def test_batch_order_deterministic_per_seed_epoch():
    ds = _make_dataset(20)
    a = [b.doc_indices.tolist() for b in batch_iter(ds, 6, seed=9, epoch=2)]
    b = [b.doc_indices.tolist() for b in batch_iter(ds, 6, seed=9, epoch=2)]
    c = [b.doc_indices.tolist() for b in batch_iter(ds, 6, seed=9, epoch=3)]
    assert a == b
    assert a != c


def test_mask_marks_exactly_real_tokens():
    ds = _make_dataset(8, seed=3)
    for batch in batch_iter(ds, 4, seed=0):
        for r, idx in enumerate(batch.doc_indices):
            n = len(ds.documents[idx].tokens)
            assert batch.mask[r, :n].all()
            assert not batch.mask[r, n:].any()
            assert (batch.token_ids[r, n:] == PAD_ID).all()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 40), bs=st.integers(1, 17), seed=st.integers(0, 99), epoch=st.integers(0, 5))
def test_epoch_covers_dataset_exactly_once(n, bs, seed, epoch):
    ds = _make_dataset(n)
    seen = np.concatenate([b.doc_indices for b in batch_iter(ds, bs, seed=seed, epoch=epoch)])
    assert sorted(seen.tolist()) == list(range(n))


# ---------------------------------------------------------------------------
# dataset assembly + tfidf


def test_load_dataset_with_text(tmp_path, tiny_sparse):
    raw = tmp_path / "raw.txt"
    raw.write_text("alpha beta\nGamma gamma alpha\n")
    vocab = build_vocab(raw)
    ds = load_dataset(tiny_sparse, raw, vocab, max_len=8, split="train")
    assert len(ds) == 2
    assert ds.documents[0].tokens[0] == CLS_ID
    assert ds.documents[1].labels == (1,)


def test_load_dataset_line_count_mismatch(tmp_path, tiny_sparse):
    raw = tmp_path / "raw.txt"
    raw.write_text("only one line\n")
    vocab = corpus.Vocab({"only": 3})
    # short text: the first sparse row without a text line, on line 3 below the header
    with pytest.raises(ParseError, match=f"^{re.escape(str(tiny_sparse))}:3: "):
        load_dataset(tiny_sparse, raw, vocab, max_len=8)
    raw.write_text("one\ntwo\nthree\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(raw))}:3: "):  # long text: its first extra line
        load_dataset(tiny_sparse, raw, vocab, max_len=8)


def test_tfidf_unit_norm_and_determinism():
    texts = ["cat dog", "dog fish fish", "cat cat bird"]
    v1 = TfidfVectorizer().fit(texts)
    v2 = TfidfVectorizer().fit(texts)
    assert v1.term_to_id == v2.term_to_id
    vecs = v1.transform(texts)
    for vec in vecs:
        assert np.linalg.norm(vec.values) == pytest.approx(1.0)
    assert len(v1.transform(["zebra"])[0].indices) == 0
