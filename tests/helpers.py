"""Builders that only the tests use."""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from xmc.corpus import Document, XmcDataset, build_vocab, tokenize
from xmc.synth import SynthCorpus
from xmc.tensor import Tensor


def param(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """A trainable tensor. With ``rng``, ``data`` is a shape drawn from normal(0, scale or 0.02)."""
    if rng is not None:
        data = rng.normal(0.0, scale if scale is not None else 0.02, size=data)
    return Tensor(data, requires_grad=True)


def corpus_datasets(sc: SynthCorpus, max_len: int = 16, min_freq: int = 1):
    """(train, test, vocab) datasets of an in-memory corpus, the vocab built
    from the train text as ``xmc train`` builds it."""
    with tempfile.TemporaryDirectory() as tmp:
        text = Path(tmp) / "train_raw.txt"
        text.write_text("\n".join(sc.train_texts) + "\n", encoding="utf-8")
        vocab = build_vocab(text, min_freq=min_freq)

    def build(texts, labels, sparse, split):
        docs = [Document(i, tokenize(texts[i], vocab, max_len), labels[i], sparse[i]) for i in range(len(texts))]
        return XmcDataset(docs, num_labels=sc.num_labels, feature_dim=sc.feature_dim, split=split, vocab=vocab)

    train = build(sc.train_texts, sc.train_labels, sc.train_sparse, "train")
    test = build(sc.test_texts, sc.test_labels, sc.test_sparse, "test")
    return train, test, vocab
