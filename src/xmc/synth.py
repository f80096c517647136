"""Synthetic block-structured corpus generator.

Labels are grouped into topics; every document draws its labels from one
topic and its token stream spells those labels out (topic marker word plus
one word per label plus filler), so token content deterministically encodes
the label set.  Sparse features are TF-IDF over the same text, which gives
the label representations the block structure the clustering stage needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SparseVec, TfidfVectorizer, save_sparse

FILLER_POOL = 50


@dataclass
class SynthCorpus:
    train_texts: list[str]
    train_labels: list[tuple[int, ...]]
    test_texts: list[str]
    test_labels: list[tuple[int, ...]]
    num_labels: int
    num_topics: int
    seed: int
    train_sparse: list[SparseVec]
    test_sparse: list[SparseVec]
    feature_dim: int

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        """Write the standard four files: sparse + raw text per split."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "train_sparse": out / "train.txt",
            "train_text": out / "train_raw.txt",
            "test_sparse": out / "test.txt",
            "test_text": out / "test_raw.txt",
        }
        save_sparse(
            paths["train_sparse"],
            list(zip(self.train_labels, self.train_sparse)),
            self.feature_dim,
            self.num_labels,
        )
        save_sparse(
            paths["test_sparse"],
            list(zip(self.test_labels, self.test_sparse)),
            self.feature_dim,
            self.num_labels,
        )
        paths["train_text"].write_text("\n".join(self.train_texts) + "\n", encoding="utf-8")
        paths["test_text"].write_text("\n".join(self.test_texts) + "\n", encoding="utf-8")
        return paths


def _make_doc(rng: np.random.Generator, num_topics: int, labels_per_topic: int, max_labels: int):
    topic = int(rng.integers(num_topics))
    count = int(rng.integers(1, min(max_labels, labels_per_topic) + 1))
    base = topic * labels_per_topic
    labels = tuple(sorted(rng.choice(labels_per_topic, size=count, replace=False) + base))
    words = [f"topic{topic}"] * 2
    for label in labels:
        words.extend([f"item{label:03d}"] * 2)
    fillers = rng.integers(FILLER_POOL, size=3)
    words.extend(f"filler{w}" for w in fillers)
    order = rng.permutation(len(words))
    text = " ".join(words[i] for i in order)
    return text, labels


def make_synthetic_corpus(
    num_labels: int = 64,
    num_topics: int = 8,
    n_train: int = 2000,
    n_test: int = 500,
    seed: int = 7,
    max_labels_per_doc: int = 3,
) -> SynthCorpus:
    if num_labels % num_topics:
        raise ValueError("num_labels must divide evenly into topics")
    labels_per_topic = num_labels // num_topics
    train_rng = np.random.default_rng([seed, 0])
    test_rng = np.random.default_rng([seed, 1])
    train = [_make_doc(train_rng, num_topics, labels_per_topic, max_labels_per_doc) for _ in range(n_train)]
    test = [_make_doc(test_rng, num_topics, labels_per_topic, max_labels_per_doc) for _ in range(n_test)]
    train_texts, train_labels = [t for t, _ in train], [l for _, l in train]
    test_texts, test_labels = [t for t, _ in test], [l for _, l in test]

    # production-style features: idf fit on train only
    vectorizer = TfidfVectorizer().fit(train_texts)
    return SynthCorpus(
        train_texts=train_texts,
        train_labels=train_labels,
        test_texts=test_texts,
        test_labels=test_labels,
        num_labels=num_labels,
        num_topics=num_topics,
        seed=seed,
        train_sparse=vectorizer.transform(train_texts),
        test_sparse=vectorizer.transform(test_texts),
        feature_dim=vectorizer.dim,
    )
