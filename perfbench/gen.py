"""Seeded input generator for the benchmark workloads.

Writes the standard XMC file layout (``train.txt``/``test.txt`` sparse files
with an ``N D L`` header, aligned ``train_raw.txt``/``test_raw.txt``) without
using ``xmc.synth`` or ``xmc.corpus``, so a change under ``src/`` cannot change
a workload's inputs.

Documents are topic blocks: labels ``[t*B, (t+1)*B)`` belong to topic ``t``.
A document picks one topic and 1..``max_labels`` distinct labels inside it;
its text holds the topic word and one word per label (each repeated), plus
filler words.  With ``zipf > 0`` topics and labels inside a topic are drawn
with power-law weights, so a few labels are frequent and the tail is thin.
Sparse features are L2-normalised term counts over the generator's own word
list.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    num_labels: int
    topic_size: int  # labels per topic block
    n_train: int
    n_test: int
    max_labels: int  # labels per document, drawn uniformly from 1..max_labels
    marker_repeat: int  # copies of the topic word and of each label word
    fillers: int  # filler words per document
    filler_pool: int
    zipf: float  # power-law exponent over topics and labels; 0 = uniform


def _draw_docs(rng: np.random.Generator, shape: Shape, n: int):
    num_topics = shape.num_labels // shape.topic_size
    topic_w = np.arange(1, num_topics + 1, dtype=np.float64) ** -shape.zipf
    # popularity rank is independent of the topic id, so clustering cannot
    # lean on label order
    topic_w = topic_w[rng.permutation(num_topics)]
    topics = rng.choice(num_topics, size=n, p=topic_w / topic_w.sum())
    counts = rng.integers(1, shape.max_labels + 1, size=n)
    label_logw = -shape.zipf * np.log(np.arange(1, shape.topic_size + 1, dtype=np.float64))
    # Gumbel top-k: distinct labels per document, drawn by weight
    keys = label_logw[None, :] + rng.gumbel(size=(n, shape.topic_size))
    ranked = np.argsort(-keys, axis=1, kind="stable")
    fillers = rng.integers(shape.filler_pool, size=(n, shape.fillers))
    docs = []
    for i in range(n):
        base = int(topics[i]) * shape.topic_size
        labels = sorted(int(base + j) for j in ranked[i, : counts[i]])
        words = [f"topic{topics[i]}"] * shape.marker_repeat
        for label in labels:
            words += [f"item{label}"] * shape.marker_repeat
        words += [f"filler{w}" for w in fillers[i]]
        order = rng.permutation(len(words))
        docs.append((labels, [words[j] for j in order]))
    return docs


def _word_ids(shape: Shape) -> dict[str, int]:
    num_topics = shape.num_labels // shape.topic_size
    words = (
        [f"topic{t}" for t in range(num_topics)]
        + [f"item{l}" for l in range(shape.num_labels)]
        + [f"filler{f}" for f in range(shape.filler_pool)]
    )
    return {w: i for i, w in enumerate(words)}


def _write_split(out: Path, name: str, docs, word_ids: dict[str, int], num_labels: int) -> None:
    dim = len(word_ids)
    sparse_lines = [f"{len(docs)} {dim} {num_labels}"]
    text_lines = []
    for labels, words in docs:
        ids, counts = np.unique([word_ids[w] for w in words], return_counts=True)
        values = counts / np.sqrt((counts.astype(np.float64) ** 2).sum())
        feats = " ".join(f"{i}:{v:.6g}" for i, v in zip(ids.tolist(), values.tolist()))
        sparse_lines.append(",".join(map(str, labels)) + " " + feats)
        text_lines.append(" ".join(words))
    (out / f"{name}.txt").write_text("\n".join(sparse_lines) + "\n", encoding="utf-8")
    (out / f"{name}_raw.txt").write_text("\n".join(text_lines) + "\n", encoding="utf-8")


def generate(out_dir: str | Path, shape: Shape, seed: int) -> dict:
    """Write the four input files; return the parameters and a digest per file."""
    if shape.num_labels % shape.topic_size:
        raise ValueError("num_labels must be a multiple of topic_size")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    word_ids = _word_ids(shape)
    train = _draw_docs(np.random.default_rng([seed, 0]), shape, shape.n_train)
    test = _draw_docs(np.random.default_rng([seed, 1]), shape, shape.n_test)
    _write_split(out, "train", train, word_ids, shape.num_labels)
    _write_split(out, "test", test, word_ids, shape.num_labels)
    files = ["train.txt", "train_raw.txt", "test.txt", "test_raw.txt"]
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}
    seen = np.zeros(shape.num_labels, dtype=bool)
    for labels, _ in train:
        seen[labels] = True
    return {
        "seed": seed,
        "shape": asdict(shape),
        "labels_with_features": int(seen.sum()),
        "sha256": digests,
    }
