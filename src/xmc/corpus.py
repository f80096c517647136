"""Dataset loading: sparse feature files, vocabulary, tokenization, batching.

Sparse file format (the public XMC convention): first line ``N D L`` with
sample count, feature dimension and label count; each following line is
``l1,l2,... i:v i:v ...`` with 0-based label and feature ids.  The raw-text
file has one document per line, aligned with the sparse file by line number.
"""

from __future__ import annotations

import contextlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint import atomic_write
from .errors import ConfigError, ParseError

PAD_ID = 0
CLS_ID = 1
UNK_ID = 2
NUM_RESERVED = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@contextlib.contextmanager
def open_text(path: str | Path):
    """An input file opened as UTF-8 text, its lines ending at LF only; a
    directory, or a byte that is not UTF-8 (located at its line), raises ParseError."""
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            yield fh
    except IsADirectoryError:
        raise ParseError(f"{path} is a directory, not a text file") from None
    except UnicodeDecodeError:
        # undecodable bytes come back as the lone surrogates U+DC80..U+DCFF
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
        bad = re.search("[\udc80-\udcff]", text)
        line = text.count("\n", 0, bad.start()) + 1
        raise ParseError(f"{path}:{line}: not UTF-8 text (byte {ord(bad.group()) - 0xDC00:#04x})") from None


def read_text(path: str | Path) -> str:
    with open_text(path) as fh:
        return fh.read()


def split_lines(text: str) -> list[str]:
    """``text`` split at LF only, so line numbers count the LFs and a lone CR or
    another Unicode break stays inside its line; a CRLF's CR is dropped and, as
    with str.splitlines, a final LF ends the last line rather than starting one."""
    return [line.removesuffix("\r") for line in text.removesuffix("\n").split("\n")] if text else []


@dataclass
class SparseVec:
    """Sparse feature vector: strictly increasing ids and their values."""

    indices: np.ndarray  # int64
    values: np.ndarray  # float64


@dataclass
class Document:
    doc_id: int
    tokens: list[int]
    labels: tuple[int, ...]
    sparse: SparseVec | None = None


@dataclass
class Vocab:
    """Token-to-id map with reserved ids 0=[PAD], 1=[CLS], 2=[UNK]."""

    token_to_id: dict[str, int]
    min_freq: int = 1

    @property
    def size(self) -> int:
        return NUM_RESERVED + len(self.token_to_id)

    def id_for(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path: str | Path) -> None:
        ordered = sorted(self.token_to_id, key=self.token_to_id.get)
        with atomic_write(path) as fh:
            fh.write(f"{self.min_freq}\n")
            for token in ordered:
                fh.write(token + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Vocab":
        lines = split_lines(read_text(path))
        if not lines:
            raise ParseError(f"{path}:1: empty vocab file")
        try:
            min_freq = int(lines[0])
        except ValueError as exc:
            raise ParseError(f"{path}:1: header must be the integer min_freq, got {lines[0]!r}") from exc
        mapping: dict[str, int] = {}
        for lineno, tok in enumerate(lines[1:], 2):
            if tok in mapping:
                raise ParseError(f"{path}:{lineno}: token {tok!r} repeats line {mapping[tok] - NUM_RESERVED + 2}")
            mapping[tok] = NUM_RESERVED + lineno - 2
        return cls(mapping, min_freq)


@dataclass
class XmcDataset:
    documents: list[Document]
    num_labels: int
    feature_dim: int
    split: str = "train"
    vocab: Vocab | None = None

    def __len__(self) -> int:
        return len(self.documents)

    def avg_positives(self) -> float:
        if not self.documents:
            return 0.0
        return sum(len(d.labels) for d in self.documents) / len(self.documents)


def split_text(text: str) -> list[str]:
    """Lowercased whitespace/punctuation tokenization."""
    return _TOKEN_RE.findall(text.lower())


def load_sparse(path: str | Path, require_labels: bool = True):
    """Parse a sparse XMC file into per-row (labels, SparseVec) pairs.

    Returns ``(rows, num_samples, feature_dim, num_labels)``.  Train-split
    rows must carry at least one label (``require_labels``).
    """
    path = Path(path)
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ParseError(f"{path}:1: header must be 'N D L', got {header}")
        try:
            n, dim, num_labels = (int(v) for v in header)
        except ValueError as exc:
            raise ParseError(f"{path}:1: non-integer header field") from exc
        if not all(0 <= v < 2**63 for v in (n, dim, num_labels)):
            raise ParseError(f"{path}:1: header fields must be non-negative 64-bit integers, got {header}")

        rows: list[tuple[tuple[int, ...], SparseVec]] = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line and lineno - 2 >= n:
                continue  # trailing blank lines
            fields = line.split()
            if fields and ":" not in fields[0]:
                label_field = fields[0]
                feat_fields = fields[1:]
            else:
                label_field = ""
                feat_fields = fields
            if label_field:
                try:
                    labels = tuple(sorted({int(v) for v in label_field.split(",")}))
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad label field {label_field!r}") from exc
                if labels and (labels[0] < 0 or labels[-1] >= num_labels):
                    raise ParseError(f"{path}:{lineno}: label id out of range [0, {num_labels})")
            else:
                labels = ()
            if require_labels and not labels:
                raise ParseError(f"{path}:{lineno}: training row has no labels")

            idx: list[int] = []
            val: list[float] = []
            prev = -1
            for fv in feat_fields:
                try:
                    i_str, v_str = fv.split(":", 1)
                    i, v = int(i_str), float(v_str)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad feature entry {fv!r}") from exc
                if i <= prev:
                    raise ParseError(f"{path}:{lineno}: non-monotone feature index {i}")
                if i >= dim:
                    raise ParseError(f"{path}:{lineno}: feature index {i} >= dim {dim}")
                if not math.isfinite(v):
                    raise ParseError(f"{path}:{lineno}: non-finite feature value {fv!r}")
                prev = i
                idx.append(i)
                val.append(v)
            rows.append((labels, SparseVec(np.array(idx, dtype=np.int64), np.array(val, dtype=np.float64))))

    if len(rows) != n:
        raise ParseError(f"{path}:1: header says {n} rows, file has {len(rows)}")
    return rows, n, dim, num_labels


def save_sparse(path: str | Path, rows: Sequence[tuple[tuple[int, ...], SparseVec]], dim: int, num_labels: int) -> None:
    with atomic_write(path) as fh:
        fh.write(f"{len(rows)} {dim} {num_labels}\n")
        for labels, vec in rows:
            label_field = ",".join(str(l) for l in labels)
            feats = " ".join(f"{i}:{v:g}" for i, v in zip(vec.indices, vec.values))
            fh.write((label_field + " " + feats).strip() + "\n")


def build_vocab(text_path: str | Path, min_freq: int = 1) -> Vocab:
    """Count tokens over one-document-per-line text; ids by (freq desc, token asc)."""
    counts: Counter[str] = Counter()
    saw_doc = False
    with open_text(text_path) as fh:
        for line in fh:
            saw_doc = True
            counts.update(split_text(line))
    if not saw_doc or not counts:
        raise ConfigError(f"{text_path}:1: empty corpus, cannot build a vocabulary")
    kept = [(tok, c) for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda item: (-item[1], item[0]))
    mapping = {tok: NUM_RESERVED + i for i, (tok, _) in enumerate(kept)}
    return Vocab(mapping, min_freq)


def tokenize(text: str, vocab: Vocab, max_len: int) -> list[int]:
    """[CLS]-prefixed token ids, truncated to ``max_len``; no padding here."""
    if max_len < 2:
        raise ConfigError(f"max_len must be >= 2, got {max_len}")
    ids = [CLS_ID] + [vocab.id_for(tok) for tok in split_text(text)]
    return ids[:max_len]


def load_dataset(
    sparse_path: str | Path,
    text_path: str | Path | None = None,
    vocab: Vocab | None = None,
    max_len: int = 128,
    split: str = "train",
) -> XmcDataset:
    """Assemble an XmcDataset from a sparse file and (optionally) aligned raw text."""
    rows, n, dim, num_labels = load_sparse(sparse_path, require_labels=(split == "train"))
    texts: list[str] | None = None
    if text_path is not None:
        texts = split_lines(read_text(text_path))
        # row i of the sparse file is its line i + 2, after the header
        if len(texts) < n:
            raise ParseError(f"{sparse_path}:{len(texts) + 2}: row {len(texts) + 1} has no line in {text_path}, "
                             f"which has {len(texts)} lines")
        if len(texts) > n:
            raise ParseError(f"{text_path}:{n + 1}: line has no row in {sparse_path}, which has {n} rows")
        if vocab is None:
            raise ConfigError("a vocab is required when loading raw text")
    docs = []
    for i, (labels, vec) in enumerate(rows):
        tokens = tokenize(texts[i], vocab, max_len) if texts is not None else [CLS_ID]
        docs.append(Document(doc_id=i, tokens=tokens, labels=labels, sparse=vec))
    return XmcDataset(docs, num_labels=num_labels, feature_dim=dim, split=split, vocab=vocab)


@dataclass
class Batch:
    token_ids: np.ndarray  # (B, S) int64, padded with PAD_ID
    mask: np.ndarray  # (B, S) bool, True at real tokens
    doc_indices: np.ndarray  # (B,) position of each row in the dataset
    labels: list[tuple[int, ...]] = field(default_factory=list)


def _pad_batch(docs: list[Document], indices: np.ndarray) -> Batch:
    width = max(len(d.tokens) for d in docs)
    token_ids = np.full((len(docs), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(docs), width), dtype=bool)
    for r, d in enumerate(docs):
        token_ids[r, : len(d.tokens)] = d.tokens
        mask[r, : len(d.tokens)] = True
    return Batch(token_ids, mask, indices, [d.labels for d in docs])


def batch_iter(dataset: XmcDataset, batch_size: int, seed: int, epoch: int = 0, shuffle: bool = True) -> Iterator[Batch]:
    """Deterministically shuffled padded batches; the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(dataset))
    if shuffle:
        order = np.random.default_rng([seed, epoch]).permutation(len(dataset))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        yield _pad_batch([dataset.documents[i] for i in chunk], chunk)


# ---------------------------------------------------------------------------
# TF-IDF features for synthetic corpora (benchmark datasets ship their own)


def tfidf(fit_texts: Sequence[str], *splits: Sequence[str]) -> tuple[int, list[list[SparseVec]]]:
    """``(feature_dim, vectors of each split)``: TF-IDF with smooth idf fit on
    ``fit_texts`` and L2-normalized rows.  Feature ids are the fit corpus's
    terms in sorted order, so the mapping is reproducible; other terms drop."""
    df: Counter[str] = Counter()
    for text in fit_texts:
        df.update(set(split_text(text)))
    if not df:
        raise ConfigError("cannot fit TF-IDF on an empty corpus")
    term_to_id = {term: i for i, term in enumerate(sorted(df))}
    n = len(fit_texts)
    idf = np.array([np.log((1.0 + n) / (1.0 + df[term])) + 1.0 for term in term_to_id], dtype=np.float64)

    def vector(text: str) -> SparseVec:
        counts = Counter(term_to_id[term] for term in split_text(text) if term in term_to_id)
        ids = sorted(counts)
        idx = np.array(ids, dtype=np.int64)
        vals = np.array([counts[i] for i in ids], dtype=np.float64) * idf[idx]
        norm = np.sqrt((vals**2).sum())
        return SparseVec(idx, vals / norm if norm > 0 else vals)

    return len(term_to_id), [[vector(text) for text in texts] for texts in splits]
