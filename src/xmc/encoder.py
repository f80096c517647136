"""Miniature trainable transformer encoder.

Pre-norm blocks (masked multi-head self-attention + GELU feed-forward, both
with residuals), learned positional embeddings, and a text representation
built by concatenating the [CLS] position's hidden state from the last
``concat_layers`` layers, followed by a high-rate dropout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as t
from .errors import ConfigError, ContractError
from .tensor import Tensor

INIT_STD = 0.02
BLOCK_DROPOUT = 0.1  # inside attention/feed-forward blocks


@dataclass
class EncoderConfig:
    vocab_size: int
    hidden: int
    n_layers: int
    n_heads: int
    ff_dim: int
    max_positions: int
    dropout: float = 0.5  # on the concatenated representation
    concat_layers: int = 5

    def __post_init__(self):
        if self.hidden % self.n_heads != 0:
            raise ConfigError(
                f"hidden dim {self.hidden} not divisible by {self.n_heads} heads"
            )
        self.concat_layers = layers_concatenated(self.concat_layers, self.n_layers)
        if self.concat_layers < 1:
            raise ConfigError("need at least one layer to concatenate")

    @property
    def rep_width(self) -> int:
        return self.concat_layers * self.hidden


def layers_concatenated(concat_layers: int, n_layers: int) -> int:
    """The layers a stack of ``n_layers`` concatenates when asked for ``concat_layers``:
    shallower stacks concatenate every layer they have."""
    return min(concat_layers, n_layers)


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """normal(0, 0.02) for embeddings/linear weights, ones/zeros for layer norm."""
    params: dict[str, Tensor] = {}

    def normal(name, shape):
        params[name] = Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)

    def fill(name, shape, value):
        params[name] = Tensor(np.full(shape, value, dtype=np.float64), requires_grad=True)

    normal("encoder.tok_emb", (config.vocab_size, config.hidden))
    normal("encoder.pos_emb", (config.max_positions, config.hidden))
    # final norm, applied to every tapped [CLS] state: a pre-norm stack keeps
    # its residual stream unnormalized, which would saturate the downstream
    # sigmoid bottleneck as depth grows
    fill("encoder.lnf.gamma", (config.hidden,), 1.0)
    fill("encoder.lnf.beta", (config.hidden,), 0.0)
    h, f = config.hidden, config.ff_dim
    for i in range(config.n_layers):
        prefix = f"encoder.layer{i}"
        fill(f"{prefix}.ln1.gamma", (h,), 1.0)
        fill(f"{prefix}.ln1.beta", (h,), 0.0)
        for proj in ("q", "k", "v", "o"):
            normal(f"{prefix}.attn.{proj}.w", (h, h))
            fill(f"{prefix}.attn.{proj}.b", (h,), 0.0)
        fill(f"{prefix}.ln2.gamma", (h,), 1.0)
        fill(f"{prefix}.ln2.beta", (h,), 0.0)
        normal(f"{prefix}.ff.w1", (h, f))
        fill(f"{prefix}.ff.b1", (f,), 0.0)
        normal(f"{prefix}.ff.w2", (f, h))
        fill(f"{prefix}.ff.b2", (h,), 0.0)
    return params


def _split_heads(x: Tensor, n_heads: int) -> Tensor:
    batch, seq, hidden = x.shape
    per_head = hidden // n_heads
    return t.transpose(t.reshape(x, (batch, seq, n_heads, per_head)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    batch, heads, seq, per_head = x.shape
    return t.reshape(t.transpose(x, (0, 2, 1, 3)), (batch, seq, heads * per_head))


def _attention(pre: Tensor, params: dict[str, Tensor], prefix: str, n_heads: int, key_keep: np.ndarray,
               inv_sqrt: float, training: bool, rng: np.random.Generator) -> Tensor:
    """One layer's masked multi-head self-attention block, dropout included; its
    scores and weights die when it returns, unless a tape's derivatives read them."""
    q, k, v = (_split_heads(t.linear(pre, params[f"{prefix}.attn.{n}.w"], params[f"{prefix}.attn.{n}.b"]), n_heads)
               for n in "qkv")
    scores = t.scale(t.matmul(q, t.transpose(k, (0, 1, 3, 2))), inv_sqrt)
    weights = t.dropout(t.softmax(scores, axis=-1, keep=key_keep), BLOCK_DROPOUT, training, rng)
    ctx = t.linear(_merge_heads(t.matmul(weights, v)), params[f"{prefix}.attn.o.w"], params[f"{prefix}.attn.o.b"])
    return t.dropout(ctx, BLOCK_DROPOUT, training, rng)


def encode(
    token_ids: np.ndarray,
    mask: np.ndarray,
    config: EncoderConfig,
    params: dict[str, Tensor],
    training: bool,
    rng: np.random.Generator,
) -> Tensor:
    """Text representation of shape (batch, concat_layers * hidden).

    Padded key positions are masked out of every attention row, so pad token
    ids can never influence the representation.
    """
    token_ids = np.asarray(token_ids)
    batch, seq = token_ids.shape
    if seq > config.max_positions:
        raise ContractError(f"sequence length {seq} exceeds max positions {config.max_positions}")
    if np.any(token_ids >= config.vocab_size) or np.any(token_ids < 0):
        raise ContractError("token id outside vocabulary")
    mask = np.asarray(mask, dtype=bool)

    x = t.add(
        t.embedding(params["encoder.tok_emb"], token_ids),
        t.embedding(params["encoder.pos_emb"], np.arange(seq)),
    )
    key_keep = mask[:, None, None, :]  # broadcast over heads and query positions
    inv_sqrt = 1.0 / math.sqrt(config.hidden // config.n_heads)

    cls_states: list[Tensor] = []
    for i in range(config.n_layers):
        prefix = f"encoder.layer{i}"
        pre = t.layer_norm(x, params[f"{prefix}.ln1.gamma"], params[f"{prefix}.ln1.beta"])
        x = t.add(x, _attention(pre, params, prefix, config.n_heads, key_keep, inv_sqrt, training, rng))

        pre2 = t.layer_norm(x, params[f"{prefix}.ln2.gamma"], params[f"{prefix}.ln2.beta"])
        ff = t.linear(pre2, params[f"{prefix}.ff.w1"], params[f"{prefix}.ff.b1"])
        ff = t.gelu(ff)
        ff = t.linear(ff, params[f"{prefix}.ff.w2"], params[f"{prefix}.ff.b2"])
        ff = t.dropout(ff, BLOCK_DROPOUT, training, rng)
        x = t.add(x, ff)

        cls_states.append(
            t.layer_norm(t.take(x, 0, axis=1), params["encoder.lnf.gamma"], params["encoder.lnf.beta"])
        )

    # last layer first, then progressively earlier layers
    chosen = cls_states[-config.concat_layers :][::-1]
    rep = chosen[0] if len(chosen) == 1 else t.concat(chosen, axis=1)
    return t.dropout(rep, config.dropout, training, rng)


def micro_config() -> EncoderConfig:
    """Tiny configuration used by gradient-fidelity checks."""
    return EncoderConfig(
        vocab_size=50,
        hidden=8,
        n_layers=2,
        n_heads=2,
        ff_dim=16,
        max_positions=8,
        dropout=0.5,
        concat_layers=5,
    )


def encoder_grad_check(seed: int = 0) -> float:
    """End-to-end gradient check of a scalar head on the text representation.

    Runs a 2-layer micro encoder on a batch of 2 (one row padded), with all
    dropout active but deterministically re-seeded per evaluation so the
    masks are identical across finite-difference probes.  Returns the max
    relative error over every encoder parameter.
    """
    config = micro_config()
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, rng)
    token_ids = np.array([[1, 5, 9, 13, 17], [1, 7, 3, 0, 0]])
    mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=bool)
    probe = rng.normal(size=(2, config.rep_width))

    def forward():
        rep = encode(token_ids, mask, config, params, training=True, rng=np.random.default_rng(1234))
        return t.sum_all(t.mul(rep, t.constant(probe)))

    return t.grad_check(forward, list(params.values()))
