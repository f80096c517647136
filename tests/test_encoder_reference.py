"""The encoder's fused and in-place ops against the compositions they replaced.

The references below are the op bodies the encoder ran before ``t.linear``,
``t.softmax(keep=)`` and the in-place internals of ``gelu``, ``dropout`` and
``layer_norm``: the reshape -> matmul -> add -> reshape chain of each affine
map, masked_fill -> softmax -> dropout in the attention, the out-of-place
expressions of each op, and the gradient accumulation that started from a
zero array.  Every value must match them bit for bit, so the tests compare
with ``np.array_equal``, never with a tolerance.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from xmc import tensor as t
from xmc.encoder import BLOCK_DROPOUT, EncoderConfig, encode, init_encoder_params
from xmc.rank import init_discriminator, rank_scores
from xmc.recall import init_generator, recall_scores
from xmc.tensor import Tensor

from helpers import verify_mode

# ---------------------------------------------------------------------------
# references


def _ref_accum(self, g):
    if isinstance(self, Tensor):
        if not self.requires_grad:
            return
        self.grad_rows = None
    if self._grad is None:
        # a slot starts from a fresh zero array of the gradient's shape
        self._grad = np.zeros_like(self.data) if isinstance(self, Tensor) else np.zeros(g.shape, g.dtype)
    self._grad += g


def _ref_linear(x, w, b):
    batch, seq, din = x.shape
    flat = t.reshape(x, (batch * seq, din))
    out = t.add(t.matmul(flat, w), b)
    return t.reshape(out, (batch, seq, w.shape[1]))


def _ref_gelu(x):
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))

    xd = x.data

    def bwd(g, x):
        pdf = np.exp(-0.5 * xd * xd) / math.sqrt(2.0 * math.pi)
        x._accum(g * (cdf + xd * pdf))

    return t._node(xd * cdf, (x,), bwd)


def _ref_softmax(x, axis=-1):
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g, x):
        dot = (g * y).sum(axis=axis, keepdims=True)
        x._accum(y * (g - dot))

    return t._node(y, (x,), bwd)


def _ref_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gd, gain_shape, bias_shape = gain.data, gain.shape, bias.shape

    def bwd(g, x, gain, bias):
        gain._accum(t._unbroadcast(g * xhat, gain_shape))
        bias._accum(t._unbroadcast(g, bias_shape))
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        x._accum((dxhat - m1 - xhat * m2) * inv)

    return t._node(xhat * gain.data + bias.data, (x, gain, bias), bwd)


def _ref_dropout(x, rate, training, rng):
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)

    def bwd(g, x):
        x._accum(g * keep * factor)

    return t._node(x.data * keep * factor, (x,), bwd)


def _ref_encode(token_ids, mask, config, params, training, rng):
    batch, seq = token_ids.shape
    x = t.add(t.embedding(params["encoder.tok_emb"], token_ids), t.embedding(params["encoder.pos_emb"], np.arange(seq)))
    key_keep = mask[:, None, None, :]
    inv_sqrt = 1.0 / math.sqrt(config.hidden // config.n_heads)
    per_head = config.hidden // config.n_heads

    def split(z):
        return t.transpose(t.reshape(z, (batch, seq, config.n_heads, per_head)), (0, 2, 1, 3))

    cls_states = []
    for i in range(config.n_layers):
        p = f"encoder.layer{i}"
        pre = _ref_layer_norm(x, params[f"{p}.ln1.gamma"], params[f"{p}.ln1.beta"])
        q, k, v = (split(_ref_linear(pre, params[f"{p}.attn.{n}.w"], params[f"{p}.attn.{n}.b"])) for n in "qkv")
        scores = t.scale(t.matmul(q, t.transpose(k, (0, 1, 3, 2))), inv_sqrt)
        scores = t.masked_fill(scores, key_keep, t.MASK_FILL)
        weights = _ref_dropout(_ref_softmax(scores, axis=-1), BLOCK_DROPOUT, training, rng)
        ctx = t.reshape(t.transpose(t.matmul(weights, v), (0, 2, 1, 3)), (batch, seq, config.hidden))
        ctx = _ref_linear(ctx, params[f"{p}.attn.o.w"], params[f"{p}.attn.o.b"])
        x = t.add(x, _ref_dropout(ctx, BLOCK_DROPOUT, training, rng))
        pre2 = _ref_layer_norm(x, params[f"{p}.ln2.gamma"], params[f"{p}.ln2.beta"])
        ff = _ref_gelu(_ref_linear(pre2, params[f"{p}.ff.w1"], params[f"{p}.ff.b1"]))
        ff = _ref_linear(ff, params[f"{p}.ff.w2"], params[f"{p}.ff.b2"])
        x = t.add(x, _ref_dropout(ff, BLOCK_DROPOUT, training, rng))
        cls_states.append(
            _ref_layer_norm(t.take(x, 0, axis=1), params["encoder.lnf.gamma"], params["encoder.lnf.beta"])
        )
    chosen = cls_states[-config.concat_layers :][::-1]
    rep = chosen[0] if len(chosen) == 1 else t.concat(chosen, axis=1)
    return _ref_dropout(rep, config.dropout, training, rng)


def _ref_recall_scores(rep, gen):
    return t.sigmoid(t.add(t.matmul(rep, t.transpose(gen.weight, (1, 0))), gen.bias))


def _ref_rank_scores(rep, gathered, disc):
    h = t.sigmoid(t.add(t.matmul(rep, t.transpose(disc.bottleneck_w, (1, 0))), disc.bottleneck_b))
    batch, n_max = gathered.shape[:2]
    logits = t.matmul(gathered, t.reshape(h, (batch, disc.embed_dim, 1)))
    return t.reshape(t.sigmoid(logits), (batch, n_max))


# ---------------------------------------------------------------------------
# comparisons


def _run(encoder, params, probe, training, **inputs):
    """(rep, grads by name) of sum(rep * probe) through ``encoder``."""
    for p in params.values():
        p.grad = None
    with t.record() as tape:
        rep = encoder(params=params, training=training, rng=np.random.default_rng(99), **inputs)
        tape.backward(t.sum_all(t.mul(rep, t.constant(probe))))
    return rep.data.copy(), {name: p.grad.copy() for name, p in params.items()}


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
def test_encode_matches_reference_bit_for_bit(monkeypatch, verify, training):
    # a representation dropout unlike BLOCK_DROPOUT, so swapping the two rates fails
    config = EncoderConfig(vocab_size=40, hidden=16, n_layers=3, n_heads=4, ff_dim=24, max_positions=9,
                           dropout=0.3, concat_layers=2)
    assert config.dropout != BLOCK_DROPOUT
    rng = np.random.default_rng(5)
    token_ids = rng.integers(0, 40, size=(4, 9))
    mask = np.arange(9) < np.array([9, 6, 1, 0])[:, None]  # padded rows, one with one token, one with none
    token_ids[~mask] = 0
    with verify_mode(verify):
        params = init_encoder_params(config, np.random.default_rng(11))
        probe = rng.normal(size=(4, config.rep_width))
        inputs = dict(token_ids=token_ids, mask=mask, config=config)
        rep, grads = _run(encode, params, probe, training, **inputs)
        with monkeypatch.context() as m:
            m.setattr(Tensor, "_accum", _ref_accum)
            m.setattr(t._Slot, "_accum", _ref_accum)
            ref_rep, ref_grads = _run(_ref_encode, params, probe, training, **inputs)

    assert rep.dtype == (np.float64 if verify else np.float32)
    assert np.array_equal(rep, ref_rep)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_head_affine_maps_match_matmul_add(monkeypatch, verify):
    """recall_scores and rank_scores through t.linear equal add(matmul(rep, W.T), b)."""
    rng = np.random.default_rng(2)
    with verify_mode(verify):
        gen = init_generator(6, 10, rng)
        disc = init_discriminator(12, 5, 10, rng)
        gen.bias.data[:] = rng.normal(size=6)
        disc.bottleneck_b.data[:] = rng.normal(size=5)
        rep = Tensor(rng.normal(size=(3, 10)), requires_grad=True)
        gathered = Tensor(rng.normal(size=(3, 4, 5)))
        params = [rep, gen.weight, gen.bias, disc.bottleneck_w, disc.bottleneck_b]

        def run(recall, rank):
            for p in params:
                p.grad = None
            with t.record() as tape:
                scores, ranked = recall(rep, gen), rank(rep, gathered, disc)
                tape.backward(t.add(t.sum_all(scores), t.sum_all(ranked)))
            return [scores.data, ranked.data] + [p.grad.copy() for p in params]

        got = run(recall_scores, rank_scores)
        with monkeypatch.context() as m:
            m.setattr(Tensor, "_accum", _ref_accum)
            m.setattr(t._Slot, "_accum", _ref_accum)
            ref = run(_ref_recall_scores, _ref_rank_scores)

    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
