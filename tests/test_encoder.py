"""Encoder tests: shape contract, purity, padding invariance, gradients."""

import numpy as np
import pytest

from xmc.encoder import EncoderConfig, encode, encoder_grad_check, init_encoder_params, micro_config
from xmc.errors import ConfigError, ContractError

from helpers import verify_mode


def _setup(hidden=16, n_layers=3, n_heads=2, concat=5, vocab=30, max_pos=10, seed=0):
    config = EncoderConfig(
        vocab_size=vocab,
        hidden=hidden,
        n_layers=n_layers,
        n_heads=n_heads,
        ff_dim=2 * hidden,
        max_positions=max_pos,
        dropout=0.5,
        concat_layers=concat,
    )
    params = init_encoder_params(config, np.random.default_rng(seed))
    return config, params


def test_rep_width_is_concat_times_hidden():
    config, params = _setup(hidden=16, n_layers=5, concat=5)
    ids = np.array([[1, 4, 7]])
    mask = np.ones_like(ids, dtype=bool)
    rep = encode(ids, mask, config, params, training=False, rng=np.random.default_rng(0))
    assert rep.shape == (1, 5 * 16)
    assert config.rep_width == 80


def test_concat_layers_clamped_to_depth():
    config, params = _setup(n_layers=3, concat=5)
    assert config.concat_layers == 3
    ids = np.array([[1, 2]])
    rep = encode(ids, np.ones_like(ids, dtype=bool), config, params, False, np.random.default_rng(0))
    assert rep.shape == (1, 3 * 16)


def test_identical_rows_identical_outputs():
    config, params = _setup()
    ids = np.array([[1, 5, 9], [1, 5, 9]])
    mask = np.ones_like(ids, dtype=bool)
    rep = encode(ids, mask, config, params, training=False, rng=np.random.default_rng(0)).data
    assert np.array_equal(rep[0], rep[1])


def test_inference_is_pure():
    config, params = _setup()
    ids = np.array([[1, 5, 9, 2]])
    mask = np.ones_like(ids, dtype=bool)
    a = encode(ids, mask, config, params, False, np.random.default_rng(0)).data
    b = encode(ids, mask, config, params, False, np.random.default_rng(99)).data
    assert np.array_equal(a, b)


def test_padding_invariance_bit_exact():
    config, params = _setup()
    ids = np.array([[1, 5, 9, 0, 0], [1, 7, 0, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 0, 0, 0]], dtype=bool)
    base = encode(ids, mask, config, params, False, np.random.default_rng(0)).data
    flipped = ids.copy()
    flipped[0, 3] = 13
    flipped[1, 2] = 21
    flipped[1, 4] = 5
    out = encode(flipped, mask, config, params, False, np.random.default_rng(0)).data
    assert np.array_equal(base, out)


def test_single_token_sequence_runs():
    config, params = _setup()
    ids = np.array([[1]])
    rep = encode(ids, np.ones_like(ids, dtype=bool), config, params, False, np.random.default_rng(0))
    assert rep.shape == (1, config.rep_width)


def test_sequence_longer_than_positions_rejected():
    config, params = _setup(max_pos=4)
    ids = np.ones((1, 5), dtype=np.int64)
    with pytest.raises(ContractError):
        encode(ids, np.ones_like(ids, dtype=bool), config, params, False, np.random.default_rng(0))


def test_hidden_must_divide_heads():
    with pytest.raises(ConfigError):
        EncoderConfig(vocab_size=10, hidden=10, n_layers=1, n_heads=3, ff_dim=8, max_positions=4)


def test_zeroed_output_projections_give_identity_residual():
    # With attention and ff output projections zeroed, every layer is the
    # identity, so each collected [CLS] state equals the (final-normed)
    # raw CLS embedding.
    config, params = _setup(hidden=8, n_layers=3, n_heads=2, concat=3)
    for i in range(config.n_layers):
        params[f"encoder.layer{i}.attn.o.w"].data[:] = 0.0
        params[f"encoder.layer{i}.ff.w2"].data[:] = 0.0
    ids = np.array([[1, 4, 7]])
    rep = encode(ids, np.ones_like(ids, dtype=bool), config, params, False, np.random.default_rng(0)).data
    cls_embed = params["encoder.tok_emb"].data[1] + params["encoder.pos_emb"].data[0]
    normed = (cls_embed - cls_embed.mean()) / np.sqrt(cls_embed.var() + 1e-5)
    assert np.allclose(rep, np.tile(normed, 3), atol=1e-5)


def test_concat_one_is_last_layer_prefix():
    # the single-layer ablation representation equals the first block of the
    # multi-layer one (last layer comes first in the concatenation)
    config5, params = _setup(hidden=16, n_layers=5, concat=5, seed=4)
    config1 = EncoderConfig(
        vocab_size=config5.vocab_size,
        hidden=16,
        n_layers=5,
        n_heads=2,
        ff_dim=32,
        max_positions=10,
        concat_layers=1,
    )
    ids = np.array([[1, 6, 9, 2]])
    mask = np.ones_like(ids, dtype=bool)
    full = encode(ids, mask, config5, params, False, np.random.default_rng(0)).data
    single = encode(ids, mask, config1, params, False, np.random.default_rng(0)).data
    assert single.shape == (1, 16)
    assert np.array_equal(single, full[:, :16])


def test_dropout_changes_training_output_only():
    config, params = _setup()
    ids = np.array([[1, 5, 9]])
    mask = np.ones_like(ids, dtype=bool)
    trained = encode(ids, mask, config, params, True, np.random.default_rng(3)).data
    plain = encode(ids, mask, config, params, False, np.random.default_rng(3)).data
    assert not np.array_equal(trained, plain)


def test_encoder_grad_check_micro():
    with verify_mode():
        err = encoder_grad_check(seed=0)
    assert err < 1e-4


def test_micro_config_shape():
    config = micro_config()
    assert (config.hidden, config.n_layers, config.n_heads) == (8, 2, 2)
    assert config.concat_layers == 2
