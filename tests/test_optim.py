"""AdamW, clipping, SWA and checkpoint-container tests."""

import struct

import numpy as np
import pytest

from xmc import tensor as T
from xmc.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from xmc.errors import ParseError, TrainingStateError
from xmc.optim import (
    OptimizerState,
    SwaState,
    adamw_step,
    clip_grads,
    is_decay_exempt,
    swa_update,
)

from helpers import verify_mode


def _param(value):
    p = T.Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    return p


def test_decay_only_step_hand_computed():
    with verify_mode():
        p = _param([1.0])
        p.grad = np.zeros(1)
        state = OptimizerState(learning_rate=1e-4, weight_decay=0.01)
        adamw_step({"w": p}, state)
        # decoupled decay: 1 - lr * wd * 1
        assert p.data[0] == pytest.approx(1.0 - 1e-4 * 0.01, abs=1e-12)
        assert state.step_count == 1


def test_exempt_param_zero_grad_unchanged():
    with verify_mode():
        p = _param([3.0])
        p.grad = np.zeros(1)
        state = OptimizerState(learning_rate=1e-3, weight_decay=0.01)
        adamw_step({"b": p}, state)
        assert p.data[0] == pytest.approx(3.0)


def test_first_step_bias_corrected():
    with verify_mode():
        p = _param([0.0])
        p.grad = np.ones(1)
        state = OptimizerState(learning_rate=1e-4, weight_decay=0.0)
        adamw_step({"w": p}, state)
        # m-hat = 1, v-hat = 1 after bias correction at t=1
        assert p.data[0] == pytest.approx(-1e-4 / (1.0 + 1e-8), rel=1e-9)


def test_missing_grad_raises():
    p = _param([1.0])
    state = OptimizerState(learning_rate=1e-3, weight_decay=0.0)
    with pytest.raises(TrainingStateError):
        adamw_step({"w": p}, state)


def test_lr_zero_is_identity():
    with verify_mode():
        p = _param([1.5, -2.5])
        p.grad = np.array([0.3, -0.7])
        state = OptimizerState(learning_rate=0.0, weight_decay=0.0)
        before = p.data.copy()
        adamw_step({"w": p}, state)
        assert np.array_equal(p.data, before)


def test_step_counter_strictly_increases():
    p = _param([1.0])
    state = OptimizerState(learning_rate=1e-3, weight_decay=0.0)
    for expected in (1, 2, 3):
        p.grad = np.ones(1)
        adamw_step({"w": p}, state)
        assert state.step_count == expected


def test_clip_grads_scales_to_max_norm():
    p = _param([0.0, 0.0])
    p.grad = np.array([3.0, 4.0])
    norm = clip_grads({"w": p}, max_norm=1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)


def test_decay_exempt_name_rule():
    assert is_decay_exempt("encoder.layer0.ln1.gamma")
    assert is_decay_exempt("generator.b_g")
    assert is_decay_exempt("discriminator.b_h")
    assert is_decay_exempt("encoder.layer0.ff.b1")
    assert not is_decay_exempt("discriminator.E")
    assert not is_decay_exempt("encoder.layer0.attn.q.w")


# ---------------------------------------------------------------------------
# SWA


def test_swa_first_snapshot_equals_params():
    with verify_mode():
        p = _param([4.0])
        state = SwaState()
        swa_update(state, {"w": p})
        assert state.average["w"][0] == pytest.approx(4.0)
        assert state.count == 1


def test_swa_two_point_mean():
    with verify_mode():
        state = SwaState()
        p = _param([0.0])
        swa_update(state, {"w": p})
        p.data[0] = 2.0
        swa_update(state, {"w": p})
        assert state.average["w"][0] == pytest.approx(1.0)


def test_swa_three_point_mean_and_count():
    with verify_mode():
        state = SwaState()
        p = _param([1.0])
        for value in (1.0, 2.0, 3.0):
            p.data[0] = value
            swa_update(state, {"w": p})
        assert state.average["w"][0] == pytest.approx(2.0)
        assert state.count == 3


def test_swa_matches_brute_force_mean():
    with verify_mode():
        rng = np.random.default_rng(5)
        snaps = [rng.normal(size=(3, 2)) for _ in range(7)]
        state = SwaState()
        p = T.Tensor(np.zeros((3, 2)), requires_grad=True)
        for s in snaps:
            p.data[:] = s
            swa_update(state, {"w": p})
        brute = np.mean(np.stack(snaps), axis=0)
        assert np.abs(state.average["w"] - brute).max() < 1e-12


# ---------------------------------------------------------------------------
# checkpoint container


def test_checkpoint_roundtrip(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {
        "encoder.tok_emb": np.arange(6, dtype=np.float64).reshape(2, 3),
        "generator.W_g": np.ones((4, 5), dtype=np.float32),
        "generator.W_g.swa": np.full((4, 5), 0.5, dtype=np.float32),
    }
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float32
        assert np.allclose(loaded[name], tensors[name])


def test_checkpoint_header_layout(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == FORMAT_VERSION


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 8)
    with pytest.raises(ParseError):
        load_checkpoint(path)


def test_checkpoint_deterministic_bytes(tmp_path):
    tensors = {"b": np.ones(2, dtype=np.float32), "a": np.zeros((2, 2), dtype=np.float32)}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, tensors)
    save_checkpoint(p2, dict(reversed(list(tensors.items()))))
    assert p1.read_bytes() == p2.read_bytes()


def _reference_save_checkpoint(path, tensors):
    """The writer before writes became atomic and copy-free."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        for name in sorted(tensors):
            arr = np.ascontiguousarray(np.asarray(tensors[name]), dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def test_checkpoint_bytes_match_reference_writer(tmp_path):
    rng = np.random.default_rng(3)
    tensors = {
        "f64": rng.normal(size=(5, 7)),
        "f32": rng.normal(size=(300, 64)).astype(np.float32),
        "transposed": rng.normal(size=(4, 6)).astype(np.float32).T,
        "big_endian": rng.normal(size=9).astype(">f4"),
        "empty": np.zeros((0, 3)),
        "ünïcode": np.arange(4.0),
    }
    save_checkpoint(tmp_path / "new.ckpt", tensors)
    _reference_save_checkpoint(tmp_path / "ref.ckpt", tensors)
    assert (tmp_path / "new.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


def test_checkpoint_zero_dim_roundtrip(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"scalar": np.float64(2.5), "zeros": np.zeros(())})
    loaded = load_checkpoint(path)
    assert loaded["scalar"].shape == () and loaded["scalar"] == 2.5
    assert loaded["zeros"].shape == () and loaded["zeros"] == 0.0
    # a rank-0 record carries no dims: name length, name, rank 0, one value
    assert path.read_bytes()[8:] == b"".join(
        struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", 0) + struct.pack("<f", value)
        for name, value in (("scalar", 2.5), ("zeros", 0.0))
    )


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones(3)})
    before = path.read_bytes()
    # the second record cannot be converted, after the first was written
    with pytest.raises(ValueError):
        save_checkpoint(path, {"a": np.zeros(1000), "b": np.array(["not a number"])})
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_truncated_record_names_its_byte(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"ab": np.arange(6.0).reshape(2, 3), "c": np.ones(2)})
    blob = path.read_bytes()
    # record "ab" starts at byte 8: name length, name at 12, rank at 14, dims at 18, values at 26
    for cut, byte in [(4, 4), (10, 8), (13, 12), (16, 14), (22, 18), (30, 26), (49, 26), (52, 50), (60, 59)]:
        path.write_bytes(blob[:cut])
        with pytest.raises(ParseError, match=f"truncated checkpoint record at byte {byte}$"):
            load_checkpoint(path)
    path.write_bytes(blob)
    loaded = load_checkpoint(path)
    assert loaded["ab"].flags.owndata and loaded["ab"].flags.writeable
    assert np.array_equal(loaded["ab"], np.arange(6.0).reshape(2, 3))


def test_checkpoint_repeated_record_names_its_byte(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"a": np.ones(2), "b": np.zeros(3)})
    blob = path.read_bytes()
    # record "a" is bytes 8-28: name length, name, rank, one dim, two values
    path.write_bytes(blob + blob[8:29])
    with pytest.raises(ParseError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: record 'a' at byte {len(blob)} repeats an earlier one"


HUGE = 2**32 - 1


@pytest.mark.parametrize(
    "record, byte",
    [
        (struct.pack("<I", HUGE) + b"w", 12),  # name length
        (struct.pack("<I", 1) + b"w" + struct.pack("<I", HUGE), 17),  # rank
        (struct.pack("<I", 1) + b"w" + struct.pack("<III", 2, HUGE, HUGE), 25),  # dims
    ],
    ids=["name", "rank", "dims"],
)
def test_checkpoint_oversized_length_is_refused_before_reading(tmp_path, record, byte):
    path = tmp_path / "m.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION) + record + b"\0" * 4)
    with pytest.raises(ParseError, match=f"truncated checkpoint record at byte {byte}$"):
        load_checkpoint(path)
