"""The streamed label-side update against whole-array reference implementations.

The references below are the update path from before AdamW, clipping and SWA
were streamed through row blocks and the embedding backward stopped building
a dense gradient: whole-array AdamW, clipping that scales every gradient,
whole-array SWA, and an embedding whose backward scatters with ``np.add.at``
into a fresh zero matrix and accumulates it.  The new path performs the same
floating-point operations on every element, so params, moments, gradients
and SWA averages must be equal, not merely close, in both numeric modes.
"""

import gc
import itertools
from dataclasses import replace

import numpy as np
import pytest

import xmc.trainer
from xmc import tensor as t
from xmc.corpus import batch_iter
from xmc.optim import (
    BETA1, BETA2, BLOCK, EPS, OptimizerState, SwaState, _square_sum, adamw_step, clip_grads,
    global_grad_norm, is_decay_exempt, swa_update,
)
from xmc.trainer import build_micro_problem, init_bundle, train, train_step

from helpers import dense_grad, param, verify_mode

# ---------------------------------------------------------------------------
# whole-array references


def _reference_adamw_step(params, state):
    state.step_count += 1
    step = state.step_count
    bc1 = 1.0 - BETA1**step
    bc2 = 1.0 - BETA2**step
    lr = state.learning_rate
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        if state.weight_decay != 0.0 and not is_decay_exempt(name):
            p.data *= 1.0 - lr * state.weight_decay
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def _reference_clip_grads(params, max_norm):
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def _reference_swa_update(state, params):
    n = state.count
    for name, p in params.items():
        if name not in state.average:
            state.average[name] = np.zeros_like(p.data)
        avg = state.average[name]
        avg += (p.data - avg) / (n + 1)
    state.count = n + 1
    return state


def _reference_embedding(weight, ids):
    ids, wd = np.asarray(ids), weight.data

    def bwd(g, weight):
        gw = np.zeros_like(wd)
        np.add.at(gw, ids, g)
        weight._accum(gw)

    return t._node(wd[ids], (weight,), bwd)


# ---------------------------------------------------------------------------
# one model, run through either path

SHAPES = [
    (1,),  # one element
    (37, 16),  # below one block
    (BLOCK // 64, 64),  # exactly one block
    (BLOCK + 1,),  # one element past a block
    (2100, 96),  # several blocks, not a multiple of the block size
]

# gradient kinds: "hinted" gets two embedding backwards (a block of rows);
# "mixed" gets a dense term after its embedding backward (the block turns
# dense); "mixed_rev" gets its embedding backward after a dense term; "dense"
# only dense terms.  The EXEMPT names are a hinted and a dense parameter whose
# name leaves is_decay_exempt picks.
KINDS = ("hinted", "mixed", "mixed_rev", "dense")
EXEMPT = ("hinted.b", "dense.gamma")


def _make_params(shape, rng):
    names = [*KINDS, *EXEMPT]
    return {name: param(shape, rng, scale=0.5) for name in names}


def _draw_step(shape, rng):
    """Ids and upstream gradients of one step; some rows stay untouched."""
    rows = shape[0]

    def ids():
        # the first third of the rows stays untouched, except the last row,
        # which is then the only touched row of its block
        drawn = rng.integers(rows // 3, rows, size=(2, max(1, rows // 3)))
        drawn[drawn >= (2 * rows) // 3] = rows - 1
        return drawn

    def grad(index_shape):
        return rng.normal(size=index_shape + shape[1:]) * 10.0 ** rng.integers(-3, 2)

    draw = {}
    for name in ("hinted", "hinted.b", "mixed", "mixed_rev"):
        draw[name] = [(i, grad(i.shape)) for i in (ids(), ids())]
    for name in ("mixed", "mixed_rev", "dense", "dense.gamma"):
        draw[name + ".dense"] = rng.normal(size=shape)
    return draw


def _backward(params, draw, embed):
    """Backward of a sum of linear terms, so each op receives exactly the drawn
    gradient.  Ops run backward in reverse of the order they are listed."""
    terms = []

    def emb(name, i):
        ids, g = draw[name][i]
        terms.append(t.sum_all(t.mul(embed(params[name], ids), t.constant(g))))

    def dense(name):
        terms.append(t.sum_all(t.mul(params[name], t.constant(draw[name + ".dense"]))))

    for p in params.values():
        p.grad = None
    with t.record() as tape:
        for name in ("hinted", "hinted.b"):
            emb(name, 0)
            emb(name, 1)
        dense("mixed")
        emb("mixed", 0)
        emb("mixed_rev", 0)
        dense("mixed_rev")
        dense("dense")
        dense("dense.gamma")
        tape.backward(t.add_n(terms))


def _assert_equal(a, b, what):
    assert a.dtype == b.dtype, what
    assert np.array_equal(a, b), what


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize("max_norm", [1e12, 1e-2], ids=["no-clip", "clip"])
@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
def test_update_matches_whole_array_reference(shape, max_norm, verify):
    assert all(map(is_decay_exempt, EXEMPT)) and not any(map(is_decay_exempt, KINDS))
    with verify_mode(verify):
        rng = np.random.default_rng(sum(shape))
        new = _make_params(shape, np.random.default_rng(0))
        ref = _make_params(shape, np.random.default_rng(0))
        new_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
        ref_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
        new_swa, ref_swa = SwaState(), SwaState()
        fired = []
        for step in range(4):
            draw = _draw_step(shape, rng)
            _backward(new, draw, t.embedding)
            _backward(ref, draw, _reference_embedding)
            for name in new:
                _assert_equal(dense_grad(new[name]), ref[name].grad, f"grad {name} step {step}")
            for name in ("hinted", "hinted.b"):
                touched = np.unique(np.concatenate([ids.ravel() for ids, _ in draw[name]]))
                assert np.array_equal(new[name].grad_rows, touched)
            for name in ("mixed", "mixed_rev", "dense", "dense.gamma"):
                assert new[name].grad_rows is None

            norm = clip_grads(new, max_norm)
            assert norm == _reference_clip_grads(ref, max_norm)
            fired.append(norm > max_norm)
            for name in new:
                _assert_equal(dense_grad(new[name]), ref[name].grad, f"clipped grad {name} step {step}")

            adamw_step(new, new_opt)
            _reference_adamw_step(ref, ref_opt)
            for name in new:
                _assert_equal(new[name].data, ref[name].data, f"param {name} step {step}")
                _assert_equal(new_opt.m[name], ref_opt.m[name], f"m {name} step {step}")
                _assert_equal(new_opt.v[name], ref_opt.v[name], f"v {name} step {step}")
            if step >= 1:
                swa_update(new_swa, new)
                _reference_swa_update(ref_swa, ref)
                for name in new:
                    _assert_equal(new_swa.average[name], ref_swa.average[name], f"swa {name} step {step}")
        assert fired == [max_norm < 1.0] * 4


# ---------------------------------------------------------------------------
# the block of rows


def _embedded(weight, ids, g):
    with t.record() as tape:
        tape.backward(t.sum_all(t.mul(t.embedding(weight, ids), t.constant(g))))


def test_assigning_grad_drops_hint_and_whole_array_is_used():
    with verify_mode():
        rng = np.random.default_rng(4)
        shape = (BLOCK // 32 + 3, 32)
        new = {"w": param(shape, np.random.default_rng(1))}
        ref = {"w": param(shape, np.random.default_rng(1))}
        _embedded(new["w"], np.array([0, 2, 2]), rng.normal(size=(3, 32)))
        assert np.array_equal(new["w"].grad_rows, [0, 2])
        # a value outside the hinted rows, written by assignment
        g = dense_grad(new["w"])
        g[1] = 5.0
        g[-1] = -3.0
        new["w"].grad = g
        assert new["w"].grad_rows is None
        ref["w"].grad = g.copy()
        assert clip_grads(new, 1.0) == _reference_clip_grads(ref, 1.0)
        _assert_equal(new["w"].grad, ref["w"].grad, "clipped grad")
        assert new["w"].grad[1, 0] != 5.0
        adamw_step(new, OptimizerState(learning_rate=1e-2, weight_decay=0.0))
        _reference_adamw_step(ref, OptimizerState(learning_rate=1e-2, weight_decay=0.0))
        _assert_equal(new["w"].data, ref["w"].data, "param")


def test_dense_accum_after_embedding_drops_hint():
    w = param((6, 3), np.random.default_rng(2))
    _embedded(w, np.array([1, 4]), np.ones((2, 3)))
    assert np.array_equal(w.grad_rows, [1, 4])
    w._accum(np.ones((6, 3)))
    assert w.grad_rows is None
    assert np.array_equal(w.grad[:, 0], [1, 2, 1, 1, 2, 1])


def test_two_embedding_calls_sum_like_add_at():
    for verify, order in itertools.product((False, True), "CF"):
        with verify_mode(verify):
            rng = np.random.default_rng(6)
            w = param((50, 4), rng)
            ids_a, ids_b = rng.integers(0, 20, size=(3, 7)), rng.integers(10, 40, size=11)
            g_a, g_b = rng.normal(size=(3, 7, 4)) * 1e3, rng.normal(size=(11, 4)) * 1e-3
            g_a[rng.random(g_a.shape) < 0.3] = -0.0
            ids_a[0, 0], g_a[0, 0] = 45, -0.0  # a row that only -0.0 reaches sums to +0.0
            g_a, g_b = (np.asarray(g, w.data.dtype, order=order) for g in (g_a, g_b))
            with t.record() as tape:
                # the transpose hands the first embedding an F-order gradient
                emb_a = t.transpose(t.embedding(w, ids_a), (2, 1, 0)) if order == "F" else t.embedding(w, ids_a)
                tape.backward(t.add(t.sum_all(t.mul(emb_a, t.constant(g_a.T if order == "F" else g_a))),
                                    t.sum_all(t.mul(t.embedding(w, ids_b), t.constant(g_b)))))
            # backward runs the second call first; each call's scatter is
            # accumulated as a whole, as the dense backward did
            first, second = np.zeros_like(w.data), np.zeros_like(w.data)
            np.add.at(first, ids_b, g_b)
            np.add.at(second, ids_a, g_a)
            expected = np.zeros_like(w.data)
            expected += first
            expected += second
            assert np.array_equal(w.grad_rows, np.union1d(ids_a, ids_b))
            assert w.grad.shape == (len(w.grad_rows), 4)
            assert dense_grad(w).tobytes() == expected.tobytes(), f"{order} order, {w.data.dtype}"


# ---------------------------------------------------------------------------
# the norm without a temporary


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("hint", ["empty", "partial", "full", "none"])
def test_square_sum_equals_numpy_pairwise_sum(dtype, hint):
    rng = np.random.default_rng(len(hint) + np.dtype(dtype).itemsize)
    for _ in range(12):
        # widths that are not multiples of 8; lengths from one element to a few blocks
        width = int(rng.choice([1, 3, 37, 129]))
        rows = int(rng.integers(1, 5 * BLOCK // width))
        g = (rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))).astype(dtype)
        if hint == "none":
            kept = None
        else:
            count = {"empty": 0, "partial": int(rng.integers(1, rows + 1)), "full": rows}[hint]
            kept = np.sort(rng.choice(rows, size=count, replace=False))
            off = np.ones(rows, dtype=bool)
            off[kept] = False
            g[off] = 0.0
        expected = (g * g).sum()
        w = t.Tensor(g, requires_grad=True)
        w.grad = g
        if kept is not None:  # the block of the kept rows stands for g
            buf = np.empty(min(g.size, BLOCK) + 2 * width, dtype)
            got = _square_sum(g[kept], kept, width, 0, g.size, buf)
            assert got.dtype == expected.dtype and got == expected, (rows, width)
            w.grad, w.grad_rows = g[kept], kept
        assert global_grad_norm({"w": w}) == float(np.sqrt(float(expected)))


# ---------------------------------------------------------------------------
# rows that never moved


def test_dormant_rows_keep_zero_moments_until_a_dense_gradient():
    shape = (2100, 96)  # three blocks and a part
    assert 3 * BLOCK < shape[0] * shape[1]
    rng = np.random.default_rng(8)
    new = {"w": param(shape, np.random.default_rng(1))}
    ref = {"w": param(shape, np.random.default_rng(1))}
    new_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
    ref_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
    moved = np.empty(0, dtype=np.int64)
    for step in range(4):
        ids = rng.integers(0, shape[0], size=40)
        g = rng.normal(size=(40, shape[1]))
        dense = step == 3
        for params, embed in ((new, t.embedding), (ref, _reference_embedding)):
            params["w"].clear_grad()
            with t.record() as tape:
                loss = t.sum_all(t.mul(embed(params["w"], ids), t.constant(g)))
                if dense:
                    loss = t.add(loss, t.sum_all(t.mul(params["w"], t.constant(np.ones(shape)))))
                tape.backward(loss)
        adamw_step(new, new_opt)
        _reference_adamw_step(ref, ref_opt)
        for got, want in ((new["w"].data, ref["w"].data), (new_opt.m["w"], ref_opt.m["w"]),
                          (new_opt.v["w"], ref_opt.v["w"])):
            _assert_equal(got, want, f"step {step}")
        if dense:
            assert new_opt.live["w"] is None  # every row may now carry a moment
            break
        moved = np.union1d(moved, ids)
        assert np.array_equal(new_opt.live["w"], moved)
        dormant = np.setdiff1d(np.arange(shape[0]), moved)
        assert dormant.size > BLOCK // shape[1]  # the dormant rows span more than a block
        for moment in (new_opt.m["w"], new_opt.v["w"]):
            assert np.all(moment[dormant] == 0.0) and not np.any(np.signbit(moment[dormant]))
    # block gradients after the dense one keep every row live
    new["w"].clear_grad()
    _embedded(new["w"], np.array([1, 2]), np.ones((2, shape[1])))
    adamw_step(new, new_opt)
    assert new_opt.live["w"] is None


def test_fully_live_and_empty_blocks_match_reference():
    shape = (2100, 96)  # blocks of 682 rows: 0-681, 682-1363, 1364-2045, 2046-2099
    rng = np.random.default_rng(9)
    new = {"w": param(shape, np.random.default_rng(1))}
    ref = {"w": param(shape, np.random.default_rng(1))}
    new_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
    ref_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1)
    # the first block ends up wholly live; the last two blocks never move
    for ids in (np.arange(0, 700), np.array([5, 681, 1000]), np.array([3, 3, 700])):
        g = rng.normal(size=(len(ids), shape[1]))
        for params in (new, ref):
            params["w"].clear_grad()
        _embedded(new["w"], ids, g)
        with t.record() as tape:
            tape.backward(t.sum_all(t.mul(_reference_embedding(ref["w"], ids), t.constant(g))))
        adamw_step(new, new_opt)
        _reference_adamw_step(ref, ref_opt)
        for got, want in ((new["w"].data, ref["w"].data), (new_opt.m["w"], ref_opt.m["w"]),
                          (new_opt.v["w"], ref_opt.v["w"])):
            _assert_equal(got, want, f"ids {ids[:3]}")
    assert np.array_equal(new_opt.live["w"], np.union1d(np.arange(0, 701), [1000]))


# ---------------------------------------------------------------------------
# gradient buffers across train steps


def _micro_bundle():
    config, dataset, bundle = build_micro_problem(seed=5, num_labels=2100, n_docs=8)
    config = replace(config, embed_dim=64)
    return config, dataset, init_bundle(config, dataset.vocab.size, bundle.cluster_map)


def test_label_gradient_is_a_block_of_its_rows():
    config, dataset, bundle = _micro_bundle()
    emb = bundle.params["discriminator.E"]
    assert emb.shape == (2100, 64)
    for batch in list(batch_iter(dataset, config.batch_size, seed=1, epoch=1))[:2]:
        train_step(batch, bundle, config, b_top=config.b_top)
        assert emb.grad_rows is not None and 0 < emb.grad_rows.size < len(emb.data)
        assert emb.grad.shape == (len(emb.grad_rows), 64)


def test_dense_leaf_gradient_buffer_persists_across_steps():
    config, dataset, bundle = _micro_bundle()
    w_g = bundle.params["generator.W_g"]
    buffers = []
    for batch in list(batch_iter(dataset, config.batch_size, seed=1, epoch=1))[:3]:
        train_step(batch, bundle, config, b_top=config.b_top)
        assert w_g.grad_rows is None and w_g.grad.shape == w_g.shape
        buffers.append(w_g.grad)
    assert buffers[0] is buffers[1] is buffers[2]


def test_clip_grads_scales_a_block_in_place():
    w = param((6, 3), np.random.default_rng(2))
    _embedded(w, np.array([4, 1, 4]), np.full((3, 3), 10.0))
    block, rows = w.grad, w.grad_rows
    assert block.shape == (2, 3) and np.array_equal(rows, [1, 4])
    expected = block * (0.5 / global_grad_norm({"w": w}))
    clip_grads({"w": w}, 0.5)
    assert w.grad is block and w.grad_rows is rows
    assert block.tobytes() == expected.tobytes()


def _dense_backward(w, g):
    with t.record() as tape:
        tape.backward(t.sum_all(t.mul(w, t.constant(g))))


def test_cleared_buffer_is_not_reused_for_other_data():
    w = param((6, 3), np.random.default_rng(2))
    _dense_backward(w, np.ones((6, 3)))
    old = w.grad
    w.clear_grad()
    assert w.grad is None and w.grad_rows is None
    w.data = np.zeros((6, 3), dtype=np.float64 if w.data.dtype == np.float32 else np.float32)
    _dense_backward(w, np.full((6, 3), 2.0))
    assert w.grad is not old and w.grad.dtype == w.data.dtype
    assert np.all(w.grad == 2.0)


def test_train_step_leaves_no_reference_cycles():
    config, dataset, bundle = _micro_bundle()
    batches = list(batch_iter(dataset, config.batch_size, seed=1, epoch=1))[:2]
    gc.collect()
    gc.disable()
    try:
        for batch in batches:
            train_step(batch, bundle, config, b_top=config.b_top)
            assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# end to end


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_training_checkpoints_match_reference_update(tmp_path, monkeypatch, verify):
    """A micro run whose label table spans three blocks writes the same bytes
    with the reference update path patched in."""
    with verify_mode(verify):
        config, dataset, bundle = build_micro_problem(seed=5, num_labels=2100, n_docs=8)
        config = replace(config, embed_dim=64, epochs=3)
        assert 2 * BLOCK < 2100 * 64 < 3 * BLOCK
        train(dataset, config, cluster_map=bundle.cluster_map, out_dir=tmp_path / "new", log=lambda *_: None)
        with monkeypatch.context() as patch:
            patch.setattr(xmc.trainer, "adamw_step", _reference_adamw_step)
            patch.setattr(xmc.trainer, "clip_grads", _reference_clip_grads)
            patch.setattr(xmc.trainer, "swa_update", _reference_swa_update)
            patch.setattr(t, "embedding", _reference_embedding)
            train(dataset, config, cluster_map=bundle.cluster_map, out_dir=tmp_path / "ref", log=lambda *_: None)
    names = ["epoch001.ckpt", "epoch002.ckpt", "epoch003.ckpt", "final.ckpt"]
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
