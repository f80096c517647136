"""The streamed label-side update against whole-array reference implementations.

The references below are the update path from before AdamW, clipping and SWA
were streamed through row blocks and the embedding backward stopped building
a dense gradient: whole-array AdamW, clipping that scales every gradient,
whole-array SWA, and an embedding whose backward scatters with ``np.add.at``
into a fresh zero matrix and accumulates it.  The new path performs the same
floating-point operations on every element, so params, moments, gradients
and SWA averages must be equal, not merely close, in both numeric modes.
"""

from dataclasses import replace

import numpy as np
import pytest

import xmc.trainer
from xmc import tensor as t
from xmc.optim import BLOCK, OptimizerState, SwaState, adamw_step, clip_grads, swa_update
from xmc.trainer import build_micro_problem, train

from helpers import param

# ---------------------------------------------------------------------------
# whole-array references


def _reference_adamw_step(params, state):
    state.step_count += 1
    step = state.step_count
    bc1 = 1.0 - state.beta1**step
    bc2 = 1.0 - state.beta2**step
    lr = state.learning_rate
    for name, p in params.items():
        g = p.grad
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        if state.weight_decay != 0.0 and name not in state.decay_exempt:
            p.data *= 1.0 - lr * state.weight_decay
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
    ids = np.asarray(ids)
    out = t.Tensor(weight.data[ids], weight.requires_grad)

    def bwd(g):
        gw = np.zeros_like(weight.data)
        np.add.at(gw, ids, g)
        weight._accum(gw)

    t._trace(out, bwd)
    return out


# ---------------------------------------------------------------------------
# one model, run through either path

SHAPES = [
    (1,),  # one element
    (37, 16),  # below one block
    (BLOCK // 64, 64),  # exactly one block
    (BLOCK + 1,),  # one element past a block
    (2100, 96),  # several blocks, not a multiple of the block size
]

# gradient kinds: "hinted" gets two embedding backwards (rows hint kept);
# "mixed" gets a dense term after its embedding backward (hint dropped);
# "mixed_rev" gets its embedding backward after a dense term; "dense" only
# dense terms
KINDS = ("hinted", "mixed", "mixed_rev", "dense")
EXEMPT = {"hinted_exempt", "dense_exempt"}


def _make_params(shape, rng):
    names = [*KINDS, "hinted_exempt", "dense_exempt"]
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
    for name in ("hinted", "hinted_exempt", "mixed", "mixed_rev"):
        draw[name] = [(i, grad(i.shape)) for i in (ids(), ids())]
    for name in ("mixed", "mixed_rev", "dense", "dense_exempt"):
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
        for name in ("hinted", "hinted_exempt"):
            emb(name, 0)
            emb(name, 1)
        dense("mixed")
        emb("mixed", 0)
        emb("mixed_rev", 0)
        dense("mixed_rev")
        dense("dense")
        dense("dense_exempt")
        tape.backward(t.add_n(terms))


def _assert_equal(a, b, what):
    assert a.dtype == b.dtype, what
    assert np.array_equal(a, b), what


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize("max_norm", [1e12, 1e-2], ids=["no-clip", "clip"])
@pytest.mark.parametrize("shape", SHAPES, ids=[str(s) for s in SHAPES])
def test_update_matches_whole_array_reference(shape, max_norm, verify):
    with t.verify_mode(verify):
        rng = np.random.default_rng(sum(shape))
        new = _make_params(shape, np.random.default_rng(0))
        ref = _make_params(shape, np.random.default_rng(0))
        new_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1, decay_exempt=set(EXEMPT))
        ref_opt = OptimizerState(learning_rate=1e-2, weight_decay=0.1, decay_exempt=set(EXEMPT))
        new_swa, ref_swa = SwaState(), SwaState()
        fired = []
        for step in range(4):
            draw = _draw_step(shape, rng)
            _backward(new, draw, t.embedding)
            _backward(ref, draw, _reference_embedding)
            for name in new:
                _assert_equal(new[name].grad, ref[name].grad, f"grad {name} step {step}")
            for name in ("hinted", "hinted_exempt"):
                touched = np.unique(np.concatenate([ids.ravel() for ids, _ in draw[name]]))
                assert np.array_equal(new[name].grad_rows, touched)
            for name in ("mixed", "mixed_rev", "dense", "dense_exempt"):
                assert new[name].grad_rows is None

            norm = clip_grads(new, max_norm)
            assert norm == _reference_clip_grads(ref, max_norm)
            fired.append(norm > max_norm)
            for name in new:
                _assert_equal(new[name].grad, ref[name].grad, f"clipped grad {name} step {step}")

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
# the rows hint


def _embedded(weight, ids, g):
    with t.record() as tape:
        tape.backward(t.sum_all(t.mul(t.embedding(weight, ids), t.constant(g))))


def test_assigning_grad_drops_hint_and_whole_array_is_used():
    with t.verify_mode():
        rng = np.random.default_rng(4)
        shape = (BLOCK // 32 + 3, 32)
        new = {"w": param(shape, np.random.default_rng(1))}
        ref = {"w": param(shape, np.random.default_rng(1))}
        _embedded(new["w"], np.array([0, 2, 2]), rng.normal(size=(3, 32)))
        assert np.array_equal(new["w"].grad_rows, [0, 2])
        # a value outside the hinted rows, written by assignment
        g = new["w"].grad.copy()
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
    with t.verify_mode():
        rng = np.random.default_rng(6)
        w = param((50, 4), rng)
        ids_a, ids_b = rng.integers(0, 20, size=(3, 7)), rng.integers(10, 40, size=11)
        g_a, g_b = rng.normal(size=(3, 7, 4)) * 1e3, rng.normal(size=(11, 4)) * 1e-3
        with t.record() as tape:
            tape.backward(t.add(t.sum_all(t.mul(t.embedding(w, ids_a), t.constant(g_a))),
                                t.sum_all(t.mul(t.embedding(w, ids_b), t.constant(g_b)))))
        # backward runs the second call first; each call's scatter is
        # accumulated as a whole, as the dense backward did
        first, second = np.zeros((50, 4)), np.zeros((50, 4))
        np.add.at(first, ids_b, g_b)
        np.add.at(second, ids_a, g_a)
        expected = np.zeros((50, 4))
        expected += first
        expected += second
        _assert_equal(w.grad, expected, "grad")
        assert np.array_equal(w.grad_rows, np.union1d(ids_a, ids_b))


# ---------------------------------------------------------------------------
# end to end


@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_training_checkpoints_match_reference_update(tmp_path, monkeypatch, verify):
    """A micro run whose label table spans three blocks writes the same bytes
    with the reference update path patched in."""
    with t.verify_mode(verify):
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
