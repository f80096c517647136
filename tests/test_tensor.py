"""Tensor-core unit tests: op semantics and finite-difference fidelity."""

import ast
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import tensor as T
from xmc.cluster import build_cluster_map, build_label_reps
from xmc.corpus import batch_iter
from xmc.errors import ConfigError, ContractError, DimensionError, NumericError
from xmc.synth import make_synthetic_corpus
from xmc.trainer import (TrainConfig, apply_preset, build_micro_problem, build_static_cache, init_bundle, joint_losses,
                         train_step)

from helpers import corpus_datasets, dense_grad, verify_mode


def fd_grad(f, x, h=1e-6):
    """Independent central-difference oracle for a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = f()
        flat[i] = orig - h
        lm = f()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = T.constant([[1.0, 0.0], [0.0, 1.0]])
    b = T.constant([[3.0], [4.0]])
    assert np.allclose(T.matmul(a, b).data, [[3.0], [4.0]])


def test_matmul_hand_value():
    a = T.constant([[1.0, 2.0]])
    b = T.constant([[3.0], [4.0]])
    assert np.allclose(T.matmul(a, b).data, [[11.0]])


def test_matmul_shape_error_mentions_both_shapes():
    with pytest.raises(DimensionError) as exc:
        T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_matmul_backward_matches_fd():
    with verify_mode():
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        w = T.constant(rng.normal(size=(3, 2)))
        with T.record() as tape:
            out = T.matmul(a, b)
            loss = T.sum_all(T.mul(out, w))
            tape.backward(loss)
        assert w.grad is None
        for p in (a, b):
            fd = fd_grad(lambda: float(T.mul(T.matmul(a, b), w).data.sum()), p.data)
            rel = np.abs(p.grad - fd) / np.maximum(1.0, np.abs(p.grad))
            assert rel.max() < 1e-4


# ---------------------------------------------------------------------------
# sigmoid / bce


def test_sigmoid_values_and_stability():
    y = T.sigmoid(T.constant([0.0, -100.0, 100.0])).data
    assert y[0] == pytest.approx(0.5)
    assert 0.0 < y[1] <= 1e-40
    assert not np.isnan(y).any()


def test_sigmoid_gradient_at_zero():
    with verify_mode():
        x = T.Tensor([0.0], requires_grad=True)
        with T.record() as tape:
            tape.backward(T.sum_all(T.sigmoid(x)))
        assert x.grad[0] == pytest.approx(0.25)


def test_bce_symmetry_case():
    k = 7
    p = T.constant(np.full(k, 0.5))
    y = np.array([1, 0, 1, 1, 0, 0, 1])
    assert float(T.bce_loss(p, y).data) == pytest.approx(k * math.log(2))


def test_bce_perfect_prediction_near_zero():
    p = T.constant([1.0 - 1e-12])
    assert float(T.bce_loss(p, np.array([1.0])).data) == pytest.approx(0.0, abs=1e-9)


def test_bce_hand_oracle():
    # -ln(0.9) - ln(0.9) = 0.2107...
    p = T.constant([0.9, 0.1])
    loss = float(T.bce_loss(p, np.array([1.0, 0.0])).data)
    assert loss == pytest.approx(-2 * math.log(0.9), rel=1e-6)


def test_bce_batch_mean_reduction():
    p = T.constant(np.full((3, 4), 0.5))
    y = np.zeros((3, 4))
    assert float(T.bce_loss(p, y).data) == pytest.approx(4 * math.log(2))


def test_bce_shape_mismatch():
    with pytest.raises(DimensionError):
        T.bce_loss(T.constant([0.5, 0.5]), np.array([1.0]))


def test_bce_nonnegative_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = T.constant(rng.uniform(1e-6, 1 - 1e-6, size=5))
        y = rng.integers(0, 2, size=5).astype(float)
        assert float(T.bce_loss(p, y).data) >= 0.0


# ---------------------------------------------------------------------------
# dropout


def test_dropout_identity_when_not_training():
    x = T.constant(np.arange(6, dtype=float))
    out = T.dropout(x, 0.5, training=False, rng=np.random.default_rng(0))
    assert out is x


def test_dropout_identity_rate_zero():
    x = T.constant(np.ones(5))
    out = T.dropout(x, 0.0, training=True, rng=np.random.default_rng(0))
    assert np.array_equal(out.data, x.data)


def test_dropout_rate_one_rejected():
    with pytest.raises(ConfigError):
        T.dropout(T.constant(np.ones(3)), 1.0, training=True, rng=np.random.default_rng(0))


def test_dropout_preserves_mean_large_sample():
    x = T.constant(np.ones(1_000_000))
    out = T.dropout(x, 0.5, training=True, rng=np.random.default_rng(42))
    assert abs(out.data.mean() - 1.0) < 0.01


# ---------------------------------------------------------------------------
# backward vs finite differences on randomized shapes (spec invariant)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 8),
    inner=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 10_000),
)
def test_random_graph_backward_matches_fd(rows, inner, cols, seed):
    with verify_mode():
        rng = np.random.default_rng(seed)
        a = T.Tensor(rng.normal(size=(rows, inner)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(inner, cols)), requires_grad=True)
        bias = T.Tensor(rng.normal(size=(cols,)), requires_grad=True)
        y = rng.integers(0, 2, size=(rows, cols)).astype(float)

        def forward():
            return T.bce_loss(T.sigmoid(T.add(T.matmul(a, b), bias)), y)

        def diamond():
            # h feeds two branches; its own node must see both contributions
            h = T.matmul(a, b)
            left = T.bce_loss(T.sigmoid(T.add(h, bias)), y)
            return T.add(left, T.sum_all(T.scale(T.mul(h, h), 0.5)))

        assert T.grad_check(forward, [a, b, bias]) < 1e-4
        assert T.grad_check(diamond, [a, b, bias]) < 1e-4


def test_backward_determinism_bit_identical():
    with verify_mode():
        def run():
            rng = np.random.default_rng(11)
            x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            with T.record() as tape:
                out = T.dropout(T.sigmoid(T.matmul(x, w)), 0.3, True, np.random.default_rng(5))
                tape.backward(T.bce_loss(out, np.zeros((4, 3))))
            return x.grad.copy(), w.grad.copy()

        g1 = run()
        g2 = run()
        assert all(np.array_equal(u, v) for u, v in zip(g1, g2))


def test_backward_populates_each_param_once():
    x = T.Tensor([2.0], requires_grad=True)
    with T.record() as tape:
        loss = T.sum_all(T.add(x, x))
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(2.0)


def test_nan_check_raises_in_verify_mode():
    with verify_mode():
        with pytest.raises(NumericError):
            T.Tensor([np.nan, 1.0])


def test_grad_check_requires_verify_mode():
    with pytest.raises(ContractError):
        T.grad_check(lambda: T.constant(0.0), [])


def test_grad_check_known_sigmoid_derivative():
    with verify_mode():
        x = T.Tensor([0.0], requires_grad=True)
        err = T.grad_check(lambda: T.sum_all(T.sigmoid(x)), [x])
        assert err < 1e-8


# ---------------------------------------------------------------------------
# misc ops used by the encoder


def test_softmax_rows_sum_to_one_and_masked_fill():
    x = T.constant(np.array([[1.0, 2.0, 3.0]]))
    keep = np.array([[True, True, False]])
    filled = T.masked_fill(x, keep, T.MASK_FILL)
    probs = T.softmax(filled, axis=-1).data
    assert probs[0, 2] == 0.0
    assert probs.sum() == pytest.approx(1.0)
    # keep= is masked_fill with MASK_FILL and softmax in one op, bit for bit,
    # also for random masks broadcast over heads and queries, fully masked
    # rows and masks that keep every key, in both dtypes
    assert np.array_equal(T.softmax(x, axis=-1, keep=keep).data, probs)
    rng = np.random.default_rng(12)
    for verify in (False, True):
        with verify_mode(verify):
            for trial in range(12):
                x = T.constant(rng.normal(scale=4.0, size=(5, 3, 6, 7)))
                keep = rng.random((5, 1, 1, 7)) < [0.0, 0.5, 1.0][trial % 3]
                keep[trial % 5] = trial % 2 == 0
                want = T.softmax(T.masked_fill(x, keep, T.MASK_FILL), axis=-1).data
                got = T.softmax(x, axis=-1, keep=keep).data
                assert got.dtype == want.dtype == T.default_dtype()
                assert got.tobytes() == want.tobytes()


def test_masked_softmax_backward_fd():
    """Masked key columns, broadcast over heads and queries, get no gradient,
    also in a fully masked row, whose softmax is uniform."""
    with verify_mode():
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.normal(size=(3, 2, 4, 5)), requires_grad=True)
        keep = np.array([[1, 1, 0, 1, 0], [1, 0, 0, 0, 1], [0, 0, 0, 0, 0]], dtype=bool)[:, None, None, :]
        w = T.constant(rng.normal(size=(3, 2, 4, 5)))

        def forward():
            return T.sum_all(T.mul(T.softmax(x, axis=-1, keep=keep), w))

        assert T.grad_check(forward, [x]) < 1e-4
        assert w.grad is None
        assert np.all(np.broadcast_to(~keep, x.shape) <= (x.grad == 0.0))


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 3)], ids=["2d", "3d"])
def test_linear_backward_fd(shape):
    with verify_mode():
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.normal(size=shape), requires_grad=True)
        w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(5,)), requires_grad=True)
        probe = T.constant(rng.normal(size=shape[:-1] + (5,)))

        def forward():
            return T.sum_all(T.mul(T.linear(x, w, b), probe))

        assert np.allclose(T.linear(x, w, b).data, x.data @ w.data + b.data)
        assert T.grad_check(forward, [x, w, b]) < 1e-4
        assert probe.grad is None


def test_linear_shape_error_mentions_all_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\).*\(5,\)"):
        T.linear(T.constant(np.zeros((2, 3))), T.constant(np.zeros((4, 5))), T.constant(np.zeros(5)))


def test_layer_norm_backward_fd():
    with verify_mode():
        rng = np.random.default_rng(7)
        x = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        g = T.Tensor(rng.normal(size=(5,)), requires_grad=True)
        b = T.Tensor(rng.normal(size=(5,)), requires_grad=True)
        w = T.constant(rng.normal(size=(3, 5)))

        def forward():
            return T.sum_all(T.mul(T.layer_norm(x, g, b), w))

        assert T.grad_check(forward, [x, g, b]) < 1e-4
        assert w.grad is None


def test_embedding_scatter_locality():
    w = T.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    ids = np.array([0, 2])
    with T.record() as tape:
        tape.backward(T.sum_all(T.embedding(w, ids)))
    assert np.all(dense_grad(w)[[0, 2]] == 1.0)
    assert np.all(dense_grad(w)[[1, 3]] == 0.0)


def test_take_concat_transpose_roundtrip_grads():
    with verify_mode():
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = T.constant(rng.normal(size=(2, 8)))

        def forward():
            first = T.take(x, 0, axis=1)
            swapped = T.transpose(x, (1, 0, 2))
            second = T.take(swapped, 1, axis=0)
            both = T.concat([first, second], axis=1)
            return T.sum_all(T.mul(both, w))

        assert T.grad_check(forward, [x]) < 1e-4
        assert w.grad is None


# ---------------------------------------------------------------------------
# the node rule: _node alone makes op outputs and tapes them


def test_only_outputs_that_require_a_gradient_are_taped():
    x = T.Tensor(np.ones((2, 3)), requires_grad=True)
    c = T.constant(np.full((2, 3), 2.0))
    with T.record() as tape:
        const = T.mul(c, c)
        assert len(tape) == 0 and not const.requires_grad
        out = T.mul(x, c)
        assert len(tape) == 1 and out.requires_grad
        tape.backward(T.sum_all(out))
    assert c.grad is None and const.grad is None
    assert np.array_equal(x.grad, c.data)


OPS = ("matmul", "linear", "add", "add_n", "mul", "scale", "sum_all", "reshape", "transpose", "take", "concat",
       "embedding", "masked_fill", "sigmoid", "gelu", "softmax", "layer_norm", "dropout", "bce_loss")


def test_node_rule_is_kept_in_one_place():
    """Parse tensor.py: only ``_node`` appends to a tape, only Tape and
    ``_node`` touch its nodes, no backward closure reads ``requires_grad``,
    and the ops, the functions with a backward closure, are exactly those
    that return through ``_node``."""
    tree = ast.parse(Path(T.__file__).read_text(encoding="utf-8"))
    outer = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    outer.update((f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef))

    def attributes(fn):
        return [n for n in ast.walk(fn) if isinstance(n, ast.Attribute)]

    def calls(fn, name):
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name for n in ast.walk(fn))

    appends = [name for name, fn in outer.items()
               if any(a.attr == "append" and isinstance(a.value, ast.Attribute) and a.value.attr == "_nodes"
                      for a in attributes(fn))]
    assert appends == ["_node"]
    touch = {name for name, fn in outer.items() if any(a.attr == "_nodes" for a in attributes(fn))}
    assert touch == {"Tape.__init__", "Tape.__len__", "Tape.backward", "_node"}
    closures = {name: [n for n in ast.walk(fn) if isinstance(n, ast.FunctionDef) and n is not fn]
                for name, fn in outer.items()}
    for name, inner in closures.items():
        assert not any(a.attr == "requires_grad" for bwd in inner for a in attributes(bwd)), name
    for name in OPS:  # a backward closure captures no input tensor
        fn = outer[name]
        tensors = {a.arg for a in fn.args.args + [fn.args.vararg] if a and "Tensor" in ast.unparse(a.annotation)}
        loads = {n.id for bwd in closures[name] for n in ast.walk(bwd) if isinstance(n, ast.Name)}
        params = {a.arg for bwd in closures[name] for a in bwd.args.args + [bwd.args.vararg] if a}
        assert tensors and not (tensors & loads) - params, name
    with_backward = {name for name, inner in closures.items() if inner}
    assert with_backward == {name for name, fn in outer.items() if calls(fn, "_node")} == set(OPS)
    assert not any(calls(outer[name], "Tensor") for name in OPS)


# ---------------------------------------------------------------------------
# tape release: backward frees each node and its output's gradient as it runs


def _keep_all_backward(tape, loss):
    """Reference loop that keeps every node and every op output's gradient
    until the tape dies, as backward did before it released them."""
    (loss._slot or loss)._accum(np.ones_like(loss.data))
    for slot, fn, inputs in reversed(tape._nodes):
        if slot._grad is not None:
            fn(slot._grad, *inputs)


def _micro_param_grads(backward):
    """Parameter gradients of one joint loss on the micro problem (float64),
    with frozen candidates and fixed dropout masks."""
    config, dataset, bundle = build_micro_problem()
    batch = next(batch_iter(dataset, config.batch_size, seed=config.seed, epoch=1))
    _, _, _, candidates = joint_losses(batch, bundle, b_top=config.b_top, training=False)
    bundle.rng = np.random.default_rng(17)
    with T.record() as tape:
        total, *_ = joint_losses(batch, bundle, candidates=candidates, training=True)
        slots = [slot for slot, _, _ in tape._nodes]
        backward(tape, total)
    return {n: p.grad for n, p in bundle.params.items()}, slots, tape


def test_backward_releases_nodes_and_op_output_grads():
    with verify_mode():
        grads, slots, tape = _micro_param_grads(T.Tape.backward)
        ref, _, _ = _micro_param_grads(_keep_all_backward)
    assert len(tape) == 0 and len(slots) > 50
    assert all(slot._grad is None for slot in slots)
    assert all(g is not None for g in grads.values())
    assert {n: g.tobytes() for n, g in grads.items()} == {n: g.tobytes() for n, g in ref.items()}


def test_tape_runs_backward_once():
    x = T.Tensor([2.0], requires_grad=True)
    with T.record() as tape:
        loss = T.sum_all(T.scale(x, 3.0))
        tape.backward(loss)
        with pytest.raises(ContractError, match="already ran"):
            tape.backward(loss)
    assert x.grad[0] == 3.0


def _chain_memory(op):
    """(before, held, peak, after) traced bytes around 40 chained ``op`` calls
    over a 1 MB float32 leaf and the backward of their sum."""
    mb = 1 << 20
    x = T.Tensor(np.ones(mb // 4, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with T.record() as tape:
            y = x
            for _ in range(40):
                y = op(y)
            loss = T.sum_all(y)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape
    return before, held, peak, after


def test_forward_holds_only_what_derivatives_read():
    """scale's derivative reads no array, so 40 chained scales over 1 MB keep
    only the last output alive until backward."""
    before, held, _, _ = _chain_memory(lambda y: T.scale(y, 1.001))
    assert held - before <= 2 * (1 << 20)


def test_backward_memory_stays_near_the_forward_hold():
    """40 chained sigmoids over a 1 MB tensor, whose derivative reads each
    output: backward frees each activation and gradient as it goes, so its
    peak stays near what the forward holds, and afterwards only the leaf's
    gradient and the last output remain."""
    mb = 1 << 20
    before, held, peak, after = _chain_memory(T.sigmoid)
    assert held - before > 40 * mb
    assert peak <= held + 8 * mb
    assert after - before <= 8 * mb


def _synth64_data(sampling="dynamic"):
    """(config, training set, vocab, cluster map) of a synth-64 run in the current mode."""
    config = apply_preset(TrainConfig(sampling_mode=sampling), "synth-64")
    sc = make_synthetic_corpus(n_train=64, n_test=8, seed=config.seed)
    train_ds, _, vocab = corpus_datasets(sc, max_len=config.max_len)
    cmap = build_cluster_map(build_label_reps(train_ds), config.cluster_size, config.seed)
    return config, train_ds, vocab, cmap


def _synth64_first_batch():
    """(config, vocab, cluster map, first batch) of a fast-mode synth-64 run."""
    config, train_ds, vocab, cmap = _synth64_data()
    return config, vocab, cmap, next(batch_iter(train_ds, config.batch_size, seed=config.seed, epoch=1))


def test_synth64_train_step_matches_keep_all_backward(monkeypatch):
    """One fast-mode synth-64 step writes the same gradients and weights
    whether backward releases its nodes or keeps them all."""
    config, vocab, cmap, batch = _synth64_first_batch()

    def step():
        bundle = init_bundle(config, vocab.size, cmap)
        losses = train_step(batch, bundle, config, config.b_top)
        return losses, {n: (p.data.tobytes(), p.grad.tobytes()) for n, p in bundle.params.items()}

    released = step()
    monkeypatch.setattr(T.Tape, "backward", _keep_all_backward)
    assert step() == released


def test_taped_closures_hold_no_op_output():
    """After a synth-64 joint forward, no backward closure on the tape holds a
    tensor other than a leaf, so the forward frees every output that no
    derivative reads."""
    config, vocab, cmap, batch = _synth64_first_batch()
    bundle = init_bundle(config, vocab.size, cmap)
    with T.record() as tape:
        joint_losses(batch, bundle, b_top=config.b_top, training=True)
        cells = [c.cell_contents for _, fn, _ in tape._nodes for c in fn.__closure__ or ()]
    assert len(tape) == 165 and cells
    held = [v for c in cells for v in (c if isinstance(c, (list, tuple)) else (c,))]
    assert not [v for v in held if isinstance(v, T.Tensor) and v._slot is not None]


# ---------------------------------------------------------------------------
# slots adopt the gradient they are handed


def _synth64_steps(sampling, steps):
    """Parameters, Adam moments and leaf gradients, as bytes, after ``steps``
    synth-64 train steps in the current mode."""
    config, train_ds, vocab, cmap = _synth64_data(sampling)
    bundle = init_bundle(config, vocab.size, cmap)
    cache = build_static_cache(train_ds, bundle) if sampling == "static" else None
    for batch in itertools.islice(batch_iter(train_ds, config.batch_size, seed=config.seed, epoch=1), steps):
        train_step(batch, bundle, config, config.b_top, cache)
    state = {n: (p.data.tobytes(), p.grad.tobytes()) for n, p in bundle.params.items()}
    return state, {n: (bundle.opt.m[n].tobytes(), bundle.opt.v[n].tobytes()) for n in bundle.opt.m}


@pytest.mark.parametrize("sampling", ["dynamic", "static"])
@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_no_backward_closure_writes_into_a_slot_gradient(monkeypatch, verify, sampling):
    """Every array a slot holds is made read-only and a synth-64 train step
    still runs: no closure writes into the gradient it is handed, or into one
    it handed on, so slots may keep and share what they are handed."""
    accum = T._Slot._accum

    def read_only(self, g):
        assert g.dtype == T.default_dtype()
        accum(self, g)
        self._grad.flags.writeable = False

    monkeypatch.setattr(T._Slot, "_accum", read_only)
    with verify_mode(verify):
        state, moments = _synth64_steps(sampling, steps=1)
    assert len(state) == len(moments) > 0


def test_slots_share_a_gradient_and_sum_out_of_place(monkeypatch):
    """add hands one array to the slots of a and b; a's other consumer then
    adds to a's gradient, which must leave b's untouched."""
    held = []
    accum = T._Slot._accum

    def recording(self, g):
        held.append((self, g, g.copy()))
        accum(self, g)

    x = T.Tensor([1.0, 2.0, 4.0], requires_grad=True)
    k = np.array([1.0, 3.0, 5.0])
    monkeypatch.setattr(T._Slot, "_accum", recording)
    with T.record() as tape:
        a, b = T.scale(x, 2.0), T.scale(x, 3.0)
        loss = T.add(T.sum_all(T.mul(a, T.constant(k))), T.sum_all(T.add(a, b)))
        tape.backward(loss)
    to_a = [g for slot, g, _ in held if slot is a._slot]
    (to_b, copy_b), = [(g, c) for slot, g, c in held if slot is b._slot]
    assert len(to_a) == 2 and to_a[0] is to_b
    assert to_b.tobytes() == copy_b.tobytes()
    assert x.grad.tobytes() == (2.0 * k + 5.0).astype(x.data.dtype).tobytes()


class _CopyingSlot:
    """The slot before slots adopted their gradients: it copies the first one
    into a fresh buffer in the layout ``np.empty_like`` gives its output's
    data, which turns -0.0 into +0.0, and adds later ones in place."""

    __slots__ = ("_grad", "_data")

    def __init__(self, data):
        self._grad, self._data = None, data

    def _accum(self, g):
        if self._grad is None:
            self._grad = np.add(g, 0.0, out=np.empty_like(self._data))
        else:
            self._grad += g


def _copying_node(data, inputs, backward):
    """``tensor._node`` with a copying slot on each taped output."""
    out = T.Tensor(data, any(x.requires_grad for x in inputs))
    if out.requires_grad and T._active is not None:
        out._slot = _CopyingSlot(out.data)
        T._active._nodes.append((out._slot, backward, [i._slot or i for i in inputs]))
    return out


@pytest.mark.parametrize("sampling", ["dynamic", "static"])
@pytest.mark.parametrize("verify", [False, True], ids=["float32", "float64"])
def test_train_steps_match_the_copying_slot(monkeypatch, verify, sampling):
    """Four synth-64 train steps leave parameters, Adam moments and leaf
    gradients byte-identical whether slots keep or copy their gradients."""
    with verify_mode(verify):
        adopted = _synth64_steps(sampling, steps=4)
        monkeypatch.setattr(T, "_node", _copying_node)
        copied = _synth64_steps(sampling, steps=4)
    assert copied == adopted
