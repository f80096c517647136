"""Dense tensors with tape-based reverse-mode differentiation.

Ops execute eagerly on numpy arrays and make their outputs in one place,
:func:`_node`, under two rules.  An output requires a gradient iff one of its
inputs does, and only such an output is taped, while a :class:`Tape` records
(see :func:`record`).  Only a tensor that requires a gradient takes one:
``_accum`` and ``_accum_rows`` ignore the rest, so a backward closure states
its derivative alone.  ``Tape.backward`` replays the closures in exact
reverse execution order.  A tape runs backward once: each node, with the
activations its closure holds and its output's gradient, is released as soon
as it has run, so only leaf tensors such as parameters keep a gradient.

A third rule keeps the forward's hold small: a node keeps its output's
gradient :class:`_Slot` and the arrays its derivative reads, never a tensor;
its closure takes the inputs' accumulators (slots, or untaped tensors) as
arguments.  An activation no derivative reads dies with its last reference.

A slot keeps the first gradient it is handed, without a copy, and adds later
ones out of place, as PyTorch's ``AccumulateGrad`` does.  That holds because no
closure writes into the ``g`` it is handed or into an array it handed on, so
slots may share an array (``add``, ``add_n``, ``_unbroadcast``).  A tensor
copies its first dense gradient into a buffer in data's layout, turning -0.0
into +0.0; the embedding backward hands its weight a block of the rows it touched.

Two global numeric modes exist: fast (float32) and verification (float64 with
NaN/Inf checking), toggled by :func:`set_verify_mode`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericError

PROB_EPS = 1e-12  # probability clamp applied before any log()
GRAD_CHECK_STEP = 1e-5  # central-difference step of grad_check

# Additive pre-softmax fill for masked attention slots.  Finite (so NaN
# checking stays strict) but large enough that exp() underflows to exactly 0.
MASK_FILL = -1e30

_dtype = np.float32
_nan_check = False


def set_verify_mode(enabled: bool = True) -> None:
    """Switch between fast float32 mode and float64 verification mode.

    Verification mode also enables NaN/Inf detection on every op output.
    """
    global _dtype, _nan_check
    _dtype = np.float64 if enabled else np.float32
    _nan_check = bool(enabled)


def default_dtype() -> type:
    return _dtype


def verify_enabled() -> bool:
    return _nan_check


class _Slot:
    """A taped op output's gradient, kept by its node: the array it was handed, or a sum made out of place."""

    __slots__ = ("_grad",)

    def __init__(self):
        self._grad: np.ndarray | None = None

    def _accum(self, g: np.ndarray) -> None:
        self._grad = g if self._grad is None else self._grad + g


class Tensor:
    """A dense row-major array plus an optional gradient.

    While ``grad_rows`` is None, ``grad`` has data's shape.  When it is set,
    ``grad`` is a block: ``grad[i]`` is the gradient of row ``grad_rows[i]``
    (sorted, distinct) of the first axis, and every other row's is zero.  Only
    the embedding backward makes a block; assigning ``grad`` drops ``grad_rows``.

    :meth:`clear_grad` drops the gradient but keeps a dense one's buffer, which
    the next dense accumulation overwrites whole.
    """

    __slots__ = ("data", "requires_grad", "_grad", "grad_rows", "_spare", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self.grad_rows: np.ndarray | None = None
        self._slot: _Slot | None = None  # set by _node on a taped output
        self._spare: np.ndarray | None = None  # a cleared dense gradient's buffer
        if _nan_check and not np.all(np.isfinite(self.data)):
            raise NumericError("non-finite value in tensor")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value
        self.grad_rows = None
        self._spare = None

    def clear_grad(self) -> None:
        """Set ``grad`` to None and keep a dense gradient's buffer for the next accumulation."""
        if self.grad_rows is None and self._grad is not None:
            self._spare = self._grad
        self._grad = None
        self.grad_rows = None

    def _accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad_rows is not None:  # a block turns dense: written into zeros, then added to
            self._grad, self.grad_rows = self._dense_grad(), None
        if self._grad is None:
            # zeros + g in one pass: data's layout and dtype, and -0.0 becomes +0.0
            self._grad = np.add(g, 0.0, out=self._buffer())
        else:
            self._grad += g

    def _accum_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` to the sorted, distinct ``rows`` of the gradient."""
        if not self.requires_grad:
            return
        if self._grad is None:  # kept as it is: _row_sums adds from 0.0, so it holds no -0.0
            self._grad, self.grad_rows = values.astype(self.data.dtype, copy=False), rows
            return
        if self.grad_rows is not None:  # a second block: both, by union, into zeros
            union = np.union1d(self.grad_rows, rows)
            merged = np.zeros((union.size,) + self.data.shape[1:], self.data.dtype)
            merged[np.searchsorted(union, self.grad_rows)] = self._grad
            self._grad, self.grad_rows, rows = merged, union, np.searchsorted(union, rows)
        self._grad[rows] += values

    def _buffer(self) -> np.ndarray:
        """A dense gradient buffer in data's layout and dtype: the cleared one when
        it still fits ``data`` (verify mode and checkpoint loads swap ``data``)."""
        spare, self._spare = self._spare, None
        if spare is None or spare.shape != self.data.shape or spare.dtype != self.data.dtype:
            return np.empty_like(self.data)
        return spare

    def _dense_grad(self) -> np.ndarray:
        """A new dense array of the gradient, a block written into zeros."""
        dense = np.zeros_like(self.data)
        if self._grad is not None:
            dense[... if self.grad_rows is None else self.grad_rows] = self._grad
        return dense

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_Accum = _Slot | Tensor  # what a backward closure accumulates into: a slot, or an untaped tensor


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Ordered record of executed differentiable ops, used for one backward.

    ``backward`` seeds the scalar loss with gradient 1 and replays the
    recorded closures in reverse execution order.  It pops each node as it
    runs and takes its output's gradient out of the node's slot: every
    consumer of that output ran later in the forward pass, so the gradient is
    final and nothing reads it again.  Slots end without a gradient and the
    tape empty; leaves not on a path to the loss keep ``grad is None``.
    """

    __slots__ = ("_nodes", "_used")

    def __init__(self):
        self._nodes: list[tuple[_Slot, Callable[..., None], list[_Accum]]] = []
        self._used = False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError("backward requires a scalar loss")
        if self._used:
            raise ContractError("backward already ran on this tape")
        self._used = True
        (loss._slot or loss)._accum(np.ones_like(loss.data))
        while self._nodes:
            slot, fn, inputs = self._nodes.pop()
            g, slot._grad = slot._grad, None
            if g is not None:
                fn(g, *inputs)


_active: Tape | None = None


@contextlib.contextmanager
def record():
    """Activate a fresh tape for the duration of the block."""
    global _active
    prev = _active
    tape = Tape()
    _active = tape
    try:
        yield tape
    finally:
        _active = prev


def _node(data, inputs: Sequence[Tensor], backward: Callable[..., None]) -> Tensor:
    """An op's output: it requires a gradient iff some input does, and only
    then, while a tape records, is it taped as ``backward(g, *inputs' accumulators)``."""
    for x in inputs:
        if x.requires_grad:
            out = Tensor(data, True)
            if _active is not None:
                out._slot = _Slot()
                _active._nodes.append((out._slot, backward, [i._slot or i for i in inputs]))
            return out
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gd, sd) in enumerate(zip(g.shape, shape)):
        if sd == 1 and gd != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must match exactly."""
    if (
        a.ndim < 2
        or b.ndim < 2
        or a.shape[-1] != b.shape[-2]
        or a.shape[:-2] != b.shape[:-2]
    ):
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray, a: _Accum, b: _Accum) -> None:
        a._accum(np.matmul(g, np.swapaxes(bd, -1, -2)))
        b._accum(np.matmul(np.swapaxes(ad, -1, -2), g))

    return _node(ad @ bd, (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` as one node; ``w`` is (in, out)."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"linear: incompatible shapes {x.shape}, {w.shape} and {b.shape}")
    flat, wd, x_shape = x.data.reshape(-1, w.shape[0]), w.data, x.shape
    y = flat @ wd
    y += b.data

    def bwd(g: np.ndarray, x: _Accum, w: _Accum, b: _Accum) -> None:
        g = g.reshape(flat.shape[0], -1)
        b._accum(g.sum(axis=0))
        x._accum((g @ wd.T).reshape(x_shape))
        w._accum(flat.T @ g)

    return _node(y.reshape(x.shape[:-1] + w.shape[1:]), (x, w, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a_shape, b_shape = a.shape, b.shape

    def bwd(g: np.ndarray, a: _Accum, b: _Accum) -> None:
        a._accum(_unbroadcast(g, a_shape))
        b._accum(_unbroadcast(g, b_shape))

    return _node(a.data + b.data, (a, b), bwd)


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors."""

    def bwd(g: np.ndarray, *tensors: _Accum) -> None:
        for t in tensors:
            t._accum(g)

    return _node(sum(t.data for t in tensors), tensors, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    ad, bd = a.data, b.data

    def bwd(g: np.ndarray, a: _Accum, b: _Accum) -> None:
        a._accum(_unbroadcast(g * bd, ad.shape))
        b._accum(_unbroadcast(g * ad, bd.shape))

    return _node(ad * bd, (a, b), bwd)


def scale(x: Tensor, factor: float) -> Tensor:
    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(g * factor)

    return _node(x.data * factor, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.shape, x.data.dtype

    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(np.full(shape, float(g), dtype))

    return _node(x.data.sum(), (x,), bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x_shape = x.shape

    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(g.reshape(x_shape))

    return _node(x.data.reshape(shape), (x,), bwd)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))

    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(np.transpose(g, inverse))

    return _node(np.transpose(x.data, axes), (x,), bwd)


def take(x: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along ``axis`` (the axis is dropped)."""
    shape, dtype = x.shape, x.data.dtype

    def bwd(g: np.ndarray, x: _Accum) -> None:
        z = np.zeros(shape, dtype)
        sl: list[slice | int] = [slice(None)] * len(shape)
        sl[axis] = index
        z[tuple(sl)] = g
        x._accum(z)

    return _node(np.take(x.data, index, axis=axis), (x,), bwd)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g: np.ndarray, *tensors: _Accum) -> None:
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            t._accum(piece)

    return _node(np.concatenate([t.data for t in tensors], axis=axis), tensors, bwd)


def _row_sums(ids: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``ids`` and, for each, the sum of its slices of ``g``.

    A product with the 0/1 matrix that maps each position to its id's row:
    scipy adds each row's slices from 0.0 in position order, the additions
    ``np.add.at`` into a zero array of the weight's shape makes, so the sums
    are bit-identical to it.
    """
    rows, inverse = np.unique(ids, return_inverse=True)
    n = ids.size
    select = csr_array((np.ones(n, g.dtype), (inverse.reshape(-1), np.arange(n))), shape=(rows.size, n))
    return rows, select @ g.reshape(n, math.prod(g.shape[ids.ndim :]))


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of a leaf ``weight`` by non-negative ``ids``; backward hands
    ``weight`` a block of the gathered rows' gradients (``weight.grad_rows``)."""
    ids, row_shape = np.asarray(ids), weight.shape[1:]

    def bwd(g: np.ndarray, weight: Tensor) -> None:
        rows, sums = _row_sums(ids, g)
        weight._accum_rows(rows, sums.reshape(rows.shape + row_shape))

    return _node(weight.data[ids], (weight,), bwd)


def masked_fill(x: Tensor, keep: np.ndarray, fill: float) -> Tensor:
    """Where ``keep`` is False, replace by ``fill``; gradient passes only where kept."""

    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(np.where(keep, g, 0.0))

    return _node(np.where(keep, x.data, fill), (x,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function; backward uses y(1-y)."""
    z = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))

    def bwd(g: np.ndarray, x: _Accum) -> None:
        x._accum(g * y * (1.0 - y))

    return _node(y, (x,), bwd)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) via erf."""
    xd = x.data
    cdf = erf(xd / math.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5

    def bwd(g: np.ndarray, x: _Accum) -> None:
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer
        d = -0.5 * xd
        d *= xd
        np.exp(d, out=d)
        d /= math.sqrt(2.0 * math.pi)
        d *= xd
        d += cdf
        d *= g
        x._accum(d)

    return _node(xd * cdf, (x,), bwd)


def softmax(x: Tensor, axis: int = -1, keep: np.ndarray | None = None) -> Tensor:
    """Softmax along ``axis``; where ``keep`` is False, x counts as MASK_FILL and gets no gradient."""
    if keep is None:
        y = x.data - np.max(x.data, axis=axis, keepdims=True)
    else:
        y = x.data.copy()
        np.copyto(y, MASK_FILL, where=~keep)
        y -= np.max(y, axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)

    def bwd(g: np.ndarray, x: _Accum) -> None:
        d = g * y
        np.subtract(g, d.sum(axis=axis, keepdims=True), out=d)
        d *= y
        if keep is not None:
            d *= keep  # a signed zero where masked, which a leaf accumulates as +0.0
        x._accum(d)

    return _node(y, (x,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = x.data - mu
    xhat *= inv
    gd, gain_shape, bias_shape = gain.data, gain.shape, bias.shape
    y = xhat * gd
    y += bias.data

    def bwd(g: np.ndarray, x: _Accum, gain: _Accum, bias: _Accum) -> None:
        gain._accum(_unbroadcast(g * xhat, gain_shape))
        bias._accum(_unbroadcast(g, bias_shape))
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
        dxhat = g * gd
        m1 = dxhat.mean(axis=-1, keepdims=True)
        tmp = dxhat * xhat
        m2 = tmp.mean(axis=-1, keepdims=True)
        dxhat -= m1
        dxhat -= np.multiply(xhat, m2, out=tmp)
        dxhat *= inv
        x._accum(dxhat)

    return _node(y, (x, gain, bias), bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate)."""
    if rate < 0.0 or rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    y = x.data * keep
    y *= factor

    def bwd(g: np.ndarray, x: _Accum) -> None:
        d = g * keep
        d *= factor
        x._accum(d)

    return _node(y, (x,), bwd)


# ---------------------------------------------------------------------------
# losses


def bce_loss(p: Tensor, y: np.ndarray) -> Tensor:
    """Binary cross-entropy, summed over elements.

    Probabilities are clamped to [PROB_EPS, 1-PROB_EPS] before the log.  For a
    1-D input the result is the plain sum over elements; for a 2-D (batch x n)
    input per-row sums are averaged over the batch, keeping the magnitude
    batch-size invariant.
    """
    y = np.asarray(y, dtype=p.data.dtype)
    if y.shape != p.shape:
        raise DimensionError(f"bce_loss: shape mismatch {p.shape} vs {y.shape}")
    # Clamp each factor separately so the clamp stays effective in float32,
    # where 1 - PROB_EPS rounds to exactly 1.
    pc = np.clip(p.data, PROB_EPS, 1.0)
    qc = np.clip(1.0 - p.data, PROB_EPS, 1.0)
    elem = -(y * np.log(pc) + (1.0 - y) * np.log(qc))
    denom = float(p.shape[0]) if p.ndim == 2 else 1.0

    def bwd(g: np.ndarray, p: _Accum) -> None:
        p._accum(float(g) / denom * (-y / pc + (1.0 - y) / qc))

    return _node(elem.sum() / denom, (p,), bwd)


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor]) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must rebuild the full forward pass on each call (so dropout masks
    and candidate sets inside it must be deterministic).  Requires float64
    verification mode.  The relative error for each coordinate is
    ``|analytic - fd| / max(1, |analytic|)``.
    """
    if default_dtype() is not np.float64:
        raise ContractError("grad_check requires 64-bit verification mode")
    params = list(params)
    for p in params:
        p.grad = None
    with record() as tape:
        loss = f()
        if loss.size != 1:
            raise ContractError("grad_check requires a scalar loss")
        tape.backward(loss)
    analytic = [p._dense_grad() for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + GRAD_CHECK_STEP
            lp = float(f().data)
            flat[i] = orig - GRAD_CHECK_STEP
            lm = float(f().data)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * GRAD_CHECK_STEP)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
