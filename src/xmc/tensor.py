"""Dense tensors with tape-based reverse-mode differentiation.

Ops execute eagerly on numpy arrays. While a :class:`Tape` is active (see
:func:`record`), every differentiable op appends a backward closure to it;
``Tape.backward`` replays those closures in exact reverse execution order,
accumulating into ``.grad`` of each reachable tensor with ``requires_grad``.

Two global numeric modes exist: fast (float32) and verification (float64 with
NaN/Inf checking), toggled by :func:`set_verify_mode`.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError, DimensionError, NumericError

PROB_EPS = 1e-12  # probability clamp applied before any log()

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


@contextlib.contextmanager
def verify_mode(enabled: bool = True):
    """Temporarily switch the numeric mode (used heavily by tests)."""
    global _dtype, _nan_check
    prev_dtype, prev_check = _dtype, _nan_check
    set_verify_mode(enabled)
    try:
        yield
    finally:
        _dtype, _nan_check = prev_dtype, prev_check


class Tensor:
    """A dense row-major array plus an optional same-shape grad accumulator.

    ``grad_rows`` is a hint kept next to the dense gradient: when it is not
    None, ``grad`` is zero outside those sorted rows of the first axis, so
    clipping and the optimizer may skip the rest.  Only the embedding backward
    sets it; assigning ``grad`` or accumulating a dense gradient drops it.
    """

    __slots__ = ("data", "_grad", "grad_rows", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_dtype)
        self.requires_grad = requires_grad
        self._grad: np.ndarray | None = None
        self.grad_rows: np.ndarray | None = None
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

    def _accum(self, g: np.ndarray) -> None:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += g
        self.grad_rows = None

    def _accum_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` to the sorted, distinct ``rows`` of the gradient."""
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
            self.grad_rows = rows
        elif self.grad_rows is not None:
            self.grad_rows = np.union1d(self.grad_rows, rows)
        self._grad[rows] += values

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


class Tape:
    """Ordered record of executed differentiable ops.

    ``backward`` seeds the scalar loss with gradient 1 and replays the
    recorded closures in reverse execution order.  Tensors not on a path to
    the loss keep ``grad is None``.
    """

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        if loss.size != 1:
            raise ContractError("backward requires a scalar loss")
        loss._accum(np.ones_like(loss.data))
        for out, fn in reversed(self._nodes):
            if out.grad is not None:
                fn(out.grad)


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


def _trace(out: Tensor, fn: Callable[[np.ndarray], None]) -> None:
    if _active is not None and out.requires_grad:
        _active._nodes.append((out, fn))


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
    out = Tensor(a.data @ b.data, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accum(np.matmul(np.swapaxes(a.data, -1, -2), g))

    _trace(out, bwd)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    out = Tensor(a.data + b.data, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    _trace(out, bwd)
    return out


def add_n(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of same-shape tensors."""
    out = Tensor(sum(t.data for t in tensors), any(t.requires_grad for t in tensors))

    def bwd(g: np.ndarray) -> None:
        for t in tensors:
            if t.requires_grad:
                t._accum(g)

    _trace(out, bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    out = Tensor(a.data * b.data, a.requires_grad or b.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    _trace(out, bwd)
    return out


def scale(x: Tensor, factor: float) -> Tensor:
    out = Tensor(x.data * factor, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(g * factor)

    _trace(out, bwd)
    return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(np.full_like(x.data, float(g)))

    _trace(out, bwd)
    return out


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(g.reshape(x.shape))

    _trace(out, bwd)
    return out


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out = Tensor(np.transpose(x.data, axes), x.requires_grad)
    inverse = tuple(np.argsort(axes))

    def bwd(g: np.ndarray) -> None:
        x._accum(np.transpose(g, inverse))

    _trace(out, bwd)
    return out


def take(x: Tensor, index: int, axis: int) -> Tensor:
    """Select one slice along ``axis`` (the axis is dropped)."""
    out = Tensor(np.take(x.data, index, axis=axis), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        z = np.zeros_like(x.data)
        sl: list[slice | int] = [slice(None)] * x.ndim
        sl[axis] = index
        z[tuple(sl)] = g
        x._accum(z)

    _trace(out, bwd)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    out = Tensor(
        np.concatenate([t.data for t in tensors], axis=axis),
        any(t.requires_grad for t in tensors),
    )
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def bwd(g: np.ndarray) -> None:
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t.requires_grad:
                t._accum(piece)

    _trace(out, bwd)
    return out


def _row_sums(ids: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``ids`` and, for each, the sum of its slices of ``g``.

    ``np.add.at`` into a zero buffer of one row per distinct id, through flat
    element indices: every element of the sums receives the same additions,
    in the same order, as ``np.add.at`` into a zero array of the weight's
    shape, so the sums are bit-identical to it.
    """
    rows, inverse = np.unique(ids, return_inverse=True)
    width = math.prod(g.shape[ids.ndim :])
    sums = np.zeros(rows.size * width, dtype=g.dtype)
    np.add.at(sums, (inverse.reshape(-1, 1) * width + np.arange(width)).reshape(-1), g.reshape(-1))
    return rows, sums


def embedding(weight: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by non-negative ``ids``; backward adds only
    into the gathered rows of ``weight.grad`` and records them in
    ``weight.grad_rows``."""
    ids = np.asarray(ids)
    out = Tensor(weight.data[ids], weight.requires_grad)

    def bwd(g: np.ndarray) -> None:
        rows, sums = _row_sums(ids, g)
        weight._accum_rows(rows, sums.reshape(rows.shape + weight.shape[1:]))

    _trace(out, bwd)
    return out


def masked_fill(x: Tensor, keep: np.ndarray, fill: float) -> Tensor:
    """Where ``keep`` is False, replace by ``fill``; gradient passes only where kept."""
    out = Tensor(np.where(keep, x.data, fill), x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(np.where(keep, g, 0.0))

    _trace(out, bwd)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function; backward uses y(1-y)."""
    z = np.exp(-np.abs(x.data))
    y = np.where(x.data >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    out = Tensor(y, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(g * out.data * (1.0 - out.data))

    _trace(out, bwd)
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) via erf."""
    cdf = 0.5 * (1.0 + erf(x.data / math.sqrt(2.0)))
    out = Tensor(x.data * cdf, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        pdf = np.exp(-0.5 * x.data * x.data) / math.sqrt(2.0 * math.pi)
        x._accum(g * (cdf + x.data * pdf))

    _trace(out, bwd)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        dot = (g * out.data).sum(axis=axis, keepdims=True)
        x._accum(out.data * (g - dot))

    _trace(out, bwd)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = Tensor(xhat * gain.data + bias.data, x.requires_grad or gain.requires_grad or bias.requires_grad)

    def bwd(g: np.ndarray) -> None:
        if gain.requires_grad:
            gain._accum(_unbroadcast(g * xhat, gain.shape))
        if bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            x._accum((dxhat - m1 - xhat * m2) * inv)

    _trace(out, bwd)
    return out


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``rate``, scale survivors by 1/(1-rate)."""
    if rate < 0.0 or rate >= 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    keep = rng.random(x.shape) >= rate
    factor = 1.0 / (1.0 - rate)
    out = Tensor(x.data * keep * factor, x.requires_grad)

    def bwd(g: np.ndarray) -> None:
        x._accum(g * keep * factor)

    _trace(out, bwd)
    return out


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
    out = Tensor(elem.sum() / denom, p.requires_grad)

    def bwd(g: np.ndarray) -> None:
        p._accum(float(g) / denom * (-y / pc + (1.0 - y) / qc))

    _trace(out, bwd)
    return out


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], h: float = 1e-5) -> float:
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
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(f().data)
            flat[i] = orig - h
            lm = float(f().data)
            flat[i] = orig
            fd = (lp - lm) / (2.0 * h)
            err = abs(aflat[i] - fd) / max(1.0, abs(aflat[i]))
            if err > worst:
                worst = err
    return worst
