"""AdamW with decoupled weight decay, gradient clipping and SWA averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingStateError
from .tensor import Tensor

# Parameter-name leaves that are exempt from weight decay by default
# (biases and layer-norm gains/shifts).
DECAY_EXEMPT_LEAVES = frozenset({"b", "b1", "b2", "b_g", "b_h", "beta", "gamma"})


def is_decay_exempt(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in DECAY_EXEMPT_LEAVES


@dataclass
class OptimizerState:
    """Per-parameter Adam moments plus the decoupled-decay bookkeeping."""

    learning_rate: float
    weight_decay: float
    decay_exempt: set[str] = field(default_factory=set)
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


# Elements per block of the streamed updates: 64 Ki float32 values are
# 256 KiB, so a block of a parameter, its moments and the scratch buffers
# stays in cache across the dozen elementwise passes of one update, where
# whole-array passes would stream each array from memory a dozen times.
BLOCK = 1 << 16


def _blocks(*arrays: np.ndarray):
    """Matching blocks of same-shape arrays, as (first row, blocks).

    Arrays of at most BLOCK elements form one block; larger ones are sliced
    along the first axis into blocks of about BLOCK elements, at least one
    row each.
    """
    a = arrays[0]
    if a.size <= BLOCK:
        yield 0, arrays
        return
    step = max(1, BLOCK * a.shape[0] // a.size)
    for start in range(0, a.shape[0], step):
        yield start, tuple(x[start : start + step] for x in arrays)


class _Scratch:
    """Work buffers for one block, shared by every parameter of one call."""

    def __init__(self, count: int):
        self.buffers = [np.empty(0)] * count

    def like(self, block: np.ndarray) -> list[np.ndarray]:
        if self.buffers[0].size < block.size or self.buffers[0].dtype != block.dtype:
            self.buffers = [np.empty(block.size, block.dtype) for _ in self.buffers]
        return [b[: block.size].reshape(block.shape) for b in self.buffers]


def adamw_step(params: dict[str, Tensor], state: OptimizerState) -> None:
    """One AdamW update over all parameters, in place.

    Decoupled weight decay is applied only to parameters not in
    ``state.decay_exempt``.  Every parameter must carry a gradient.

    A parameter of more than BLOCK elements is updated one block at a time
    with the elementwise operations of a whole-array update, in the same
    order, so the result is identical.  Where its gradient's ``grad_rows``
    hint is set, only those rows add gradient terms to the moments: on the
    other rows the gradient is zero, and adding its terms would change at
    most the sign of a zero moment.  Smaller parameters are updated whole,
    with numpy's own temporaries, which cost no more than scratch views.
    """
    for name, p in params.items():
        if p.grad is None:
            raise TrainingStateError(f"adamw_step: parameter '{name}' has no gradient")

    state.step_count += 1
    t = state.step_count
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1, c2 = 1.0 - b1, 1.0 - b2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    lr = state.learning_rate
    shrink = 1.0 - lr * state.weight_decay
    scratch = _Scratch(2)

    def update(p, g, m, v, touched, decay, s1=None, s2=None):
        # m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
        m *= b1
        v *= b2
        if touched is None:
            m += np.multiply(g, c1, out=s1)
            s1 = np.multiply(g, c2, out=s1)
            s1 *= g
            v += s1
        elif touched.size:
            gt = g[touched]
            m[touched] += c1 * gt
            v[touched] += c2 * gt * gt
        if decay:
            p *= shrink
        # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        s1 = np.divide(m, bc1, out=s1)
        s1 *= lr
        s2 = np.sqrt(np.divide(v, bc2, out=s2), out=s2)
        s2 += eps
        s1 /= s2
        p -= s1

    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        decay = state.weight_decay != 0.0 and name not in state.decay_exempt
        if p.data.size <= BLOCK:
            update(p.data, p.grad, m, state.v[name], None, decay)
            continue
        hint = p.grad_rows
        for start, (pb, gb, mb, vb) in _blocks(p.data, p.grad, m, state.v[name]):
            touched = None
            if hint is not None:
                lo, hi = np.searchsorted(hint, (start, start + len(pb)))
                touched = hint[lo:hi] - start
            update(pb, gb, mb, vb, touched, decay, *scratch.like(pb))


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so the global norm is at most ``max_norm``.

    A gradient with a ``grad_rows`` hint is zero outside those rows, so only
    they are scaled.
    """
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is None:
                continue
            if p.grad_rows is None:
                p.grad *= factor
            else:
                p.grad[p.grad_rows] *= factor
    return norm


@dataclass
class SwaState:
    """Running arithmetic mean of parameter snapshots."""

    count: int = 0
    average: dict[str, np.ndarray] = field(default_factory=dict)


def swa_update(state: SwaState, params: dict[str, Tensor]) -> SwaState:
    """Fold the current parameters into the running mean: avg += (p - avg)/(n+1).

    Streamed in row blocks like :func:`adamw_step`, with identical results.
    """
    n = state.count
    scratch = _Scratch(1)
    for name, p in params.items():
        if name not in state.average:
            state.average[name] = np.zeros_like(p.data)
        for _, (pb, avg) in _blocks(p.data, state.average[name]):
            (s1,) = scratch.like(pb)
            np.subtract(pb, avg, out=s1)
            s1 /= n + 1
            avg += s1
    state.count = n + 1
    return state
