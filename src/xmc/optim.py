"""AdamW with decoupled weight decay, gradient clipping and SWA averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingStateError
from .tensor import Tensor

# Parameter-name leaves that are exempt from weight decay
# (biases and layer-norm gains/shifts).
DECAY_EXEMPT_LEAVES = frozenset({"b", "b1", "b2", "b_g", "b_h", "beta", "gamma"})
BETA1, BETA2 = 0.9, 0.999  # decay rates of Adam's first and second moments
EPS = 1e-8  # keeps the update's denominator above zero


def is_decay_exempt(name: str) -> bool:
    return name.rsplit(".", 1)[-1] in DECAY_EXEMPT_LEAVES


@dataclass
class OptimizerState:
    """Per-parameter Adam moments plus the step size and decoupled decay.

    ``live`` holds, for a parameter of more than BLOCK elements whose
    gradients have all been blocks of rows (``grad_rows``) since its moments
    were created, the sorted union of those rows: outside it both moments are
    exactly +0.0.  None, or no entry, means any row may have moved.
    """

    learning_rate: float
    weight_decay: float
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray | None] = field(default_factory=dict)


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

    Decoupled weight decay skips the parameters :func:`is_decay_exempt`
    names.  Every parameter must carry a gradient.

    A parameter of more than BLOCK elements is updated one block at a time
    with the elementwise operations of a whole-array update, in the same
    order, so the result is identical.  Where its gradient is a block of
    rows (``grad_rows``), only those rows add gradient terms to the moments:
    on the other rows the gradient is zero, and adding its terms would change
    at most the sign of a zero moment.  A row outside every block since the
    moments were created (``state.live``) has m = v = +0.0, so its whole
    update is the decay ``p *= shrink``: the step term is exactly +0.0, and
    p - (+0.0) is p.  While ``state.live`` holds a row set, each block gets
    the decay on every row and the rest of the update on its live rows
    alone, gathered into scratch.  Smaller parameters are updated whole,
    with numpy's own temporaries, which cost no more than scratch views; a
    block adds its gradient terms to its rows alone there too.
    """
    for name, p in params.items():
        if p.grad is None:
            raise TrainingStateError(f"adamw_step: parameter '{name}' has no gradient")

    state.step_count += 1
    t = state.step_count
    c1, c2 = 1.0 - BETA1, 1.0 - BETA2
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    lr = state.learning_rate
    shrink = 1.0 - lr * state.weight_decay
    scratch = _Scratch(5)

    def update(p, m, v, g, rows, decay, s1=None, s2=None):
        # g is the whole gradient, or the block of ``rows`` when they are given
        # m = m*b1 + (1-b1)*g;  v = v*b2 + ((1-b2)*g)*g
        m *= BETA1
        v *= BETA2
        if rows is None:
            m += np.multiply(g, c1, out=s1)
            s1 = np.multiply(g, c2, out=s1)
            s1 *= g
            v += s1
        elif rows.size:
            m[rows] += c1 * g
            v[rows] += c2 * g * g
        if decay:
            p *= shrink
        # p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)
        s1 = np.divide(m, bc1, out=s1)
        s1 *= lr
        s2 = np.sqrt(np.divide(v, bc2, out=s2), out=s2)
        s2 += EPS
        s1 /= s2
        p -= s1

    for name, p in params.items():
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
            if p.data.size > BLOCK:
                state.live[name] = np.empty(0, dtype=np.int64)  # no row has moved yet
        v = state.v[name]
        decay = state.weight_decay != 0.0 and not is_decay_exempt(name)
        if p.data.size <= BLOCK:
            update(p.data, m, v, p.grad, p.grad_rows, decay)
            continue
        touched = p.grad_rows
        live = state.live.get(name)
        if live is not None:  # a dense gradient may move every row, from now on
            live = state.live[name] = None if touched is None else np.union1d(live, touched)
        for start, (pb, mb, vb) in _blocks(p.data, m, v):
            end = start + len(pb)
            gb, rows = p.grad[start:end], None
            if touched is not None:
                lo, hi = np.searchsorted(touched, (start, end))
                gb, rows = p.grad[lo:hi], touched[lo:hi] - start
            kept = None
            if live is not None:
                lo, hi = np.searchsorted(live, (start, end))
                kept = live[lo:hi] - start
            if kept is None:
                update(pb, mb, vb, gb, rows, decay, *scratch.like(pb)[:2])
                continue
            if decay:
                pb *= shrink
            if not kept.size:
                continue
            sub = scratch.like(pb[: kept.size])
            for whole, part in zip((pb, mb, vb), sub):
                np.take(whole, kept, axis=0, out=part, mode="clip")
            update(*sub[:3], gb, np.searchsorted(kept, rows), False, *sub[3:])
            for whole, part in zip((pb, mb, vb), sub):
                whole[kept] = part


def _square_sum(block: np.ndarray, rows: np.ndarray, width: int, lo: int, n: int, buf: np.ndarray):
    """The sum of squares of values ``lo : lo + n`` of the flat dense gradient
    that ``block`` stands for (its sorted ``rows`` of ``width`` values, zeros
    elsewhere), as numpy's pairwise sum of the dense squares forms it.

    numpy sums a contiguous run of more than 128 values as the sum of its
    first ``n2 = n//2 - (n//2 % 8)`` values plus the sum of the rest, so larger
    nodes split where numpy splits them.  A node that holds none of the rows
    adds an exact +0.0.  A node of at most BLOCK values is rebuilt in ``buf``,
    its rows in zeros, and its squares are summed at its own offset.  Not a
    closure, so no reference cycle keeps ``block`` alive.
    """
    top, end = lo // width, -(-(lo + n) // width)  # the rows the node overlaps
    first, last = np.searchsorted(rows, (top, end))
    if first == last:
        return block.dtype.type(0.0)
    if n <= BLOCK:
        node = buf[: (end - top) * width].reshape(-1, width)
        node.fill(0.0)
        node[rows[first:last] - top] = block[first:last].reshape(-1, width)
        part = node.reshape(-1)[lo - top * width : lo - top * width + n]
        return np.multiply(part, part, out=part).sum()
    half = n // 2
    half -= half % 8
    return _square_sum(block, rows, width, lo, half, buf) + _square_sum(block, rows, width, lo + half, n - half, buf)


def global_grad_norm(params: dict[str, Tensor]) -> float:
    """sqrt of the sum over gradients of ``float((g * g).sum())``, bit for bit;
    a block is summed as its dense gradient would be, without forming it."""
    total = 0.0
    for p in params.values():
        g, rows = p.grad, p.grad_rows
        if rows is not None:
            width = p.data.size // len(p.data)
            buf = np.empty(min(p.data.size, BLOCK) + 2 * width, g.dtype)
            total += float(_square_sum(g, rows, width, 0, p.data.size, buf))
        elif g is not None:
            total += float((g * g).sum())
    return float(np.sqrt(total))


def clip_grads(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients in place so the global norm is at most ``max_norm``."""
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:  # in place: assigning ``p.grad`` would drop a block's rows
                np.multiply(p.grad, factor, out=p.grad)
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
