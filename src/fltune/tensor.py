"""Dense float64 tensors with a reverse-mode differentiation tape.

Ops record onto the innermost active ``Tape`` of the current thread (or
context); ``Tape.backward`` replays the records in reverse order, releasing
each one as it is used. Every op works on 2-d row stacks; the two attention
ops treat their rows as ``batch`` packed examples split into ``heads`` column
blocks. ``check_gradients`` is the central finite-difference oracle used to
validate every backward formula in the package.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


# The innermost active tape. Each thread starts with its own empty context,
# so concurrent threads each record onto their own tape; tensors themselves
# are plain data and may be shared read-only across threads.
_ACTIVE_TAPE: ContextVar[Optional["Tape"]] = ContextVar("fltune_active_tape", default=None)


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients.

    ``requires_grad`` marks trainable leaves. Tensors produced by ops while a
    tape is active become tracked whenever any input is tracked or trainable,
    so frozen leaves never have gradients computed or buffers allocated.
    Zero-size dimensions are legal (the degenerate zero-unit adapter relies
    on them).
    """

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to 1-d; only copy
            # when actually needed so scalar losses keep their shape
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._tracked = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def needs_grad(self) -> bool:
        return self.requires_grad or self._tracked

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Use as a context manager around the forward computation, then call
    ``backward(loss)``. Using a fresh tape per training step guarantees no
    gradient state leaks across steps. A tape must stay on one thread.

    ``backward`` consumes the tape: it releases each record (with the output
    and saved arrays only it holds) as soon as the record's gradient has been
    propagated, so afterwards ``len(tape) == 0``, and a second ``backward`` on
    the same tape raises ``RuntimeError``.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []
        self._tokens = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        self._tokens.append(_ACTIVE_TAPE.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _ACTIVE_TAPE.get() is self, "tapes must be exited in LIFO order"
        _ACTIVE_TAPE.reset(self._tokens.pop())
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Populate ``grad`` on every trainable tensor reachable from ``loss``.

        Returns the map of trainable tensors to their gradients. Frozen
        tensors receive no grad buffer at all.
        """
        if self._consumed:
            raise RuntimeError("this tape's backward has already run; record a new tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        # id() keys are safe although records are released on the way: an
        # input was made before the record reading it, so it stays alive in an
        # earlier, not yet released record (or in ``leaves``), and no tensor
        # is created during this call that could reuse a freed id.
        acc: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        records = self._records
        while records:
            out, inputs, bw = records.pop()
            g = acc.pop(id(out), None)
            if g is None:
                continue
            for t, gi in zip(inputs, bw(g)):
                if gi is None:
                    continue
                prev = acc.get(id(t))
                acc[id(t)] = gi if prev is None else prev + gi
                if t.requires_grad:
                    leaves[id(t)] = t
        grad_map: dict[Tensor, np.ndarray] = {}
        for key, t in leaves.items():
            g = acc[key]
            t.grad = g if t.grad is None else t.grad + g
            grad_map[t] = t.grad
        return grad_map


def _record(out: Tensor, inputs: tuple[Tensor, ...], bw: Callable) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None and any(t.needs_grad() for t in inputs):
        out._tracked = True
        tape._records.append((out, inputs, bw))
    return out


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b`` for 2-d operands."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        ga = g @ b.data.T if a.needs_grad() else None
        gb = a.data.T @ g if b.needs_grad() else None
        return ga, gb

    return _record(out, (a, b), bw)


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w`` plus the 1xN row bias ``b``, then max(0, ·) when ``relu``.

    One output buffer: the bias is added and the clamp applied in place, so
    the values equal ``add(matmul(x, w), b)`` (and ``relu`` of it) bit for
    bit. The ReLU mask comes from the output, since out > 0 exactly where
    the pre-activation is > 0.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs 2-d operands, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(f"affine bias must be (1, {w.data.shape[1]}), got {b.data.shape}")
    y = x.data @ w.data
    y += b.data
    if relu:
        np.maximum(y, 0.0, out=y)

    def bw(g):
        if relu:
            g = g * (y > 0.0)
        gx = g @ w.data.T if x.needs_grad() else None
        gw = x.data.T @ g if w.needs_grad() else None
        gb = g.sum(axis=0, keepdims=True) if b.needs_grad() else None
        return gx, gw, gb

    return _record(Tensor(y), (x, w, b), bw)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {x.data.shape}")
    out = Tensor(x.data.T)

    def bw(g):
        return (g.T if x.needs_grad() else None,)

    return _record(out, (x,), bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a 1xN row bias against an MxN left operand.

    That row-vector case is the only broadcasting supported anywhere.
    """
    if a.data.shape == b.data.shape:
        row_bias = False
    elif (a.data.ndim == 2 and b.data.ndim == 2
          and b.data.shape == (1, a.data.shape[1])):
        row_bias = True
    else:
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)

    def bw(g):
        ga = g if a.needs_grad() else None
        if not b.needs_grad():
            gb = None
        elif row_bias:
            gb = g.sum(axis=0, keepdims=True)
        else:
            gb = g
        return ga, gb

    return _record(out, (a, b), bw)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)

    def bw(g):
        return (g * s if x.needs_grad() else None,)

    return _record(out, (x,), bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly 0 is fixed to 0.

    Finite-difference checks must avoid the kink; random inputs away from 0
    do that with probability one.
    """
    out = Tensor(np.maximum(x.data, 0.0))

    def bw(g):
        return (g * (x.data > 0.0) if x.needs_grad() else None,)

    return _record(out, (x,), bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction so huge logits cannot overflow."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)

    def bw(g):
        if not x.needs_grad():
            return (None,)
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (x,), bw)


def concat(a: Tensor, b: Tensor, axis: str) -> Tensor:
    """Block concatenation along ``"rows"`` or ``"cols"``.

    The backward pass splits the incoming gradient back to the two blocks.
    """
    if axis not in ("rows", "cols"):
        raise ShapeError(f"concat axis must be 'rows' or 'cols', got {axis!r}")
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"concat needs 2-d tensors, got {a.data.shape} and {b.data.shape}")
    ax = 0 if axis == "rows" else 1
    other = 1 - ax
    if a.data.shape[other] != b.data.shape[other]:
        raise ShapeError(
            f"concat along {axis}: non-concat dimension disagrees: {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=ax))
    split = a.data.shape[ax]

    def bw(g):
        if ax == 0:
            ga, gb = g[:split], g[split:]
        else:
            ga, gb = g[:, :split], g[:, split:]
        return (ga if a.needs_grad() else None,
                gb if b.needs_grad() else None)

    return _record(out, (a, b), bw)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"row_slice needs a 2-d tensor, got {x.data.shape}")
    if not (0 <= start <= stop <= x.data.shape[0]):
        raise ShapeError(f"row_slice [{start}:{stop}] out of range for shape {x.data.shape}")
    out = Tensor(x.data[start:stop].copy())

    def bw(g):
        if not x.needs_grad():
            return (None,)
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _record(out, (x,), bw)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of an embedding table; backward scatter-adds into the table."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a flat id sequence, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows id out of range [0, {table.data.shape[0]}): {ids}")
    out = Tensor(table.data[idx])

    def bw(g):
        if not table.needs_grad():
            return (None,)
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _record(out, (table,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization followed by a learned affine map.

    ``eps`` keeps the variance denominator away from zero on constant rows.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-d tensor, got {x.data.shape}")
    n = x.data.shape[1]
    if gain.data.shape != (1, n) or bias.data.shape != (1, n):
        raise ShapeError(
            f"layer_norm gain/bias must be (1, {n}), got {gain.data.shape} and {bias.data.shape}")
    # in place on two buffers, in the order of the textbook formulas:
    # xhat = (x - mu) / sqrt(var + eps), out = gain * xhat + bias
    mu = x.data.mean(axis=1, keepdims=True)
    xhat = x.data - mu
    out = np.square(xhat)
    std = np.sqrt(out.mean(axis=1, keepdims=True) + eps)
    xhat /= std
    np.multiply(gain.data, xhat, out=out)
    out += bias.data

    def bw(g):
        gx = gg = gb = None
        if gain.needs_grad():
            gg = (g * xhat).sum(axis=0, keepdims=True)
        if bias.needs_grad():
            gb = g.sum(axis=0, keepdims=True)
        if x.needs_grad():
            # (dxhat - m1 - xhat * m2) / std with dxhat = g * gain, on two buffers
            gx = g * gain.data
            m1 = gx.mean(axis=1, keepdims=True)
            tmp = gx * xhat
            m2 = tmp.mean(axis=1, keepdims=True)
            np.multiply(xhat, m2, out=tmp)
            gx -= m1
            gx -= tmp
            gx /= std
        return gx, gg, gb

    return _record(Tensor(out), (x, gain, bias), bw)


def cross_entropy_mean(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean cross entropy of row-wise logits against integer labels.

    Log-softmax uses max subtraction, so arbitrarily large logits stay finite.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_mean needs 2-d logits, got {logits.data.shape}")
    y = np.asarray(labels, dtype=np.intp)
    m, c = logits.data.shape
    if y.shape != (m,):
        raise ShapeError(f"labels must have length {m}, got shape {y.shape}")
    if m == 0:
        raise ShapeError("cross_entropy_mean needs at least one row")
    if y.min() < 0 or y.max() >= c:
        raise ShapeError(f"label out of range [0, {c}): {labels}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(m), y]
    out = Tensor(np.asarray((lse - picked).mean()))

    def bw(g):
        if not logits.needs_grad():
            return (None,)
        p = np.exp(shifted)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(m), y] -= 1.0
        return (p * (float(g) / m),)

    return _record(out, (logits,), bw)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum()))

    def bw(g):
        return (np.full_like(x.data, float(g)) if x.needs_grad() else None,)

    return _record(out, (x,), bw)


def _split_heads(x: Tensor, batch: int, heads: int, what: str) -> np.ndarray:
    """View (batch·T, heads·d) rows as (batch, heads, T, d) blocks."""
    if x.data.ndim != 2:
        raise ShapeError(f"{what} needs a 2-d tensor, got {x.data.shape}")
    rows, cols = x.data.shape
    if batch < 1 or heads < 1 or rows % batch or cols % heads:
        raise ShapeError(
            f"{what} of shape {x.data.shape} does not split into {batch} examples "
            f"x {heads} heads")
    return x.data.reshape(batch, rows // batch, heads, cols // heads).transpose(0, 2, 1, 3)


def _merge_heads(blocks: np.ndarray) -> np.ndarray:
    """(batch, heads, T, d) blocks back to (batch·T, heads·d) rows."""
    b, h, t, d = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(b * t, h * d)


def attention_weights(q: Tensor, k: Tensor, batch: int, heads: int, scale: float,
                      qx: Optional[Tensor] = None, kx: Optional[Tensor] = None) -> Tensor:
    """Softmax attention probabilities of every example and head.

    ``q`` packs ``batch`` examples of Tq query rows as (batch·Tq, heads·d) and
    ``k`` the same examples' Tk key rows as (batch·Tk, heads·d); head h owns
    columns h·d to (h+1)·d. Scores are q·kᵀ, plus qx·kxᵀ when the optional
    expansion rows (packed like ``q`` and ``k``) are given, times ``scale``.
    Each query row then takes a max-subtracted softmax over its own example's
    Tk keys. The result is (batch·heads·Tq, Tk), ordered by example, then
    head, then query row.
    """
    scale = float(scale)
    qb = _split_heads(q, batch, heads, "attention_weights q")
    kb = _split_heads(k, batch, heads, "attention_weights k")
    if qb.shape[3] != kb.shape[3]:
        raise ShapeError(f"attention_weights q {q.data.shape} and k {k.data.shape} disagree")
    inputs = (q, k)
    scores = qb @ kb.transpose(0, 1, 3, 2)
    if (qx is None) != (kx is None):
        raise ShapeError("attention_weights needs both qx and kx, or neither")
    if qx is not None:
        qxb = _split_heads(qx, batch, heads, "attention_weights qx")
        kxb = _split_heads(kx, batch, heads, "attention_weights kx")
        if qxb.shape[2:] != (qb.shape[2], kxb.shape[3]) or kxb.shape[2] != kb.shape[2]:
            raise ShapeError(
                f"attention_weights expansion rows qx {qx.data.shape} and kx "
                f"{kx.data.shape} do not match q {q.data.shape} and k {k.data.shape}")
        inputs = (q, k, qx, kx)
        scores += qxb @ kxb.transpose(0, 1, 3, 2)
    # in place from here: scores become the probabilities p
    scores *= scale
    scores -= scores.max(axis=3, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=3, keepdims=True)
    out = Tensor(p.reshape(-1, p.shape[3]))

    def bw(g):
        g = g.reshape(p.shape)
        gs = g - (g * p).sum(axis=3, keepdims=True)
        gs *= p
        gs *= scale
        grads = [_merge_heads(gs @ kb) if q.needs_grad() else None,
                 _merge_heads(gs.transpose(0, 1, 3, 2) @ qb) if k.needs_grad() else None]
        if qx is not None:
            grads += [_merge_heads(gs @ kxb) if qx.needs_grad() else None,
                      _merge_heads(gs.transpose(0, 1, 3, 2) @ qxb) if kx.needs_grad() else None]
        return grads

    return _record(out, inputs, bw)


def attention_values(a: Tensor, v: Tensor, batch: int, heads: int) -> Tensor:
    """Attention-weighted values of every example and head, heads side by side.

    ``a`` holds probabilities as ``attention_weights`` returns them,
    (batch·heads·Tq, Tk), and ``v`` packs value rows as (batch·Tk, heads·d).
    The result is (batch·Tq, heads·d): each example's rows, with head h's
    ``a @ v`` in columns h·d to (h+1)·d.
    """
    vb = _split_heads(v, batch, heads, "attention_values v")
    if a.data.ndim != 2 or a.data.shape[0] % (batch * heads) or a.data.shape[1] != vb.shape[2]:
        raise ShapeError(
            f"attention_values weights {a.data.shape} do not match {batch} examples x "
            f"{heads} heads of values {v.data.shape}")
    rows, tk = a.data.shape
    ab = a.data.reshape(batch, heads, rows // (batch * heads), tk)
    out = Tensor(_merge_heads(ab @ vb))

    def bw(g):
        gb = g.reshape(batch, ab.shape[2], heads, vb.shape[3]).transpose(0, 2, 1, 3)
        ga = (gb @ vb.transpose(0, 1, 3, 2)).reshape(rows, tk) if a.needs_grad() else None
        gv = _merge_heads(ab.transpose(0, 1, 3, 2) @ gb) if v.needs_grad() else None
        return ga, gv

    return _record(out, (a, v), bw)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def check_gradients(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    max_coords: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` must map ``x`` to a scalar tensor and must read ``x.data`` live on
    every call (it is fine for ``f`` to close over a larger model that shares
    ``x``). For tensors larger than ``max_coords`` elements, that many
    coordinates are sampled at random instead of probing every one.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    rng = np.random.default_rng(0) if rng is None else rng

    saved_flag, saved_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        with Tape() as tape:
            y = f(x)
            tape.backward(y)
        analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    finally:
        x.requires_grad = saved_flag
        x.grad = saved_grad

    n = x.data.size
    if n == 0:
        return 0.0
    if n <= max_coords:
        coords = np.arange(n)
    else:
        coords = rng.choice(n, size=max_coords, replace=False)

    flat = x.data.reshape(-1)
    flat_analytic = analytic.reshape(-1)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        try:
            flat[i] = orig + eps
            f_plus = f(x).item()
            flat[i] = orig - eps
            f_minus = f(x).item()
        finally:
            flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        err = abs(flat_analytic[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
