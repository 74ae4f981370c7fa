"""Dense float64 tensors with a reverse-mode differentiation tape.

Ops record onto the innermost active ``Tape`` of the current thread (or
context); ``Tape.backward`` replays the records in reverse order, releasing
each one as it is used. Every op works on 2-d row stacks; the two attention
ops treat their rows as ``batch`` packed examples split into ``heads`` column
blocks. ``check_gradients`` is the central finite-difference oracle used to
validate every backward formula in the package.

A record holds gradient keys and the arrays its backward formula reads, never
the op's output or input tensors. When it records, an op fixes which inputs
need a gradient and keeps only what those gradients read: ``matmul`` and
``affine`` the other operand of each such input (``affine`` with ReLU, and
``relu``, also a bool mask of the positive entries), ``layer_norm`` ``xhat``,
the row std and the gain, the attention ops the head blocks each gradient
reads (``attention_weights`` also its probabilities, as ``softmax_rows``
keeps its output), ``cross_entropy_mean`` its shifted logits, and the
shape-only ops (``gather_rows``, ``row_slice``, ``sum_all``) and flag-only
ops (``add``, ``concat``, ``transpose``, ``scale``) no array at all. Any
other array is freed during the forward pass as soon as the caller drops it.
An op that does not record (no active tape, or no input needing a gradient)
builds no backward closure or mask.

The row kernels keep NumPy's per-call overhead down without changing a bit.
``layer_norm`` normalizes the sum of ``x`` and its keyword operand
``residual``, so a post-norm residual step is one op and one record. Row
reductions call ``np.add.reduce`` and divide in place by the count, as
``ndarray.mean`` does behind its Python wrappers. ``gather_rows``' backward
scatter-adds with one ``np.bincount`` over flat element positions, which adds
each element's rows in id order onto +0.0 exactly as ``np.add.at`` into
zeros would. The softmax shifts of ``attention_weights`` and
``cross_entropy_mean`` take a narrow row's max across a transposed copy, so
NumPy reduces all rows in one vectorized pass instead of one short loop per
row; a max is exact in any order.

``matmul`` and ``affine`` form their forward and both backward products in
``_product``. If, at import, BLAS runs one thread (``OPENBLAS_NUM_THREADS``,
else ``OMP_NUM_THREADS``, is 1) and ``os.sched_getaffinity`` holds two CPUs or
more (``taskset -c 0`` holds one), a product of at least 2^22 multiply-adds
(the measured break-even) and 48 rows splits: a daemon worker thread computes
its trailing rows under the caller's ``np.geterr``. Splits fall on multiples
of 24 rows, so each row keeps its kind of dgemm tile, and so its bits (README.md).

Importing this module tunes the C allocator of the whole process, on Linux
with glibc only and with no setting to turn it off. Every other fltune module
imports this one, so importing any of them tunes it; a bare ``import fltune``
does not. The mmap threshold is fixed at 32 MiB and the trim threshold at
1 GiB. A training step frees most of its memory as ``backward`` releases
records, and glibc's defaults (a 128 KiB trim threshold, and large blocks
served by ``mmap``) would hand it back to the kernel after every step, so the
next step, evaluation pass or model build page-faults it in again. With both
set, freed memory stays mapped and is reused, and the resident size stays at
its high-water mark between steps. The mmap threshold has to be set as well
because fixing the trim threshold alone switches off glibc's dynamic mmap
threshold, which makes the large blocks fault on every allocation. Outside
glibc nothing is set.
"""

from __future__ import annotations

import ctypes
import os
import platform
import threading
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np


_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 1 << 30


def _keep_freed_memory_mapped() -> None:
    """Set glibc's mmap and trim thresholds (see the module docstring); a
    no-op outside glibc. A ``mallopt`` that refuses (returns 0) leaves the
    defaults, which only costs speed."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_memory_mapped()


class ShapeError(ValueError):
    """Operand shapes violate an op contract."""


# The innermost active tape. Each thread starts with its own empty context,
# so concurrent threads each record onto their own tape; tensors themselves
# are plain data and may be shared read-only across threads.
_ACTIVE_TAPE: ContextVar[Optional["Tape"]] = ContextVar("fltune_active_tape", default=None)


class Tensor:
    """A dense row-major float64 array, optionally tracked for gradients.

    ``requires_grad`` marks trainable leaves. Tensors produced by ops while a
    tape is active become tracked whenever any input is tracked or trainable:
    they get a gradient key, under which ``backward`` accumulates their
    gradient. Frozen leaves never have gradients computed or buffers
    allocated. Zero-size dimensions are legal (the degenerate zero-unit
    adapter relies on them).
    """

    __slots__ = ("data", "requires_grad", "grad", "_key")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d scalars to 1-d; only copy
            # when actually needed so scalar losses keep their shape
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # set when an op records this tensor: a fresh object, equal only to
        # itself, so unlike an id() it can never be reused by a tensor made
        # after another was freed, on any tape
        self._key: Optional[object] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def needs_grad(self) -> bool:
        return self.requires_grad or self._key is not None

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

    A record is ``(out_key, input_slots, bw)``: the gradient key of the op's
    output; one slot per input, holding the input's key, the input itself when
    it is a ``requires_grad`` leaf (so ``backward`` can set its ``grad``), or
    None when it needs no gradient; and the backward closure, which holds only
    the arrays its formula reads. Which inputs get a gradient is fixed when
    the op records: setting ``requires_grad`` on an input afterwards gives it
    no gradient from that record.

    ``backward`` consumes the tape: it releases each record (with the saved
    arrays only it holds) as soon as the record's gradient has been
    propagated, so afterwards ``len(tape) == 0``, and a second ``backward`` on
    the same tape raises ``RuntimeError``.

    Tapes nest; exiting one that is not the active tape raises ``RuntimeError``
    and leaves the active tape as it was.
    """

    def __init__(self):
        self._records: list[tuple[object, tuple[Optional[object], ...], Callable]] = []
        self._tokens = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        self._tokens.append(_ACTIVE_TAPE.set(self))
        return self

    def __exit__(self, exc_type, exc, tb):
        if _ACTIVE_TAPE.get() is not self:
            raise RuntimeError("tapes must be exited in the reverse order of entry")
        _ACTIVE_TAPE.reset(self._tokens.pop())
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate ``grad`` on every trainable tensor reachable from ``loss``.
        Frozen tensors receive no grad buffer at all."""
        if self._consumed:
            raise RuntimeError("this tape's backward has already run; record a new tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._consumed = True
        # keyed by gradient key, or by the tensor itself for a leaf
        acc: dict = {loss._key: np.ones_like(loss.data)}
        records = self._records
        while records:
            key, slots, bw = records.pop()
            g = acc.pop(key, None)
            if g is None:
                continue
            for slot, gi in zip(slots, bw(g)):
                if slot is None:
                    continue
                prev = acc.get(slot)
                acc[slot] = gi if prev is None else prev + gi
        for slot, g in acc.items():
            if isinstance(slot, Tensor):
                slot.grad = g if slot.grad is None else slot.grad + g


def _needs(*inputs: Tensor) -> Optional[tuple[bool, ...]]:
    """Which ``inputs`` need a gradient, or None when the op records nothing:
    no tape is active or no input needs one."""
    if _ACTIVE_TAPE.get() is None:
        return None
    needs = tuple(t.needs_grad() for t in inputs)
    return needs if any(needs) else None


def _record(out: Tensor, inputs: tuple[Tensor, ...], needs: tuple[bool, ...],
            bw: Callable) -> Tensor:
    """Track ``out`` and append its record to the active tape; ``needs`` is
    what ``_needs(*inputs)`` returned and ``bw`` returns one gradient per
    input, None where ``needs`` is False."""
    out._key = object()
    slots = tuple(None if not need else t if t.requires_grad else t._key
                  for t, need in zip(inputs, needs))
    _ACTIVE_TAPE.get()._records.append((out._key, slots, bw))
    return out


_SPLIT_MIN, _SPLIT_ROWS = 1 << 22, 24  # row-split products: see the module docstring
_CAN_SPLIT = (len(getattr(os, "sched_getaffinity", lambda _: ())(0)) >= 2 and (
    os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")) == "1")
_worker: dict = {}  # "jobs": the worker thread's queue, once one runs here
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_worker.clear)


def _work(jobs) -> None:
    while True:
        a, b, out, err, call, done = jobs.get()
        try:
            with np.errstate(call=call, **err):
                np.matmul(a, b, out=out)
            done.put(None)
        except Exception as exc:  # re-raised by the caller
            done.put(exc)
        del a, b, out, done  # hold no job's arrays while waiting for the next


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of 2-d arrays, bit for bit (see the module docstring)."""
    if not _CAN_SPLIT or len(a) < 2 * _SPLIT_ROWS or a.size * b.shape[1] < _SPLIT_MIN:
        return a @ b
    import queue  # only here: a run that never splits imports nothing new
    fresh = queue.SimpleQueue()  # the worker's queue if no worker runs yet
    if _worker.setdefault("jobs", fresh) is fresh:  # one winner if threads race
        threading.Thread(target=_work, args=(fresh,), daemon=True).start()
    h = _SPLIT_ROWS * round(len(a) / (2 * _SPLIT_ROWS))
    out, done = np.empty((len(a), b.shape[1])), queue.SimpleQueue()
    _worker["jobs"].put((a[h:], b, out[h:], np.geterr(), np.geterrcall(), done))
    try:
        np.matmul(a[:h], b, out=out[:h])
    finally:
        error = done.get()
    if error is not None:
        raise error
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
    out = Tensor(_product(a.data, b.data))
    needs = _needs(a, b)
    if needs is None:
        return out
    need_a, need_b = needs
    ad = a.data if need_b else None
    bd = b.data if need_a else None

    def bw(g):
        return (_product(g, bd.T) if need_a else None,
                _product(ad.T, g) if need_b else None)

    return _record(out, (a, b), needs, bw)


def affine(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """``x @ w`` plus the 1xN row bias ``b``, then max(0, ·) when ``relu``.

    One output buffer: the bias is added and the clamp applied in place, so
    the values equal NumPy's ``x @ w + b`` (and ``np.maximum`` of it and 0)
    bit for bit. The ReLU mask comes from the output, since out > 0 exactly
    where the pre-activation is > 0; a recording op keeps that bool mask, not
    the output.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs 2-d operands, got {x.data.shape} and {w.data.shape}")
    if x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine inner dimensions disagree: {x.data.shape} x {w.data.shape}")
    if b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(f"affine bias must be (1, {w.data.shape[1]}), got {b.data.shape}")
    y = _product(x.data, w.data)
    y += b.data
    if relu:
        np.maximum(y, 0.0, out=y)
    out = Tensor(y)
    needs = _needs(x, w, b)
    if needs is None:
        return out
    need_x, need_w, need_b = needs
    xd = x.data if need_w else None
    wd = w.data if need_x else None
    mask = y > 0.0 if relu else None

    def bw(g):
        if mask is not None:
            g = g * mask
        return (_product(g, wd.T) if need_x else None,
                _product(xd.T, g) if need_w else None,
                g.sum(axis=0, keepdims=True) if need_b else None)

    return _record(out, (x, w, b), needs, bw)


def transpose(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-d tensor, got {x.data.shape}")
    out = Tensor(x.data.T)
    needs = _needs(x)
    if needs is None:
        return out

    def bw(g):
        return (g.T,)

    return _record(out, (x,), needs, bw)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; ``add`` never broadcasts."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data)
    needs = _needs(a, b)
    if needs is None:
        return out
    need_a, need_b = needs

    def bw(g):
        return (g if need_a else None), (g if need_b else None)

    return _record(out, (a, b), needs, bw)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    out = Tensor(x.data * s)
    needs = _needs(x)
    if needs is None:
        return out

    def bw(g):
        return (g * s,)

    return _record(out, (x,), needs, bw)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x). The subgradient at exactly 0 is fixed to 0.

    Finite-difference checks must avoid the kink; random inputs away from 0
    do that with probability one.
    """
    out = Tensor(np.maximum(x.data, 0.0))
    needs = _needs(x)
    if needs is None:
        return out
    mask = x.data > 0.0

    def bw(g):
        return (g * mask,)

    return _record(out, (x,), needs, bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction so huge logits cannot overflow."""
    if x.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d tensor, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    out = Tensor(p)
    needs = _needs(x)
    if needs is None:
        return out

    def bw(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return _record(out, (x,), needs, bw)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """``a``'s rows, then ``b``'s; backward splits the gradient back by rows."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"concat needs 2-d tensors, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(
            f"concat: non-concat dimension disagrees: {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.concatenate([a.data, b.data]))
    needs = _needs(a, b)
    if needs is None:
        return out
    need_a, need_b = needs
    split = a.data.shape[0]

    def bw(g):
        return (g[:split] if need_a else None,
                g[split:] if need_b else None)

    return _record(out, (a, b), needs, bw)


def row_slice(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"row_slice needs a 2-d tensor, got {x.data.shape}")
    if not (0 <= start <= stop <= x.data.shape[0]):
        raise ShapeError(f"row_slice [{start}:{stop}] out of range for shape {x.data.shape}")
    out = Tensor(x.data[start:stop].copy())
    needs = _needs(x)
    if needs is None:
        return out
    shape = x.data.shape

    def bw(g):
        gx = np.zeros(shape)
        gx[start:stop] = g
        return (gx,)

    return _record(out, (x,), needs, bw)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of an embedding table; backward scatter-adds into the table."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-d table, got {table.data.shape}")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows needs a flat id sequence, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(
            f"gather_rows id out of range [0, {table.data.shape[0]}): {ids}")
    out = Tensor(table.data[idx])
    needs = _needs(table)
    if needs is None:
        return out
    n, d = table.data.shape

    def bw(g):
        # element (i, j) is bin i·d + j (see the module docstring)
        bins = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(bins, weights=g.ravel(), minlength=n * d).reshape(n, d),)

    return _record(out, (table,), needs, bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5, *,
               residual: Tensor) -> Tensor:
    """Per-row normalization of ``x + residual`` followed by a learned affine map.

    The post-norm residual step in one op: the sum is formed first, in one
    fresh buffer that turns into the normalized rows in place, and backward
    hands ``x`` and ``residual`` the same gradient. ``eps`` keeps the
    variance denominator away from zero on constant rows.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a 2-d tensor, got {x.data.shape}")
    if residual.data.shape != x.data.shape:
        raise ShapeError(
            f"layer_norm residual must match x {x.data.shape}, got {residual.data.shape}")
    n = x.data.shape[1]
    if gain.data.shape != (1, n) or bias.data.shape != (1, n):
        raise ShapeError(
            f"layer_norm gain/bias must be (1, {n}), got {gain.data.shape} and {bias.data.shape}")
    # in place on two buffers, in the order of the textbook formulas:
    # xhat = (s - mu) / sqrt(var + eps), out = gain * xhat + bias, s = x + residual
    rows = x.data + residual.data
    mu = np.add.reduce(rows, axis=1, keepdims=True)
    mu /= n
    xhat = np.subtract(rows, mu, out=rows)
    out = np.square(xhat)
    std = np.add.reduce(out, axis=1, keepdims=True)
    std /= n
    std += eps
    np.sqrt(std, out=std)
    xhat /= std
    np.multiply(gain.data, xhat, out=out)
    out += bias.data
    needs = _needs(x, gain, bias, residual)
    if needs is None:
        return Tensor(out)
    need_x, need_gain, need_bias, need_residual = needs
    gain_data = gain.data

    def bw(g):
        gg = np.add.reduce(g * xhat, axis=0, keepdims=True) if need_gain else None
        gb = np.add.reduce(g, axis=0, keepdims=True) if need_bias else None
        gx = None
        if need_x or need_residual:
            # (dxhat - m1 - xhat * m2) / std with dxhat = g * gain, on two buffers
            gx = g * gain_data
            m1 = np.add.reduce(gx, axis=1, keepdims=True)
            m1 /= n
            tmp = gx * xhat
            m2 = np.add.reduce(tmp, axis=1, keepdims=True)
            m2 /= n
            np.multiply(xhat, m2, out=tmp)
            gx -= m1
            gx -= tmp
            gx /= std
        return (gx if need_x else None, gg, gb,
                gx if need_residual else None)

    return _record(Tensor(out), (x, gain, bias, residual), needs, bw)


# Rows narrower than this take their max across a transposed copy. On wider
# rows the copy costs more than NumPy's per-row loop: at 2,048 rows (NumPy
# 2.4, one Xeon core) the transposed max took 0.3x the time of ``ndarray.max``
# at 16 keys and 1.5x at 64.
_NARROW_ROW = 32


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, equal bit for bit except that a
    zero max may take the other sign, which no softmax shift can see."""
    n = x.shape[-1]
    if n >= _NARROW_ROW:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    m = np.maximum.reduce(np.ascontiguousarray(x.reshape(-1, n).T), axis=0)
    return m.reshape(*x.shape[:-1], 1)


def cross_entropy_mean(logits: Tensor, labels: Sequence[int],
                       weights: Optional[Sequence[float]] = None) -> Tensor:
    """Mean cross entropy of row-wise logits against integer labels.

    With ``weights`` (one per row) the loss is instead the weighted sum
    ``sum_i weights[i] * ce_i``, and row i's gradient is scaled by
    ``weights[i]`` where the mean scales every row by ``1/m``. Weights summing
    to 1 give a weighted mean; equal weights ``1/m`` give the same gradient
    as the mean. Log-softmax uses max subtraction, so arbitrarily large logits
    stay finite.
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
    row_weights = None
    if weights is not None:
        row_weights = np.asarray(weights, dtype=np.float64)
        if row_weights.shape != (m,):
            raise ShapeError(f"weights must have length {m}, got shape {row_weights.shape}")
    shifted = logits.data - _row_max(logits.data)
    lse = np.log(np.add.reduce(np.exp(shifted), axis=1))
    picked = shifted[np.arange(m), y]
    per_row = lse - picked
    out = Tensor(np.asarray(np.add.reduce(per_row) / m if row_weights is None
                            else per_row @ row_weights))
    needs = _needs(logits)
    if needs is None:
        return out

    def bw(g):
        p = np.exp(shifted)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        p[np.arange(m), y] -= 1.0
        if row_weights is None:
            return (p * (float(g) / m),)
        p *= (float(g) * row_weights)[:, None]
        return (p,)

    return _record(out, (logits,), needs, bw)


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum()))
    needs = _needs(x)
    if needs is None:
        return out
    shape = x.data.shape

    def bw(g):
        return (np.full(shape, float(g)),)

    return _record(out, (x,), needs, bw)


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
    blocks = [qb, kb]
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
        blocks += [qxb, kxb]
        scores += qxb @ kxb.transpose(0, 1, 3, 2)
    # in place from here: scores become the probabilities p
    scores *= scale
    scores -= _row_max(scores)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=3, keepdims=True)
    out = Tensor(p.reshape(-1, p.shape[3]))
    needs = _needs(*inputs)
    if needs is None:
        return out
    # each gradient reads its partner's blocks: q's the keys, k's the queries
    # (and qx's kx, kx's qx)
    reads = [blocks[i ^ 1] if need else None for i, need in enumerate(needs)]

    def bw(g):
        g = g.reshape(p.shape)
        gs = g - (g * p).sum(axis=3, keepdims=True)
        gs *= p
        gs *= scale
        gs_t = gs.transpose(0, 1, 3, 2)
        # score gradient gs for the query side, its transpose for the key side
        return [None if r is None else _merge_heads((gs_t if i % 2 else gs) @ r)
                for i, r in enumerate(reads)]

    return _record(out, inputs, needs, bw)


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
    needs = _needs(a, v)
    if needs is None:
        return out
    need_a, need_v = needs
    tq, dv = ab.shape[2], vb.shape[3]
    vb_t = vb.transpose(0, 1, 3, 2) if need_a else None
    ab_t = ab.transpose(0, 1, 3, 2) if need_v else None

    def bw(g):
        gb = g.reshape(batch, tq, heads, dv).transpose(0, 2, 1, 3)
        return ((gb @ vb_t).reshape(rows, tk) if need_a else None,
                _merge_heads(ab_t @ gb) if need_v else None)

    return _record(out, (a, v), needs, bw)


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
    """Max relative error between analytic and central-difference gradients,
    NaN if any probed coordinate's error is NaN.

    ``f`` must map ``x`` to a scalar tensor and must read ``x.data`` live on
    every call (it is fine for ``f`` to close over a larger model that shares
    ``x``). For tensors larger than ``max_coords`` elements, that many
    coordinates are sampled at random instead of probing every one
    (``max_coords`` >= 1 unless ``x`` is empty, which gives 0.0).
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be a finite float > 0, got {eps}")
    if max_coords < 1 and x.data.size:
        raise ValueError(f"max_coords must be at least 1, got {max_coords}")
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
        worst = float(np.maximum(worst, err))  # NaN-sticky, unlike max()
    return worst
