"""Row-split row-local ops change no bit: ``attention_weights`` and
``attention_values`` hand their trailing examples, and ``layer_norm`` its
trailing rows, to the worker thread that computes the trailing rows of large
products (``tensor._split``). Each example of a batched per-head product is
a product of its own, and each row reduction covers one row, so the forward
value and every gradient equal those of an unsplit run byte for byte; the
column sums of ``layer_norm``'s gain and bias gradients stay whole on the
calling thread. A row-local kernel in the worker runs under the caller's
floating-point error state, hands its exceptions back, and lets go of its
job's arrays.

As in ``test_split_products.py``, every test switches splitting on
(``_CAN_SPLIT``), the tests are skipped in a process whose BLAS may run
more threads, and one test re-runs this module in a child process with
``OPENBLAS_NUM_THREADS=1``. Unlike a product, an attention op may split at
any size: every example's per-head products keep their shapes, whichever
thread computes them. So the bit tests also lower ``_SPLIT_MIN`` to 0, which
splits every op of two or more examples or rows."""

import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from conftest import ONE_BLAS_THREAD, REPO, assert_bitwise, child_env
from fltune import tensor
from fltune.tensor import (Tape, Tensor, attention_values, attention_weights,
                           cross_entropy_mean, layer_norm)

WHOLE = 1 << 62  # a _SPLIT_MIN no op reaches: every split off


@pytest.mark.skipif(ONE_BLAS_THREAD, reason="this process runs the module's tests itself")
def test_module_passes_with_one_blas_thread():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__], env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=REPO,
                          timeout=300, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


def value_and_grads(op, arrays, seed):
    """The op's output and the gradient of every input, under a cross
    entropy loss whose row gradients all differ."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = op(*leaves)
        labels = np.random.default_rng(seed).integers(0, y.shape[1], y.shape[0])
        tape.backward(cross_entropy_mean(y, labels))
    return [y.data] + [t.grad for t in leaves]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_bitwise(g, w)


def weights_case(batch, heads, tq, tk, d, dx, seed):
    """attention_weights over ``batch`` examples: Tq query rows against Tk
    keys, with expansion rows of width ``dx`` when it is nonzero. Each case
    returns the op, its input arrays, and its count of examples or rows."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((batch * tq, heads * d)),
              rng.standard_normal((batch * tk, heads * d))]
    if dx:
        arrays += [rng.standard_normal((batch * tq, heads * dx)),
                   rng.standard_normal((batch * tk, heads * dx))]

    def op(*leaves):
        return attention_weights(*leaves[:2], batch, heads, 0.25, *leaves[2:])

    return op, arrays, batch


def values_case(batch, heads, tq, tk, d, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.random((batch * heads * tq, tk)), rng.standard_normal((batch * tk, heads * d))]
    return (lambda a, v: attention_values(a, v, batch, heads)), arrays, batch


def norm_case(rows, cols, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal((rows, cols)), rng.standard_normal((1, cols)),
              rng.standard_normal((1, cols)), rng.standard_normal((rows, cols))]
    return (lambda x, g, b, r: layer_norm(x, g, b, residual=r)), arrays, rows


BATCHES = (1, 2, 3, 7, 16)
CASES = {
    # (heads, Tq, Tk, d, dx): self-attention, pv2 prefixes (Tk > Tq), the
    # pooled final layer (Tq 1), and an MA expansion
    **{f"weights-{name}-b{b}": (lambda b=b, s=s: weights_case(b, *s, seed=b))
       for b in BATCHES for name, s in (("self", (4, 24, 24, 16, 0)),
                                       ("prefix", (2, 9, 17, 8, 0)),
                                       ("pooled", (4, 1, 24, 16, 0)),
                                       ("expansion", (2, 10, 14, 8, 3)))},
    **{f"values-{name}-b{b}": (lambda b=b, s=s: values_case(b, *s, seed=b))
       for b in BATCHES for name, s in (("self", (4, 24, 24, 16)),
                                       ("prefix", (2, 9, 17, 8)),
                                       ("pooled", (4, 1, 24, 16)))},
    **{f"norm-{rows}x{cols}": (lambda rows=rows, cols=cols: norm_case(rows, cols, rows))
       for rows, cols in ((1, 16), (2, 16), (3, 100), (7, 64), (16, 256), (97, 33))},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_split_op_keeps_every_bit(splits, monkeypatch, name):
    op, arrays, units = CASES[name]()
    monkeypatch.setattr(tensor, "_SPLIT_MIN", WHOLE)
    whole = value_and_grads(op, arrays, seed=1)
    assert splits.count == 0
    monkeypatch.setattr(tensor, "_SPLIT_MIN", 0)
    split = value_and_grads(op, arrays, seed=1)
    # a forward and a backward job, unless there is one example or row
    assert splits.count == (2 if units > 1 else 0)
    assert_same_bytes(split, whole)


# Shapes just below and at the threshold, at the wide_fl widths: layer_norm
# counts _NORM_WORK multiply-adds per element, the attention ops the
# multiply-adds of their per-head products (4 heads of 64 keys of width 64
# make 2^20 per example).
AT_THRESHOLD = [
    ("norm", lambda: norm_case(255, 256, 0), False),
    ("norm", lambda: norm_case(256, 256, 0), True),
    ("weights", lambda: weights_case(3, 4, 64, 64, 64, 0, seed=0), False),
    ("weights", lambda: weights_case(4, 4, 64, 64, 64, 0, seed=0), True),
    ("values", lambda: values_case(3, 4, 64, 64, 64, seed=0), False),
    ("values", lambda: values_case(4, 4, 64, 64, 64, seed=0), True),
]


@pytest.mark.parametrize("kind, make, splits_here", AT_THRESHOLD)
def test_the_threshold_decides_and_keeps_the_bits(splits, monkeypatch, kind, make,
                                                  splits_here):
    op, arrays, _ = make()
    split = value_and_grads(op, arrays, seed=2)
    assert splits.count == (2 if splits_here else 0)
    monkeypatch.setattr(tensor, "_SPLIT_MIN", WHOLE)
    assert_same_bytes(split, value_and_grads(op, arrays, seed=2))
    assert splits.count == (2 if splits_here else 0)


def test_the_tail_of_a_layer_norm_raises_in_the_caller(splits, monkeypatch):
    op, arrays, _ = norm_case(256, 256, 0)
    bad = [a.copy() for a in arrays]
    bad[0][200:] = np.inf  # rows of the worker's half, which turn to NaN
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        op(*map(Tensor, bad))
    assert splits.count == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            out = op(*map(Tensor, bad)).data
        assert np.isnan(out[200:]).all() and np.isfinite(out[:200]).all()
        # the worker survives its exception
        split = op(*map(Tensor, arrays)).data
    assert splits.count == 3
    monkeypatch.setattr(tensor, "_SPLIT_MIN", WHOLE)
    assert_same_bytes([split], [op(*map(Tensor, arrays)).data])


def test_the_worker_lets_go_of_a_row_jobs_arrays(splits):
    _, arrays, _ = norm_case(256, 256, 0)
    x, gain, bias, residual = (Tensor(a) for a in arrays)
    out = layer_norm(x, gain, bias, residual=residual)
    assert splits.count == 1
    refs = [weakref.ref(a) for a in (x.data, residual.data, out.data)]
    del arrays, x, gain, bias, residual, out
    deadline = time.monotonic() + 5
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(r() is None for r in refs)


def test_concurrent_callers_each_get_their_own_rows(splits, monkeypatch):
    cases = [norm_case(256 + 32 * i, 256, i) for i in range(2)]
    cases += [weights_case(4 + i, 4, 64, 64, 64, 0, seed=i) for i in range(2)]
    cases += [values_case(4 + i, 4, 64, 64, 64, seed=i) for i in range(2)]
    cases = [(op, arrays) for op, arrays, _ in cases]
    threshold = tensor._SPLIT_MIN
    monkeypatch.setattr(tensor, "_SPLIT_MIN", WHOLE)
    wants = [value_and_grads(op, arrays, seed=i) for i, (op, arrays) in enumerate(cases)]
    monkeypatch.setattr(tensor, "_SPLIT_MIN", threshold)
    errors = []

    def caller(i):
        try:
            for _ in range(5):
                assert_same_bytes(value_and_grads(*cases[i], seed=i), wants[i])
        except AssertionError as exc:
            errors.append((i, exc))

    before = splits.count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(len(cases))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert splits.count - before == 2 * 5 * len(cases)
