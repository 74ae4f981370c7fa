"""A tape record keeps only the arrays its backward formula reads.

Every other array of a tracked forward pass (inputs read by no gradient,
each op's own output, the pre-ReLU values) is freed as soon as the caller
drops it, while the tape is still alive, and the gradients stay bit for bit
those of the same graph with every array kept.
"""

import gc
import weakref

import numpy as np
import pytest

import fltune.encoder as encoder_module
from fltune.adapters import init_fl_adapter
from fltune.encoder import EncoderConfig, encoder_forward_batch, init_encoder
from fltune.tensor import (
    Tape,
    Tensor,
    add,
    affine,
    attention_values,
    attention_weights,
    concat,
    cross_entropy_mean,
    gather_rows,
    layer_norm,
    matmul,
    relu,
    row_slice,
    scale,
    softmax_rows,
    sum_all,
    transpose,
)

RNG = np.random.default_rng(0)
X = RNG.normal(size=(6, 4))
FROZEN = {name: RNG.normal(size=shape) for name, shape in [
    ("lift", (4, 4)), ("w", (4, 5)), ("b", (1, 5)), ("gain", (1, 4)), ("bias", (1, 4)),
    ("row", (1, 4)), ("block", (2, 4)), ("keys", (6, 4)), ("values", (6, 4)),
    ("weights", (12, 3)), ("to3", (4, 3)), ("col3", (3, 1)), ("col4", (4, 1)),
    ("residual", (6, 4))]}


def frozen(name: str) -> Tensor:
    return Tensor(FROZEN[name])


def lift(x: Tensor) -> Tensor:
    """A tracked intermediate whose array only the caller holds: the record
    of this product against a frozen matrix keeps the matrix, not ``x``."""
    return matmul(x, frozen("lift"))


def _matmul(x):
    h = lift(x)
    y = matmul(h, frozen("w"))
    return sum_all(y), [h.data, y.data]


def _affine_relu(x):
    h = lift(x)
    y = affine(h, frozen("w"), frozen("b"), relu=True)
    assert (y.data == 0.0).any() and (y.data > 0.0).any()
    return sum_all(y), [h.data, y.data]


def _layer_norm(x):
    h = lift(x)
    y = layer_norm(h, frozen("gain"), frozen("bias"), residual=frozen("residual"))
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _layer_norm_residual(x):
    h, r = lift(x), scale(lift(x), 2.0)
    y = layer_norm(h, frozen("gain"), frozen("bias"), residual=r)
    return sum_all(matmul(y, frozen("col4"))), [h.data, r.data, y.data]


def _attention_weights_frozen_keys(x):
    q = lift(x)
    a = attention_weights(q, frozen("keys"), 2, 2, 0.5)
    y = matmul(a, frozen("col3"))
    return sum_all(y), [q.data, y.data]


def _attention_values_frozen_values(x):
    a = matmul(concat(x, x), frozen("to3"))
    y = attention_values(a, frozen("values"), 2, 2)
    return sum_all(matmul(y, frozen("col4"))), [a.data, y.data]


def _attention_values_frozen_weights(x):
    v = lift(x)
    y = attention_values(frozen("weights"), v, 2, 2)
    return sum_all(matmul(y, frozen("col4"))), [v.data, y.data]


def _gather_rows(x):
    h = lift(x)
    y = gather_rows(h, [0, 2, 2, 5])
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _row_slice(x):
    h = lift(x)
    y = row_slice(h, 1, 4)
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _sum_all(x):
    h = lift(x)
    return sum_all(h), [h.data]


def _add(x):
    h = lift(x)
    y = add(h, frozen("residual"))
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _concat(x):
    h = lift(x)
    y = concat(h, frozen("block"))
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _transpose(x):
    h = lift(x)
    y = transpose(h)  # a view of h's array
    return sum_all(matmul(frozen("row"), y)), [h.data]


def _scale(x):
    h = lift(x)
    y = scale(h, 3.0)
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _relu(x):
    h = lift(x)
    y = relu(h)
    return sum_all(matmul(y, frozen("col4"))), [h.data, y.data]


def _softmax_rows(x):
    h = lift(x)
    p = softmax_rows(h)  # its backward reads p
    return sum_all(matmul(p, frozen("col4"))), [h.data]


def _cross_entropy_mean(x):
    h = lift(x)
    return cross_entropy_mean(h, [0, 3, 1, 2, 2, 0]), [h.data]


CASES = {f.__name__[1:]: f for f in [
    _matmul, _affine_relu, _layer_norm, _layer_norm_residual, _attention_weights_frozen_keys,
    _attention_values_frozen_values, _attention_values_frozen_weights, _gather_rows,
    _row_slice, _sum_all, _add, _concat, _transpose, _scale, _relu, _softmax_rows,
    _cross_entropy_mean]}


def gradient(build, release: bool) -> np.ndarray:
    """``x``'s gradient through ``build``; with ``release`` the arrays
    ``build`` names must be freed before ``backward`` runs."""
    x = Tensor(X.copy(), requires_grad=True)
    with Tape() as tape:
        loss, unread = build(x)
    refs = [weakref.ref(arr) for arr in unread]
    if release:
        del unread
        gc.collect()
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"arrays {alive} outlived their op with the tape alive"
        assert len(tape)
    tape.backward(loss)
    return x.grad


@pytest.mark.parametrize("name", sorted(CASES))
def test_arrays_no_backward_reads_are_freed_before_backward(name):
    released = gradient(CASES[name], release=True)
    kept = gradient(CASES[name], release=False)
    assert np.any(released != 0.0)
    assert released.tobytes() == kept.tobytes()


def test_encoder_frees_frozen_ffn_hidden_and_out_proj_outputs(monkeypatch):
    config = EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=16, max_seq_len=12,
                           n_classes=3)
    weights = init_encoder(config, seed=1)
    adapter = init_fl_adapter(config, d_a=3, seed=2)
    outputs = []  # (weight tensor, weakref to the output array)
    original = encoder_module.affine

    def traced(x, w, b, relu=False):
        out = original(x, w, b, relu)
        outputs.append((w, weakref.ref(out.data)))
        return out

    monkeypatch.setattr(encoder_module, "affine", traced)
    with Tape() as tape:
        logits = encoder_forward_batch(weights, np.array([[1, 2, 3, 4], [5, 6, 7, 8]]), adapter)
        loss = cross_entropy_mean(logits, [0, 2])
    del logits
    gc.collect()
    watched = {id(layer.ffn.w1) for layer in weights.layers}
    watched |= {id(layer.attn.out_proj) for layer in weights.layers}
    refs = [ref for w, ref in outputs if id(w) in watched]
    assert len(refs) == 2 * config.n_layers
    assert all(ref() is None for ref in refs)
    tape.backward(loss)
    assert all(p.w2.grad is not None for p in adapter.layers.values())


def test_gradient_flags_are_fixed_when_an_op_records():
    x, w = Tensor(X.copy()), Tensor(FROZEN["w"].copy(), requires_grad=True)
    with Tape() as tape:
        y = matmul(x, w)
        x.requires_grad = True
        loss = sum_all(y)
    tape.backward(loss)
    assert x.grad is None
    assert w.grad is not None
