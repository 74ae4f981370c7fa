"""The allocation-lean step changes no bit: the fused ``affine`` op, the
in-place ``layer_norm`` and the in-place ``Adam`` update each equal the
out-of-place formulas they replace exactly, forward and backward."""

import numpy as np
import pytest

from fltune.adapters import ParamRegistry
from fltune.tensor import (
    Tape,
    Tensor,
    add,
    affine,
    layer_norm,
    matmul,
    relu,
    row_slice,
    sum_all,
)
from fltune.training import Adam


def weighted_sum(out, weights):
    """sum(out * weights), built so that d/d out is exactly ``weights``: row
    i's gradient is 1 times weight row i, and the other rows add zeros."""
    loss = None
    for i in range(out.shape[0]):
        part = sum_all(matmul(row_slice(out, i, i + 1), Tensor(weights[i:i + 1].T)))
        loss = part if loss is None else add(loss, part)
    return loss


def grads_of(build, arrays, trainable, upstream):
    """Output and input gradients of ``build`` under the given upstream."""
    inputs = [Tensor(a.copy(), requires_grad=t) for a, t in zip(arrays, trainable)]
    with Tape() as tape:
        out = build(*inputs)
        tape.backward(weighted_sum(out, upstream))
    return out.data, [t.grad for t in inputs]


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("use_relu", [False, True])
@pytest.mark.parametrize("trainable", [(True, True, True), (True, False, False),
                                       (False, True, False), (False, False, True)])
def test_affine_equals_matmul_add_relu_bitwise(use_relu, trainable):
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=(7, 5)), rng.normal(size=(5, 6)), rng.normal(size=(1, 6))]
    arrays[0][0, 0] = -0.0
    if use_relu:
        arrays[2][0, 1] = -np.inf  # a column the clamp zeroes

    def old(x, w, b):
        out = add(matmul(x, w), b)
        return relu(out) if use_relu else out

    upstream = rng.normal(size=(7, 6))
    fused_out, fused_grads = grads_of(lambda x, w, b: affine(x, w, b, relu=use_relu),
                                      arrays, trainable, upstream)
    old_out, old_grads = grads_of(old, arrays, trainable, upstream)
    assert_bitwise(fused_out, old_out)
    for fused, ref, t in zip(fused_grads, old_grads, trainable):
        if not t:
            assert fused is None and ref is None
        else:
            assert_bitwise(fused, ref)


def test_affine_records_one_tape_entry():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    w, b = Tensor(np.ones((3, 4))), Tensor(np.zeros((1, 4)))
    with Tape() as tape:
        affine(x, w, b, relu=True)
    assert len(tape) == 1


def test_layer_norm_equals_the_textbook_formulas_bitwise():
    rng = np.random.default_rng(5)
    x, gain, bias = rng.normal(size=(9, 8)), rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    x[2] = 3.0  # a constant row: eps keeps it finite
    upstream = rng.normal(size=(9, 8))
    eps = 1e-5

    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = (x - mu) / std
    want_out = gain * xhat + bias
    want_gg = (upstream * xhat).sum(axis=0, keepdims=True)
    want_gb = upstream.sum(axis=0, keepdims=True)
    dxhat = upstream * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    want_gx = (dxhat - m1 - xhat * m2) / std

    out, (gx, gg, gb) = grads_of(lambda *t: layer_norm(*t, eps), [x, gain, bias],
                                 [True] * 3, upstream)
    assert_bitwise(out, want_out)
    assert_bitwise(gx, want_gx)
    assert_bitwise(gg, want_gg)
    assert_bitwise(gb, want_gb)


def test_adam_in_place_equals_the_out_of_place_formula_bitwise():
    rng = np.random.default_rng(9)
    shapes = [(3, 4), (1, 5)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    params[0].data[0, 0] = -0.0
    registry = ParamRegistry()
    for i, p in enumerate(params):
        registry.register(f"p{i}", p, frozen=False, group="adapter")
    entries = registry.trainable_entries()
    optimizer = Adam(0.01)

    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    want = [p.data.copy() for p in params]
    state = [(np.zeros(s), np.zeros(s)) for s in shapes]
    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        # with data -0.0 this tells whether m starts from zeros: 0 + -0 is +0
        grads[0][0, 0] = -0.0
        for i, g in enumerate(grads):
            m, v = state[i]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * (g * g)
            state[i] = (m, v)
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            params[i].grad = g
        optimizer.step(entries)
        for p, w in zip(params, want):
            assert_bitwise(p.data, w)
