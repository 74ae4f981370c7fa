"""The allocation-lean step changes no bit: the fused ``affine`` op, the
in-place ``layer_norm`` with its folded residual add, ``gather_rows``'
bincount scatter, the in-place ``Adam`` update and the softmax shifts'
transposed row max each equal the out-of-place NumPy formulas they replace
exactly, forward and backward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_bitwise
from fltune.adapters import ParamRegistry
from fltune.tensor import (
    Tape,
    Tensor,
    add,
    affine,
    attention_weights,
    cross_entropy_mean,
    gather_rows,
    layer_norm,
    matmul,
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


def assert_grads_bitwise(got, want, trainable):
    """Each trainable input's gradient equals ``want`` bit for bit; the
    others get none."""
    for g, w, t in zip(got, want, trainable):
        if t:
            assert_bitwise(g, w)
        else:
            assert g is None


@pytest.mark.parametrize("use_relu", [False, True])
@pytest.mark.parametrize("trainable", [(True, True, True), (True, False, False),
                                       (False, True, False), (False, False, True)])
def test_affine_equals_matmul_add_relu_bitwise(use_relu, trainable):
    rng = np.random.default_rng(11)
    x, w, b = rng.normal(size=(7, 5)), rng.normal(size=(5, 6)), rng.normal(size=(1, 6))
    x[0, 0] = -0.0
    if use_relu:
        b[0, 1] = -np.inf  # a column the clamp zeroes
    upstream = rng.normal(size=(7, 6))

    pre = x @ w + b
    want_out = np.maximum(pre, 0.0) if use_relu else pre
    g = upstream * (pre > 0.0) if use_relu else upstream
    want = [g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)]

    out, grads = grads_of(lambda x, w, b: affine(x, w, b, relu=use_relu),
                          [x, w, b], trainable, upstream)
    assert_bitwise(out, want_out)
    assert_grads_bitwise(grads, want, trainable)


def test_affine_records_one_tape_entry():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    w, b = Tensor(np.ones((3, 4))), Tensor(np.zeros((1, 4)))
    with Tape() as tape:
        affine(x, w, b, relu=True)
    assert len(tape) == 1


def textbook_layer_norm(s, gain, bias, upstream, eps=1e-5):
    """Output and gradients (rows, gain, bias) of layer norm over the rows
    ``s``, by the out-of-place textbook formulas."""
    mu = s.mean(axis=1, keepdims=True)
    var = ((s - mu) ** 2).mean(axis=1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = (s - mu) / std
    dxhat = upstream * gain
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    return gain * xhat + bias, [(dxhat - m1 - xhat * m2) / std,
                                (upstream * xhat).sum(axis=0, keepdims=True),
                                upstream.sum(axis=0, keepdims=True)]


def test_layer_norm_equals_the_textbook_formulas_bitwise():
    rng = np.random.default_rng(5)
    x, r = rng.normal(size=(9, 8)), rng.normal(size=(9, 8))
    gain, bias = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    r[2] = 3.0 - x[2]  # a constant sum row: eps keeps it finite
    upstream = rng.normal(size=(9, 8))
    eps = 1e-4

    want_out, (want_gs, want_gg, want_gb) = textbook_layer_norm(x + r, gain, bias, upstream, eps)
    out, grads = grads_of(lambda x, g, b, r: layer_norm(x, g, b, eps, residual=r),
                          [x, gain, bias, r], [True] * 4, upstream)
    assert_bitwise(out, want_out)
    assert_grads_bitwise(grads, [want_gs, want_gg, want_gb, want_gs], [True] * 4)


@pytest.mark.parametrize("trainable", [(True, True, True, True), (True, False, False, False),
                                       (False, False, False, True), (False, True, True, False)])
def test_layer_norm_residual_equals_layer_norm_of_add_bitwise(trainable):
    # the sum x + r is formed before normalizing, so it is the one NumPy forms
    rng = np.random.default_rng(6)
    x, r = rng.normal(size=(9, 8)), rng.normal(size=(9, 8))
    gain, bias = rng.normal(size=(1, 8)), rng.normal(size=(1, 8))
    r[2] = 3.0 - x[2]  # a constant sum row
    x[0, 0], r[0, 0] = -0.0, -0.0
    upstream = rng.normal(size=(9, 8))

    want_out, (want_gs, want_gg, want_gb) = textbook_layer_norm(x + r, gain, bias, upstream)
    out, grads = grads_of(lambda x, g, b, r: layer_norm(x, g, b, residual=r),
                          [x, gain, bias, r], trainable, upstream)
    assert_bitwise(out, want_out)
    assert_grads_bitwise(grads, [want_gs, want_gg, want_gb, want_gs], trainable)


def test_layer_norm_residual_is_keyword_only():
    # eps stays the only positional default: perfbench's reference check
    # swaps it through layer_norm.__defaults__
    assert layer_norm.__defaults__ == (1e-5,)
    assert layer_norm.__kwdefaults__ is None
    x, ones = Tensor(np.ones((2, 3))), Tensor(np.ones((1, 3)))
    with pytest.raises(TypeError, match="residual"):
        layer_norm(x, ones, ones)
    with pytest.raises(TypeError, match="positional arguments"):
        layer_norm(x, ones, ones, 1e-5, x)


def test_layer_norm_residual_records_one_tape_entry():
    x = Tensor(np.ones((2, 3)))
    r = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    gain, bias = Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 3)))
    with Tape() as tape:
        layer_norm(x, gain, bias, residual=r)
    assert len(tape) == 1


def assert_scatter_equals_add_at(rows, width, ids, g):
    """gather_rows' backward under upstream ``g`` against np.add.at into zeros."""
    table = Tensor(np.zeros((rows, width)), requires_grad=True)
    with Tape() as tape:
        out = gather_rows(table, ids)
    assert out.shape == g.shape
    ((_, _, backward),) = tape._records
    (got,) = backward(g)
    want = np.zeros((rows, width))
    np.add.at(want, np.asarray(ids, dtype=np.intp), g)
    assert_bitwise(got, want)


@pytest.mark.parametrize("rows, width, ids, g", [
    (3, 2, [1, 1, 1], [[-0.0, 1e300], [-0.0, -1e300], [-0.0, 1e-300]]),  # repeats, signed zeros
    (2, 2, [0, 1], [[-0.0, 0.0], [0.0, -0.0]]),  # a lone -0.0 adds onto +0.0
    (4, 3, [], np.zeros((0, 3))),  # no ids
    (4, 0, [2, 2, 0], np.zeros((3, 0))),  # a zero-width table
])
def test_gather_rows_backward_edge_cases_equal_add_at_bitwise(rows, width, ids, g):
    assert_scatter_equals_add_at(rows, width, ids, np.array(g, dtype=np.float64))


GRADIENT_VALUES = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300]) | st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_gather_rows_backward_equals_add_at_into_zeros_bitwise(data):
    rows = data.draw(st.integers(1, 5), label="rows")
    width = data.draw(st.integers(0, 4), label="width")
    # ids repeat often, and may be empty
    ids = data.draw(st.lists(st.integers(0, rows - 1), max_size=12), label="ids")
    g = data.draw(st.lists(GRADIENT_VALUES, min_size=len(ids) * width,
                           max_size=len(ids) * width), label="g")
    assert_scatter_equals_add_at(rows, width, ids,
                                 np.array(g, dtype=np.float64).reshape(len(ids), width))


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


SPECIALS = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
# narrow rows take the transposed max, 64-wide rows ndarray.max itself
ROW_WIDTHS = [3, 16, 24, 64]


def laced_rows(rng, rows, width, specials):
    """Normal values; with ``specials`` about one in eight is ±inf, NaN or
    ±0.0. Every fourth row is zeros of mixed sign, so its max is a zero of
    either sign."""
    x = rng.normal(size=(rows, width))
    if specials:
        mask = rng.random(x.shape) < 0.125
        x[mask] = rng.choice(SPECIALS, int(mask.sum()))
    x[::4] = rng.choice([0.0, -0.0], x[::4].shape)
    return x


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("width", ROW_WIDTHS)
def test_attention_weights_equal_the_ndarray_max_softmax_bitwise(width, specials):
    # One column per head, so each score is q·k of one query and one key
    # value and the key values lay out the score rows: example 0's keys are
    # zeros of mixed sign, example 1's are -inf in head 0.
    rng = np.random.default_rng(width)
    batch, heads, scale = 4, 2, 0.5
    keys = laced_rows(rng, batch * heads, width, specials)
    keys[0:heads] = rng.choice([0.0, -0.0], (heads, width))
    keys[heads] = -np.inf
    k = keys.reshape(batch, heads, width).transpose(0, 2, 1).reshape(batch * width, heads)
    q = rng.choice([1.0, 2.0], (batch * width, heads))
    with np.errstate(invalid="ignore"):
        got = attention_weights(Tensor(q), Tensor(k), batch, heads, scale).data
        qb, kb = (x.reshape(batch, width, heads, 1).transpose(0, 2, 1, 3) for x in (q, k))
        s = qb @ kb.transpose(0, 1, 3, 2)
        s *= scale
        s = s - s.max(axis=3, keepdims=True)
        p = np.exp(s)
        p = p / p.sum(axis=3, keepdims=True)
    assert_bitwise(got, p.reshape(-1, width))


@pytest.mark.parametrize("specials", [False, True])
@pytest.mark.parametrize("width", ROW_WIDTHS)
def test_cross_entropy_value_and_gradient_equal_the_ndarray_max_formula_bitwise(
        width, specials):
    rng = np.random.default_rng(width)
    rows = 40
    logits = laced_rows(rng, rows, width, specials)
    labels = rng.integers(0, width, rows)
    x = Tensor(logits.copy(), requires_grad=True)
    with np.errstate(invalid="ignore"):
        with Tape() as tape:
            loss = cross_entropy_mean(x, labels)
            tape.backward(loss)
        shifted = logits - logits.max(axis=1, keepdims=True)
        per_row = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(rows), labels]
        p = np.exp(shifted)
        p = p / p.sum(axis=1, keepdims=True)
    p[np.arange(rows), labels] -= 1.0
    assert_bitwise(loss.data, np.asarray(np.add.reduce(per_row) / rows))
    assert_bitwise(x.grad, p * (1.0 / rows))
