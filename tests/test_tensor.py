"""Tensor op and tape tests, each backward pass checked against oracles."""

import numpy as np
import pytest

from fltune.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    check_gradients,
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


def matmul_reference(a, b):
    """Independent triple-loop matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = rng.uniform(-1, 1, (3, 3))
    out = matmul(Tensor(np.eye(3)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[2.0], [4.0]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (5, 7))
    b = rng.uniform(-1, 1, (7, 3))
    out = matmul(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, matmul_reference(a, b), atol=1e-12, rtol=0)


def test_matmul_identity_association_bitwise():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (4, 4))
    b = rng.uniform(-1, 1, (4, 5))
    via_identity = matmul(matmul(Tensor(a), Tensor(np.eye(4))), Tensor(b))
    direct = matmul(Tensor(a), Tensor(b))
    assert np.array_equal(via_identity.data, direct.data)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_zero_inner_dimension():
    out = matmul(Tensor(np.zeros((3, 0))), Tensor(np.zeros((0, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((3, 2)))


def test_matmul_backward_formulas():
    rng = np.random.default_rng(3)
    a = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(matmul(a, b))
        tape.backward(loss)
    g = np.ones((4, 5))
    np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


# ---------------------------------------------------------------------------
# relu
# ---------------------------------------------------------------------------

def test_relu_definition():
    out = relu(Tensor([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_relu_nonnegative_passthrough():
    x = np.array([[0.5, 0.0, 3.0, 7.25]])
    np.testing.assert_array_equal(relu(Tensor(x)).data, x)


def test_relu_backward_indicator():
    x = Tensor([[-3.0, 5.0]], requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0]])


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor([[0.0]], requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0]])


# ---------------------------------------------------------------------------
# softmax_rows
# ---------------------------------------------------------------------------

def test_softmax_equal_values_uniform():
    out = softmax_rows(Tensor(np.full((2, 5), 3.7)))
    np.testing.assert_allclose(out.data, np.full((2, 5), 0.2), atol=1e-15)


def test_softmax_huge_logits_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 1000.0]]))
    np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    out = softmax_rows(Tensor(rng.uniform(-1, 1, (4, 6))))
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4), atol=1e-12, rtol=0)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


# ---------------------------------------------------------------------------
# concat / row_slice
# ---------------------------------------------------------------------------

def test_concat_empty_block_is_identity():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = concat(Tensor(a), Tensor(np.zeros((2, 0))), "cols")
    np.testing.assert_array_equal(out.data, a)


def test_concat_rows_hand_case():
    out = concat(Tensor([[1.0]]), Tensor([[2.0]]), "rows")
    np.testing.assert_array_equal(out.data, [[1.0], [2.0]])


@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_concat_backward_equals_sliced_gradient(axis):
    rng = np.random.default_rng(5)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    w = rng.uniform(-1, 1, (4 if axis == "rows" else 8, 5))
    with Tape() as tape:
        out = concat(a, b, axis)
        loss = sum_all(matmul(out, Tensor(w)))
        tape.backward(loss)
    # Oracle: gradient of the concatenated tensor, sliced back into blocks.
    full_grad = np.ones((out.shape[0], 5)) @ w.T
    if axis == "rows":
        np.testing.assert_allclose(a.grad, full_grad[:3], atol=1e-12)
        np.testing.assert_allclose(b.grad, full_grad[3:], atol=1e-12)
    else:
        np.testing.assert_allclose(a.grad, full_grad[:, :4], atol=1e-12)
        np.testing.assert_allclose(b.grad, full_grad[:, 4:], atol=1e-12)


def test_concat_then_slice_identity():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, (2, 3))
    b = rng.uniform(-1, 1, (4, 3))
    out = concat(Tensor(a), Tensor(b), "rows")
    np.testing.assert_array_equal(row_slice(out, 0, 2).data, a)
    np.testing.assert_array_equal(row_slice(out, 2, 6).data, b)


def test_concat_mismatch_raises():
    with pytest.raises(ShapeError, match="non-concat"):
        concat(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), "rows")


# ---------------------------------------------------------------------------
# backward mechanics
# ---------------------------------------------------------------------------

def test_backward_linear_case():
    rng = np.random.default_rng(7)
    w = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    x = Tensor(rng.uniform(-1, 1, (4, 2)))
    with Tape() as tape:
        tape.backward(sum_all(matmul(w, x)))
    np.testing.assert_allclose(w.grad, np.ones((3, 2)) @ x.data.T, atol=1e-12)


def test_backward_branches_accumulate():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        loss = add(sum_all(scale(x, 3.0)), sum_all(scale(x, 2.0)))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [[5.0, 5.0]])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    with Tape() as tape:
        y = scale(x, 2.0)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(y)


def test_frozen_tensors_get_no_grad_buffer():
    rng = np.random.default_rng(8)
    frozen = Tensor(rng.uniform(-1, 1, (3, 3)))
    live = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(matmul(frozen, live)))
    assert frozen.grad is None
    assert live.grad is not None


def test_untracked_graph_records_nothing():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.ones((2, 2)))
    with Tape() as tape:
        matmul(a, b)
    assert len(tape) == 0


def test_backward_releases_every_record():
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(relu(matmul(x, Tensor([[1.0], [0.5]]))))
    assert len(tape) == 3
    tape.backward(loss)
    assert len(tape) == 0
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])


def test_second_backward_on_a_tape_raises():
    x = Tensor([[1.0]], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already run"):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [[1.0]])


def test_tape_cleared_between_steps():
    x = Tensor([[1.0]], requires_grad=True)
    for expected in ([[1.0]], [[1.0]]):
        x.grad = None
        with Tape() as tape:
            tape.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, expected)


# ---------------------------------------------------------------------------
# other primitives, via finite differences
# ---------------------------------------------------------------------------

def test_add_row_bias_backward():
    rng = np.random.default_rng(9)
    x = Tensor(rng.uniform(-1, 1, (4, 3)))
    b = Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(add(x, b)))
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 4.0))


def test_gather_rows_scatter_adds():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(gather_rows(table, [1, 1, 3])))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_gather_rows_rejects_bad_id():
    with pytest.raises(ShapeError, match="out of range"):
        gather_rows(Tensor(np.zeros((4, 3))), [0, 4])


@pytest.mark.parametrize(
    "name,builder",
    [
        ("matmul", lambda x, rng: sum_all(relu(matmul(x, Tensor(rng.uniform(-1, 1, (5, 4))))))),
        ("softmax", lambda x, rng: sum_all(matmul(softmax_rows(x), Tensor(rng.uniform(-1, 1, (5, 2)))))),
        ("transpose", lambda x, rng: sum_all(matmul(transpose(x), Tensor(rng.uniform(-1, 1, (3, 2)))))),
        ("concat", lambda x, rng: sum_all(
            matmul(concat(x, Tensor(rng.uniform(-1, 1, (3, 5))), "rows"),
                   Tensor(rng.uniform(-1, 1, (5, 3)))))),
        ("row_slice", lambda x, rng: sum_all(scale(row_slice(x, 1, 3), 2.5))),
        ("cross_entropy", lambda x, rng: cross_entropy_mean(x, [0, 2, 1])),
    ],
)
def test_primitive_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(abs(hash(name)) % 2**32)
    x = Tensor(rng.uniform(-1, 1, (3, 5)))
    err = check_gradients(lambda t: builder(t, np.random.default_rng(42)), x, rng=rng)
    assert err < 1e-4, f"{name}: relative error {err}"


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    gain = Tensor(rng.uniform(0.5, 1.5, (1, 6)))
    bias = Tensor(rng.uniform(-0.5, 0.5, (1, 6)))
    w = Tensor(rng.uniform(-1, 1, (6, 2)))

    for target in (x, gain, bias):
        err = check_gradients(lambda t: sum_all(matmul(layer_norm(x, gain, bias), w)),
                              target, rng=rng)
        assert err < 1e-4


def test_cross_entropy_matches_manual_value():
    logits = np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]])
    labels = [0, 2]
    out = cross_entropy_mean(Tensor(logits), labels)
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    expected = -np.log(probs[[0, 1], labels]).mean()
    np.testing.assert_allclose(out.item(), expected, atol=1e-12)


def test_cross_entropy_guarded_against_huge_logits():
    out = cross_entropy_mean(Tensor([[1e4, -1e4]]), [0])
    assert np.isfinite(out.item())


# ---------------------------------------------------------------------------
# check_gradients itself
# ---------------------------------------------------------------------------

def test_check_gradients_sum_of_squares():
    rng = np.random.default_rng(11)
    x = Tensor(rng.uniform(-1, 1, (1, 16)))

    def sum_sq(t):
        # for a row vector, t @ t^T is exactly the sum of squares
        return sum_all(matmul(t, transpose(t)))

    err = check_gradients(sum_sq, x, rng=rng)
    assert err < 1e-8


def test_eps_must_be_positive():
    with pytest.raises(ValueError, match="eps"):
        check_gradients(sum_all, Tensor([[1.0]]), eps=0.0)


def test_check_gradients_samples_large_tensors():
    rng = np.random.default_rng(12)
    x = Tensor(rng.uniform(-1, 1, (30, 30)))
    calls = []

    def f(t):
        calls.append(1)
        return sum_all(t)

    err = check_gradients(f, x, max_coords=20, rng=rng)
    assert err < 1e-8
    # 1 analytic pass + 20 sampled coords * 2 sides
    assert len(calls) == 41
