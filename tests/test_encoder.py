"""Backbone tests: attention, FFN, full encoder, parameter-share claim."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from fltune.adapters import FLLayerParams, init_pv1_adapter, prefix_gate_reference
from fltune.encoder import (
    AttentionLayer,
    EncoderConfig,
    FFNLayer,
    attention_forward,
    encoder_forward,
    encoder_hidden,
    ffn_fl_split,
    ffn_forward,
    ffn_parameter_share,
    init_encoder,
    layer_param_counts,
)
from fltune.tensor import ShapeError, Tensor, check_gradients, cross_entropy_mean


def random_attention_layer(rng, d_m=6, d_k=3, d_v=4, n_heads=2):
    u = lambda *s: rng.uniform(-1, 1, s)
    # one d_m x d draw per head, in head order, packed side by side
    packed = lambda d: Tensor(np.concatenate([u(d_m, d) for _ in range(n_heads)], axis=1))
    return AttentionLayer(
        n_heads=n_heads,
        wq=packed(d_k),
        wk=packed(d_k),
        wv=packed(d_v),
        out_proj=Tensor(u(n_heads * d_v, d_m)),
        out_bias=Tensor(u(1, d_m)),
    )


def head_block(t, h, n_heads):
    """Head h's columns of a packed per-head matrix."""
    d = t.data.shape[1] // n_heads
    return t.data[:, h * d:(h + 1) * d]


def attention_reference(layer, x):
    """Plain scaled dot-product attention, straight from the formula."""
    n = layer.n_heads
    d_k = layer.wq.data.shape[1] // n
    heads = []
    for h in range(n):
        q = x @ head_block(layer.wq, h, n)
        k = x @ head_block(layer.wk, h, n)
        v = x @ head_block(layer.wv, h, n)
        s = (q @ k.T) / np.sqrt(d_k)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        a = e / e.sum(axis=1, keepdims=True)
        heads.append(a @ v)
    return np.concatenate(heads, axis=1) @ layer.out_proj.data + layer.out_bias.data


def ffn_reference(layer, x):
    """Two-loop position-by-position FFN evaluation."""
    seq = x.shape[0]
    d_o = layer.w1.data.shape[1]
    d_m = layer.w2.data.shape[1]
    hidden = np.zeros((seq, d_o))
    for i in range(seq):
        for j in range(d_o):
            hidden[i, j] = max(0.0, float(x[i] @ layer.w1.data[:, j]) + layer.b1.data[0, j])
    out = np.zeros((seq, d_m))
    for i in range(seq):
        for j in range(d_m):
            out[i, j] = float(hidden[i] @ layer.w2.data[:, j]) + layer.b2.data[0, j]
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def test_attention_matches_reference_without_prefix():
    rng = np.random.default_rng(0)
    layer = random_attention_layer(rng)
    x = rng.uniform(-1, 1, (5, 6))
    out = attention_forward(layer, Tensor(x))
    np.testing.assert_allclose(out.data, attention_reference(layer, x), atol=1e-12)


def test_attention_empty_prefix_bitwise_equal():
    rng = np.random.default_rng(1)
    layer = random_attention_layer(rng)
    x = Tensor(rng.uniform(-1, 1, (4, 6)))
    empty = (Tensor(np.zeros((0, 2 * 3))), Tensor(np.zeros((0, 2 * 4))))
    plain = attention_forward(layer, x)
    with_empty = attention_forward(layer, x, kv_prefix=empty)
    assert np.array_equal(plain.data, with_empty.data)


def test_attention_prefix_matches_gate_identity():
    # for arbitrary prefix values the identity implies that every attention
    # row over the 5 keys + 4 prefix rows sums to 1
    rng = np.random.default_rng(2)
    layer = random_attention_layer(rng)
    x = Tensor(rng.uniform(-1, 1, (5, 6)))
    heads = [(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 4))) for _ in range(2)]
    prefix = tuple(Tensor(np.concatenate(blocks, axis=1)) for blocks in zip(*heads))
    out = attention_forward(layer, x, kv_prefix=prefix)
    np.testing.assert_allclose(out.data, prefix_gate_reference(layer, prefix, x),
                               atol=1e-12, rtol=0)


def _ffn():
    return FFNLayer(w1=Tensor(np.zeros((3, 5))), b1=Tensor(np.zeros((1, 5))),
                    w2=Tensor(np.zeros((5, 3))), b2=Tensor(np.zeros((1, 3))))


def _fl(w1, b1, w2):
    return FLLayerParams(*(Tensor(np.zeros(shape)) for shape in (w1, b1, w2)))


def _prefix_rows_disagree(batch):
    layer = random_attention_layer(np.random.default_rng(3))
    bad = (Tensor(np.zeros((2, 2 * 3))), Tensor(np.zeros((3, 2 * 4))))
    return attention_forward(layer, Tensor(np.zeros((4 * batch, 6))), kv_prefix=bad,
                             batch=batch)


@pytest.mark.parametrize("call, message", [
    (lambda: ffn_forward(_ffn(), Tensor(np.zeros((2, 4)))),
     "affine inner dimensions disagree: (2, 4) x (3, 5)"),
    (lambda: ffn_fl_split(_ffn(), _fl((3, 4), (1, 2), (4, 3)), Tensor(np.zeros((2, 3)))),
     "affine bias must be (1, 4), got (1, 2)"),
    (lambda: ffn_fl_split(_ffn(), _fl((3, 4), (1, 4), (2, 3)), Tensor(np.zeros((2, 3)))),
     "matmul inner dimensions disagree: (2, 4) x (2, 3)"),
    (lambda: _prefix_rows_disagree(1), "attention_values weights (8, 6) do not match"),
    (lambda: _prefix_rows_disagree(2), "attention_values weights (16, 6) do not match"),
], ids=["ffn-input-width", "fl-b1-units", "fl-w2-units", "kv-prefix-rows-batch1",
        "kv-prefix-rows-batch2"])
def test_malformed_layer_inputs_raise_shape_error_from_the_op(call, message):
    # the sublayers state no shape rule of their own: the tensor op refuses
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}"):
        call()


# ---------------------------------------------------------------------------
# ffn
# ---------------------------------------------------------------------------

def test_ffn_zero_weights_gives_broadcast_bias():
    b2 = np.array([[0.5, -1.5, 2.0]])
    layer = FFNLayer(w1=Tensor(np.zeros((3, 4))), b1=Tensor(np.zeros((1, 4))),
                     w2=Tensor(np.zeros((4, 3))), b2=Tensor(b2))
    out = ffn_forward(layer, Tensor(np.random.default_rng(4).uniform(-1, 1, (5, 3))))
    np.testing.assert_array_equal(out.data, np.repeat(b2, 5, axis=0))


def test_ffn_scalar_hand_case():
    layer = FFNLayer(w1=Tensor([[1.0]]), b1=Tensor([[0.0]]),
                     w2=Tensor([[3.0]]), b2=Tensor([[1.0]]))
    out = ffn_forward(layer, Tensor([[2.0]]))
    np.testing.assert_array_equal(out.data, [[7.0]])


def test_ffn_matches_two_loop_reference():
    rng = np.random.default_rng(5)
    layer = FFNLayer(w1=Tensor(rng.uniform(-1, 1, (6, 10))), b1=Tensor(rng.uniform(-1, 1, (1, 10))),
                     w2=Tensor(rng.uniform(-1, 1, (10, 6))), b2=Tensor(rng.uniform(-1, 1, (1, 6))))
    x = rng.uniform(-1, 1, (4, 6))
    out = ffn_forward(layer, Tensor(x))
    np.testing.assert_allclose(out.data, ffn_reference(layer, x), atol=1e-12, rtol=0)


def test_ffn_width_mismatch_raises():
    layer = FFNLayer(w1=Tensor(np.zeros((3, 4))), b1=Tensor(np.zeros((1, 4))),
                     w2=Tensor(np.zeros((4, 3))), b2=Tensor(np.zeros((1, 3))))
    with pytest.raises(ShapeError):
        ffn_forward(layer, Tensor(np.zeros((2, 5))))


# ---------------------------------------------------------------------------
# full encoder
# ---------------------------------------------------------------------------

def test_encoder_forward_deterministic():
    weights = init_encoder(small_config(), seed=7)
    tokens = np.array([[3, 1, 4, 1, 5]])
    a = encoder_forward(weights, tokens, pooled=True)
    b = encoder_forward(weights, tokens, pooled=True)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, 3)


def test_encoder_rejects_unknown_token():
    weights = init_encoder(small_config(), seed=7)
    with pytest.raises(ShapeError, match="unknown token id"):
        encoder_forward(weights, np.array([[3, 99]]))


def test_encoder_rejects_overlong_sequence():
    weights = init_encoder(small_config(), seed=7)
    with pytest.raises(ShapeError, match="too long"):
        encoder_forward(weights, np.arange(13)[None])


def not_a_batch(got):
    return f"a token batch is an (N, T) integer array, got {got}"


LIST_BATCH = not_a_batch("list")


@pytest.mark.parametrize("tokens, prompt_len, message", [
    (np.empty((1, 0), dtype=np.int64), 0, "token sequence is empty"),
    ([[3, 4], []], 0, LIST_BATCH),
    (np.array([[3, -1]]), 0, "unknown token id -1 for vocab size 16"),
    (np.array([[3, 4], [5, 16]], dtype=np.int32), 0, "unknown token id 16 for vocab size 16"),
    ([np.array([3, 4]), np.array([2, 99])], 0, LIST_BATCH),
    (np.arange(13)[None], 0, "sequence too long: 13 tokens + 0 prompt rows > max_seq_len 12"),
    (np.ones((2, 10), dtype=np.int64), 3,
     "sequence too long: 10 tokens + 3 prompt rows > max_seq_len 12"),
    ([[1, 2, 3], [4, 5]], 0, LIST_BATCH),
    ([[1, 2], [4, 5, 99]], 0, LIST_BATCH),
    (np.array([[3.7, 4, 5]]), 0, not_a_batch("2-d float64 array")),
    (np.array([[3.0, 4]]), 0, not_a_batch("2-d float64 array")),
    (np.array([[3, 4]], dtype=np.float32), 0, not_a_batch("2-d float32 array")),
    ([[np.uint64(3), 4]], 0, LIST_BATCH),
    (np.array([["3", "4", "5"]]), 0, not_a_batch("2-d <U1 array")),
    (np.array([[3, 4], [5, None]]), 0, not_a_batch("2-d object array")),
    (np.array([[3, np.nan]]), 0, not_a_batch("2-d float64 array")),
    (np.array([[np.inf, 4]]), 0, not_a_batch("2-d float64 array")),
    ([[True, False, 4]], 0, LIST_BATCH),
    ([np.array([True, False, True])], 0, LIST_BATCH),
    ([3, 4], 0, LIST_BATCH),
    ([[3, 4], 5], 0, LIST_BATCH),
    (np.array([3, 4]), 0, not_a_batch("1-d int64 array")),
    (np.array([[3, 16]]), 0, "unknown token id 16 for vocab size 16"),
    (np.array([[3, 4], [5, 6]])[:, :0], 0, "token sequence is empty"),
    (np.array([[True, False]]), 0, not_a_batch("2-d bool array")),
    (np.empty((0, 4), dtype=np.int64), 0, "batch has no sequences"),
    (((3, 4), (5, 6)), 0, not_a_batch("tuple")),
    (np.array([[[3, 4]]]), 0, not_a_batch("3-d int64 array")),
    (np.array([[3, 4]], dtype=object), 0, not_a_batch("2-d object array")),
    (np.array([[3, 2**63]], dtype=np.uint64), 0,
     "unknown token id 9223372036854775808 for vocab size 16"),
    (np.array([[3, 4, 16], [17, 5, 6]]).T, 0, "unknown token id 17 for vocab size 16"),
], ids=["empty", "empty-second", "negative", "numpy-int", "numpy-row", "too-long",
        "too-long-with-prompt", "lengths", "unknown-before-lengths", "float", "integral-float",
        "float64-array", "uint64-beside-int", "string",
        "none", "nan", "inf", "bool", "numpy-bool", "flat", "flat-second", "flat-array",
        "int-array-unknown", "int-array-empty", "bool-array", "no-sequences", "tuple",
        "3-d-array", "object-ints", "uint64-above-int64", "first-unknown-in-row-order"])
def test_malformed_batches_raise_the_per_token_message(tokens, prompt_len, message):
    # a list is refused whatever it holds; an array fault keeps its message
    config = small_config()
    weights = init_encoder(config, seed=7)
    adapter = init_pv1_adapter(config, prompt_len=prompt_len, seed=1) if prompt_len else None
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        encoder_forward(weights, tokens, adapter)


@pytest.mark.parametrize("forward", [encoder_forward, encoder_hidden])
@pytest.mark.parametrize("tokens", [[3, 1, 4], ((3, 1, 4),)], ids=["list", "tuple"])
def test_every_encoder_entry_refuses_a_python_sequence(forward, tokens):
    weights = init_encoder(small_config(), seed=7)
    message = not_a_batch(type(tokens).__name__)
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        forward(weights, tokens)


@pytest.mark.parametrize("forward", [encoder_forward, encoder_hidden])
def test_every_encoder_entry_refuses_a_1d_array(forward):
    # one sequence is a (1, T) batch; a bare 1-d array is not read as one
    weights = init_encoder(small_config(), seed=7)
    message = not_a_batch("1-d int64 array")
    for pooled in (False, True):
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            forward(weights, np.array([3, 1, 4], dtype=np.int64), pooled=pooled)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_batch_forms_of_the_same_tokens_give_the_same_logits_bitwise(data):
    # every integer dtype, in C or Fortran order or as a strided view, is the
    # same batch; the same values as bool, float or object are refused
    weights = init_encoder(small_config(), seed=7)
    n, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    ids = data.draw(st.lists(st.integers(0, 15), min_size=n * t, max_size=n * t))
    tokens = np.array(ids, dtype=np.int64).reshape(n, t)
    pooled = data.draw(st.booleans())
    want = encoder_forward(weights, tokens, pooled=pooled).data
    for dtype in INT_DTYPES:
        wide = np.zeros((2 * n, 3 * t), dtype=dtype)
        wide[::2, ::3] = tokens
        for form in (tokens.astype(dtype), tokens.astype(dtype, order="F"), wide[::2, ::3]):
            got = encoder_forward(weights, form, pooled=pooled).data
            assert got.tobytes() == want.tobytes(), (dtype, form.strides)
    for other in (bool, np.float64, object):
        with pytest.raises(ShapeError, match="^a token batch is an .* array, got 2-d"):
            encoder_forward(weights, tokens.astype(other), pooled=pooled)


def test_encoder_token_row_logits_shape():
    weights = init_encoder(small_config(), seed=7)
    out = encoder_forward(weights, np.array([[3, 1, 4]]))
    assert out.shape == (3, 3)


def test_encoder_golden_output_postnorm_regression():
    """Pinned output of the fixed seed/config forward pass.

    Locks in the residual layout (norm applied after each residual add) and
    the overall composition; any layout change breaks these values.
    """
    weights = init_encoder(small_config(), seed=11)
    logits = encoder_forward(weights, np.array([[2, 7, 1, 0]]), pooled=True).data
    expected = np.array([[-0.023503730496855897, -0.054240566835668864, 0.02230247287921916]])
    np.testing.assert_allclose(logits, expected, atol=1e-12, rtol=0)


def test_encoder_gradients_match_finite_differences():
    config = small_config()
    weights = init_encoder(config, seed=13)
    tokens = np.array([[3, 1, 4, 1, 5, 9]])
    label = [1]

    def loss_fn(_):
        return cross_entropy_mean(encoder_forward(weights, tokens, pooled=True), label)

    rng = np.random.default_rng(17)
    probes = {
        "head.weight": (weights.head_w, 20),
        "layer0.ffn.w1": (weights.layers[0].ffn.w1, 20),
        # 20 coordinates per head, as many as one head's own matrix had
        "layer1.attn.q": (weights.layers[1].attn.wq, 20 * config.n_heads),
        "layer0.norm1.gain": (weights.layers[0].norm1.gain, 20),
        "embedding.token": (weights.tok_emb, 20),
    }
    for name, (tensor, coords) in probes.items():
        err = check_gradients(loss_fn, tensor, max_coords=coords, rng=rng)
        assert err < 1e-4, f"{name}: relative error {err}"


# ---------------------------------------------------------------------------
# parameter-share claim
# ---------------------------------------------------------------------------

def test_ffn_share_standard_shape_near_two_thirds():
    config = EncoderConfig(d_m=768, n_heads=12, n_layers=12, vocab_size=1000,
                           max_seq_len=512, n_classes=2)
    share = ffn_parameter_share(config)
    assert 0.60 <= share <= 0.70
    # exact integer arithmetic behind the fraction
    counts = layer_param_counts(config)
    assert counts["ffn"] == 768 * 3072 + 3072 + 3072 * 768 + 768
    assert counts["total"] == counts["attention"] + counts["ffn"] + counts["norms"]


def test_ffn_share_small_config_also_in_band():
    assert 0.60 <= ffn_parameter_share(small_config()) <= 0.70
