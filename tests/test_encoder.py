"""Backbone tests: attention, FFN, full encoder, parameter-share claim."""

import re

import numpy as np
import pytest

from fltune.adapters import init_pv1_adapter
from fltune.encoder import (
    AttentionLayer,
    EncoderConfig,
    FFNLayer,
    attention_forward,
    encoder_forward,
    encoder_forward_batch,
    ffn_forward,
    ffn_parameter_share,
    init_encoder,
    layer_param_counts,
)
from fltune.tensor import ShapeError, Tensor, check_gradients, cross_entropy_mean


def small_config(**overrides):
    base = dict(d_m=8, n_heads=2, n_layers=2, vocab_size=16,
                max_seq_len=12, n_classes=3)
    base.update(overrides)
    return EncoderConfig(**base)


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


def test_attention_prefix_rows_normalized():
    rng = np.random.default_rng(2)
    layer = random_attention_layer(rng)
    x = Tensor(rng.uniform(-1, 1, (5, 6)))
    heads = [(rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 4))) for _ in range(2)]
    prefix = tuple(Tensor(np.concatenate(blocks, axis=1)) for blocks in zip(*heads))
    _, weights = attention_forward(layer, x, kv_prefix=prefix, return_weights=True)
    for a in weights:
        assert a.shape == (5, 9)
        np.testing.assert_allclose(a.data.sum(axis=1), np.ones(5), atol=1e-12, rtol=0)


def test_attention_prefix_length_mismatch_raises():
    rng = np.random.default_rng(3)
    layer = random_attention_layer(rng)
    bad = (Tensor(np.zeros((2, 2 * 3))), Tensor(np.zeros((3, 2 * 4))))
    with pytest.raises(ShapeError, match="row counts"):
        attention_forward(layer, Tensor(rng.uniform(-1, 1, (4, 6))), kv_prefix=bad)


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
    tokens = [3, 1, 4, 1, 5]
    a = encoder_forward(weights, tokens)
    b = encoder_forward(weights, tokens)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, 3)


def test_encoder_rejects_unknown_token():
    weights = init_encoder(small_config(), seed=7)
    with pytest.raises(ShapeError, match="unknown token id"):
        encoder_forward(weights, [3, 99])


def test_encoder_rejects_overlong_sequence():
    weights = init_encoder(small_config(), seed=7)
    with pytest.raises(ShapeError, match="too long"):
        encoder_forward(weights, list(range(13)))


@pytest.mark.parametrize("sequences, prompt_len, message", [
    ([[]], 0, "token sequence is empty"),
    ([[3, 4], []], 0, "token sequence is empty"),
    ([[3, -1]], 0, "unknown token id -1 for vocab size 16"),
    ([[3, 4], [np.int64(5), np.int64(16)]], 0, "unknown token id 16 for vocab size 16"),
    ([np.array([3, 4]), np.array([2, 99])], 0, "unknown token id 99 for vocab size 16"),
    ([list(range(13))], 0, "sequence too long: 13 tokens + 0 prompt rows > max_seq_len 12"),
    ([[1] * 10, [2] * 10], 3, "sequence too long: 10 tokens + 3 prompt rows > max_seq_len 12"),
    ([[1, 2, 3], [4, 5]], 0, "batch sequences differ in length: [2, 3]"),
    ([[1, 2], [4, 5, 99]], 0, "unknown token id 99 for vocab size 16"),
    ([[3.7, 4, 5]], 0, "token 3.7 is not an integer"),
    ([["3", "4", "5"]], 0, "token '3' is not an integer"),
    ([[3, 4], [5, None]], 0, "token None is not an integer"),
    ([[3, float("nan")]], 0, "token nan is not an integer"),
    ([[float("inf"), 4]], 0, "token inf is not an integer"),
    ([[True, False, 4]], 0, "token True is not an integer"),
    ([np.array([True, False, True])], 0, "token np.True_ is not an integer"),
], ids=["empty", "empty-second", "negative", "numpy-int", "numpy-row", "too-long",
        "too-long-with-prompt", "lengths", "unknown-before-lengths", "float", "string",
        "none", "nan", "inf", "bool", "numpy-bool"])
def test_malformed_batches_raise_the_per_token_message(sequences, prompt_len, message):
    config = small_config()
    weights = init_encoder(config, seed=7)
    adapter = init_pv1_adapter(config, prompt_len=prompt_len, seed=1) if prompt_len else None
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        encoder_forward_batch(weights, sequences, adapter)


def test_batch_forms_of_the_same_tokens_give_the_same_logits_bitwise():
    # an integer batch is checked as one array, anything else token by token
    weights = init_encoder(small_config(), seed=7)
    tokens = [[3, 1, 4, 1], [5, 9, 2, 6]]
    want = encoder_forward_batch(weights, tokens, per_position=True).data
    for form in ([tuple(t) for t in tokens], np.array(tokens), np.array(tokens, dtype=np.uint8),
                 [np.array(t) for t in tokens], np.array(tokens, dtype=np.float64)):
        got = encoder_forward_batch(weights, form, per_position=True).data
        assert got.tobytes() == want.tobytes()


def test_encoder_per_position_logits_shape():
    weights = init_encoder(small_config(), seed=7)
    out = encoder_forward(weights, [3, 1, 4], per_position=True)
    assert out.shape == (3, 3)


def test_encoder_golden_output_postnorm_regression():
    """Pinned output of the fixed seed/config forward pass.

    Locks in the residual layout (norm applied after each residual add) and
    the overall composition; any layout change breaks these values.
    """
    weights = init_encoder(small_config(), seed=11)
    logits = encoder_forward(weights, [2, 7, 1, 0]).data
    expected = np.array([[-0.023503730496855897, -0.054240566835668864, 0.02230247287921916]])
    np.testing.assert_allclose(logits, expected, atol=1e-12, rtol=0)


def test_encoder_gradients_match_finite_differences():
    config = small_config()
    weights = init_encoder(config, seed=13)
    tokens = [3, 1, 4, 1, 5, 9]
    label = [1]

    def loss_fn(_):
        return cross_entropy_mean(encoder_forward(weights, tokens), label)

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
