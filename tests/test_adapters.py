"""Adapter math: split/concat equivalence, placement invariance, attention
expansion, registries, and the parameter-budget claims."""

import hashlib

import numpy as np
import pytest

from conftest import small_config
from fltune import adapters
from fltune.adapters import (
    VERIFY_TOLERANCE,
    FLLayerParams,
    MALayerParams,
    ParamRegistry,
    build_registry,
    count_parameters,
    ffn_fl_concat,
    ffn_fl_split,
    init_fl_adapter,
    init_pv1_adapter,
    init_pv2_adapter,
    ma_concat_reference,
    ma_forward,
    tensor_content_hash,
    verify_ma_equivalence,
    verify_prefix_gate,
    verify_theorem1,
    verify_theorem2,
)
from fltune.encoder import (
    EncoderConfig,
    FFNLayer,
    attention_forward,
    encoder_forward,
    ffn_forward,
    init_encoder,
)
from fltune.tensor import (
    ShapeError,
    Tape,
    Tensor,
    check_gradients,
    cross_entropy_mean,
    matmul,
    sum_all,
)


def random_ffn(rng, d_m=6, d_o=10):
    u = lambda *s: rng.uniform(-1, 1, s)
    return FFNLayer(w1=Tensor(u(d_m, d_o)), b1=Tensor(u(1, d_o)),
                    w2=Tensor(u(d_o, d_m)), b2=Tensor(u(1, d_m)))


def random_fl_params(rng, d_m=6, d_a=4):
    u = lambda *s: rng.uniform(-1, 1, s)
    return FLLayerParams(w1=Tensor(u(d_m, d_a)), b1=Tensor(u(1, d_a)),
                         w2=Tensor(u(d_a, d_m)))


# ---------------------------------------------------------------------------
# split form
# ---------------------------------------------------------------------------

def test_split_zero_w2_equals_plain_ffn():
    rng = np.random.default_rng(0)
    layer = random_ffn(rng)
    params = FLLayerParams(w1=Tensor(rng.uniform(-1, 1, (6, 4))),
                           b1=Tensor(rng.uniform(-1, 1, (1, 4))),
                           w2=Tensor(np.zeros((4, 6))))
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    np.testing.assert_array_equal(ffn_fl_split(layer, params, x).data,
                                  ffn_forward(layer, x).data)


def test_split_scalar_hand_case():
    layer = FFNLayer(w1=Tensor([[1.0]]), b1=Tensor([[0.0]]),
                     w2=Tensor([[1.0]]), b2=Tensor([[0.0]]))
    params = FLLayerParams(w1=Tensor([[2.0]]), b1=Tensor([[0.0]]), w2=Tensor([[1.0]]))
    out = ffn_fl_split(layer, params, Tensor([[1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0]])


def test_concat_scalar_hand_case():
    layer = FFNLayer(w1=Tensor([[1.0]]), b1=Tensor([[0.0]]),
                     w2=Tensor([[1.0]]), b2=Tensor([[0.0]]))
    params = FLLayerParams(w1=Tensor([[2.0]]), b1=Tensor([[0.0]]), w2=Tensor([[1.0]]))
    for position in ("prefix", "infix", "suffix"):
        out = ffn_fl_concat(layer, params, Tensor([[1.0]]), position=position)
        np.testing.assert_array_equal(out, [[3.0]])


# ---------------------------------------------------------------------------
# concat oracle and the equivalence theorems
# ---------------------------------------------------------------------------

def test_concat_empty_adapter_equals_plain_ffn():
    rng = np.random.default_rng(1)
    layer = random_ffn(rng)
    params = FLLayerParams(w1=Tensor(np.zeros((6, 0))), b1=Tensor(np.zeros((1, 0))),
                           w2=Tensor(np.zeros((0, 6))))
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    for position in ("prefix", "infix", "suffix"):
        np.testing.assert_array_equal(
            ffn_fl_concat(layer, params, x, position=position),
            ffn_forward(layer, x).data)


def test_concat_matches_split_random_shapes():
    rng = np.random.default_rng(2)
    layer = random_ffn(rng, d_m=6, d_o=10)
    params = random_fl_params(rng, d_m=6, d_a=4)
    x = Tensor(rng.uniform(-1, 1, (5, 6)))
    split = ffn_fl_split(layer, params, x).data
    for position in ("prefix", "infix", "suffix"):
        conc = ffn_fl_concat(layer, params, x, position=position)
        np.testing.assert_allclose(conc, split, atol=1e-12, rtol=0)


def test_theorem1_200_random_trials():
    report = verify_theorem1(trials=200, seed=3)
    assert report.passed, report.failures[:3]
    assert report.max_deviation < 1e-12


def test_theorem1_all_zero_instance_has_zero_deviation():
    def zeros_draw(rng):
        layer = FFNLayer(w1=Tensor(np.zeros((4, 6))), b1=Tensor(np.zeros((1, 6))),
                         w2=Tensor(np.zeros((6, 4))), b2=Tensor(np.zeros((1, 4))))
        params = FLLayerParams(w1=Tensor(np.zeros((4, 2))), b1=Tensor(np.zeros((1, 2))),
                               w2=Tensor(np.zeros((2, 4))))
        return layer, params, Tensor(np.zeros((3, 4)))

    report = verify_theorem1(trials=1, seed=4, draw=zeros_draw)
    assert report.max_deviation == 0.0


def test_theorem1_rejects_zero_trials():
    with pytest.raises(ValueError, match="trials"):
        verify_theorem1(trials=0)


def test_split_equals_the_backbone_first_sum_bit_for_bit():
    """The split path is bit for bit the expanded FFN summed block by block,
    the backbone block (with b2) first and the added units last, so the
    concatenated form differs from it only by float summation order."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        layer = random_ffn(rng, d_m=7, d_o=12)
        params = random_fl_params(rng, d_m=7, d_a=5)
        x = Tensor(rng.uniform(-1, 1, (4, 7)))
        X, (w1, b1, w2, b2) = x.data, (t.data for t in (layer.w1, layer.b1, layer.w2, layer.b2))
        aw1, ab1, aw2 = params.w1.data, params.b1.data, params.w2.data
        ordered = (np.maximum(X @ w1 + b1, 0) @ w2 + b2) + np.maximum(X @ aw1 + ab1, 0) @ aw2
        assert ffn_fl_split(layer, params, x).data.tobytes() == ordered.tobytes()


def test_theorem2_boundary_indices_identical_to_prefix_suffix():
    rng = np.random.default_rng(6)
    layer = random_ffn(rng)
    params = random_fl_params(rng)
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    at_zero = ffn_fl_concat(layer, params, x, position="infix", infix_index=0)
    prefix = ffn_fl_concat(layer, params, x, position="prefix")
    assert np.array_equal(at_zero, prefix)
    at_end = ffn_fl_concat(layer, params, x, position="infix", infix_index=10)
    suffix = ffn_fl_concat(layer, params, x, position="suffix")
    assert np.array_equal(at_end, suffix)


def test_theorem2_200_random_trials():
    report = verify_theorem2(trials=200, seed=7)
    assert report.passed, report.failures[:3]
    assert report.max_deviation < 1e-12


def test_infix_index_out_of_range_raises():
    rng = np.random.default_rng(8)
    layer = random_ffn(rng)
    params = random_fl_params(rng)
    with pytest.raises(ShapeError, match="out of range"):
        ffn_fl_concat(layer, params, Tensor(np.zeros((2, 6))),
                      position="infix", infix_index=11)


def test_fl_gradients_pass_finite_differences():
    rng = np.random.default_rng(9)
    layer = random_ffn(rng)
    params = random_fl_params(rng)
    x = Tensor(rng.uniform(-1, 1, (3, 6)))
    w = Tensor(rng.uniform(-1, 1, (6, 1)))

    def loss_fn(_):
        return sum_all(matmul(ffn_fl_split(layer, params, x), w))

    for tensor in (params.w1, params.b1, params.w2):
        err = check_gradients(loss_fn, tensor, rng=rng)
        assert err < 1e-4


# ---------------------------------------------------------------------------
# attention expansion
# ---------------------------------------------------------------------------

def random_attention(rng, d_m=6, d_k=3, d_v=4, n_heads=2):
    from fltune.encoder import AttentionLayer
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


def ma_params(per_head):
    """One MALayerParams from per-head (dwq, dwk, dwv, dwo) arrays: head h is
    column block h of dwq, dwk and dwv and row block h of dwo."""
    dwq, dwk, dwv, dwo = zip(*per_head)
    return MALayerParams(dwq=Tensor(np.hstack(dwq)), dwk=Tensor(np.hstack(dwk)),
                         dwv=Tensor(np.hstack(dwv)), dwo=Tensor(np.vstack(dwo)))


def test_ma_zero_width_equals_plain_attention():
    rng = np.random.default_rng(10)
    layer = random_attention(rng)
    params = ma_params([(np.zeros((6, 0)), np.zeros((6, 0)), np.zeros((6, 0)), np.zeros((0, 6)))
                        for _ in range(2)])
    x = Tensor(rng.uniform(-1, 1, (4, 6)))
    assert np.array_equal(ma_forward(layer, params, x).data,
                          attention_forward(layer, x).data)


def test_ma_zeroed_expansion_is_transparent():
    rng = np.random.default_rng(11)
    layer = random_attention(rng)
    params = ma_params([(np.zeros((6, 3)), rng.uniform(-1, 1, (6, 3)),
                         rng.uniform(-1, 1, (6, 3)), np.zeros((3, 6)))
                        for _ in range(2)])
    x = Tensor(rng.uniform(-1, 1, (4, 6)))
    assert np.array_equal(ma_forward(layer, params, x).data,
                          attention_forward(layer, x).data)


def test_ma_split_matches_concat_reference():
    rng = np.random.default_rng(12)
    layer = random_attention(rng)
    params = ma_params([(rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (6, 4)),
                         rng.uniform(-1, 1, (6, 4)), rng.uniform(-1, 1, (4, 6)))
                        for _ in range(2)])
    x = Tensor(rng.uniform(-1, 1, (5, 6)))
    split = ma_forward(layer, params, x).data
    conc = ma_concat_reference(layer, params, x)
    np.testing.assert_allclose(split, conc, atol=1e-12, rtol=0)


def test_ma_equivalence_suite():
    report = verify_ma_equivalence(trials=100, seed=13)
    assert report.passed, report.failures[:3]


def test_prefix_attention_suite():
    report = verify_prefix_gate(trials=50, seed=14)
    assert report.passed, report.failures[:3]


def test_prefix_gate_suite_fails_doubled_prefix_values(monkeypatch):
    # doubled prefix values leave every attention row summing to 1, so only
    # the gate identity can tell them apart
    plain = adapters.attention_forward

    def doubled(layer, x, kv_prefix, **kwargs):
        e0, e1 = kv_prefix
        return plain(layer, x, kv_prefix=(e0, Tensor(2.0 * e1.data)), **kwargs)

    monkeypatch.setattr(adapters, "attention_forward", doubled)
    report = verify_prefix_gate(trials=50, seed=14)
    assert not report.passed
    assert report.max_deviation > VERIFY_TOLERANCE


# ---------------------------------------------------------------------------
# whole-encoder adapter behavior
# ---------------------------------------------------------------------------

def test_fl_zero_units_matches_no_adapter_bitwise():
    config = small_config()
    weights = init_encoder(config, seed=20)
    adapter = init_fl_adapter(config, d_a=0, seed=21)
    tokens = np.array([[3, 1, 4, 1, 5]])
    plain = encoder_forward(weights, tokens, pooled=True)
    with_adapter = encoder_forward(weights, tokens, adapter=adapter, pooled=True)
    assert np.array_equal(plain.data, with_adapter.data)


def test_fl_zero_init_transparent_bitwise():
    config = small_config()
    weights = init_encoder(config, seed=22)
    adapter = init_fl_adapter(config, d_a=8, seed=23)  # w2 starts at zero
    rng = np.random.default_rng(24)
    for _ in range(10):
        tokens = rng.integers(0, config.vocab_size, size=(1, 6))
        plain = encoder_forward(weights, tokens, pooled=True)
        with_adapter = encoder_forward(weights, tokens, adapter=adapter, pooled=True)
        assert np.array_equal(plain.data, with_adapter.data)


def test_fl_zero_units_argmax_invariant():
    config = small_config()
    weights = init_encoder(config, seed=25)
    adapter = init_fl_adapter(config, d_a=0, seed=26)
    tokens = np.array([[9, 2, 7]])
    a = encoder_forward(weights, tokens, pooled=True).data
    b = encoder_forward(weights, tokens, adapter=adapter, pooled=True).data
    assert np.argmax(a) == np.argmax(b)


def test_pv1_consumes_sequence_budget():
    config = small_config()
    weights = init_encoder(config, seed=28)
    adapter = init_pv1_adapter(config, prompt_len=4, seed=29)
    # 8 tokens + 4 prompt rows == max_seq_len, fine
    out = encoder_forward(weights, np.arange(8)[None], adapter=adapter, pooled=True)
    assert out.shape == (1, 3)
    with pytest.raises(ShapeError, match="too long"):
        encoder_forward(weights, np.arange(9)[None], adapter=adapter, pooled=True)


def test_pv2_encoder_gradients_for_prefix_tensors():
    config = small_config()
    weights = init_encoder(config, seed=30)
    adapter = init_pv2_adapter(config, prompt_len=3, seed=31)
    build_registry(weights, adapter)  # freezes backbone, marks adapter trainable
    tokens = np.array([[3, 1, 4, 1, 5]])

    def loss_fn(_):
        return cross_entropy_mean(encoder_forward(weights, tokens, adapter=adapter, pooled=True),
                                  [2])

    rng = np.random.default_rng(32)
    # every coordinate of both layers' packed prefixes, so every head's block
    for e0, e1 in adapter.prefixes:
        assert check_gradients(loss_fn, e0, max_coords=e0.size, rng=rng) < 1e-4
        assert check_gradients(loss_fn, e1, max_coords=e1.size, rng=rng) < 1e-4


def test_frozen_backbone_gets_no_grad_buffers_in_fl_mode():
    config = small_config()
    weights = init_encoder(config, seed=33)
    adapter = init_fl_adapter(config, d_a=4, seed=34)
    registry = build_registry(weights, adapter)
    with Tape() as tape:
        logits = encoder_forward(weights, np.array([[3, 1, 4]]), adapter=adapter, pooled=True)
        loss = cross_entropy_mean(logits, [0])
        tape.backward(loss)
    for entry in registry.frozen_entries():
        assert entry.tensor.grad is None, f"{entry.name} unexpectedly has a grad buffer"
    # adapter and head did receive gradients
    entries = {e.name: e for e in registry.entries}
    for name in ("adapter.layer00.w1", "adapter.layer00.b1", "adapter.layer00.w2",
                 "head.weight", "head.bias"):
        assert entries[name].tensor.grad is not None, name


# ---------------------------------------------------------------------------
# registry and budget accounting
# ---------------------------------------------------------------------------

def roberta_base_config():
    return EncoderConfig(d_m=768, n_heads=12, n_layers=12, vocab_size=1000,
                         max_seq_len=512, n_classes=2)


def test_registry_rejects_duplicates():
    reg = ParamRegistry()
    t = Tensor(np.zeros((2, 2)))
    reg.register("a", t, frozen=True, group="block")
    with pytest.raises(ValueError, match="duplicate"):
        reg.register("a", Tensor(np.zeros((2, 2))), frozen=True, group="block")
    with pytest.raises(ValueError, match="twice"):
        reg.register("b", t, frozen=True, group="block")


def test_registry_detects_frozen_mutation():
    reg = ParamRegistry()
    t = Tensor(np.ones((2, 2)))
    a = Tensor(np.ones((1, 2)))
    reg.register("w", t, frozen=True, group="block")
    reg.register("a", a, frozen=False, group="adapter")
    # only frozen entries are hashed: nothing reads a trainable one's hash
    assert [e.content_hash for e in reg.entries] == [tensor_content_hash(t), None]
    assert reg.frozen_violations() == []
    t.data[0, 0] = 2.0
    a.data[0, 0] = 2.0
    assert reg.frozen_violations() == ["w"]


def test_content_hash_is_byte_exact():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[1.0, 2.0]]))
    assert tensor_content_hash(a) == tensor_content_hash(b)
    b.data[0, 1] = np.nextafter(2.0, 3.0)
    assert tensor_content_hash(a) != tensor_content_hash(b)


def test_content_hash_is_sha256_of_shape_and_row_major_bytes():
    normal = Tensor(np.random.default_rng(45).normal(size=(3, 4)))
    empty = Tensor(np.zeros((0, 5)))
    scalar = Tensor(np.array(2.5))
    view = Tensor(np.zeros((4, 3)))
    view.data = np.arange(12.0).reshape(3, 4).T  # a strided view, not row-major in memory
    assert not view.data.flags["C_CONTIGUOUS"]
    for t in (normal, empty, scalar, view):
        want = hashlib.sha256(repr(t.data.shape).encode() + t.data.tobytes()).hexdigest()
        assert tensor_content_hash(t) == want


def test_adapter_count_closed_form_roberta_shape():
    config = roberta_base_config()
    weights = init_encoder(config, seed=40)
    adapter = init_fl_adapter(config, d_a=160, seed=41)
    registry = build_registry(weights, adapter)
    adapter_counts = count_parameters(registry, groups=("adapter",))
    assert adapter_counts.total == 12 * 160 * (2 * 768 + 1) == 2951040
    assert adapter_counts.trainable == adapter_counts.total

    block_counts = count_parameters(registry, groups=("block", "adapter"))
    assert 0.03 <= block_counts.fraction <= 0.04


def test_count_parameters_finetune_fraction_is_one():
    config = small_config()
    weights = init_encoder(config, seed=42)
    registry = build_registry(weights)
    counts = count_parameters(registry)
    assert counts.fraction == 1.0
    assert counts.total == counts.trainable


def test_count_parameters_zero_units_trains_head_only():
    config = small_config()
    weights = init_encoder(config, seed=43)
    adapter = init_fl_adapter(config, d_a=0, seed=44)
    registry = build_registry(weights, adapter)
    counts = count_parameters(registry)
    head = config.d_m * config.n_classes + config.n_classes
    assert counts.trainable == head


def test_every_tensor_registered_exactly_once():
    config = small_config()
    weights = init_encoder(config, seed=45)
    adapter = init_pv2_adapter(config, prompt_len=2, seed=46)
    registry = build_registry(weights, adapter)
    names = [e.name for e in registry.entries]
    assert len(names) == len(set(names))
    # embeddings + per-layer (packed q, k, v + 2 attn out + 2*2 norms + 4 ffn) + head
    # + adapter (packed e0, e1 per layer)
    per_layer = 3 + 2 + 4 + 4
    expected = 2 + config.n_layers * per_layer + 2 + config.n_layers * 2
    assert len(names) == expected
