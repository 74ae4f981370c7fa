"""Final-layer row pruning: the final layer computes only the rows the head
reads (the pooled row, or every token row but no prompt row), with the logits
and gradients of the all-rows pass."""

import numpy as np
import pytest

import fltune.encoder as encoder_module
from fltune.adapters import build_registry
from fltune.data import PRETRAIN_BATCH_SIZE, generate_task, pretrain_backbone
from fltune.encoder import (
    AdapterHooks,
    EncoderConfig,
    attention_forward,
    encoder_forward,
    encoder_forward_batch,
    encoder_hidden,
    ffn_fl_split,
    ffn_forward,
    init_encoder,
)
from fltune.tensor import (
    Tape,
    add,
    affine,
    check_gradients,
    cross_entropy_mean,
    gather_rows,
    layer_norm,
    matmul,
    row_slice,
)
from fltune.training import TrainConfig, evaluate, make_adapter

MODES = ("fl", "pv1", "pv2", "ma", "finetune")
POOLED_KINDS = ("classification", "pair")
SEQ_LEN = 8
PROMPT_LEN = 2


def build(mode, kind, seed=0):
    """Backbone, adapter and registry with every trainable tensor moved off
    its initial value, so no zero-initialized adapter term is transparent."""
    n_classes = 3 if kind == "tagging" else 2
    config = EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=32,
                           max_seq_len=16, n_classes=n_classes)
    task = generate_task(kind, sizes=(6, 3, 1), seed=seed, vocab_size=32,
                         seq_len=SEQ_LEN, n_classes=n_classes)
    weights = init_encoder(config, seed=seed)
    adapter = make_adapter(config, TrainConfig(mode=mode, d_a=3, prompt_len=PROMPT_LEN,
                                               d_a_prime=3, seed=seed))
    registry = build_registry(weights, adapter)
    rng = np.random.default_rng([seed, 9])
    for e in registry.trainable_entries():
        e.tensor.data = e.tensor.data + rng.normal(0.0, 0.3, e.tensor.shape)
    return weights, adapter, registry, task


def all_rows_hidden(weights, tokens, adapter):
    """The layer loop with no row pruning: every row of every example, prompt
    rows included, through every layer. Returns the rows and the prompt
    row count."""
    hooks = adapter if adapter is not None else AdapterHooks()
    prompt = hooks.prompt_rows()
    prompt_len = 0 if prompt is None else prompt.shape[0]
    tokens = np.atleast_2d(tokens)
    batch, seq_len = tokens.shape
    x = gather_rows(weights.tok_emb, tokens.ravel())
    if prompt_len:
        x = encoder_module._prepend_rows(prompt, x, batch)
    x = add(x, gather_rows(weights.pos_emb, np.tile(np.arange(prompt_len + seq_len), batch)))
    for i, layer in enumerate(weights.layers):
        attn_out = attention_forward(layer.attn, x, kv_prefix=hooks.kv_prefix(i),
                                     expansion=hooks.attn_expansion(i), batch=batch)
        x = layer_norm(x, layer.norm1.gain, layer.norm1.bias, residual=attn_out)
        units = hooks.ffn_units(i)
        ffn_out = ffn_forward(layer.ffn, x) if units is None else ffn_fl_split(layer.ffn, units, x)
        x = layer_norm(x, layer.norm2.gain, layer.norm2.bias, residual=ffn_out)
    return x, prompt_len


def all_rows_logits(weights, tokens, adapter):
    """The head applied to the pooled row of the full hidden states."""
    hidden, prompt_len = all_rows_hidden(weights, tokens, adapter)
    pooled = row_slice(hidden, prompt_len, prompt_len + 1)
    return add(matmul(pooled, weights.head_w), weights.head_b)


def all_rows_tagging_logits(weights, tokens, adapter):
    """The head applied to every token row of the full hidden states, the
    prompt rows dropped after the final layer."""
    hidden, prompt_len = all_rows_hidden(weights, tokens, adapter)
    total = prompt_len + tokens.shape[1]
    keep = np.flatnonzero(np.arange(hidden.shape[0]) % total >= prompt_len)
    return affine(gather_rows(hidden, keep), weights.head_w, weights.head_b)


def tape_grads(registry, loss_fn) -> dict:
    trainable = registry.trainable_entries()
    for e in trainable:
        e.tensor.grad = None
    with Tape() as tape:
        tape.backward(loss_fn())
    grads = {e.name: e.tensor.grad for e in trainable if e.tensor.grad is not None}
    for e in trainable:
        e.tensor.grad = None
    return grads


@pytest.mark.parametrize("kind", POOLED_KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_pooled_logits_match_all_rows(mode, kind):
    weights, adapter, _registry, task = build(mode, kind)
    for tokens in task.train.tokens:
        hidden = encoder_hidden(weights, tokens, adapter, pooled=True)
        assert hidden.shape == (1, weights.config.d_m)
        pooled = encoder_forward(weights, tokens, adapter).data
        full = all_rows_logits(weights, tokens, adapter).data
        np.testing.assert_allclose(pooled, full, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", POOLED_KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_pooled_gradients_match_all_rows(mode, kind):
    weights, adapter, registry, task = build(mode, kind)
    tokens, label = task.train.tokens[0], task.train.labels[:1]
    pooled = tape_grads(registry, lambda: cross_entropy_mean(
        encoder_forward(weights, tokens, adapter), label))
    full = tape_grads(registry, lambda: cross_entropy_mean(
        all_rows_logits(weights, tokens, adapter), label))
    assert pooled.keys() == full.keys()
    assert "head.weight" in pooled
    for name in full:
        np.testing.assert_allclose(pooled[name], full[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("mode", MODES)
def test_tagging_logits_match_all_rows(mode):
    weights, adapter, _registry, task = build(mode, "tagging")
    tokens = task.train.tokens
    got = encoder_forward_batch(weights, tokens, adapter, per_position=True).data
    assert got.shape == (tokens.size, weights.config.n_classes)
    want = all_rows_tagging_logits(weights, tokens, adapter).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_tagging_gradients_match_all_rows(mode):
    weights, adapter, registry, task = build(mode, "tagging")
    tokens, labels = task.train.tokens[:2], task.train.labels[:2].ravel()
    pruned = tape_grads(registry, lambda: cross_entropy_mean(
        encoder_forward_batch(weights, tokens, adapter, per_position=True), labels))
    full = tape_grads(registry, lambda: cross_entropy_mean(
        all_rows_tagging_logits(weights, tokens, adapter), labels))
    assert pruned.keys() == full.keys()
    assert "head.weight" in pruned
    for name in full:
        np.testing.assert_allclose(pruned[name], full[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("mode, kind, pick", [
    ("fl", "classification", lambda a: a.layers[1].w1),
    ("fl", "pair", lambda a: a.layers[1].w2),
    ("fl", "classification", lambda a: a.layers[1].b1),
    ("ma", "pair", lambda a: a.layers[1].dwq),
], ids=["fl-w1", "fl-w2", "fl-b1", "ma-dwq"])
def test_pruned_path_passes_finite_differences(mode, kind, pick):
    weights, adapter, _registry, task = build(mode, kind)
    examples = task.train[:2]

    def loss_fn(_tensor):
        loss = None
        for tokens, label in zip(examples.tokens, examples.labels):
            part = cross_entropy_mean(encoder_forward(weights, tokens, adapter), [label])
            loss = part if loss is None else add(loss, part)
        return loss

    tensor = pick(adapter)  # every coordinate; for ma-dwq, every head's block
    err = check_gradients(loss_fn, tensor, eps=1e-6, max_coords=tensor.size,
                          rng=np.random.default_rng(3))
    assert err < 1e-6


def ffn_rows_by_layer(monkeypatch, weights) -> dict:
    """Record the row count every FFN call receives, keyed by 'last' for the
    final layer and 'inner' for every other layer."""
    seen = {"inner": set(), "last": set()}
    last_ffn = weights.layers[-1].ffn

    def wrap(fn):
        def wrapper(layer, *args):
            seen["last" if layer is last_ffn else "inner"].add(args[-1].shape[0])
            return fn(layer, *args)
        return wrapper

    monkeypatch.setattr(encoder_module, "ffn_forward", wrap(encoder_module.ffn_forward))
    monkeypatch.setattr(encoder_module, "ffn_fl_split", wrap(encoder_module.ffn_fl_split))
    return seen


# evaluate packs the whole dev split (3 examples, far under EVAL_ROWS rows)
# into one pass: n examples of SEQ_LEN + prompt rows each.
@pytest.mark.parametrize("mode, prompt_rows", [("fl", 0), ("pv1", PROMPT_LEN),
                                               ("finetune", 0)])
def test_last_layer_ffn_gets_one_row_for_classification(monkeypatch, mode, prompt_rows):
    weights, adapter, _registry, task = build(mode, "classification")
    seen = ffn_rows_by_layer(monkeypatch, weights)
    evaluate(weights, adapter, task.dev, task.kind)
    n = len(task.dev)
    assert seen == {"inner": {n * (SEQ_LEN + prompt_rows)}, "last": {n}}


# Tagging reads every token row: the final layer computes those and no
# prompt row, while the inner layers compute every row.
@pytest.mark.parametrize("mode, prompt_rows", [("fl", 0), ("pv1", PROMPT_LEN)])
def test_tagging_ffn_gets_every_row(monkeypatch, mode, prompt_rows):
    weights, adapter, _registry, task = build(mode, "tagging")
    seen = ffn_rows_by_layer(monkeypatch, weights)
    evaluate(weights, adapter, task.dev, task.kind)
    n = len(task.dev)
    assert seen == {"inner": {n * (SEQ_LEN + prompt_rows)}, "last": {n * SEQ_LEN}}


def test_pretraining_ffn_gets_every_row(monkeypatch):
    weights, _adapter, _registry, task = build("finetune", "classification")
    seen = ffn_rows_by_layer(monkeypatch, weights)
    pretrain_backbone(weights, task, steps=1, seed=0)
    assert seen == {"inner": {PRETRAIN_BATCH_SIZE * SEQ_LEN},
                    "last": {PRETRAIN_BATCH_SIZE * SEQ_LEN}}
