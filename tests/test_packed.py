"""Packed batches: a minibatch runs as one stack of rows and gives the logits
and gradients of one pass per example, with no example reading another."""

import numpy as np
import pytest

from fltune.adapters import build_registry
from fltune.data import KINDS, generate_task
from fltune.encoder import EncoderConfig, encoder_forward, encoder_forward_batch, init_encoder
from fltune.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    attention_weights,
    check_gradients,
    cross_entropy_mean,
    matmul,
    scale,
    sum_all,
)
from fltune.training import TrainConfig, batch_loss, make_adapter

MODES = ("fl", "pv1", "pv2", "ma", "finetune")
SEQ_LEN = 8


def build(mode, kind, seed=0):
    """Backbone, adapter and registry with every trainable tensor moved off
    its initial value, so no zero-initialized adapter term is transparent."""
    n_classes = 3 if kind == "tagging" else 2
    config = EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=32,
                           max_seq_len=16, n_classes=n_classes)
    task = generate_task(kind, sizes=(5, 1, 1), seed=seed, vocab_size=32,
                         seq_len=SEQ_LEN, n_classes=n_classes)
    weights = init_encoder(config, seed=seed)
    adapter = make_adapter(config, TrainConfig(mode=mode, d_a=3, prompt_len=2,
                                               d_a_prime=3, seed=seed))
    registry = build_registry(weights, adapter)
    rng = np.random.default_rng([seed, 9])
    for e in registry.trainable_entries():
        e.tensor.data = e.tensor.data + rng.normal(0.0, 0.3, e.tensor.shape)
    return weights, adapter, registry, task


def labels_of(ex, kind):
    return list(ex.label) if kind == "tagging" else [ex.label]


def tape_grads(registry, loss_fn) -> dict:
    trainable = registry.trainable_entries()
    with Tape() as tape:
        tape.backward(loss_fn())
    grads = {e.name: e.tensor.grad for e in trainable if e.tensor.grad is not None}
    for e in trainable:
        e.tensor.grad = None
    return grads


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_packed_batch_matches_single_examples(mode, kind):
    weights, adapter, registry, task = build(mode, kind)
    examples = task.train
    per_position = kind == "tagging"
    packed = encoder_forward_batch(weights, [ex.tokens for ex in examples], adapter,
                                   per_position=per_position).data
    single = np.concatenate([encoder_forward(weights, ex.tokens, adapter,
                                             per_position=per_position).data
                             for ex in examples])
    np.testing.assert_allclose(packed, single, rtol=0, atol=1e-12)

    def per_example_loss():
        loss = None
        for ex in examples:
            logits = encoder_forward(weights, ex.tokens, adapter, per_position=per_position)
            part = scale(cross_entropy_mean(logits, labels_of(ex, kind)), 1.0 / len(examples))
            loss = part if loss is None else add(loss, part)
        return loss

    got = tape_grads(registry, lambda: batch_loss(weights, adapter, examples, kind)[0])
    want = tape_grads(registry, per_example_loss)
    assert got.keys() == want.keys() == {e.name for e in registry.trainable_entries()}
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_examples_in_a_batch_do_not_read_each_other(mode, kind):
    weights, adapter, _registry, task = build(mode, kind)
    sequences = [ex.tokens for ex in task.train]
    per_position = kind == "tagging"
    changed = list(sequences)
    changed[2] = tuple(reversed(sequences[2]))
    before = encoder_forward_batch(weights, sequences, adapter, per_position=per_position).data
    after = encoder_forward_batch(weights, changed, adapter, per_position=per_position).data
    rows = before.shape[0] // len(sequences)
    keep = np.arange(before.shape[0]) // rows != 2
    assert np.array_equal(before[keep], after[keep])
    assert not np.array_equal(before[~keep], after[~keep])


def test_ragged_batch_raises_shape_error():
    weights, adapter, _registry, task = build("fl", "classification")
    sequences = [task.train[0].tokens, task.train[1].tokens[:-1]]
    with pytest.raises(ShapeError, match="differ in length"):
        encoder_forward_batch(weights, sequences, adapter)


def test_empty_batch_raises_shape_error():
    weights, _adapter, _registry, _task = build("finetune", "classification")
    with pytest.raises(ShapeError, match="no sequences"):
        encoder_forward_batch(weights, [])


@pytest.mark.parametrize("which", [2, 3], ids=["qx", "kx"])
def test_attention_expansion_operands_pass_finite_differences(which):
    rng = np.random.default_rng(which)
    batch, heads, tq, tk = 2, 3, 4, 5
    operands = [Tensor(rng.uniform(-1.0, 1.0, shape)) for shape in
                [(batch * tq, heads * 2), (batch * tk, heads * 2),
                 (batch * tq, heads * 3), (batch * tk, heads * 3)]]
    column = Tensor(rng.normal(size=(tk, 1)))

    def loss(_x):
        a = attention_weights(operands[0], operands[1], batch, heads, 0.7,
                              operands[2], operands[3])
        return sum_all(matmul(a, column))

    x = operands[which]
    assert check_gradients(loss, x, eps=1e-6, max_coords=x.size, rng=rng) < 1e-6
