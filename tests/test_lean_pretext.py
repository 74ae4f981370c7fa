"""The lean pretext step changes no bit of a pretrained backbone: one weighted
masked-token loss per pretext batch gives the gradients of the per-example
loss chain it replaces, and the single-pass Adam equals the per-tensor update,
also when the set of tensors with a gradient changes between steps."""

from pathlib import Path

import numpy as np
import pytest

from fltune.adapters import ParamRegistry, build_registry
from fltune.cli import load_experiment_config
from fltune.data import (
    MASK_ID,
    PRETRAIN_BATCH_SIZE,
    _pretext_batch,
    _pretext_loss,
    generate_task,
    pretrain_backbone,
)
from fltune.encoder import encoder_hidden_batch, init_encoder
from fltune.tensor import (
    ShapeError,
    Tape,
    Tensor,
    add,
    affine,
    check_gradients,
    cross_entropy_mean,
    gather_rows,
    scale,
)
from fltune.training import Adam

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo_classification.json"
LR, B1, B2, EPS = 1e-3, 0.9, 0.999, 1e-8


def per_example_loss(weights, head_w, head_b, batch):
    """The pretext loss as one gather/mean/scale/add chain per example."""
    hidden, _ = encoder_hidden_batch(
        weights, [[MASK_ID if m else t for t, m in zip(tokens, mask)]
                  for tokens, mask in batch])
    logits = affine(hidden, head_w, head_b)
    loss = None
    for b, (tokens, mask) in enumerate(batch):
        positions = np.flatnonzero(mask)
        part = scale(cross_entropy_mean(gather_rows(logits, b * len(tokens) + positions),
                                        [tokens[p] for p in positions]),
                     1.0 / PRETRAIN_BATCH_SIZE)
        loss = part if loss is None else add(loss, part)
    return loss


def demo_heads(weights, seed):
    """A pretext head drawn as ``pretrain_backbone`` draws it, the registry
    that trains it and every backbone tensor, and the pretext generator."""
    enc = weights.config
    rng = np.random.default_rng([seed, 4])
    head_w = Tensor(rng.normal(0.0, 0.02, (enc.d_m, enc.vocab_size)), requires_grad=True)
    head_b = Tensor(np.zeros((1, enc.vocab_size)), requires_grad=True)
    registry = build_registry(weights)
    registry.register("pretext.weight", head_w, frozen=False, group="pretext")
    registry.register("pretext.bias", head_b, frozen=False, group="pretext")
    return head_w, head_b, registry, rng


def demo_setup(seed=0):
    """The demo encoder, a small task at its shape, and ``demo_heads``."""
    enc = load_experiment_config(CONFIG).encoder
    task = generate_task("classification", sizes=(64, 8, 8), seed=0,
                         vocab_size=enc.vocab_size, seq_len=16, n_classes=enc.n_classes)
    weights = init_encoder(enc, seed=seed)
    return (weights, task, *demo_heads(weights, seed))


def grads_and_loss(loss_fn, registry):
    for e in registry.entries:
        e.tensor.grad = None
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    grads = {e.name: e.tensor.grad for e in registry.entries}
    for e in registry.entries:
        e.tensor.grad = None
    return loss.item(), grads


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_weighted_pretext_loss_has_the_per_example_gradients_bitwise():
    weights, task, head_w, head_b, registry, rng = demo_setup()
    sequences = [ex.tokens for ex in task.train]
    for _ in range(5):
        batch = _pretext_batch(rng, sequences)
        new_loss, new = grads_and_loss(
            lambda: _pretext_loss(weights, head_w, head_b, batch), registry)
        old_loss, old = grads_and_loss(
            lambda: per_example_loss(weights, head_w, head_b, batch), registry)
        assert abs(new_loss - old_loss) <= 1e-15 * abs(old_loss)
        live = [name for name, g in old.items() if g is not None]
        # every backbone tensor but the task head, and both pretext tensors
        assert "pretext.weight" in live and "pretext.bias" in live
        assert len(live) == len(registry.entries) - 2
        for name, g in old.items():
            if g is None:
                assert new[name] is None, name
            else:
                assert_bitwise(new[name], g)


def reference_pretrain(weights, task, steps, seed):
    """``pretrain_backbone`` with the per-example loss chain and the
    out-of-place per-tensor Adam formula."""
    head_w, head_b, registry, rng = demo_heads(weights, seed)
    sequences = [ex.tokens for ex in task.train]
    state = {}
    for t in range(1, steps + 1):
        batch = _pretext_batch(rng, sequences)
        _loss, grads = grads_and_loss(
            lambda: per_example_loss(weights, head_w, head_b, batch), registry)
        for e in registry.entries:
            g = grads[e.name]
            if g is None:
                continue
            m, v = state.get(e.name, (np.zeros_like(g), np.zeros_like(g)))
            m = B1 * m + (1 - B1) * g
            v = B2 * v + (1 - B2) * (g * g)
            state[e.name] = (m, v)
            e.tensor.data -= LR * (m / (1 - B1 ** t)) / (np.sqrt(v / (1 - B2 ** t)) + EPS)


def test_pretrain_backbone_equals_the_per_example_reference_bitwise():
    weights, task, *_ = demo_setup(seed=3)
    reference = init_encoder(weights.config, seed=3)
    pretrain_backbone(weights, task, steps=20, seed=3)
    reference_pretrain(reference, task, steps=20, seed=3)
    untouched = init_encoder(weights.config, seed=3)
    for (_, got, _g), (_, want, _g), (_, start, group) in zip(
            weights.named_tensors(), reference.named_tensors(), untouched.named_tensors()):
        assert_bitwise(got.data, want.data)
        # pretraining moved every backbone tensor but the task head
        assert np.array_equal(got.data, start.data) == (group == "head")


def test_weighted_cross_entropy_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(6, 5)))
    labels = [0, 4, 2, 2, 1, 3]
    w = rng.uniform(0.1, 2.0, size=6)
    assert check_gradients(lambda t: cross_entropy_mean(t, labels, w), x, eps=1e-6) < 1e-6


def test_weighted_cross_entropy_value_and_equal_weights():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 3))
    labels = [2, 0, 1, 1]
    w = np.array([0.5, 0.25, 0.125, 0.125])
    shifted = logits - logits.max(axis=1, keepdims=True)
    per_row = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(4), labels]
    assert cross_entropy_mean(Tensor(logits), labels, w).item() == pytest.approx(
        float(per_row @ w), rel=1e-15)
    # equal weights 1/m give the plain mean's gradient exactly
    grads = []
    for weights in (None, np.full(4, 1.0 / 4)):
        x = Tensor(logits.copy(), requires_grad=True)
        with Tape() as tape:
            tape.backward(cross_entropy_mean(x, labels, weights))
        grads.append(x.grad)
    assert_bitwise(grads[0], grads[1])


@pytest.mark.parametrize("weights", [np.ones(3), np.ones(5), np.ones((4, 1)), [1.0]])
def test_weights_of_the_wrong_length_are_a_shape_error(weights):
    with pytest.raises(ShapeError, match="weights must have length 4"):
        cross_entropy_mean(Tensor(np.zeros((4, 3))), [0, 1, 2, 0], weights)


def test_adam_skips_tensors_without_a_gradient_and_keeps_their_moments():
    rng = np.random.default_rng(21)
    shapes = [(3, 4), (2, 2), (1, 5)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    registry = ParamRegistry()
    for i, p in enumerate(params):
        registry.register(f"p{i}", p, frozen=False, group="adapter")
    entries = registry.trainable_entries()
    optimizer = Adam(LR)
    # p1 has no gradient on steps 2-3; p2 gets its first one on step 2
    live = {1: (0, 1), 2: (0, 2), 3: (0, 2), 4: (0, 1, 2), 5: (0, 1, 2)}

    want = [p.data.copy() for p in params]
    state = [(np.zeros(s), np.zeros(s)) for s in shapes]
    for t in range(1, 6):
        for i, s in enumerate(shapes):
            params[i].grad = rng.normal(size=s) if i in live[t] else None
        skipped = {i: want[i].copy() for i in range(3) if i not in live[t]}
        for i in live[t]:
            g = params[i].grad
            m, v = state[i]
            m = B1 * m + (1 - B1) * g
            v = B2 * v + (1 - B2) * (g * g)
            state[i] = (m, v)
            want[i] = want[i] - LR * (m / (1 - B1 ** t)) / (np.sqrt(v / (1 - B2 ** t)) + EPS)
        optimizer.step(entries)
        for p in params:
            p.grad = None
        for i, (p, w) in enumerate(zip(params, want)):
            assert_bitwise(p.data, w)
        for i, before in skipped.items():
            assert_bitwise(params[i].data, before)


def test_a_pretext_step_records_26_tape_entries():
    weights, task, head_w, head_b, _registry, rng = demo_setup()
    batch = _pretext_batch(rng, [ex.tokens for ex in task.train])
    counts = []
    for loss_fn in (_pretext_loss, per_example_loss):
        with Tape() as tape:
            loss_fn(weights, head_w, head_b, batch)
        counts.append(len(tape))
    # the per-example chain added gather, mean, scale and add per example;
    # each of the 2 layers drops 2 add records, as layer_norm takes the
    # residual sum itself
    assert counts == [26, 55]
