"""Synthetic task generation: oracle consistency, determinism, disjointness,
learnability probe, and the denoising pretext."""

import hashlib

import numpy as np
import pytest

import fltune.data as data
from fltune.data import (
    ENTITY_BEGIN_IDS,
    ENTITY_INSIDE_IDS,
    LABEL_FNS,
    MARKER_BASE,
    SEP_ID,
    Split,
    generate_task,
    label_classification,
    label_pair,
    label_tagging,
    pretrain_backbone,
)
from fltune.encoder import EncoderConfig, init_encoder
from fltune.adapters import tensor_content_hash
from fltune.tensor import ShapeError
from fltune.training import train_step


def split_arrays(task):
    return [(split.tokens, split.labels) for split in (task.train, task.dev, task.test)]


def test_labels_equal_rule_output_everywhere():
    for kind, n_classes in (("classification", 2), ("pair", 2), ("tagging", 3)):
        task = generate_task(kind, sizes=(60, 20, 20), seed=0, n_classes=n_classes)
        rule = LABEL_FNS[task.kind]
        for tokens, labels in split_arrays(task):
            for row, label in zip(tokens.tolist(), labels.tolist()):
                assert label == (list(rule(tuple(row))) if kind == "tagging"
                                 else rule(tuple(row)))


def test_splits_are_read_only_int64_arrays_of_the_configured_sizes():
    for kind, n_classes in (("classification", 2), ("pair", 2), ("tagging", 3)):
        task = generate_task(kind, sizes=(6, 4, 3), seed=0, seq_len=9, n_classes=n_classes)
        for split, n in zip((task.train, task.dev, task.test), (6, 4, 3)):
            assert len(split) == n
            assert split.tokens.shape == (n, 9) and split.tokens.dtype == np.int64
            assert split.labels.shape == ((n, 9) if kind == "tagging" else (n,))
            assert split.labels.dtype == np.int64
        picked = task.train[np.array([4, 1])]
        assert np.array_equal(picked.tokens, task.train.tokens[[4, 1]])
        assert np.array_equal(picked.labels, task.train.labels[[4, 1]])
        assert len(task.train[1:3]) == 2
    with pytest.raises(ValueError, match="read-only"):
        task.train.tokens[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        task.dev.labels[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        task.train[np.array([0])].tokens[0, 0] = 7


@pytest.mark.parametrize("kind, n_classes", [("classification", 2), ("tagging", 3)])
def test_a_split_refuses_an_integer_index_and_iteration(kind, n_classes):
    # split[0] would be one example's 1-d tokens, not a split
    task = generate_task(kind, sizes=(6, 4, 3), seed=0, seq_len=9, n_classes=n_classes)
    for index in (0, -1, np.int64(2)):
        with pytest.raises(ShapeError, match=r"^a split holds \(N, T\) tokens and N label rows"):
            task.train[index]
    with pytest.raises(ShapeError):
        list(task.train)
    with pytest.raises(ShapeError, match=r"got tokens \(6, 9\) and labels \(5,"):
        Split(task.train.tokens, task.train.labels[:5])
    assert len(task.train[2:4]) == 2 and len(task.train[np.array([5, 0, 3])]) == 3
    assert len(task.train[np.array([], dtype=np.int64)]) == 0


def test_pretraining_leaves_the_task_bytes_unchanged():
    _, weights, task = pretext_setup()
    before = [a.tobytes() for pair in split_arrays(task) for a in pair]
    pretrain_backbone(weights, task, steps=3, seed=11)
    assert [a.tobytes() for pair in split_arrays(task) for a in pair] == before


def test_generation_is_deterministic():
    a = generate_task("classification", sizes=(50, 10, 10), seed=7)
    b = generate_task("classification", sizes=(50, 10, 10), seed=7)
    for (ta, la), (tb, lb) in zip(split_arrays(a), split_arrays(b)):
        assert np.array_equal(ta, tb) and np.array_equal(la, lb)
    c = generate_task("classification", sizes=(50, 10, 10), seed=8)
    assert not np.array_equal(a.train.tokens, c.train.tokens)


def test_splits_are_disjoint():
    task = generate_task("pair", sizes=(200, 80, 80), seed=1)
    hashes = {}
    for name, split in (("train", task.train), ("dev", task.dev), ("test", task.test)):
        for row in split.tokens:
            key = row.tobytes()
            assert key not in hashes, f"{name} shares an example with {hashes.get(key)}"
            hashes[key] = name


def test_vocab_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        generate_task("classification", sizes=(10, 5, 5), vocab_size=4, n_classes=2)


def test_pair_task_structure():
    task = generate_task("pair", sizes=(40, 10, 10), seed=2, seq_len=15)
    seg = (15 - 1) // 2
    tokens, labels = task.train.tokens, task.train.labels
    assert (tokens[:, seg] == SEP_ID).all()
    assert (tokens[:, 0] >= MARKER_BASE).all()
    assert (tokens[:, seg + 1] >= MARKER_BASE).all()
    assert np.array_equal(labels, tokens[:, 0] == tokens[:, seg + 1])
    assert 0 in labels and 1 in labels


def test_tagging_task_has_entities_and_consistent_tags():
    task = generate_task("tagging", sizes=(40, 10, 10), seed=3, n_classes=3)
    any_entity = False
    for row, tags in zip(task.train.tokens.tolist(), task.train.labels.tolist()):
        for tok, tag in zip(row, tags):
            if tok in ENTITY_BEGIN_IDS:
                assert tag == 1
                any_entity = True
            elif tok in ENTITY_INSIDE_IDS:
                assert tag == 2
            else:
                assert tag == 0
    assert any_entity


def test_tagging_examples_are_pinned():
    # a fixed digest of the examples: any change to the number or order of
    # random draws in generation changes it
    task = generate_task("tagging", sizes=(200, 50, 50), seed=3, n_classes=3)
    pairs = [(tuple(row), tuple(tags)) for tokens, labels in split_arrays(task)
             for row, tags in zip(tokens.tolist(), labels.tolist())]
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == (
        "fc891b5d80e92f71abf3d4b290c709ae0fea3e8584e7768da556d426c9c81f3e")


def test_label_rules_direct():
    assert label_classification((MARKER_BASE + 1, 9, 9)) == 1
    assert label_pair((MARKER_BASE, 9, SEP_ID, MARKER_BASE, 9)) == 1
    assert label_pair((MARKER_BASE, 9, SEP_ID, MARKER_BASE + 1, 9)) == 0
    assert label_tagging((7, 3, 5, 9)) == (0, 1, 2, 0)


def test_linear_probe_on_marker_embeddings_solves_classification():
    """Depth-0 probe: softmax regression on the marker-position embedding
    row must comfortably beat 0.9, confirming the task is learnable."""
    task = generate_task("classification", sizes=(300, 100, 100), seed=4, vocab_size=64,
                         seq_len=16, n_classes=2)
    config = EncoderConfig(d_m=16, n_heads=2, n_layers=1, vocab_size=64, max_seq_len=16,
                           n_classes=2)
    weights = init_encoder(config, seed=5)
    emb = weights.tok_emb.data

    x = emb[task.train.tokens[:, 0]]
    y = task.train.labels
    w = np.zeros((16, 2))
    b = np.zeros(2)
    for _ in range(200):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        p /= len(y)
        w -= 1.0 * (x.T @ p)
        b -= 1.0 * p.sum(axis=0)

    x_dev = emb[task.dev.tokens[:, 0]]
    y_dev = task.dev.labels
    acc = float(((x_dev @ w + b).argmax(axis=1) == y_dev).mean())
    assert acc > 0.9


# ---------------------------------------------------------------------------
# pretraining pretext
# ---------------------------------------------------------------------------

def pretext_setup():
    config = EncoderConfig(d_m=8, n_heads=2, n_layers=1, vocab_size=24,
                           max_seq_len=12, n_classes=2)
    weights = init_encoder(config, seed=9)
    task = generate_task("classification", sizes=(120, 20, 20), seed=10,
                         vocab_size=24, seq_len=10)
    return config, weights, task


def test_pretrain_zero_steps_leaves_weights_unchanged():
    _, weights, task = pretext_setup()
    before = {name: tensor_content_hash(t) for name, t, _ in weights.named_tensors()}
    pretrain_backbone(weights, task, steps=0)
    after = {name: tensor_content_hash(t) for name, t, _ in weights.named_tensors()}
    assert before == after


def test_pretrain_reduces_denoising_loss(monkeypatch):
    _, weights, task = pretext_setup()
    losses = []

    def recorded_step(*args):
        out = train_step(*args)
        losses.append(out[0])
        return out

    monkeypatch.setattr(data, "train_step", recorded_step)
    pretrain_backbone(weights, task, steps=120, seed=11)
    assert len(losses) == 120
    assert np.mean(losses[-10:]) < losses[0]


def test_pretrain_restores_requires_grad_flags():
    _, weights, task = pretext_setup()
    pretrain_backbone(weights, task, steps=2, seed=12)
    for _name, tensor, _group in weights.named_tensors():
        assert tensor.requires_grad is False


def test_pretrained_vs_random_backbone_diagnostic(capsys):
    """Paired tagging runs on a pretrained and an untouched backbone.

    Diagnostic only: the ordering is reported, not asserted, since at desk
    scale a short pretext run need not help every seed."""
    from fltune.training import TrainConfig, make_adapter, train

    config = EncoderConfig(d_m=8, n_heads=2, n_layers=1, vocab_size=24,
                           max_seq_len=12, n_classes=3)
    task = generate_task("tagging", sizes=(120, 40, 40), seed=13,
                         vocab_size=24, seq_len=8, n_classes=3)
    results = {}
    for label, steps in (("random", 0), ("pretrained", 300)):
        weights = init_encoder(config, seed=14)
        if steps:
            pretrain_backbone(weights, task, steps=steps, seed=15)
        tc = TrainConfig(mode="fl", d_a=4, learning_rate=3e-3,
                         batch_size=8, epochs=6, seed=16)
        adapter = make_adapter(config, tc)
        metrics = train(weights, adapter, task, tc)
        results[label] = metrics.final_dev
    print(f"tagging dev F1: random backbone {results['random'].f1:.3f}, "
          f"pretrained backbone {results['pretrained'].f1:.3f}")
    assert set(results) == {"random", "pretrained"}
