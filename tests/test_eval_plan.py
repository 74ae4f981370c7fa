"""Row-packed evaluation: each ``evaluate`` pass holds
``max(1, EVAL_ROWS // rows)`` examples, counting prompt rows, and the plan
leaves accuracy and F1 as one pass per example gives them."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import fltune.training as training
from fltune.data import Split, generate_task
from fltune.encoder import EncoderConfig, encoder_forward, init_encoder
from fltune.tensor import ShapeError, cross_entropy_mean
from fltune.training import EVAL_ROWS, TrainConfig, evaluate, make_adapter, span_f1

MODES = ("fl", "pv1", "pv2", "ma", "finetune")
KINDS = ("classification", "pair", "tagging")


def build(mode, kind, seq_len, dev_size, prompt_len=2, seed=0):
    """A one-layer encoder, an adapter moved off its initial value (so no
    zero-initialized term is transparent) and a task with ``dev_size`` dev
    examples."""
    n_classes = 3 if kind == "tagging" else 2
    config = EncoderConfig(d_m=8, n_heads=2, n_layers=1, vocab_size=32,
                           max_seq_len=seq_len + prompt_len, n_classes=n_classes)
    task = generate_task(kind, sizes=(1, dev_size, 1), seed=seed, vocab_size=32,
                         seq_len=seq_len, n_classes=n_classes)
    weights = init_encoder(config, seed=seed)
    adapter = make_adapter(config, TrainConfig(mode=mode, d_a=3, prompt_len=prompt_len,
                                               d_a_prime=3, seed=seed))
    rng = np.random.default_rng([seed, 9])
    for _name, tensor in (adapter.named_tensors() if adapter is not None else ()):
        tensor.data = tensor.data + rng.normal(0.0, 0.3, tensor.shape)
    return weights, adapter, task


def recorded_passes(monkeypatch, weights, adapter, task) -> list:
    """The token array of each ``encoder_forward`` call that one
    ``evaluate`` of the dev split makes."""
    passes = []
    forward = training.encoder_forward

    def recording(weights, sequences, *args, **kwargs):
        passes.append(sequences)
        return forward(weights, sequences, *args, **kwargs)

    monkeypatch.setattr(training, "encoder_forward", recording)
    evaluate(weights, adapter, task.dev, task.kind)
    return passes


@pytest.mark.parametrize("mode, seq_len, prompt_len, per_pass", [
    ("fl", 16, 0, 64),           # 1024 // 16
    ("pv1", 16, 8, 42),          # 1024 // (16 + 8): prompt rows count
    ("finetune", 10, 0, 102),    # 1024 // 10
    ("fl", 64, 0, 16),           # 1024 // 64
    ("pv1", 16, 160, 5),         # 1024 // 176
    ("fl", 1100, 0, 1),          # one example holds more than EVAL_ROWS rows
])
def test_passes_cover_the_split_in_order(monkeypatch, mode, seq_len, prompt_len, per_pass):
    assert per_pass == max(1, EVAL_ROWS // (seq_len + prompt_len))
    weights, adapter, task = build(mode, "classification", seq_len, 2 * per_pass + 1,
                                   prompt_len=prompt_len)
    passes = recorded_passes(monkeypatch, weights, adapter, task)
    assert [len(p) for p in passes] == [per_pass, per_pass, 1]
    # each pass is a view of the split's rows, in order, not a copy
    assert np.array_equal(np.concatenate(passes), task.dev.tokens)
    assert all(p.base is task.dev.tokens.base for p in passes)


def one_pass_per_example(weights, adapter, examples, kind):
    """Accuracy, mean loss and F1 from one forward pass per example."""
    tagging = kind == "tagging"
    correct = labels = 0
    losses, true_seqs, pred_seqs = [], [], []
    for tokens, label in zip(examples.tokens, examples.labels.tolist()):
        logits = encoder_forward(weights, tokens[None], adapter, pooled=not tagging)
        target = label if tagging else [label]
        losses.append(cross_entropy_mean(logits, target).item())
        pred = logits.data.argmax(axis=1)
        correct += int((pred == np.asarray(target)).sum())
        labels += len(target)
        true_seqs.append(target)
        pred_seqs.append(pred)
    f1 = span_f1(np.array(true_seqs), np.array(pred_seqs)) if tagging else None
    return correct / labels, sum(losses) / len(losses), f1


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_evaluate_matches_one_pass_per_example(mode, kind):
    # 8 rows (10 with pv1's prompt): passes of 128 (102) examples, so 140
    # take two.
    weights, adapter, task = build(mode, kind, seq_len=8, dev_size=140)
    result = evaluate(weights, adapter, task.dev, task.kind)
    accuracy, mean_loss, f1 = one_pass_per_example(weights, adapter, task.dev, task.kind)
    assert result.accuracy == accuracy
    assert result.f1 == f1
    assert math.isclose(result.mean_loss, mean_loss, rel_tol=1e-12, abs_tol=0.0)


def test_readme_pass_plan_numbers_match_training():
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    stated = dict(re.findall(r"`training\.(EVAL_\w+)` = (\d+)", text))
    assert stated == {"EVAL_ROWS": str(EVAL_ROWS)}


def test_empty_sequence_raises_the_encoder_error():
    weights, adapter, task = build("fl", "classification", seq_len=8, dev_size=2)
    empty = Split(np.zeros((1, 0), np.int64), task.dev.labels[:1])
    with pytest.raises(ShapeError, match="token sequence is empty"):
        evaluate(weights, adapter, empty, task.kind)
