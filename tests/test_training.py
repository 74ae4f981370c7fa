"""Training loop: smoothing, optimizers, freezing, determinism, few-shot."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltune import training
from fltune.adapters import build_registry, count_parameters, tensor_content_hash
from fltune.data import generate_task
from fltune.encoder import EncoderConfig, init_encoder
from fltune.training import (
    Adam,
    DivergenceError,
    SGD,
    TrainConfig,
    convergence_step,
    evaluate,
    fewshot_subsample,
    make_adapter,
    read_metrics_csv,
    run_summary,
    smooth_loss,
    span_f1,
    train,
    write_metrics_csv,
)

ALL_MODES = ("fl", "pv1", "pv2", "ma", "finetune")


def small_setup(mode="fl", **config_overrides):
    encoder_config = EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=32,
                                   max_seq_len=20, n_classes=2)
    task = generate_task("classification", sizes=(64, 24, 24), seed=1,
                         vocab_size=32, seq_len=10)
    overrides = dict(mode=mode, d_a=4, prompt_len=3, d_a_prime=2,
                     batch_size=8, epochs=1, seed=5)
    overrides.update(config_overrides)
    config = TrainConfig(**overrides)
    weights = init_encoder(encoder_config, seed=3)
    adapter = make_adapter(encoder_config, config)
    return weights, adapter, task, config


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smooth_loss_paper_substitution():
    assert smooth_loss(1.0, 0.0) == 0.99


def test_smooth_loss_constant_fixed_point():
    value = None
    for _ in range(50):
        value = smooth_loss(value, 0.625)
        assert value == 0.625


# ---------------------------------------------------------------------------
# convergence step
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1e3), st.integers(2, 400))
def test_convergence_step_of_a_constant_series_is_1(value, n):
    assert convergence_step([value] * n) == 1


@pytest.mark.parametrize("losses, step", [
    ([0.3] * 2, 1),
    ([0.3] * 11, 1),
    ([0.7] * 1250, 1),
    ([1.0] * 50 + [0.1] * 50, 51),
    (1 - np.arange(100) / 100, None),
    ([0.5], None),
    (0.7 + 0.03 * np.random.default_rng(0).normal(size=1250), None),
    (0.2 + 0.5 * np.exp(-np.arange(1250) / 100), 232),
], ids=["constant_2", "constant_11", "constant_1250", "step_drop", "linear_never_settles",
        "one_step", "noise", "exp_decay"])
def test_convergence_step_on_hand_made_series(losses, step):
    assert convergence_step(list(losses)) == step


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=300),
       st.integers(-16, 16))
def test_convergence_step_bounds_and_scale_invariance(losses, k):
    # moderate losses and exponents: every scaled sum and difference is a
    # normal float, so scaling by 2**k is exact at each operation
    n = len(losses)
    w = -(-n // 10)
    step = convergence_step(losses)
    assert step is None or 1 <= step <= n - 2 * w + 1
    assert convergence_step([loss * 2.0 ** k for loss in losses]) == step


# ---------------------------------------------------------------------------
# span F1
# ---------------------------------------------------------------------------

def oracle_spans(labels):
    """Maximal begin (1) + inside (2) runs as (start, end) half-open spans,
    walked tag by tag; a dangling inside tag starts a span."""
    spans = set()
    start = None
    for i, lab in enumerate(labels):
        if lab == 1:
            if start is not None:
                spans.add((start, i))
            start = i
        elif lab == 2:
            if start is None:
                start = i
        elif start is not None:
            spans.add((start, i))
            start = None
    if start is not None:
        spans.add((start, len(labels)))
    return spans


def oracle_f1(true_seqs, pred_seqs):
    """span_f1 from per-sequence span sets."""
    tp = fp = fn = 0
    for t, p in zip(true_seqs, pred_seqs):
        t, p = oracle_spans(t), oracle_spans(p)
        tp += len(t & p)
        fp += len(p - t)
        fn += len(t - p)
    if tp == fp == fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision, recall = tp / (tp + fp), tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def f1_of(true_rows, pred_rows):
    return span_f1(np.array(true_rows), np.array(pred_rows))


def test_tag_spans_extraction():
    # span_f1 scores the (start, end) begin+inside runs of each sequence
    # truth spans (1, 4) and (5, 6): predicting only the first is precision 1,
    # recall 1/2
    assert f1_of([[0, 1, 2, 2, 0, 1, 0]], [[0, 1, 2, 2, 0, 0, 0]]) == pytest.approx(2 / 3)
    # a span must end where the truth's does: (1, 3) matches neither
    assert f1_of([[0, 1, 2, 2, 0, 1, 0]], [[0, 1, 2, 0, 0, 0, 0]]) == 0.0
    # two begins are two spans, (0, 1) and (1, 2)
    assert f1_of([[1, 1]], [[1, 0]]) == pytest.approx(2 / 3)
    # a dangling inside tag starts a span
    assert f1_of([[1, 2]], [[2, 2]]) == 1.0
    # a span ends with its row: (0, 2) in each row, not one (0, 4)
    assert f1_of([[1, 2], [2, 2]], [[1, 2], [1, 2]]) == 1.0
    # no begin or inside tag, no span
    assert f1_of([[0, 0]], [[0, 0]]) == 1.0
    assert f1_of([[0, 0]], [[0, 1]]) == 0.0


tags = st.integers(-2, 4)  # begin 1, inside 2, and outside tags besides 0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_span_f1_equals_the_span_set_oracle(data):
    n, width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 12))
    rows = st.lists(st.lists(tags, min_size=width, max_size=width), min_size=n, max_size=n)
    true = np.array(data.draw(rows), dtype=np.int64).reshape(n, width)
    other = np.array(data.draw(rows), dtype=np.int64).reshape(n, width)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n * width,
                                       max_size=n * width)), dtype=bool).reshape(n, width)
    pred = np.where(keep, true, other)
    unpair = data.draw(st.sampled_from(["paired", "drop", "shorten"]))
    if unpair == "drop" and n:
        pred = np.delete(pred, data.draw(st.integers(0, n - 1)), axis=0)
    elif unpair == "shorten" and width:
        pred = pred[:, :-1]
    if pred.shape != true.shape:
        message = f"true labels have shape {true.shape} but predictions {pred.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            span_f1(true, pred)
    else:
        assert span_f1(true, pred) == oracle_f1(true.tolist(), pred.tolist())


def test_span_f1_exact_match_and_mismatch():
    truth = [[0, 1, 2, 0]]
    assert f1_of(truth, [[0, 1, 2, 0]]) == 1.0
    assert f1_of(truth, [[0, 0, 0, 0]]) == 0.0
    # half precision, full recall
    assert f1_of(truth, [[1, 1, 2, 0]]) == pytest.approx(2 / 3)
    assert f1_of([[0, 0]], [[0, 0]]) == 1.0
    # no sequences, no spans
    assert span_f1(np.zeros((0, 4), np.int64), np.zeros((0, 4), np.int64)) == 1.0


@pytest.mark.parametrize("true_shape, pred_shape", [
    ((1, 2), (0, 2)),
    ((0, 2), (1, 2)),
    ((2, 2), (2, 1)),
], ids=["fewer-predicted-rows", "more-predicted-rows", "shorter-predicted-rows"])
def test_span_f1_rejects_unpaired_labels(true_shape, pred_shape):
    with pytest.raises(ValueError, match=re.escape(
            f"true labels have shape {true_shape} but predictions {pred_shape}")):
        span_f1(np.zeros(true_shape, np.int64), np.ones(pred_shape, np.int64))


# ---------------------------------------------------------------------------
# train loop basics
# ---------------------------------------------------------------------------

def test_same_seed_gives_identical_metrics():
    rows = []
    for _ in range(2):
        weights, adapter, task, config = small_setup(epochs=1, max_steps=6)
        metrics = train(weights, adapter, task, config)
        rows.append([(r.step, r.loss, r.smoothed_loss, r.accuracy) for r in metrics.rows])
    assert rows[0] == rows[1]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_one_step_touches_only_trainable_tensors(mode):
    weights, adapter, task, config = small_setup(mode=mode, max_steps=1)
    registry = build_registry(weights, adapter)
    before = {e.name: tensor_content_hash(e.tensor) for e in registry.entries}
    train(weights, adapter, task, config, registry=registry)
    assert registry.frozen_violations() == []
    changed = {e.name for e in registry.entries if tensor_content_hash(e.tensor) != before[e.name]}
    assert changed, "a training step must change something"
    entries = {e.name: e for e in registry.entries}
    for name in changed:
        assert not entries[name].frozen


@pytest.mark.parametrize("mode", ALL_MODES)
def test_full_batch_sgd_step_decreases_loss(mode):
    weights, adapter, task, config = small_setup(
        mode=mode, optimizer="sgd", learning_rate=1e-3, batch_size=64, max_steps=1)
    before = evaluate(weights, adapter, task.train, task.kind).mean_loss
    train(weights, adapter, task, config)
    after = evaluate(weights, adapter, task.train, task.kind).mean_loss
    assert after < before, f"{mode}: {after} !< {before}"


def test_smoothed_recurrence_holds_exactly():
    weights, adapter, task, config = small_setup(max_steps=12)
    metrics = train(weights, adapter, task, config)
    alpha = 0.99  # SMOOTHING_ALPHA, the rate train uses
    prev = None
    for row in metrics.rows:
        expected = row.loss if prev is None else alpha * prev + (1.0 - alpha) * row.loss
        assert row.smoothed_loss == expected
        prev = row.smoothed_loss


def test_wallclock_monotone_nondecreasing():
    weights, adapter, task, config = small_setup(max_steps=5)
    metrics = train(weights, adapter, task, config)
    walls = [r.wallclock_ms for r in metrics.rows]
    assert walls == sorted(walls)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_guard_aborts():
    weights, adapter, task, config = small_setup(
        mode="finetune", optimizer="sgd", learning_rate=1e120,
        batch_size=16, epochs=50)
    with pytest.raises(DivergenceError, match="non-finite"):
        train(weights, adapter, task, config)


def test_training_improves_dev_loss():
    weights, adapter, task, config = small_setup(
        mode="fl", d_a=8, learning_rate=3e-3, epochs=6, batch_size=16)
    start = evaluate(weights, adapter, task.dev, task.kind)
    metrics = train(weights, adapter, task, config)
    assert metrics.final_dev.mean_loss < start.mean_loss
    assert metrics.final_dev.accuracy >= start.accuracy


def test_train_refuses_an_empty_train_split():
    # the config's task rules give every program run a step; an empty split
    # can come only from a library caller
    weights, adapter, task, config = small_setup()
    task.train = task.train[:0]
    with pytest.raises(ValueError, match="^cannot train on an empty train split$"):
        train(weights, adapter, task, config)


def test_train_evaluates_dev_once_after_its_last_step(monkeypatch):
    weights, adapter, task, config = small_setup(epochs=3)
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(training, "evaluate", counted)
    metrics = train(weights, adapter, task, config)
    assert len(metrics.rows) == 3 * 8 and len(calls) == 1
    direct = evaluate(weights, adapter, task.dev, task.kind)
    got = metrics.final_dev
    assert (got.accuracy.hex(), got.mean_loss.hex(), got.f1) == (
        direct.accuracy.hex(), direct.mean_loss.hex(), direct.f1)


def test_evaluate_rejects_empty_example_list():
    weights, adapter, task, _config = small_setup()
    with pytest.raises(ValueError, match="empty split"):
        evaluate(weights, adapter, task.dev[:0], task.kind)


def test_tagging_mode_trains_and_reports_f1():
    encoder_config = EncoderConfig(d_m=8, n_heads=2, n_layers=1, vocab_size=32,
                                   max_seq_len=12, n_classes=3)
    task = generate_task("tagging", sizes=(32, 12, 12), seed=2,
                         vocab_size=32, seq_len=8, n_classes=3)
    config = TrainConfig(mode="fl", d_a=4, batch_size=8, epochs=1, seed=6)
    weights = init_encoder(encoder_config, seed=7)
    adapter = make_adapter(encoder_config, config)
    metrics = train(weights, adapter, task, config)
    assert metrics.final_dev.f1 is not None
    assert 0.0 <= metrics.final_dev.f1 <= 1.0


def test_adam_and_sgd_update_shapes():
    from fltune.tensor import Tensor
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    t.grad = np.full((2, 2), 0.5)
    entry = type("E", (), {"tensor": t})()
    SGD(0.1).step([entry])
    np.testing.assert_allclose(t.data, np.full((2, 2), 0.95))
    adam = Adam(0.1)
    t.grad = np.full((2, 2), 0.5)
    adam.step([entry])
    # first Adam step moves by ~lr regardless of grad scale
    np.testing.assert_allclose(t.data, np.full((2, 2), 0.95 - 0.1), atol=1e-6)


def test_train_config_validation():
    with pytest.raises(ValueError, match="mode"):
        TrainConfig(mode="nope")
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)
    for epochs in (0, -1):
        with pytest.raises(ValueError, match=f"^epochs must be at least 1, got {epochs}$"):
            TrainConfig(epochs=epochs)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")


# ---------------------------------------------------------------------------
# few-shot protocol
# ---------------------------------------------------------------------------

def row_set(split) -> set:
    return {row.tobytes() for row in split.tokens}


def test_fewshot_full_size_is_identity():
    task = generate_task("classification", sizes=(50, 10, 10), seed=3)
    (sub,) = fewshot_subsample(task, [50], seed=4)
    assert row_set(sub.train) == row_set(task.train) and len(sub.train) == 50
    assert sub.dev is task.dev and sub.test is task.test


def test_fewshot_nested_subsets():
    task = generate_task("classification", sizes=(200, 20, 20), seed=5)
    subs = fewshot_subsample(task, [20, 40, 60, 80, 100], seed=6)
    for smaller, larger in zip(subs, subs[1:]):
        assert row_set(smaller.train).issubset(row_set(larger.train))
        assert len(smaller.train) < len(larger.train)


def test_fewshot_stratification_within_one_example():
    task = generate_task("classification", sizes=(200, 20, 20), seed=7)
    pool = task.train
    p1 = pool.labels.sum() / len(pool)
    for sub in fewshot_subsample(task, [20, 40, 60, 80, 100], seed=8):
        s = len(sub.train)
        ones = sub.train.labels.sum()
        assert abs(ones - s * p1) <= 1.0, f"size {s}: {ones} vs {s * p1}"


def test_fewshot_rejects_oversized_request():
    task = generate_task("classification", sizes=(30, 10, 10), seed=9)
    with pytest.raises(ValueError, match="subset size"):
        fewshot_subsample(task, [31], seed=10)


def test_fewshot_deterministic():
    task = generate_task("classification", sizes=(100, 10, 10), seed=11)
    a = fewshot_subsample(task, [20, 40], seed=12)
    b = fewshot_subsample(task, [20, 40], seed=12)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.train.tokens, tb.train.tokens)
        assert np.array_equal(ta.train.labels, tb.train.labels)


@pytest.mark.parametrize("kind, order", [
    ("classification", [33, 36, 22, 21, 17, 13, 26, 18, 25, 20, 19, 29]),
    # tagging classes: whether a row tags any entity (35 rows do, 5 do not)
    ("tagging", [10, 39, 23, 4, 11, 28, 1, 18, 25, 17, 37, 20]),
])
def test_fewshot_ordering_is_pinned(kind, order):
    # any change to the class keys, the per-class draws or the interleaving
    # changes which pool rows the subsets hold
    task = generate_task(kind, sizes=(40, 4, 4), seed=2, vocab_size=24, seq_len=6,
                         n_classes=3)
    small, large = fewshot_subsample(task, [5, 12], seed=3)
    for sub, n in ((small, 5), (large, 12)):
        assert np.array_equal(sub.train.tokens, task.train.tokens[order[:n]])
        assert np.array_equal(sub.train.labels, task.train.labels[order[:n]])


# ---------------------------------------------------------------------------
# metrics files
# ---------------------------------------------------------------------------

def test_metrics_csv_round_trip_exact(tmp_path):
    weights, adapter, task, config = small_setup(max_steps=7)
    metrics = train(weights, adapter, task, config)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("step,loss,smoothed_loss,accuracy,wallclock_ms\n")
    assert "\r" not in text
    rows = read_metrics_csv(path)
    assert len(rows) == len(metrics.rows)
    for got, want in zip(rows, metrics.rows):
        assert got.step == want.step
        assert got.loss == want.loss
        assert got.smoothed_loss == want.smoothed_loss
        assert got.accuracy == want.accuracy


def test_run_summary_fields():
    weights, adapter, task, config = small_setup(max_steps=4)
    registry = build_registry(weights, adapter)
    metrics = train(weights, adapter, task, config, registry=registry)
    summary = run_summary(metrics, registry, config, task.kind, len(task.train))
    assert summary["mode"] == "fl"
    assert summary["steps"] == 4
    assert summary["params"]["total"] == count_parameters(registry).total
    assert summary["final_dev_accuracy"] is not None
    assert "wallclock" not in str(summary)


def test_fl_vs_pv2_convergence_diagnostic(capsys):
    """Head-to-head convergence-step measurement; values are reported, not
    asserted (wall-clock comparisons are outside the desk-scale contract)."""
    results = {}
    for mode in ("fl", "pv2"):
        weights, adapter, task, config = small_setup(
            mode=mode, d_a=8, prompt_len=8, learning_rate=3e-3,
            epochs=16, batch_size=16)
        metrics = train(weights, adapter, task, config)
        results[mode] = convergence_step([r.loss for r in metrics.rows])
    print(f"convergence step: fl={results['fl']} pv2={results['pv2']}")
    # 64 steps are enough for both losses to settle
    assert results["fl"] is not None and results["pv2"] is not None
    print(f"ratio pv2/fl = {results['pv2'] / results['fl']:.2f}")