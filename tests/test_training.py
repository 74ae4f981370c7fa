"""Training loop: smoothing, optimizers, freezing, determinism, few-shot."""

import numpy as np
import pytest

from fltune import training
from fltune.adapters import build_registry, count_parameters, tensor_content_hash
from fltune.data import generate_task
from fltune.encoder import EncoderConfig, init_encoder
from fltune.training import (
    Adam,
    DivergenceError,
    RunMetrics,
    SGD,
    StepRow,
    TrainConfig,
    evaluate,
    fewshot_subsample,
    make_adapter,
    read_metrics_csv,
    run_summary,
    smooth_loss,
    span_f1,
    steps_to_threshold,
    tag_spans,
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

def test_smooth_loss_alpha_zero_returns_current():
    assert smooth_loss(5.0, 1.25, alpha=0.0) == 1.25


def test_smooth_loss_paper_substitution():
    assert smooth_loss(1.0, 0.0, alpha=0.99) == 0.99


def test_smooth_loss_constant_fixed_point():
    value = None
    for _ in range(50):
        value = smooth_loss(value, 0.625, alpha=0.99)
        assert value == 0.625


def test_smooth_loss_rejects_bad_alpha():
    for alpha in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            smooth_loss(1.0, 1.0, alpha=alpha)


def test_steps_to_threshold():
    rows = [StepRow(i + 1, 0.0, s, 0.0, 0.0) for i, s in enumerate([2.0, 1.0, 0.5])]
    metrics = RunMetrics(rows=rows)
    assert steps_to_threshold(metrics, 0.6) == 3
    assert steps_to_threshold(metrics, 0.4) is None
    with pytest.raises(ValueError, match="threshold"):
        steps_to_threshold(metrics, 0.0)


# ---------------------------------------------------------------------------
# span F1
# ---------------------------------------------------------------------------

def test_tag_spans_extraction():
    assert tag_spans([0, 1, 2, 2, 0, 1, 0]) == {(1, 4), (5, 6)}
    assert tag_spans([1, 1]) == {(0, 1), (1, 2)}
    assert tag_spans([0, 0]) == set()


def test_span_f1_exact_match_and_mismatch():
    truth = [[0, 1, 2, 0]]
    assert span_f1(truth, [[0, 1, 2, 0]]) == 1.0
    assert span_f1(truth, [[0, 0, 0, 0]]) == 0.0
    # half precision, full recall
    assert span_f1(truth, [[1, 1, 2, 0]]) == pytest.approx(2 / 3)
    assert span_f1([[0, 0]], [[0, 0]]) == 1.0


@pytest.mark.parametrize("true_seqs, pred_seqs, message", [
    ([[1, 0]], [], "1 true sequences but 0 predicted"),
    ([], [[1, 0]], "0 true sequences but 1 predicted"),
    ([[0, 0], [1, 0]], [[0, 0], [1]], "sequence 1: 2 true labels but 1 predicted"),
])
def test_span_f1_rejects_unpaired_labels(true_seqs, pred_seqs, message):
    with pytest.raises(ValueError, match=message):
        span_f1(true_seqs, pred_seqs)


# ---------------------------------------------------------------------------
# train loop basics
# ---------------------------------------------------------------------------

def test_zero_epochs_changes_nothing():
    weights, adapter, task, config = small_setup(epochs=0)
    registry = build_registry(weights, adapter)
    before = {e.name: tensor_content_hash(e.tensor) for e in registry.entries}
    metrics = train(weights, adapter, task, config, registry=registry)
    assert metrics.rows == [] and metrics.final_dev is None
    after = {e.name: tensor_content_hash(e.tensor) for e in registry.entries}
    assert before == after


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
    alpha = config.smoothing_alpha
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


def test_train_evaluates_dev_once_after_its_last_step(monkeypatch):
    weights, adapter, task, config = small_setup(epochs=3)
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(training, "evaluate", counted)
    metrics = train(weights, adapter, task, config)
    assert metrics.steps == 3 * 8 and len(calls) == 1
    direct = evaluate(weights, adapter, task.dev, task.kind)
    got = metrics.final_dev
    assert (got.accuracy.hex(), got.mean_loss.hex(), got.f1) == (
        direct.accuracy.hex(), direct.mean_loss.hex(), direct.f1)


def test_evaluate_rejects_empty_example_list():
    weights, adapter, task, _config = small_setup()
    with pytest.raises(ValueError, match="empty example list"):
        evaluate(weights, adapter, [], task.kind)


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
    with pytest.raises(ValueError, match="smoothing_alpha"):
        TrainConfig(smoothing_alpha=1.0)
    with pytest.raises(ValueError, match="optimizer"):
        TrainConfig(optimizer="rmsprop")


# ---------------------------------------------------------------------------
# few-shot protocol
# ---------------------------------------------------------------------------

def test_fewshot_full_size_is_identity():
    task = generate_task("classification", sizes=(50, 10, 10), seed=3)
    (sub,) = fewshot_subsample(task, [50], seed=4)
    assert sorted(sub.train) == sorted(task.train)
    assert sub.dev == task.dev and sub.test == task.test


def test_fewshot_nested_subsets():
    task = generate_task("classification", sizes=(200, 20, 20), seed=5)
    subs = fewshot_subsample(task, [20, 40, 60, 80, 100], seed=6)
    for smaller, larger in zip(subs, subs[1:]):
        small_set = set(smaller.train)
        assert small_set.issubset(set(larger.train))
        assert len(smaller.train) < len(larger.train)


def test_fewshot_stratification_within_one_example():
    task = generate_task("classification", sizes=(200, 20, 20), seed=7)
    pool = task.train
    p1 = sum(ex.label for ex in pool) / len(pool)
    for sub in fewshot_subsample(task, [20, 40, 60, 80, 100], seed=8):
        s = len(sub.train)
        ones = sum(ex.label for ex in sub.train)
        assert abs(ones - s * p1) <= 1.0, f"size {s}: {ones} vs {s * p1}"


def test_fewshot_rejects_oversized_request():
    task = generate_task("classification", sizes=(30, 10, 10), seed=9)
    with pytest.raises(ValueError, match="subset size"):
        fewshot_subsample(task, [31], seed=10)


def test_fewshot_deterministic():
    task = generate_task("classification", sizes=(100, 10, 10), seed=11)
    a = fewshot_subsample(task, [20, 40], seed=12)
    b = fewshot_subsample(task, [20, 40], seed=12)
    assert [t.train for t in a] == [t.train for t in b]


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
    """Head-to-head steps-to-threshold measurement; values are reported, not
    asserted (wall-clock comparisons are outside the desk-scale contract)."""
    results = {}
    for mode in ("fl", "pv2"):
        weights, adapter, task, config = small_setup(
            mode=mode, d_a=8, prompt_len=8, learning_rate=3e-3,
            epochs=4, batch_size=16, loss_threshold=0.6)
        metrics = train(weights, adapter, task, config)
        results[mode] = steps_to_threshold(metrics, config.loss_threshold)
    print(f"steps to smoothed-loss 0.6: fl={results['fl']} pv2={results['pv2']}")
    if results["fl"] and results["pv2"]:
        print(f"ratio pv2/fl = {results['pv2'] / results['fl']:.2f}")
    assert set(results) == {"fl", "pv2"}