"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they execute.
"""

import json
import time

import numpy as np

from fltune.adapters import (
    build_registry,
    count_parameters,
    init_fl_adapter,
    tensor_content_hash,
    verify_theorem1,
    verify_theorem2,
)
from fltune.checkpoint import load_checkpoint, load_trainable, save_trainable
from fltune.cli import main as cli_main
from fltune.data import generate_task
from fltune.encoder import EncoderConfig, encoder_forward, ffn_parameter_share, init_encoder
from fltune.tensor import check_gradients
from fltune.training import (
    TrainConfig,
    evaluate,
    fewshot_subsample,
    make_adapter,
    read_metrics_csv,
    train,
)
from fltune.cli import _gradcheck_loss_fn


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def grad_config():
    return EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=32,
                         max_seq_len=24, n_classes=2)


def test_c01_split_equivalence():
    start = time.perf_counter()
    result = verify_theorem1(trials=200, seed=101)
    elapsed = time.perf_counter() - start
    report(1, "split form equals concatenated form within 1e-12 over 200 trials",
           result.passed and result.max_deviation < 1e-12 and elapsed < 5.0,
           f"max deviation {result.max_deviation:.2e}, {elapsed:.2f}s")


def test_c02_placement_invariance():
    start = time.perf_counter()
    result = verify_theorem2(trials=200, seed=102)
    elapsed = time.perf_counter() - start
    report(2, "prefix/infix/suffix forms agree within 1e-12 incl. boundary indices",
           result.passed and result.max_deviation < 1e-12 and elapsed < 5.0,
           f"max deviation {result.max_deviation:.2e}, {elapsed:.2f}s")


def test_c03_parameter_budget_claim():
    config = EncoderConfig(d_m=768, n_heads=12, n_layers=12, vocab_size=1000,
                           max_seq_len=512, n_classes=2)
    weights = init_encoder(config, seed=103)
    adapter = init_fl_adapter(config, d_a=160, seed=104)
    registry = build_registry(weights, adapter)
    adapter_count = count_parameters(registry, groups=("adapter",)).total
    closed_form = 12 * 160 * (2 * 768 + 1)
    fraction = count_parameters(registry, groups=("block", "adapter")).fraction
    report(3, "added units are ~3% of encoder-block parameters at full shape",
           adapter_count == closed_form == 2951040 and 0.03 <= fraction <= 0.04,
           f"adapter {adapter_count}, fraction {fraction:.5f}")


def test_c04_ffn_share_claim():
    share = ffn_parameter_share(EncoderConfig(
        d_m=768, n_heads=12, n_layers=12, vocab_size=1000,
        max_seq_len=512, n_classes=2))
    report(4, "FFN holds ~2/3 of per-layer parameters at the standard shape",
           0.60 <= share <= 0.70, f"share {share:.4f}")


def test_c05_gradient_correctness_all_modes():
    start = time.perf_counter()
    config = grad_config()
    task = generate_task("classification", sizes=(8, 4, 4), seed=105,
                         vocab_size=32, seq_len=10)
    worst = 0.0
    worst_name = ""
    for mode in ("fl", "pv1", "pv2", "ma", "finetune"):
        tc = TrainConfig(mode=mode, d_a=4, prompt_len=3, d_a_prime=2, seed=105)
        weights = init_encoder(config, seed=106)
        adapter = make_adapter(config, tc)
        registry = build_registry(weights, adapter)
        loss_fn = _gradcheck_loss_fn(weights, adapter, task.train[:2], task.kind)
        rng = np.random.default_rng([105, hash(mode) % 2**16])
        for entry in registry.trainable_entries():
            err = check_gradients(loss_fn, entry.tensor, eps=1e-5, max_coords=20, rng=rng)
            if err > worst:
                worst, worst_name = err, f"{mode}:{entry.name}"
    elapsed = time.perf_counter() - start
    report(5, "analytic gradients match finite differences < 1e-4 in every mode",
           worst < 1e-4 and elapsed < 60.0,
           f"worst {worst:.2e} at {worst_name}, {elapsed:.1f}s")


def test_c06_freezing_integrity():
    config = grad_config()
    task = generate_task("classification", sizes=(40, 8, 8), seed=107,
                         vocab_size=32, seq_len=10)
    ok = True
    detail = []
    for mode in ("fl", "pv1", "pv2", "ma"):
        tc = TrainConfig(mode=mode, d_a=4, prompt_len=3, d_a_prime=2,
                         batch_size=4, epochs=20, max_steps=100, seed=108)
        weights = init_encoder(config, seed=109)
        adapter = make_adapter(config, tc)
        registry = build_registry(weights, adapter)
        metrics = train(weights, adapter, task, tc, registry=registry)
        violations = registry.frozen_violations()
        ok = ok and len(metrics.rows) == 100 and not violations
        if violations:
            detail.append(f"{mode}: {violations[:3]}")

    tc = TrainConfig(mode="finetune", batch_size=4, epochs=20, max_steps=100, seed=108)
    weights = init_encoder(config, seed=109)
    registry = build_registry(weights)
    before = {e.name: tensor_content_hash(e.tensor) for e in registry.entries}
    train(weights, None, task, tc, registry=registry)
    changed = {e.name for e in registry.entries if tensor_content_hash(e.tensor) != before[e.name]}
    backbone = {e.name for e in registry.entries if e.group in ("embedding", "block")}
    untouched = sorted(backbone - changed)
    ok = ok and not untouched
    if untouched:
        detail.append(f"finetune left unchanged: {untouched[:3]}")
    report(6, "100 steps never touch frozen tensors; fine-tuning moves the backbone",
           ok, "; ".join(detail) if detail else "4 adapter modes clean, finetune moved all")


def test_c07_zero_init_transparency():
    config = grad_config()
    weights = init_encoder(config, seed=110)
    adapter = init_fl_adapter(config, d_a=8, seed=111)  # w2 zero at init
    rng = np.random.default_rng(112)
    identical = 0
    for _ in range(50):
        tokens = rng.integers(0, config.vocab_size, size=(1, 12))
        plain = encoder_forward(weights, tokens, pooled=True).data
        adapted = encoder_forward(weights, tokens, adapter=adapter, pooled=True).data
        identical += int(np.array_equal(plain, adapted))
    report(7, "zero-started expansion is bitwise transparent on 50 random inputs",
           identical == 50, f"{identical}/50 bitwise equal")


def test_c08_learnability_vs_finetuning():
    start = time.perf_counter()
    config = EncoderConfig(d_m=16, n_heads=2, n_layers=2, vocab_size=64,
                           max_seq_len=24, n_classes=2)
    task = generate_task("classification", sizes=(2000, 500, 500), seed=113,
                         vocab_size=64, seq_len=16)

    def run(mode, d_a=16):
        tc = TrainConfig(mode=mode, d_a=d_a, learning_rate=1e-3, batch_size=16,
                         epochs=10, max_steps=200, seed=114)
        weights = init_encoder(config, seed=115)
        adapter = make_adapter(config, tc)
        metrics = train(weights, adapter, task, tc)
        train_acc = evaluate(weights, adapter, task.train, task.kind).accuracy
        return metrics, train_acc

    fl_metrics, fl_train_acc = run("fl")
    ft_metrics, _ = run("finetune")
    gap = abs(fl_metrics.final_dev.accuracy - ft_metrics.final_dev.accuracy)
    elapsed = time.perf_counter() - start
    report(8, "expansion tuning reaches 0.99 train accuracy in 200 steps, "
              "dev within 2 points of fine-tuning",
           fl_train_acc >= 0.99 and gap <= 0.02 and len(fl_metrics.rows) <= 200
           and elapsed < 120.0,
           f"train acc {fl_train_acc:.3f}, dev gap {gap:.3f}, {elapsed:.1f}s")


def test_c09_fewshot_protocol(tmp_path):
    config = {
        "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                    "max_seq_len": 16, "n_classes": 2},
        "task": {"kind": "classification", "train_size": 200, "dev_size": 40,
                 "test_size": 40, "seq_len": 8, "seed": 7},
        "train": {"mode": "fl", "d_a": 4, "batch_size": 8, "epochs": 2, "seed": 9},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outdir = tmp_path / "fewshot"
    code = cli_main(["fewshot", str(config_path), "--out", str(outdir),
                     "--sizes", "20,40,60,80,100"])
    payload = json.loads((outdir / "fewshot_summary.json").read_text(encoding="utf-8"))
    five_complete = (len(payload["runs"]) == 5
                     and all(r["final_dev_accuracy"] is not None for r in payload["runs"])
                     and all(r["train_size"] == s
                             for r, s in zip(payload["runs"], [20, 40, 60, 80, 100])))

    task = generate_task("classification", sizes=(200, 40, 40), seed=7,
                         vocab_size=32, seq_len=8)
    subsets = fewshot_subsample(task, [20, 40, 60, 80, 100], seed=7)
    rows = [{row.tobytes() for row in s.train.tokens} for s in subsets]
    nested = all(a.issubset(b) for a, b in zip(rows, rows[1:]))
    pool_rate = task.train.labels.sum() / len(task.train)
    stratified = all(
        abs(s.train.labels.sum() - len(s.train) * pool_rate) <= 1.0
        for s in subsets)
    report(9, "few-shot sweep yields nested stratified subsets and five summaries",
           code == 0 and five_complete and nested and stratified)


def test_c10_smoothing_fidelity(tmp_path):
    config = grad_config()
    task = generate_task("classification", sizes=(64, 16, 16), seed=116,
                         vocab_size=32, seq_len=10)
    tc = TrainConfig(mode="fl", d_a=4, batch_size=8, epochs=3, seed=117)
    weights = init_encoder(config, seed=118)
    adapter = make_adapter(config, tc)
    metrics = train(weights, adapter, task, tc)
    from fltune.training import write_metrics_csv
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, path)
    rows = read_metrics_csv(path)
    alpha = 0.99
    exact = bool(rows) and rows[0].smoothed_loss == rows[0].loss
    prev = rows[0].smoothed_loss
    for row in rows[1:]:
        exact = exact and row.smoothed_loss == alpha * prev + (1.0 - alpha) * row.loss
        prev = row.smoothed_loss
    report(10, "every metrics row obeys the 0.99/0.01 smoothing recurrence exactly",
           exact, f"{len(rows)} rows checked")


def test_c11_persistence_round_trip(tmp_path):
    config = grad_config()
    weights = init_encoder(config, seed=119)
    adapter = init_fl_adapter(config, d_a=4, seed=120)
    registry = build_registry(weights, adapter)
    # move every trainable tensor (w2 starts at zero, the head at its init)
    # off what a fresh build gives it, so only the file can restore it
    rng = np.random.default_rng(121)
    for e in registry.trainable_entries():
        e.tensor.data = e.tensor.data + rng.normal(0.0, 0.1, e.tensor.shape)
    tokens = np.array([[5, 9, 2, 14, 3]])
    logits_before = encoder_forward(weights, tokens, adapter=adapter, pooled=True).data
    path = tmp_path / "trainable.flckpt"
    save_trainable(registry, path)

    rebuilt = init_encoder(config, seed=119)
    fresh_adapter = init_fl_adapter(config, d_a=4, seed=999)
    fresh = build_registry(rebuilt, fresh_adapter)
    load_trainable(path, fresh)
    logits_after = encoder_forward(rebuilt, tokens, adapter=fresh_adapter, pooled=True).data

    # every tensor of the model, frozen and trainable, equals the original bitwise
    bitwise = [e.name for e in registry.entries] == [e.name for e in fresh.entries] and all(
        a.tensor.data.tobytes() == b.tensor.data.tobytes()
        for a, b in zip(registry.entries, fresh.entries))
    _, payload = load_checkpoint(path)
    trainable_count = sum(e.tensor.size for e in registry.trainable_entries())
    report(11, "trainable checkpoint round-trips bitwise into a rebuilt model; "
           "payload is 8 bytes per value",
           bitwise and np.array_equal(logits_before, logits_after)
           and len(payload) == 8 * trainable_count,
           f"payload {len(payload)} bytes for {trainable_count} values")
