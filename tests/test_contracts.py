"""Documented contracts: divergence guards, per-thread tapes, a probe that
leaves no trace, and checkpoint tensor-table validation."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from fltune.adapters import (
    ParamRegistry,
    _random_ffn_instance,
    tensor_content_hash,
    verify_theorem1,
)
from fltune.checkpoint import (
    MAGIC,
    SENTINEL,
    CheckpointError,
    load_checkpoint,
    save_tensors,
)
import fltune
from fltune import cli, training
from fltune.cli import EXIT_CHECK_FAILED, EXIT_USAGE, main
from fltune.tensor import Tape, Tensor, _needs, _record, check_gradients, matmul, sum_all
from fltune.training import SGD, Adam, DivergenceError, batch_loss, train_step


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def registry_of(**tensors) -> ParamRegistry:
    reg = ParamRegistry()
    for name, t in tensors.items():
        reg.register(name, t, frozen=False, group="adapter")
    return reg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("optimizer", [Adam(1e-3), SGD(1e-3)], ids=["adam", "sgd"])
def test_train_step_refuses_non_finite_gradients(optimizer):
    # the loss is exactly 0, but d loss / d x = ones @ w.T overflows to inf
    x = Tensor(np.zeros((1, 2)))
    w = Tensor(np.full((2, 2), 1e308))
    reg = registry_of(x=x, w=w)
    trainable = reg.trainable_entries()
    before = {e.name: tensor_content_hash(e.tensor) for e in trainable}
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        train_step(lambda: (sum_all(matmul(x, w)),), trainable, optimizer, 1)
    assert {e.name: tensor_content_hash(e.tensor) for e in trainable} == before
    assert all(e.tensor.grad is None for e in trainable)


def test_train_step_refuses_non_finite_loss_and_clears_grads():
    x = Tensor(np.array([[np.inf]]))
    reg = registry_of(x=x)
    trainable = reg.trainable_entries()
    with pytest.raises(DivergenceError, match="non-finite loss .* at step 7"):
        train_step(lambda: (sum_all(x),), trainable, SGD(1.0), 7)
    assert x.grad is None and np.isinf(x.data).all()


def test_train_step_returns_loss_then_extras_and_clears_grads():
    x = Tensor(np.array([[1.0, 2.0]]))
    reg = registry_of(x=x)
    loss, tag = train_step(lambda: (sum_all(x), "tag"), reg.trainable_entries(), SGD(0.5), 1)
    assert (loss, tag) == (3.0, "tag")
    np.testing.assert_array_equal(x.data, [[0.5, 1.5]])
    assert x.grad is None


# ---------------------------------------------------------------------------
# Tapes and the finite-difference probe
# ---------------------------------------------------------------------------

def test_tapes_are_per_thread():
    n_threads, steps = 8, 300
    errors = []
    start = threading.Barrier(n_threads)

    def worker(k):
        try:
            rng = np.random.default_rng(k)
            w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
            start.wait()
            for step in range(steps):
                x = rng.normal(size=(4, 3))
                w.grad = None
                with Tape() as tape:
                    loss = sum_all(matmul(Tensor(x), w))
                    tape.backward(loss)
                if not np.array_equal(w.grad, x.T @ np.ones((4, 2))):
                    errors.append(f"thread {k} step {step}: wrong gradient")
        except Exception as exc:  # reported by the assertion below
            errors.append(f"thread {k}: {exc!r}")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        threads = [threading.Thread(target=worker, args=(k,), daemon=True)
                   for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_nested_tapes_record_on_the_innermost():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with Tape() as outer:
        with Tape() as inner:
            matmul(w, w)
        matmul(w, w)
        matmul(w, w)
    assert (len(outer), len(inner)) == (2, 1)


TAPE_ORDER_SCRIPT = """
import numpy as np
from fltune.tensor import Tape, Tensor, matmul
w = Tensor(np.ones((1, 1)), requires_grad=True)
a, b = Tape(), Tape()
a.__enter__()
b.__enter__()
try:
    a.__exit__(None, None, None)
    raised = False
except RuntimeError:
    raised = True
matmul(w, w)
recorded_in_b = len(b)
b.__exit__(None, None, None)
a.__exit__(None, None, None)
matmul(w, w)
print(__debug__, raised, recorded_in_b, len(a), len(b))
"""


def test_exiting_tapes_out_of_order_raises_under_python_o():
    # -O strips assert statements; the order check must hold there too
    src = os.path.dirname(os.path.dirname(os.path.abspath(fltune.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-O", "-c", TAPE_ORDER_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # a stays unrecorded, b keeps the op made while it was active, and no
    # tape records once both are exited
    assert done.stdout.split() == ["False", "True", "1", "0", "1"]


def test_check_gradients_restores_input_when_f_raises():
    x = Tensor(np.zeros((1, 3)))
    calls = []

    def f(t):
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError("probe failed")
        return sum_all(t)

    before = x.data.tobytes()
    with pytest.raises(RuntimeError, match="probe failed"):
        check_gradients(f, x)
    assert x.data.tobytes() == before


# ---------------------------------------------------------------------------
# Checkpoint tensor table
# ---------------------------------------------------------------------------

def write_raw(path, manifest, payload: bytes):
    path.write_bytes(MAGIC + b"\n" + json.dumps(manifest).encode("utf-8")
                     + b"\n" + SENTINEL + b"\n" + payload)
    return path


def manifest_with(tensors):
    manifest = {"format_version": 1, "kind": "trainable", "config": {}}
    if tensors is not None:
        manifest["tensors"] = tensors
    return manifest


def test_missing_tensor_table_raises_checkpoint_error(tmp_path):
    path = write_raw(tmp_path / "t.flckpt", manifest_with(None), b"")
    with pytest.raises(CheckpointError, match="tensor table must be a list"):
        load_checkpoint(path)


def test_tensor_table_must_be_a_list(tmp_path):
    table = {"w": {"name": "w", "shape": [1], "offset": 0}}
    path = write_raw(tmp_path / "t.flckpt", manifest_with(table), bytes(8))
    with pytest.raises(CheckpointError, match="tensor table must be a list"):
        load_checkpoint(path)


def test_manifest_must_be_an_object(tmp_path):
    path = write_raw(tmp_path / "t.flckpt", [], b"")
    with pytest.raises(CheckpointError, match="manifest must be a JSON object"):
        load_checkpoint(path)


def test_manifest_that_is_not_utf8_raises_checkpoint_error(tmp_path):
    path = tmp_path / "t.flckpt"
    path.write_bytes(MAGIC + b'\n{"format_version": 1, "kind": "\xff"}\n' + SENTINEL + b"\n")
    with pytest.raises(CheckpointError, match="not valid UTF-8"):
        load_checkpoint(path)


def test_duplicate_tensor_names_rejected(tmp_path):
    table = [{"name": "a", "shape": [1], "offset": 0},
             {"name": "a", "shape": [1], "offset": 8}]
    path = write_raw(tmp_path / "t.flckpt", manifest_with(table), bytes(16))
    with pytest.raises(CheckpointError, match="tensor a listed twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("row", ["w", {"shape": [1], "offset": 0}, {"name": 3, "shape": [1]}])
def test_table_rows_need_a_name(tmp_path, row):
    path = write_raw(tmp_path / "t.flckpt", manifest_with([row]), bytes(8))
    with pytest.raises(CheckpointError, match="malformed tensor table row"):
        load_checkpoint(path)


@pytest.mark.parametrize("shape", [[-1, 2], [2.0], [True], "2x2", None])
def test_shape_must_be_a_list_of_nonnegative_ints(tmp_path, shape):
    table = [{"name": "w", "shape": shape, "offset": 0}]
    path = write_raw(tmp_path / "t.flckpt", manifest_with(table), bytes(32))
    with pytest.raises(CheckpointError, match="bad shape"):
        load_checkpoint(path)


def test_aliased_offsets_rejected(tmp_path):
    table = [{"name": "a", "shape": [2], "offset": 0},
             {"name": "b", "shape": [2], "offset": 0}]
    path = write_raw(tmp_path / "t.flckpt", manifest_with(table), bytes(16))
    with pytest.raises(CheckpointError, match="tensor b: offset 0, expected 16"):
        load_checkpoint(path)


@pytest.mark.parametrize("offsets", [(8, 0), (0, 24), (0, 16.0)])
def test_offsets_must_be_ordered_and_contiguous(tmp_path, offsets):
    table = [{"name": "a", "shape": [2], "offset": offsets[0]},
             {"name": "b", "shape": [1], "offset": offsets[1]}]
    path = write_raw(tmp_path / "t.flckpt", manifest_with(table), bytes(32))
    with pytest.raises(CheckpointError, match=r"offset \S+, expected \d+ \(tensors must"):
        load_checkpoint(path)


def test_payload_longer_than_table_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("w", np.ones((2, 2)))])
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="40 bytes, expected 32"):
        load_checkpoint(path)


def test_valid_table_still_loads(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("a", np.ones((2, 3))), ("empty", np.ones((0, 4))),
                        ("s", np.float64(2.0))])
    manifest, payload = load_checkpoint(path)
    assert [row["offset"] for row in manifest["tensors"]] == [0, 48, 48]
    assert len(payload) == 56


def test_cli_eval_reports_malformed_table_as_usage_error(tmp_path, capsys):
    config = {
        "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                    "max_seq_len": 16, "n_classes": 2},
        "task": {"kind": "classification", "train_size": 20, "dev_size": 8,
                 "test_size": 8, "seq_len": 8, "seed": 1},
        "train": {"mode": "fl", "d_a": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    ckpt = write_raw(tmp_path / "t.flckpt", manifest_with(None), b"")
    assert main(["eval", str(config_path), "--checkpoint", str(ckpt)]) == EXIT_USAGE
    assert "tensor table" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Runs that cannot start exit 2 with the package's message
# ---------------------------------------------------------------------------

RUN_CONFIG = {
    "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                "max_seq_len": 16, "n_classes": 2},
    "task": {"kind": "classification", "train_size": 20, "dev_size": 8,
             "test_size": 8, "seq_len": 8, "seed": 1},
    "train": {"mode": "fl", "d_a": 2, "max_steps": 2},
}


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    return str(path)


def usage_error(capsys, argv) -> str:
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("epochs, message", [
    (0, "config error: in config: train.epochs must be at least 1, got 0"),
    (-1, "config error: in train: epochs must be nonnegative, got -1"),
])
def test_train_rejects_epochs_below_one_and_writes_nothing(run_config, tmp_path, capsys,
                                                           epochs, message):
    out = tmp_path / "out"
    err = usage_error(capsys, ["train", run_config, "--out", str(out),
                               "--set", f"train.epochs={epochs}"])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("examples", ["0", "-1"])
def test_gradcheck_rejects_examples_below_one(run_config, capsys, examples):
    err = usage_error(capsys, ["gradcheck", run_config, "--examples", examples])
    assert f"error: --examples must be at least 1, got {examples}" in err


FLOAT_FLAG_RULES = {
    "--eps": ("gradcheck", "eps must be a finite float > 0"),
    "--threshold": ("gradcheck", "--threshold must be a finite float > 0"),
    "--tolerance": ("verify", "tolerance must be a finite float >= 0"),
}


@pytest.mark.parametrize("flag, value, shown", [
    ("--eps", "nan", "nan"), ("--eps", "inf", "inf"), ("--eps", "0", "0.0"),
    ("--threshold", "nan", "nan"), ("--threshold", "inf", "inf"), ("--threshold", "0", "0.0"),
    ("--tolerance", "nan", "nan"), ("--tolerance", "inf", "inf"), ("--tolerance", "-1", "-1.0"),
])
def test_out_of_range_float_flags_are_usage_errors(run_config, capsys, flag, value, shown):
    command, rule = FLOAT_FLAG_RULES[flag]
    argv = [command, run_config] if command == "gradcheck" else [command]
    assert main([*argv, flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {rule}, got {shown}"]


def test_check_gradients_reports_a_nan_backward():
    def nan_backward(x):
        out = Tensor(x.data.copy())
        needs = _needs(x)
        return out if needs is None else _record(out, (x,), needs,
                                                 lambda g: (np.full_like(g, np.nan),))

    err = check_gradients(lambda x: sum_all(nan_backward(x)), Tensor(np.ones((2, 3))))
    assert np.isnan(err)


def test_verify_counts_a_nan_deviation_as_a_failure():
    def nan_input(rng):
        layer, params, x = _random_ffn_instance(rng)
        x.data[0, 0] = np.nan
        return layer, params, x

    report = verify_theorem1(trials=3, draw=nan_input)
    assert np.isnan(report.max_deviation) and len(report.failures) == 3
    assert not report.passed and report.summary().endswith("FAIL")


def test_gradcheck_exits_1_on_a_nan_error(run_config, capsys, monkeypatch):
    errors = iter([1e-9, float("nan")])
    monkeypatch.setattr(cli, "check_gradients", lambda *a, **k: next(errors, 1e-9))
    assert main(["gradcheck", run_config]) == EXIT_CHECK_FAILED
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("max relative error nan [FAIL]")
    assert lines[-1].startswith(f"worst over {len(lines) - 1} trainable tensors: nan ")


def test_batch_loss_of_an_empty_batch_raises_value_error():
    with pytest.raises(ValueError, match="empty batch"):
        batch_loss(None, None, [], "classification")


def test_missing_checkpoint_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "missing.flckpt")


def test_cli_eval_reports_missing_checkpoint_as_usage_error(run_config, tmp_path, capsys):
    missing = str(tmp_path / "missing.flckpt")
    err = usage_error(capsys, ["eval", run_config, "--checkpoint", missing])
    assert err.startswith(f"error: cannot read checkpoint {missing}")


@pytest.mark.parametrize("kind", ["backbone", "adapter"])
def test_cli_eval_refuses_a_checkpoint_of_another_kind(run_config, tmp_path, capsys, kind):
    out = tmp_path / "run"
    assert main(["train", run_config, "--out", str(out)]) == 0
    ckpt = out / "trainable.flckpt"
    ckpt.write_bytes(ckpt.read_bytes().replace(b'"kind": "trainable"',
                                               f'"kind": "{kind}"'.encode()))
    capsys.readouterr()
    err = usage_error(capsys, ["eval", run_config, "--checkpoint", str(ckpt)])
    assert err == f"error: {ckpt}: checkpoint kind '{kind}', expected 'trainable'\n"


@pytest.mark.parametrize("command", ["train", "fewshot"])
def test_unwritable_out_is_a_usage_error(run_config, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    argv = [command, run_config, "--out", str(blocker / "x")]
    if command == "fewshot":
        argv += ["--sizes", "4"]
    err = usage_error(capsys, argv)
    assert err.startswith("error: ") and "Not a directory" in err


DIVERGING = ["--set", "train.optimizer=sgd", "--set", "train.learning_rate=1e300",
             "--set", "train.mode=finetune"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort line is the only report
def test_diverged_train_removes_the_out_it_created(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", run_config, "--out", str(out), *DIVERGING]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["run aborted: non-finite loss nan at step 2; aborting run"]
    assert not out.exists()


def test_diverged_train_leaves_an_existing_out_alone(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", run_config, "--out", str(out), *DIVERGING]) == 1
    assert "run aborted" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


FEWSHOT_DIVERGING = [*DIVERGING, "--set", "train.batch_size=2", "--set", "train.epochs=2",
                     "--set", "train.max_steps=null", "--sizes", "2,8"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort line is the only report
def test_diverged_fewshot_removes_the_out_it_created(run_config, tmp_path, capsys):
    # size 2 in batches of 2 is one step per epoch; no dev evaluation runs
    # between epochs, so step 2 is the first to read the overflowed weights
    out = tmp_path / "out"
    argv = ["fewshot", run_config, "--out", str(out), *FEWSHOT_DIVERGING]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["run aborted: non-finite loss nan at step 2; aborting run"]
    assert not out.exists()


def test_diverged_fewshot_leaves_an_existing_out_alone(run_config, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fewshot", run_config, "--out", str(out), *FEWSHOT_DIVERGING]
    assert main(argv) == 1
    assert "run aborted" in capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


# step 1's loss and gradients are finite, but its update overflows the weights
LAST_STEP_DIVERGES = ["--set", "train.learning_rate=1.7e308", "--set", "train.max_steps=1"]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort line is the only report
@pytest.mark.parametrize("mode, loss", [("fl", "inf"), ("finetune", "nan")])
def test_train_whose_last_step_diverges_exits_1_and_removes_its_out(run_config, tmp_path,
                                                                    capsys, mode, loss):
    out = tmp_path / "out"
    argv = ["train", run_config, "--out", str(out), "--set", f"train.mode={mode}",
            *LAST_STEP_DIVERGES]
    assert main(argv) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"run aborted: non-finite mean loss {loss} over 8 examples; the weights have diverged"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the abort line is the only report
@pytest.mark.parametrize("mode, loss", [("fl", "inf"), ("finetune", "nan")])
def test_eval_of_diverged_weights_exits_1_and_prints_nothing(run_config, tmp_path, capsys,
                                                            monkeypatch, mode, loss):
    out = tmp_path / "out"
    argv = ["--set", f"train.mode={mode}", *LAST_STEP_DIVERGES]
    with monkeypatch.context() as patch:
        # skip the run's dev evaluation, so train saves the overflowed weights
        patch.setattr(training, "evaluate", lambda *args: training.EvalResult(0.5, 0.0))
        assert main(["train", run_config, "--out", str(out), *argv]) == 0
    capsys.readouterr()
    checkpoint = str(out / "trainable.flckpt")
    assert main(["eval", run_config, "--checkpoint", checkpoint, *argv]) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"run aborted: non-finite mean loss {loss} over 8 examples; the weights have diverged"]


# ---------------------------------------------------------------------------
# A run that fails after writing removes what it wrote, and only that
# ---------------------------------------------------------------------------

def failing_save(monkeypatch):
    def save(_registry, path, config_echo=None):
        with open(path, "wb") as fh:
            fh.write(b"partial")
        raise OSError(f"cannot write {path}")
    monkeypatch.setattr(cli, "save_trainable", save)


def test_train_failing_to_write_removes_the_out_it_created(run_config, tmp_path, capsys,
                                                           monkeypatch):
    failing_save(monkeypatch)
    out = tmp_path / "new" / "out"
    err = usage_error(capsys, ["train", run_config, "--out", str(out)])
    assert err.splitlines() == [f"error: cannot write {out / 'trainable.flckpt'}"]
    assert not (tmp_path / "new").exists()


def test_train_failing_to_write_leaves_what_existed_alone(run_config, tmp_path, capsys,
                                                          monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    (out / "summary.json").write_text("old", encoding="utf-8")
    failing_save(monkeypatch)
    usage_error(capsys, ["train", run_config, "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "summary.json"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "mine"


def test_train_rerun_failing_to_write_leaves_the_finished_run_whole(run_config, tmp_path,
                                                                  capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["train", run_config, "--out", str(out)]) == 0
    names = ["metrics.csv", "summary.json", "trainable.flckpt"]
    before = {name: (out / name).read_bytes() for name in names}

    def save(_registry, path, config_echo=None):
        # save_trainable writes through a temp file, so a failed save leaves
        # the file at ``path`` as it was
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(cli, "save_trainable", save)
    usage_error(capsys, ["train", run_config, "--out", str(out), "--seed", "7"])
    assert sorted(p.name for p in out.iterdir()) == names
    assert {name: (out / name).read_bytes() for name in names} == before


def diverging_on_second_call(monkeypatch):
    calls = []

    def train(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise DivergenceError("non-finite loss nan at step 1; aborting run")
        return real_train(*args, **kwargs)

    real_train = cli.train
    monkeypatch.setattr(cli, "train", train)


def test_fewshot_failing_on_a_later_size_removes_every_size_it_wrote(run_config, tmp_path,
                                                                     capsys, monkeypatch):
    diverging_on_second_call(monkeypatch)
    out = tmp_path / "out"
    assert main(["fewshot", run_config, "--out", str(out), "--sizes", "4,8"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["run aborted: non-finite loss nan at step 1; aborting run"]
    assert not out.exists()


def test_fewshot_failing_on_a_later_size_leaves_what_existed_alone(run_config, tmp_path,
                                                                   capsys, monkeypatch):
    out = tmp_path / "out"
    (out / "size_0008").mkdir(parents=True)
    (out / "notes.txt").write_text("mine", encoding="utf-8")
    diverging_on_second_call(monkeypatch)
    assert main(["fewshot", run_config, "--out", str(out), "--sizes", "4,8"]) == 1
    assert "run aborted" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "size_0008"]
    assert not any((out / "size_0008").iterdir())


def test_fewshot_rerun_failing_on_a_later_size_leaves_the_finished_sweep_whole(
        run_config, tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["fewshot", run_config, "--out", str(out), "--sizes", "4,8"]) == 0
    before = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert len(before) == 7  # three files per size and fewshot_summary.json
    diverging_on_second_call(monkeypatch)
    argv = ["fewshot", run_config, "--out", str(out), "--sizes", "4,8", "--seed", "7"]
    assert main(argv) == 1
    assert "run aborted" in capsys.readouterr().err
    # every size's files, and the summary, still come from the first sweep,
    # and no staged temp file is left behind
    after = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert after == before
