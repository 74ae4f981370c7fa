"""Documented contracts: divergence guards, per-thread tapes, a probe that
leaves no trace, and checkpoint tensor-table validation."""

import json
import sys
import threading

import numpy as np
import pytest

from fltune.adapters import ParamRegistry, tensor_content_hash
from fltune.checkpoint import (
    MAGIC,
    SENTINEL,
    CheckpointError,
    load_checkpoint,
    save_tensors,
)
from fltune.cli import EXIT_USAGE, main
from fltune.tensor import Tape, Tensor, check_gradients, matmul, sum_all
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
    manifest = {"format_version": 1, "kind": "adapter", "config": {}}
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
    save_tensors(path, [("w", np.ones((2, 2)))], kind="adapter")
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="40 bytes, expected 32"):
        load_checkpoint(path)


def test_valid_table_still_loads(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("a", np.ones((2, 3))), ("empty", np.ones((0, 4))),
                        ("s", np.float64(2.0))], kind="adapter")
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
    # size 2 in batches of 2 is one step per epoch, so the dev evaluation
    # after step 1 already reads overflowed weights before step 2 aborts
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
