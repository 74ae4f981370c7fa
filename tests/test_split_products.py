"""Row-split matrix products change no bit: ``tensor._product`` hands the
trailing rows of every product of at least ``_SPLIT_MIN`` multiply-adds and
``2 * _SPLIT_ROWS`` rows to one worker thread, and its output equals
``a @ b`` exactly, for every product a wide step makes and for odd, one-row
and empty shapes. The worker runs under the caller's floating-point error
state, hands its exceptions back, lets go of each job's arrays, and is
forgotten by a forked child.

Every test switches splitting on (``_CAN_SPLIT``), so the split path runs on
a one-CPU machine too. A process splits only with BLAS on one thread, since a
threaded BLAS partitions each half's rows its own way; so in a process whose
BLAS may run more threads, the tests are skipped and one test re-runs this
module in a child process with ``OPENBLAS_NUM_THREADS=1``. The threshold is
never lowered: below about 1e6 multiply-adds OpenBLAS may pick its
small-matrix kernel, whose row bits depend on the row count, and the
threshold keeps each half above that."""

import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import ONE_BLAS_THREAD, REPO, assert_bitwise, child_env
from fltune import tensor
from fltune.cli import build_experiment, load_experiment_config, main
from fltune.tensor import Tape
from fltune.training import Adam, DivergenceError, batch_loss, train_step


@pytest.mark.skipif(ONE_BLAS_THREAD, reason="this process runs the module's tests itself")
def test_module_passes_with_one_blas_thread():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           __file__], env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=REPO,
                          timeout=300, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]


# The benchmark's wide_fl shape: 8 examples of 64 tokens make 512-row stacks.
WIDE = {
    "encoder": {"d_m": 256, "n_heads": 4, "n_layers": 4, "d_o": 1024, "vocab_size": 64,
                "max_seq_len": 64, "n_classes": 2},
    "task": {"kind": "classification", "train_size": 16, "dev_size": 16, "test_size": 8,
             "seq_len": 64, "seed": 11},
    "train": {"mode": "fl", "d_a": 160, "learning_rate": 1e-3, "batch_size": 8,
              "epochs": 1, "seed": 5},
    "backbone_seed": 7,
}


def write_config(tmp_path, config) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def splits_at(m, k, n) -> bool:
    return m >= 2 * tensor._SPLIT_ROWS and m * k * n >= tensor._SPLIT_MIN


def form(a, b) -> str:
    """Which of a step's three product forms ``a @ b`` is."""
    if not a.flags.c_contiguous:
        return "x.T @ g"
    return "forward" if b.flags.c_contiguous else "g @ w.T"


def test_every_product_of_a_wide_step_keeps_its_bits(tmp_path, monkeypatch, splits):
    config = load_experiment_config(write_config(tmp_path, WIDE))
    task, weights, adapter, _ = build_experiment(config)
    real, seen = tensor._product, set()

    def checked(a, b):
        got = real(a, b)
        assert_bitwise(got, a @ b)
        if splits_at(a.shape[0], a.shape[1], b.shape[1]):
            seen.add((a.shape, b.shape, form(a, b)))
        return got

    monkeypatch.setattr(tensor, "_product", checked)
    with Tape() as tape:
        loss, _ = batch_loss(weights, adapter, task.train[:8], "classification")
        tape.backward(loss)
    assert {f for _, _, f in seen} == {"forward", "g @ w.T", "x.T @ g"}
    # the projections, both FFN products and the FL units, each in three forms
    assert len(seen) >= 12
    assert splits.count >= len(seen)


@pytest.mark.parametrize("m, k, n", [
    (61, 300, 500),      # odd m, n off every column tile
    (110, 256, 263),     # m // 2 is no multiple of 12
    (97, 256, 263),
    (71, 1024, 256),     # the most uneven halves: 24 and 47 rows
    (1001, 64, 100),
    (1, 4096, 2048),     # one row: never split
    (47, 1024, 1024),    # below 48 rows: never split
    (96, 0, 1024),       # empty inner dimension
    (96, 1024, 0),       # no columns
])
def test_odd_one_row_and_empty_shapes_keep_their_bits(splits, m, k, n):
    rng = np.random.default_rng(m + k + n)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    bt, at = np.ascontiguousarray(b.T).T, np.ascontiguousarray(a.T).T
    before = splits.count
    for x, y in ((a, b), (a, bt), (at, b)):
        assert_bitwise(tensor._product(x, y), x @ y)
    assert splits.count - before == (3 if splits_at(m, k, n) else 0)


def test_concurrent_callers_each_get_their_own_rows(splits):
    rng = np.random.default_rng(0)
    pairs = [(rng.standard_normal((96 + 24 * i, 256)), rng.standard_normal((256, 512)))
             for i in range(4)]
    wants = [a @ b for a, b in pairs]
    errors = []

    def caller(i):
        try:
            for _ in range(25):
                assert_bitwise(tensor._product(*pairs[i]), wants[i])
        except AssertionError as exc:
            errors.append((i, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert splits.count >= 100


def test_a_split_run_writes_the_bytes_of_an_unsplit_run(tmp_path, monkeypatch, splits):
    config = dict(WIDE, pretrain_steps=2)
    config["train"] = dict(WIDE["train"], max_steps=2)
    path = write_config(tmp_path, config)
    assert main(["train", str(path), "--out", str(tmp_path / "split")]) == 0
    assert splits.count > 0
    monkeypatch.setattr(tensor, "_SPLIT_MIN", 1 << 62)
    before = splits.count
    assert main(["train", str(path), "--out", str(tmp_path / "whole")]) == 0
    assert splits.count == before
    for name in ("summary.json", "trainable.flckpt"):
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def without_wallclock(run):
        lines = (tmp_path / run / "metrics.csv").read_text(encoding="utf-8").splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert without_wallclock("split") == without_wallclock("whole")


def overflowing_pair():
    """A 96-row product whose worker half (rows 48 on) overflows."""
    a, b = np.ones((96, 512)), np.full((512, 512), 1e10)
    a[60:] = 1e300
    return a, b


def test_the_worker_half_runs_under_the_callers_error_state(splits):
    a, b = overflowing_pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            out = tensor._product(a, b)
    assert splits.count == 1
    assert np.isinf(out[60:]).all() and np.isfinite(out[:60]).all()


def test_an_exception_in_the_worker_half_is_raised_in_the_caller(splits):
    a, b = overflowing_pair()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        tensor._product(a, b)
    assert splits.count == 1
    # the worker survives its exception
    a, b = np.ones((96, 512)), np.ones((512, 512))
    assert_bitwise(tensor._product(a, b), a @ b)
    assert splits.count == 2


def test_the_worker_lets_go_of_a_jobs_arrays(splits):
    a, b = np.ones((96, 512)), np.ones((512, 512))
    refs = [weakref.ref(a), weakref.ref(b)]
    tensor._product(a, b)
    del a, b
    deadline = time.monotonic() + 5
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(r() is None for r in refs)


def test_a_diverging_wide_step_ends_in_divergence_error(tmp_path, splits):
    config = load_experiment_config(write_config(tmp_path, WIDE))
    task, weights, adapter, registry = build_experiment(config)
    weights.layers[0].ffn.w1.data[:] = 1e300  # the FFN's second product overflows
    weights.layers[0].ffn.w2.data[:] = 1e300
    trainable = registry.trainable_entries()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            train_step(lambda: batch_loss(weights, adapter, task.train[:8], "classification"),
                       trainable, Adam(1e-3), 1)
    assert splits.count > 0
    assert all(e.tensor.grad is None for e in trainable)


FORK_PROBE = """
import os
import numpy as np
from fltune import tensor

tensor._CAN_SPLIT = True
a, b = np.ones((96, 512)), np.ones((512, 512))
assert (tensor._product(a, b) == 512.0).all() and "jobs" in tensor._worker
pid = os.fork()
if pid == 0:
    assert "jobs" not in tensor._worker
    ok = (tensor._product(a, b) == 512.0).all() and "jobs" in tensor._worker
    os._exit(0 if ok else 3)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_with_its_own_worker():
    proc = subprocess.run([sys.executable, "-c", FORK_PROBE], env=child_env(), timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
