"""Freed step memory stays mapped: importing fltune sets glibc's mmap and trim
thresholds, so steady-state training steps and evaluation passes reuse the
heap instead of page-faulting it back in."""

import json
import platform
import subprocess
import sys
from types import SimpleNamespace

import pytest

from conftest import REPO, child_env
from fltune import tensor

CONFIG = REPO / "configs" / "demo_classification.json"

# Runs in a fresh interpreter so that no earlier test has warmed the heap.
PROBE = """
import json, resource, sys
from fltune.cli import build_experiment, load_experiment_config
from fltune.training import evaluate, train

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

out = {}
for mode in ("pv2", "ma", "finetune"):
    config = load_experiment_config(sys.argv[1], [
        "task.train_size=128", "task.dev_size=32", "train.batch_size=16",
        f"train.mode={mode}"])
    task, weights, adapter, registry = build_experiment(config)
    for _ in range(2):
        train(weights, adapter, task, config.train, registry=registry)
    before = faults()
    metrics = train(weights, adapter, task, config.train, registry=registry)
    per_step = (faults() - before) / len(metrics.rows)
    before = faults()
    evaluate(weights, adapter, task.dev, task.kind)
    per_example = (faults() - before) / len(task.dev)
    out[mode] = [per_step, per_example]
print(json.dumps(out))
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"),
                    reason="the allocator tuning applies to Linux with glibc only")
def test_steady_state_steps_and_eval_do_not_fault():
    proc = subprocess.run([sys.executable, "-c", PROBE, str(CONFIG)], env=child_env(),
                          capture_output=True, text=True, timeout=300, check=True)
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    for mode, (per_step, per_example) in counts.items():
        assert per_step < 1, f"{mode}: {per_step} minor faults per training step"
        assert per_example < 1, f"{mode}: {per_example} minor faults per eval example"


class FakeMallopt:
    """Stands in for the ctypes function: takes ``argtypes``/``restype`` and
    records its calls."""

    def __init__(self, result):
        self.calls = []
        self.result = result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def fake_mallopt(monkeypatch, result=1):
    mallopt = FakeMallopt(result)
    monkeypatch.setattr(tensor.ctypes, "CDLL", lambda _name: SimpleNamespace(mallopt=mallopt))
    return mallopt


def test_allocator_tuning_is_a_no_op_outside_glibc(monkeypatch):
    mallopt = fake_mallopt(monkeypatch)
    monkeypatch.setattr(tensor.platform, "libc_ver", lambda *a, **k: ("", ""))
    tensor._keep_freed_memory_mapped()
    assert mallopt.calls == []


def test_allocator_tuning_sets_mmap_then_trim_threshold(monkeypatch):
    mallopt = fake_mallopt(monkeypatch)
    monkeypatch.setattr(tensor.platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
    tensor._keep_freed_memory_mapped()
    assert mallopt.calls == [(-3, 32 << 20), (-1, 1 << 30)]


def test_allocator_tuning_tolerates_a_refusing_mallopt(monkeypatch):
    mallopt = fake_mallopt(monkeypatch, result=0)
    monkeypatch.setattr(tensor.platform, "libc_ver", lambda *a, **k: ("glibc", "2.36"))
    tensor._keep_freed_memory_mapped()
    assert len(mallopt.calls) == 2
