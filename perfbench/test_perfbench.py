"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

Each workload runs at minimal length (``--seconds 1``: set-up, one warm-up
round and one measured round), untraced once and traced with two seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

# tiny_fl is runnable but not in BENCHMARK.json; it is tested here as well.
WORKLOADS = list(workloads.WORKLOADS)
SEEDS = (1, 2)


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.OUT, f"{workload}-seed{seed}-trace{trace}", "result.json"),
              encoding="utf-8") as fh:
        full = json.load(fh)
    return {"line": line, "full": full}


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = _bench(*key)
        return cache[key]

    return get


def test_declared_metrics_match_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    line = runs(workload, SEEDS[0], 0)["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    file_only = runs(workload, SEEDS[0], 0)["full"]["details"]["file_only"]
    assert {k: m["unit"] for k, m in file_only.items()} == workloads.END_TO_END_FILE_ONLY
    assert file_only["step_ms_p50"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(runs, workload):
    result = runs(workload, SEEDS[0], 1)
    line = result["line"]
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result["full"]["details"]["file_only"]) == set(workloads.PER_LAYER_FILE_ONLY)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tape_records_per_step_repeat_exactly(runs, workload):
    counts = [runs(workload, seed, 1)["line"]["metrics"]["tensor.tape_records_per_step"]["value"]
              for seed in SEEDS]
    assert counts[0] == counts[1]
    expected = {"tiny_fl": 735.0, "wide_fl": 1327.0, "tiny_baselines": 1111.0}
    assert counts[0] == expected[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_with_nonnegative_self_time(runs, workload):
    import spans

    runs(workload, SEEDS[0], 1)
    z = np.load(os.path.join(run.OUT, f"{workload}-seed{SEEDS[0]}-trace1", "spans.npz"))
    s = {k: z[k] for k in ("name", "start", "end", "parent", "step", "phase", "value")}
    assert len(s["start"]) > 0
    assert (s["end"] >= s["start"]).all()
    child = np.flatnonzero(s["parent"] >= 0)
    parent = s["parent"][child]
    assert (parent < child).all()
    assert (s["start"][parent] <= s["start"][child]).all()
    assert (s["end"][child] <= s["end"][parent]).all()
    assert (spans.self_times(s) >= 0).all()
    names = set(z["names"][s["name"]])
    assert {"training.train", "tensor.Tape.backward", "encoder.attention_forward",
            "cli.build_experiment"} <= names


def _reference_blocks(tmp_name: str):
    import worker

    run_dir = os.path.join(run.OUT, tmp_name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run._write_configs("tiny_fl", workloads.REFERENCE_SEED, run_dir)
    paths = {n: os.path.join(run_dir, f"ref-{n}.json") for n in workloads.reference_blocks("tiny_fl")}
    with open(run.REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)["tiny_fl"]
    return worker, worker.build_blocks(paths), stored


def test_reference_tolerates_rounding_level_changes():
    # Moving every backbone weight by one ulp stands in for a change of float
    # summation order: both perturb values at the level of rounding.
    worker, blocks, stored = _reference_blocks("test-reference-ulp")
    rng = np.random.default_rng(0)
    for block in blocks:
        for _name, t, _group in block.weights.named_tensors():
            away = np.where(rng.random(t.data.shape) < 0.5, -np.inf, np.inf)
            t.data = np.nextafter(t.data, away)
    gate = worker.Gate()
    worker.compare_reference(worker.reference_run(blocks, gate), stored, gate)
    assert gate.failed == 0, gate.failures


def test_reference_rejects_changed_arithmetic(monkeypatch):
    from fltune import tensor

    worker, blocks, stored = _reference_blocks("test-reference-eps")
    monkeypatch.setattr(tensor.layer_norm, "__defaults__", (1e-6,))
    gate = worker.Gate()
    worker.compare_reference(worker.reference_run(blocks, gate), stored, gate)
    assert gate.failed == len(stored["blocks"])


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        stored = json.load(fh)
    stored["tiny_fl"]["blocks"]["fl"]["losses"][0] *= 1.0 + 1e-6
    os.makedirs(run.OUT, exist_ok=True)
    bad = os.path.join(run.OUT, "test-bad-reference.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(stored, fh)
    monkeypatch.setattr(run, "REFERENCE", bad)
    code = run.main(["--workload", "tiny_fl", "--seed", "1", "--seconds", "1", "--trace", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1


def test_fails_without_program_source():
    bare = os.path.join(run.OUT, "test-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny_fl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
