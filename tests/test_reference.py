"""The benchmark's stored reference, checked in the fast suite: the
tiny_baselines reference blocks (pv1, pv2, ma and finetune on a tagging task
after pretraining) built and trained the way the benchmark worker does it.
A change that moves their arithmetic fails here, not only in a benchmark run.
The benchmark files are read, never written."""

import importlib.util
import json
import math
from pathlib import Path

from fltune import cli, training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_baselines_reference_blocks_match_the_stored_reference(tmp_path):
    blocks = load_workloads().reference_blocks("tiny_baselines")
    stored = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    stored = stored["tiny_baselines"]
    assert sorted(blocks) == sorted(stored["blocks"])
    rtol = stored["rtol"]
    for name, block in blocks.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(block), encoding="utf-8")
        config = cli.load_experiment_config(path)
        task, weights, adapter, registry = cli.build_experiment(config)
        metrics = training.train(weights, adapter, task, config.train, registry=registry)
        want = stored["blocks"][name]
        losses = [r.loss for r in metrics.rows]
        assert len(losses) == len(want["losses"]), name
        for got, ref in zip(losses, want["losses"]):
            assert math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0), (name, losses)
        assert metrics.final_dev.accuracy == want["dev_accuracy"], name
        assert math.isclose(metrics.final_dev.mean_loss, want["dev_mean_loss"],
                            rel_tol=rtol, abs_tol=0.0), name
