"""Workload definitions and metric names for the fltune benchmark.

A workload is one or more blocks; each block is a complete experiment config
that the program loads with ``cli.load_experiment_config``. Every seed the
program uses (task, backbone, training) is derived from the workload seed, so
the same seed gives the same inputs. This module imports nothing from the
program and nothing outside the standard library.
"""

from __future__ import annotations

import copy
import random

# Steps of the stored reference run per block, and the seed it uses. The
# reference checks arithmetic; the workload seed only changes the inputs.
REFERENCE_SEED = 0
REFERENCE_STEPS = 4

TINY_ENCODER = {"d_m": 16, "n_heads": 2, "n_layers": 2, "vocab_size": 64,
                "max_seq_len": 24, "n_classes": 2}
WIDE_ENCODER = {"d_m": 256, "n_heads": 4, "n_layers": 4, "d_o": 1024, "vocab_size": 64,
                "max_seq_len": 64, "n_classes": 2}

ADAM = {"optimizer": "adam", "learning_rate": 1e-3, "epochs": 1}


def _tiny_fl(task_seed, backbone_seed, train_seed):
    # The demo config shape: every op works on arrays of at most 16x64, so
    # interpreter and tape bookkeeping bound the step. Runnable, but not in
    # BENCHMARK.json: its figures did not repeat within a bound on a shared
    # machine (see README.md).
    return {"fl": {
        "encoder": dict(TINY_ENCODER),
        "task": {"kind": "classification", "train_size": 1024, "dev_size": 512,
                 "test_size": 8, "seq_len": 16, "seed": task_seed},
        "train": dict(ADAM, mode="fl", d_a=16, batch_size=16, seed=train_seed),
        "pretrain_steps": 0,
        "backbone_seed": backbone_seed,
    }}


def _wide_fl(task_seed, backbone_seed, train_seed):
    # FLOP-bound: frozen attention and FFN matmuls plus the paper's d_a 160.
    return {"fl": {
        "encoder": dict(WIDE_ENCODER),
        "task": {"kind": "classification", "train_size": 64, "dev_size": 32,
                 "test_size": 8, "seq_len": 64, "seed": task_seed},
        "train": dict(ADAM, mode="fl", d_a=160, batch_size=8, seed=train_seed),
        "pretrain_steps": 0,
        "backbone_seed": backbone_seed,
    }}


def _tiny_baselines(task_seed, backbone_seed, train_seed):
    # The same layers used differently: prefix rows, longer sequences, an
    # attention expansion, every row to the head, and a written backbone.
    blocks = {}
    for mode in ("pv1", "pv2", "ma", "finetune"):
        blocks[mode] = {
            "encoder": dict(TINY_ENCODER, n_classes=3),
            "task": {"kind": "tagging", "train_size": 512, "dev_size": 128,
                     "test_size": 8, "seq_len": 16, "seed": task_seed},
            "train": dict(ADAM, mode=mode, prompt_len=8, d_a_prime=8, batch_size=16,
                          seed=train_seed),
            "pretrain_steps": 50,
            "backbone_seed": backbone_seed,
        }
    return blocks


WORKLOADS = {
    "tiny_fl": _tiny_fl,
    "wide_fl": _wide_fl,
    "tiny_baselines": _tiny_baselines,
}


def workload_blocks(name: str, seed: int) -> dict[str, dict]:
    """Block name -> experiment config dict for one workload and seed."""
    rng = random.Random(seed)
    task_seed, backbone_seed, train_seed = (rng.randrange(2 ** 31) for _ in range(3))
    return WORKLOADS[name](task_seed, backbone_seed, train_seed)


def reference_blocks(name: str) -> dict[str, dict]:
    """The workload's blocks at the reference seed, stopped after a few steps."""
    blocks = copy.deepcopy(workload_blocks(name, REFERENCE_SEED))
    for config in blocks.values():
        config["train"]["max_steps"] = REFERENCE_STEPS
    return blocks


# End-to-end metrics on the result line of an untraced run.
END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "step_ms_tail": "ms",
    "eval_examples_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}
# Measured and printed, but kept off the result line: the median step sits
# between the two modes that bursts of outside load give the step latencies on
# a shared machine, so it did not repeat from run to run within the bound.
END_TO_END_FILE_ONLY = {"step_ms_p50": "ms"}

OPS = ("matmul", "transpose", "add", "scale", "relu", "softmax_rows", "concat",
       "row_slice", "gather_rows", "layer_norm", "cross_entropy_mean", "sum_all")

# Per-layer metrics on the result line of a traced run. Times that are zero
# by construction on some workload (the FL term on tiny_baselines, the MA
# expansion and pretraining on the FL workloads, the unused sum_all op) are
# reported in the run's result file only; adapters.adapter_ms_per_step sums
# the first two.
PER_LAYER = {
    "tensor.tape_records_per_step": "count",
    **{f"tensor.op_calls_per_step.{op}": "count" for op in OPS},
    **{f"tensor.op_ms_per_step.{op}": "ms" for op in OPS if op != "sum_all"},
    "tensor.backward_ms_per_step": "ms",
    "tensor.out_bytes_per_step": "B",
    "encoder.forward_ms_per_example": "ms",
    "encoder.attn_ms_per_step": "ms",
    "encoder.ffn_ms_per_step": "ms",
    "encoder.hidden_self_ms_per_step": "ms",
    "adapters.adapter_ms_per_step": "ms",
    "adapters.build_registry_ms": "ms",
    "adapters.frozen_check_ms": "ms",
    "training.forward_ms_per_step": "ms",
    "training.optimizer_ms_per_step": "ms",
    "training.step_self_ms": "ms",
    "training.eval_ms_per_example": "ms",
    "training.trainable_values": "count",
    "data.generate_task_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "B",
    "cli.build_experiment_ms": "ms",
    "trace.overhead_pct": "%",
}

PER_LAYER_FILE_ONLY = {
    "adapters.fl_term_ms_per_step": "ms",
    "adapters.ma_ms_per_step": "ms",
    "data.pretrain_ms_per_step": "ms",
    "tensor.op_ms_per_step.sum_all": "ms",
}
