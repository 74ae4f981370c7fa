"""One workload run in its own process: set-up, closed-loop training, eval,
correctness checks. Started by ``run.py`` with BLAS pinned to one thread;
writes its result as JSON to ``--result`` and prints nothing on stdout.

The program is driven only through its public functions:
``cli.load_experiment_config``, ``cli.build_experiment``, ``training.train``,
``training.evaluate``, ``checkpoint.save_trainable``/``load_trainable``, plus
``ParamRegistry.frozen_violations`` and the FL split/concat pair for checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import fltune
from fltune import adapters, checkpoint, cli, training
from fltune.tensor import Tensor

import spans
import workloads

# Traced runs stop after this many traced steps, so the span table stays small.
TRACE_MAX_STEPS = 300
# Set-up runs at least this often, and again whenever it has had less than
# this share of the measured time.
SETUP_MIN_REPEATS = 3
SETUP_SHARE = 0.1
# The highest of these percentiles with at least ten samples beyond it. The
# ladder stops at p90: on a shared machine p95 and p99 of one run move with
# the few steps that met a burst of outside load, and would not repeat.
TAIL_LADDER = (90.0, 75.0, 50.0)
TAIL_BEYOND = 10
EQUIVALENCE_TOL = 1e-12


@dataclass
class Block:
    name: str
    config: object
    task: object
    weights: object
    adapter: object
    registry: object

    @property
    def steps_per_call(self) -> int:
        return math.ceil(len(self.task.train) / self.config.train.batch_size)


class Gate:
    """Counts operations (steps, eval passes, checks) and their failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def build_blocks(paths: dict[str, str]) -> list[Block]:
    blocks = []
    for name, path in paths.items():
        config = cli.load_experiment_config(path)
        task, weights, adapter, registry = cli.build_experiment(config)
        blocks.append(Block(name, config, task, weights, adapter, registry))
    return blocks


def train_call(block: Block, gate: Gate):
    """One ``training.train`` call (one epoch, or ``max_steps``). Every step
    must have a finite loss and the call must run the requested step count.
    Returns the run metrics, or None when training diverged."""
    expected = block.steps_per_call
    if block.config.train.max_steps is not None:
        expected = min(expected, block.config.train.max_steps)
    try:
        metrics = training.train(block.weights, block.adapter, block.task,
                                 block.config.train, registry=block.registry)
    except training.DivergenceError as exc:
        gate.attempted += expected
        gate.check(False, f"{block.name}: {exc}")
        return None
    gate.attempted += len(metrics.rows)
    finite = all(math.isfinite(r.loss) for r in metrics.rows)
    gate.check(finite and len(metrics.rows) == expected,
               f"{block.name}: {len(metrics.rows)} steps (expected {expected}), "
               f"finite losses: {finite}")
    return metrics


def train_round(blocks, gate) -> list[float]:
    """One ``training.train`` call per block; the step latencies (ms), taken
    from the program's own cumulative per-step ``wallclock_ms``."""
    durations: list[float] = []
    for block in blocks:
        metrics = train_call(block, gate)
        if metrics is not None:
            wall = [r.wallclock_ms for r in metrics.rows]
            durations += [b - a for a, b in zip([0.0] + wall, wall)]
    return durations


def eval_round(blocks, gate) -> tuple[int, float]:
    """One ``evaluate`` pass over each block's dev split: (examples, seconds)."""
    examples = 0
    elapsed = 0.0
    for block in blocks:
        t = time.perf_counter()
        result = training.evaluate(block.weights, block.adapter, block.task.dev,
                                   block.task.kind)
        elapsed += time.perf_counter() - t
        examples += len(block.task.dev)
        gate.check(math.isfinite(result.mean_loss) and 0.0 <= result.accuracy <= 1.0,
                   f"{block.name}: eval gave {result}")
    return examples, elapsed


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it."""
    n = len(durations)
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            return p, float(np.percentile(durations, p))
    return 50.0, float(np.percentile(durations, 50.0))


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def reference_run(blocks, gate) -> dict:
    """Train each reference block for its few steps; losses and dev results."""
    observed = {}
    for block in blocks:
        metrics = train_call(block, gate)
        if metrics is not None:
            observed[block.name] = {"losses": [r.loss for r in metrics.rows],
                                    "dev_accuracy": metrics.final_dev.accuracy,
                                    "dev_mean_loss": metrics.final_dev.mean_loss}
    return observed


def compare_reference(observed, stored, gate) -> None:
    """Losses and dev mean loss within ``stored["rtol"]``; dev accuracy exact."""
    rtol = stored["rtol"]
    for name, want in stored["blocks"].items():
        got = observed.get(name)
        ok = (got is not None
              and len(got["losses"]) == len(want["losses"])
              and all(math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
                      for a, b in zip(got["losses"], want["losses"]))
              and got["dev_accuracy"] == want["dev_accuracy"]
              and math.isclose(got["dev_mean_loss"], want["dev_mean_loss"],
                               rel_tol=rtol, abs_tol=0.0))
        gate.check(ok, f"{name}: reference mismatch: got {got}, stored {want}")


def check_fl_equivalence(block: Block, gate: Gate, seed: int) -> None:
    """Trained FL params: split form equals the concatenated form at prefix,
    infix and suffix placement."""
    rng = np.random.default_rng([seed, 7])
    enc = block.config.encoder
    worst = 0.0
    for i, params in block.adapter.layers.items():
        ffn = block.weights.layers[i].ffn
        x = rng.normal(0.0, 1.0, (block.config.task.seq_len, enc.d_m))
        split = adapters.ffn_fl_split(ffn, params, Tensor(x)).data
        for position in ("prefix", "infix", "suffix"):
            conc = adapters.ffn_fl_concat(ffn, params, x, position=position,
                                          infix_index=enc.d_o // 2)
            worst = max(worst, float(np.max(np.abs(split - conc))))
    gate.check(worst <= EQUIVALENCE_TOL,
               f"{block.name}: split vs concat deviation {worst:.3e} > {EQUIVALENCE_TOL:g}")


def check_checkpoint(block: Block, gate: Gate, path: str) -> int:
    """``fltune train``'s trainable round trip must give byte-equal tensors."""
    entries = block.registry.trainable_entries()
    before = {e.name: e.tensor.data.copy() for e in entries}
    checkpoint.save_trainable(block.registry, path,
                              config_echo=block.config.encoder.to_dict())
    size = os.path.getsize(path)
    checkpoint.load_trainable(path, block.registry)
    os.remove(path)
    same = all(e.tensor.data.dtype == before[e.name].dtype
               and e.tensor.data.shape == before[e.name].shape
               and e.tensor.data.tobytes() == before[e.name].tobytes() for e in entries)
    gate.check(same, f"{block.name}: checkpoint round trip changed tensor bytes")
    return size


def final_checks(blocks, gate, seed, out_dir) -> int:
    ckpt_bytes = 0
    for block in blocks:
        violations = block.registry.frozen_violations()
        gate.check(violations == [], f"{block.name}: frozen tensors changed: {violations}")
        if block.config.train.mode == "fl":
            check_fl_equivalence(block, gate, seed)
        ckpt_bytes += check_checkpoint(block, gate,
                                       os.path.join(out_dir, f"{block.name}.flckpt"))
    return ckpt_bytes


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "fltune": os.path.dirname(fltune.__file__),
    }


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def timed_build(paths, setups: list[float]) -> list[Block]:
    t = time.perf_counter()
    blocks = build_blocks(paths)
    setups.append(time.perf_counter() - t)
    return blocks


def run_untraced(paths, gate, seconds, seed, out_dir):
    setups: list[float] = []
    blocks = timed_build(paths, setups)
    train_round(blocks, gate)  # warm-up, not timed

    # Rounds of training, eval and (while set-up has had less than its share
    # of the time) one more set-up, so that all three sample the same span of
    # machine load. Set-up time does not count against --seconds.
    durations: list[float] = []
    batch = blocks[0].config.train.batch_size
    eval_examples = 0
    measured = eval_s = 0.0
    t0 = time.perf_counter()
    while measured < seconds:
        if (len(setups) < SETUP_MIN_REPEATS
                or sum(setups) < SETUP_SHARE * (time.perf_counter() - t0)):
            timed_build(paths, setups)
        t = time.perf_counter()
        durations += train_round(blocks, gate)
        n, dt = eval_round(blocks, gate)
        measured += time.perf_counter() - t
        eval_examples += n
        eval_s += dt
    final_checks(blocks, gate, seed, out_dir)

    if not durations:
        gate.check(False, "no timed steps completed")
        durations = [math.nan]
    tail_p, tail_ms = tail(durations)
    values = {
        "setup_s": statistics.median(setups),
        "train_examples_per_s": len(durations) * batch / (sum(durations) / 1000.0),
        "step_ms_p50": statistics.median(durations),
        "step_ms_tail": tail_ms,
        "eval_examples_per_s": eval_examples / eval_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"setup_repeats": len(setups), "timed_steps": len(durations),
               "step_ms_tail_percentile": tail_p,
               "step_samples_beyond_tail": len(durations) * (1.0 - tail_p / 100.0),
               "eval_examples": eval_examples, "setup_s": setups,
               "step_ms": durations}
    return values, details


def run_traced(paths, gate, seconds, seed, out_dir):
    tracer = spans.Tracer()
    with tracer:
        tracer.set_phase("setup")
        blocks = build_blocks(paths)

    train_round(blocks, gate)  # warm-up
    # Untraced and traced rounds alternate, so drift in machine speed affects
    # both sides of the overhead figure alike.
    untraced: list[float] = []
    traced: list[float] = []
    tracer.set_phase("timed")
    t0 = time.perf_counter()
    while True:
        untraced += train_round(blocks, gate)
        with tracer:
            traced += train_round(blocks, gate)
        if len(traced) >= TRACE_MAX_STEPS or time.perf_counter() - t0 >= seconds:
            break
    with tracer:
        tracer.set_phase("eval")
        eval_round(blocks, gate)
        tracer.set_phase("check")
        ckpt_bytes = final_checks(blocks, gate, seed, out_dir)
    tracer.save(os.path.join(out_dir, "spans.npz"))

    layer = spans.layer_metrics(tracer)
    eval_examples = sum(len(b.task.dev) for b in blocks)
    pretrain_steps = sum(b.config.pretrain_steps for b in blocks)
    untraced_p50 = statistics.median(untraced) if untraced else math.nan
    traced_p50 = statistics.median(traced) if traced else math.nan
    layer.update({
        "training.eval_ms_per_example": layer.pop("training.eval_ms") / eval_examples,
        "training.trainable_values": sum(
            adapters.count_parameters(b.registry).trainable for b in blocks),
        "checkpoint.bytes": ckpt_bytes,
        "data.pretrain_ms_per_step": (layer.pop("data.pretrain_ms") / pretrain_steps
                                      if pretrain_steps else 0.0),
        "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50,
    })
    details = {"traced_steps": int(layer["trace.steps"]), "untraced_steps": len(untraced),
               "traced_step_ms_p50": traced_p50, "untraced_step_ms_p50": untraced_p50,
               "spans": len(tracer.start)}
    return layer, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--config-dir", required=True)
    parser.add_argument("--reference", required=True,
                        help="stored reference JSON, or the file to write with --write-reference")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    def block_paths(prefix):
        names = workloads.workload_blocks(args.workload, 0)
        return {n: os.path.join(args.config_dir, f"{prefix}-{n}.json") for n in names}

    gate = Gate()
    observed = reference_run(build_blocks(block_paths("ref")), gate)
    if args.write_reference:
        if gate.failed:
            print("; ".join(gate.failures), file=sys.stderr)
            return 1
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(observed, fh)
        return 0
    with open(args.reference, "r", encoding="utf-8") as fh:
        compare_reference(observed, json.load(fh)[args.workload], gate)

    if args.trace:
        values, details = run_traced(block_paths("run"), gate, args.seconds, args.seed,
                                     args.config_dir)
        on_line, file_only = workloads.PER_LAYER, workloads.PER_LAYER_FILE_ONLY
    else:
        values, details = run_untraced(block_paths("run"), gate, args.seconds, args.seed,
                                       args.config_dir)
        values["success_rate"] = (gate.attempted - gate.failed) / gate.attempted
        on_line, file_only = workloads.END_TO_END, workloads.END_TO_END_FILE_ONLY
    metrics = {k: metric(values[k], u) for k, u in on_line.items()}
    details["file_only"] = {k: metric(values[k], u) for k, u in file_only.items()}
    result = {"correct": gate.failed == 0, "attempted": gate.attempted,
              "failed": gate.failed, "metrics": metrics,
              "failures": gate.failures, "details": details, "env": environment()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
