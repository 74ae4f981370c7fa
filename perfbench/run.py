"""fltune benchmark: closed-loop training throughput and step latency.

    python3 perfbench/run.py --workload wide_fl --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the repository root. Each workload runs in a child process that
imports ``fltune`` from ``src/`` of this checkout, with BLAS pinned to one
thread. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full result, with the environment record, is written under
``perfbench/out/``. The exit code is 0 when every correctness check passed,
1 when one failed or the run could not complete, 2 on bad arguments.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
# Losses and the dev mean loss may differ from the stored reference by this
# relative amount: float summation-order changes move them by ~1e-15, while a
# changed formula or precision moves them by far more.
REFERENCE_RTOL = 1e-9
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _canonical(config: dict) -> bytes:
    return json.dumps(config, sort_keys=True, separators=(",", ":")).encode()


def _commit() -> str:
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _write_configs(workload: str, seed: int, run_dir: str) -> dict[str, str]:
    """Write the generated configs; returns block name -> config sha256."""
    hashes = {}
    for prefix, blocks in (("run", workloads.workload_blocks(workload, seed)),
                           ("ref", workloads.reference_blocks(workload))):
        for name, config in blocks.items():
            data = _canonical(config)
            with open(os.path.join(run_dir, f"{prefix}-{name}.json"), "wb") as fh:
                fh.write(data)
            if prefix == "run":
                hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes


def _run_child(workload, seed, seconds, trace, run_dir, extra=()) -> dict:
    result_path = os.path.join(run_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--config-dir", run_dir, "--reference", REFERENCE, "--result", result_path,
           *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    hashes = _write_configs(workload, seed, run_dir)
    result = _run_child(workload, seed, seconds, trace, run_dir)
    if os.path.realpath(result["env"]["fltune"]) != os.path.realpath(os.path.join(SRC, "fltune")):
        raise BenchError(f"worker imported fltune from {result['env']['fltune']}, not {SRC}")
    result["env"].update(commit=_commit(), config_sha256=hashes, workload=workload,
                         seed=seed, seconds=seconds, trace=trace)
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def write_reference() -> None:
    """Regenerate the stored reference from this checkout's program."""
    stored = {}
    for workload in workloads.WORKLOADS:
        run_dir = os.path.join(OUT, f"{workload}-reference")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        _write_configs(workload, workloads.REFERENCE_SEED, run_dir)
        blocks = _run_child(workload, workloads.REFERENCE_SEED, 1, 0, run_dir,
                            extra=("--write-reference",))
        stored[workload] = {"seed": workloads.REFERENCE_SEED,
                            "steps": workloads.REFERENCE_STEPS,
                            "rtol": REFERENCE_RTOL, "blocks": blocks}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _report(workload: str, result: dict) -> None:
    env = result["env"]
    print(f"== {workload} seed {env['seed']} trace {env['trace']}: "
          f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    details = result["details"]
    for name, m in details.pop("file_only").items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}  (result file only)")
    # per-step latencies and set-up times stay in the result file
    print("details: " + json.dumps({k: v for k, v in details.items()
                                    if not isinstance(v, list)}, sort_keys=True))
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fltune training benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isdir(os.path.join(SRC, "fltune")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 1
    try:
        if args.write_reference:
            write_reference()
            print(f"wrote {REFERENCE}")
            return 0
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    for workload, result in results.items():
        _report(workload, result)
        if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
            print(f"benchmark: {workload}: a metric could not be measured", file=sys.stderr)
            return 1
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    line = {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
