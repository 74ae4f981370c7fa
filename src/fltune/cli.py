"""Operator entry point.

Subcommands: verify (equivalence suites), gradcheck (finite-difference
oracle over every trainable tensor), params (budget accounting), train,
fewshot (nested subset sweep), eval (re-evaluate a saved run).

Exit codes: 0 success, 1 check failure or diverged run, 2 usage, config or
output error. Runs are configured by a JSON file; --set key.path=value
overrides individual entries and --seed overrides the training seed.
FLTUNE_OUTPUT_ROOT sets the default output root.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .adapters import (
    build_registry,
    count_parameters,
    verify_ma_equivalence,
    verify_prefix_attention_rows,
    verify_theorem1,
    verify_theorem2,
)
from .checkpoint import load_trainable, save_trainable, temp_sibling
from .data import generate_task, pretrain_backbone
from .encoder import EncoderConfig, ffn_parameter_share, init_encoder
from .tensor import check_gradients
from .training import (
    MODES,
    DivergenceError,
    TrainConfig,
    batch_loss,
    evaluate,
    fewshot_subsample,
    make_adapter,
    run_summary,
    train,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

OUTPUT_ROOT_ENV = "FLTUNE_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Bad experiment configuration (parse error, unknown key, bad value)."""


# ---------------------------------------------------------------------------
# Experiment configuration
# ---------------------------------------------------------------------------

@dataclass
class TaskSpec:
    kind: str = "classification"
    train_size: int = 2000
    dev_size: int = 500
    test_size: int = 500
    seq_len: int = 16
    seed: int = 0


@dataclass
class ExperimentConfig:
    encoder: EncoderConfig
    task: TaskSpec = field(default_factory=TaskSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    pretrain_steps: int = 0
    backbone_seed: int = 0
    output_dir: Optional[str] = None

    def __post_init__(self):
        """Rules that span sections; the task takes its vocabulary and
        classes from the encoder."""
        enc, tc = self.encoder, self.train
        if self.task.kind == "tagging" and enc.n_classes != 3:
            raise ValueError(f"tagging tasks need encoder.n_classes 3, got {enc.n_classes}")
        budget = enc.max_seq_len - (tc.prompt_len if tc.mode == "pv1" else 0)
        if self.task.seq_len > budget:
            raise ValueError(
                f"task seq_len {self.task.seq_len} exceeds the available budget {budget} "
                f"(max_seq_len {enc.max_seq_len}, mode {tc.mode})")
        if self.pretrain_steps < 0:
            raise ValueError(f"pretrain_steps must be nonnegative, got {self.pretrain_steps}")
        if tc.epochs < 1:
            # TrainConfig allows 0 for library callers; a run must train.
            raise ValueError(f"train.epochs must be at least 1, got {tc.epochs}")


def _fits(value, hint) -> bool:
    """Whether a JSON value fits type ``hint``: a bool is not an int, and an int
    or float fits float only when it is a finite float (``json`` reads NaN,
    Infinity and 1e999, and an int can exceed the largest float)."""
    if typing.get_origin(hint) is Union:
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _type_name(hint) -> str:
    if hint is float:
        return "a finite float"
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


def _build_section(prefix: str, cls, data) -> object:
    """Build dataclass ``cls`` from a JSON object whose keys and value types its
    type hints fix; a field of dataclass type is built as a nested section."""
    section = prefix.rstrip(".") or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be an object, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = sorted(prefix + key for key in set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    values = {}
    for key, value in data.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint):
            values[key] = _build_section(f"{prefix}{key}.", hint, value)
        elif _fits(value, hint):
            values[key] = value
        else:
            raise ConfigError(f"{prefix}{key} must be {_type_name(hint)}, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"in {section}: {exc}") from exc


def _apply_override(raw: dict, assignment: str) -> None:
    if "=" not in assignment:
        raise ConfigError(f"--set needs key.path=value, got {assignment!r}")
    dotted, _, value_text = assignment.partition("=")
    keys = dotted.strip().split(".")
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text  # bare strings are convenient on the command line
    node = raw
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set {dotted}: {key!r} is not an object")
    node[keys[-1]] = value


def load_experiment_config(path, overrides: Sequence[str] = (),
                           seed: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a JSON experiment file; flags override file values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")

    for assignment in overrides:
        _apply_override(raw, assignment)
    if seed is not None:
        _apply_override(raw, f"train.seed={seed}")

    return _build_section("", ExperimentConfig, raw)


def build_experiment(config: ExperimentConfig):
    """Task, backbone (optionally pretrained), adapter, registry for one run."""
    task = generate_task(
        config.task.kind,
        sizes=(config.task.train_size, config.task.dev_size, config.task.test_size),
        seed=config.task.seed,
        vocab_size=config.encoder.vocab_size,
        seq_len=config.task.seq_len,
        n_classes=config.encoder.n_classes,
    )
    weights = init_encoder(config.encoder, seed=config.backbone_seed)
    if config.pretrain_steps:
        pretrain_backbone(weights, task, steps=config.pretrain_steps,
                          seed=config.backbone_seed)
    adapter = make_adapter(config.encoder, config.train)
    registry = build_registry(weights, adapter)
    return task, weights, adapter, registry


def _resolve_outdir(args, config: Optional[ExperimentConfig], command: str) -> str:
    if getattr(args, "out", None):
        return args.out
    if config is not None and config.output_dir:
        return config.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
    return os.path.join(root, command)


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = [
        verify_theorem1(trials=args.trials, tolerance=args.tolerance, seed=args.seed),
        verify_theorem2(trials=args.trials, tolerance=args.tolerance, seed=args.seed),
        verify_ma_equivalence(trials=max(1, args.trials // 2),
                              tolerance=args.tolerance, seed=args.seed),
        verify_prefix_attention_rows(trials=max(1, args.trials // 4),
                                     tolerance=args.tolerance, seed=args.seed),
    ]
    for report in reports:
        print(report.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _gradcheck_loss_fn(weights, adapter, examples, kind):
    """The training loss over ``examples`` as a function of the probed tensor."""
    return lambda _tensor: batch_loss(weights, adapter, examples, kind)[0]


def cmd_gradcheck(args) -> int:
    config = load_experiment_config(args.config, args.set, args.seed)
    if config.encoder.d_m > 32:
        print(f"gradcheck: refusing d_m {config.encoder.d_m} > 32 "
              "(finite differences would be too slow)", file=sys.stderr)
        return EXIT_USAGE
    if args.examples < 1:
        raise ValueError(f"--examples must be at least 1, got {args.examples}")
    if not 0 < args.threshold < np.inf:
        raise ValueError(f"--threshold must be a finite float > 0, got {args.threshold}")
    task, weights, adapter, registry = build_experiment(config)
    loss_fn = _gradcheck_loss_fn(weights, adapter, task.train[:args.examples], task.kind)
    rng = np.random.default_rng([config.train.seed, 5])
    worst = 0.0
    failed = False
    for entry in registry.trainable_entries():
        err = check_gradients(loss_fn, entry.tensor, eps=args.eps, rng=rng)
        worst = float(np.maximum(worst, err))  # NaN-sticky, unlike max()
        ok = err < args.threshold  # False for NaN
        print(f"{entry.name}: max relative error {err:.3e} [{'ok' if ok else 'FAIL'}]")
        failed = failed or not ok
    print(f"worst over {len(registry.trainable_entries())} trainable tensors: {worst:.3e} "
          f"(threshold {args.threshold:g})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_params(args) -> int:
    config = load_experiment_config(args.config, args.set, args.seed)
    weights = init_encoder(config.encoder, seed=config.backbone_seed)
    rows = {}
    for mode in MODES:
        tc = dataclasses.replace(config.train, mode=mode)
        try:
            adapter = make_adapter(config.encoder, tc)
        except ValueError as exc:
            # e.g. a prompt length that does not fit this encoder's budget
            rows[mode] = {"error": str(exc)}
            continue
        registry = build_registry(weights, adapter)
        overall = count_parameters(registry)
        blocks = count_parameters(registry, groups=("block", "adapter"))
        rows[mode] = {
            "total": overall.total,
            "trainable": overall.trainable,
            "fraction": overall.fraction,
            "encoder_block_fraction": blocks.fraction,
        }
        del adapter, registry
    payload = {
        "encoder": config.encoder.to_dict(),
        "ffn_share_per_layer": ffn_parameter_share(config.encoder),
        "modes": rows,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"per-layer ffn share: {payload['ffn_share_per_layer']:.4f}")
        header = f"{'mode':<10}{'total':>14}{'trainable':>14}{'fraction':>12}{'block frac':>12}"
        print(header)
        for mode, row in rows.items():
            if "error" in row:
                print(f"{mode:<10}  n/a ({row['error']})")
            else:
                print(f"{mode:<10}{row['total']:>14}{row['trainable']:>14}"
                      f"{row['fraction']:>12.6f}{row['encoder_block_fraction']:>12.6f}")
    return EXIT_OK


@contextlib.contextmanager
def _removed_on_error():
    """Yield a list for the paths the body creates, each recorded before it is
    written; if the body raises, remove them again, newest first. Directories
    go with ``os.rmdir``, so one holding anything else stays."""
    created: list[str] = []
    try:
        yield created
    except BaseException:
        for path in reversed(created):
            with contextlib.suppress(OSError):
                if os.path.isdir(path):
                    os.rmdir(path)
                else:
                    os.remove(path)
        raise


def _make_dirs(path, created: list) -> None:
    """``os.makedirs(path, exist_ok=True)``, recording each level it creates."""
    missing = []
    head = os.path.abspath(path)
    while not os.path.exists(head):
        missing.append(head)
        head = os.path.dirname(head)
    for level in reversed(missing):
        os.mkdir(level)
        created.append(level)
    os.makedirs(path, exist_ok=True)  # raises if ``path`` is a file


def _new_file(path, created: list) -> str:
    """Record ``path`` for removal on error unless it already exists."""
    if not os.path.exists(path):
        created.append(path)
    return path


def _stage(path, write, data, created: list) -> tuple[str, str]:
    """``write(data, tmp)`` into a new temp file beside ``path``, recorded for
    removal on error; ``os.replace`` of the returned pair installs it as ``path``."""
    tmp = temp_sibling(path)
    created.append(tmp)
    write(data, tmp)
    return tmp, _new_file(path, created)


def _train_and_stage(config: ExperimentConfig, task, weights, adapter, registry, outdir,
                     created: list):
    """Train, then stage the run's metrics and summary beside their places in
    ``outdir``, recording in ``created`` every directory and file that did not
    exist before. Returns the summary and the staged (temp, path) pairs; the
    caller installs them once everything else the run writes is saved."""
    _make_dirs(outdir, created)
    metrics = train(weights, adapter, task, config.train, registry=registry)
    summary = run_summary(metrics, registry, config.train, task.kind, len(task.train))
    staged = [_stage(os.path.join(outdir, "metrics.csv"), write_metrics_csv, metrics, created),
              _stage(os.path.join(outdir, "summary.json"), _write_json, summary, created)]
    return summary, staged


def _install(staged) -> None:
    for tmp, path in staged:
        os.replace(tmp, path)


def cmd_train(args) -> int:
    config = load_experiment_config(args.config, args.set, args.seed)
    outdir = _resolve_outdir(args, config, "train")
    task, weights, adapter, registry = build_experiment(config)
    with _removed_on_error() as created:
        summary, staged = _train_and_stage(config, task, weights, adapter, registry, outdir,
                                           created)
        # the metrics and summary replace older ones only after the checkpoint
        # is saved, so a failed rerun keeps them
        save_trainable(registry, _new_file(os.path.join(outdir, "trainable.flckpt"), created),
                       config_echo=config.encoder.to_dict())
        _install(staged)
    print(f"wrote {outdir}/metrics.csv, summary.json, trainable.flckpt")
    print(f"final train accuracy {summary['final_train_accuracy']}, "
          f"dev accuracy {summary['final_dev_accuracy']}")
    return EXIT_OK


def cmd_fewshot(args) -> int:
    config = load_experiment_config(args.config, args.set, args.seed)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print(f"fewshot: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_USAGE
    if not sizes:
        print("fewshot: --sizes is empty", file=sys.stderr)
        return EXIT_USAGE
    if len(set(sizes)) != len(sizes):
        # each size writes its own size_NNNN/, so a repeat would overwrite it
        print(f"fewshot: duplicate size in --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_USAGE
    outdir = _resolve_outdir(args, config, "fewshot")
    task, weights, _adapter, _registry = build_experiment(config)
    subsets = fewshot_subsample(task, sizes, seed=config.task.seed)
    snapshot = [(name, t.data.copy()) for name, t, _g in weights.named_tensors()]
    save = lambda registry, path: save_trainable(registry, path,
                                                 config_echo=config.encoder.to_dict())

    summaries = []
    staged = []
    with _removed_on_error() as created:
        for size, subset in zip(sizes, subsets):
            for (_, t, _g), (_, saved) in zip(weights.named_tensors(), snapshot):
                t.data = saved.copy()
            adapter = make_adapter(config.encoder, config.train)
            registry = build_registry(weights, adapter)
            run_dir = os.path.join(outdir, f"size_{size:04d}")
            summary, run_staged = _train_and_stage(config, subset, weights, adapter, registry,
                                                   run_dir, created)
            staged += run_staged
            staged.append(_stage(os.path.join(run_dir, "trainable.flckpt"), save, registry,
                                 created))
            summaries.append(summary)
            print(f"size {size}: dev accuracy {summary['final_dev_accuracy']}")
        staged.append(_stage(os.path.join(outdir, "fewshot_summary.json"), _write_json,
                             {"sizes": sizes, "runs": summaries}, created))
        # every size is saved: only now does the sweep replace an older one,
        # so a size that fails leaves a finished sweep's files as they were
        _install(staged)
    print(f"wrote {outdir}/fewshot_summary.json")
    return EXIT_OK


def cmd_eval(args) -> int:
    config = load_experiment_config(args.config, args.set, args.seed)
    task, weights, adapter, registry = build_experiment(config)
    load_trainable(args.checkpoint, registry, config_echo=config.encoder.to_dict())
    dev = evaluate(weights, adapter, task.dev, task.kind)
    test = evaluate(weights, adapter, task.test, task.kind)
    payload = {
        "checkpoint": args.checkpoint,
        "dev": {"accuracy": dev.accuracy, "f1": dev.f1, "mean_loss": dev.mean_loss},
        "test": {"accuracy": test.accuracy, "f1": test.f1, "mean_loss": test.mean_loss},
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_config_args(parser) -> None:
    parser.add_argument("config", help="experiment config JSON file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY.PATH=VALUE",
                        help="override one config entry (JSON-parsed value)")
    parser.add_argument("--seed", type=int, default=None, help="override the training seed")
    parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltune",
        description="verification, budget accounting, and training runs for "
                    "feed-forward layer tuning over a frozen encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the equivalence and normalization suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference check of every trainable tensor")
    _add_config_args(p)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--examples", type=int, default=2,
                   help="training examples in the probe batch")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("params", help="parameter counts and trainable fractions per mode")
    _add_config_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("train", help="one training run with metrics and checkpoint")
    _add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("fewshot", help="nested stratified subset sweep")
    _add_config_args(p)
    p.add_argument("--sizes", default="20,40,60,80,100",
                   help="comma-separated training-set sizes")
    p.set_defaults(fn=cmd_fewshot)

    p = sub.add_parser("eval", help="evaluate a saved trainable checkpoint")
    _add_config_args(p)
    p.add_argument("--checkpoint", required=True, help="trainable .flckpt file")
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        # bad value combinations surfaced below the config layer, or an
        # output path that cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
