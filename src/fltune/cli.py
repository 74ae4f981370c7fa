"""Operator entry point.

Subcommands: verify (equivalence suites), gradcheck (finite-difference
oracle over every trainable tensor), params (budget accounting), train,
fewshot (nested subset sweep), eval (re-evaluate a saved run).

Exit codes: 0 success, 1 check failure or diverged run, 2 usage, config or
output error. Runs are configured by a JSON file; --set key.path=value
overrides individual entries, seeds included. A run writes to --out, else to
$FLTUNE_OUTPUT_ROOT/<command> (runs/<command> when it is unset).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import secrets
import sys
import typing
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .adapters import (
    build_registry,
    count_parameters,
    verify_ma_equivalence,
    verify_prefix_gate,
    verify_theorem1,
    verify_theorem2,
)
from .checkpoint import load_checkpoint, load_trainable, save_trainable
from .data import check_task, generate_task, pretrain_backbone
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

GRADCHECK_EPS = 1e-5        # central-difference step of gradcheck
GRADCHECK_THRESHOLD = 1e-4  # largest relative error gradcheck passes


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

    def __post_init__(self):
        """Rules that span sections; the task takes its vocabulary and
        classes from the encoder, and ``check_task`` holds every task rule."""
        enc, tc, task = self.encoder, self.train, self.task
        check_task(task.kind, (task.train_size, task.dev_size, task.test_size), task.seq_len,
                   enc.vocab_size, enc.n_classes)
        budget = enc.max_seq_len - (tc.prompt_len if tc.mode == "pv1" else 0)
        if budget < 1:
            raise ValueError(f"prompt_len {tc.prompt_len} leaves no room for tokens in "
                             f"max_seq_len {enc.max_seq_len} (mode {tc.mode})")
        if task.seq_len > budget:
            raise ValueError(
                f"task seq_len {task.seq_len} exceeds the available budget {budget} "
                f"(max_seq_len {enc.max_seq_len}, mode {tc.mode})")
        if self.pretrain_steps < 0:
            raise ValueError(f"pretrain_steps must be nonnegative, got {self.pretrain_steps}")
        for key, seed in (("task.seed", task.seed), ("backbone_seed", self.backbone_seed)):
            if seed < 0:
                raise ValueError(f"{key} must be nonnegative, got {seed}")


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
    dotted, equals, value_text = assignment.partition("=")
    keys = dotted.strip().split(".")
    if not equals or "" in keys:
        raise ConfigError(f"--set needs key.path=value, got {assignment!r}")
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


def load_experiment_config(path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Parse and validate a JSON experiment file; ``--set`` overrides file values."""
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


def _resolve_outdir(args, command: str) -> str:
    return args.out or os.path.join(os.environ.get(OUTPUT_ROOT_ENV, "runs"), command)


def _write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = [
        verify_theorem1(trials=args.trials, seed=args.seed),
        verify_theorem2(trials=args.trials, seed=args.seed),
        verify_ma_equivalence(trials=max(1, args.trials // 2), seed=args.seed),
        verify_prefix_gate(trials=max(1, args.trials // 4), seed=args.seed),
    ]
    for report in reports:
        print(report.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def _gradcheck_loss_fn(weights, adapter, examples, kind):
    """The training loss over ``examples`` as a function of the probed tensor."""
    return lambda _tensor: batch_loss(weights, adapter, examples, kind)[0]


def cmd_gradcheck(args) -> int:
    config = load_experiment_config(args.config, args.set)
    if config.encoder.d_m > 32:
        raise ValueError(f"refusing d_m {config.encoder.d_m} > 32 "
                         "(finite differences would be too slow)")
    task, weights, adapter, registry = build_experiment(config)
    # the first two training examples, or the whole split if it holds one
    loss_fn = _gradcheck_loss_fn(weights, adapter, task.train[:2], task.kind)
    rng = np.random.default_rng([config.train.seed, 5])
    worst = 0.0
    failed = False
    for entry in registry.trainable_entries():
        err = check_gradients(loss_fn, entry.tensor, eps=GRADCHECK_EPS, rng=rng)
        worst = float(np.maximum(worst, err))  # NaN-sticky, unlike max()
        ok = err < GRADCHECK_THRESHOLD  # False for NaN
        print(f"{entry.name}: max relative error {err:.3e} [{'ok' if ok else 'FAIL'}]")
        failed = failed or not ok
    print(f"worst over {len(registry.trainable_entries())} trainable tensors: {worst:.3e} "
          f"(threshold {GRADCHECK_THRESHOLD:g})")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_params(args) -> int:
    config = load_experiment_config(args.config, args.set)
    weights = init_encoder(config.encoder, seed=config.backbone_seed)
    rows = {}
    for mode in MODES:
        try:
            run = dataclasses.replace(config, train=dataclasses.replace(config.train, mode=mode))
        except ValueError as exc:
            # the config rule that refuses `train` in this mode
            rows[mode] = {"error": str(exc)}
            continue
        adapter = make_adapter(run.encoder, run.train)
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
    print(json.dumps(payload, indent=2, sort_keys=True))
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


def _stage(path, write, data, created: list) -> tuple[str, str]:
    """``write(data, tmp)`` into a new temp file beside ``path``, created with
    open()'s mode (mkstemp's is 0600) under a name O_EXCL never reuses. It,
    and ``path`` unless it exists, are recorded for removal on error."""
    tmp = os.path.join(os.path.dirname(path) or ".", f"tmp{secrets.token_hex(8)}.tmp")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    created.append(tmp)
    write(data, tmp)
    if not os.path.exists(path):
        created.append(path)
    return tmp, path


def _train_and_stage(config: ExperimentConfig, task, weights, adapter, registry, outdir,
                     created: list):
    """Train, then stage the run's three files beside their places in
    ``outdir``, recording in ``created`` every directory and file that did not
    exist before. Returns the summary and the staged (temp, path) pairs; the
    caller installs them once everything else the command writes is saved."""
    _make_dirs(outdir, created)
    metrics = train(weights, adapter, task, config.train, registry=registry)
    summary = run_summary(metrics, registry, config.train, task.kind, len(task.train))
    save = functools.partial(save_trainable, config_echo=config.encoder.to_dict())
    staged = [_stage(os.path.join(outdir, "metrics.csv"), write_metrics_csv, metrics, created),
              _stage(os.path.join(outdir, "summary.json"), _write_json, summary, created),
              _stage(os.path.join(outdir, "trainable.flckpt"), save, registry, created)]
    return summary, staged


def _install(staged) -> None:
    for tmp, path in staged:
        os.replace(tmp, path)


def cmd_train(args) -> int:
    config = load_experiment_config(args.config, args.set)
    outdir = _resolve_outdir(args, "train")
    task, weights, adapter, registry = build_experiment(config)
    with _removed_on_error() as created:
        summary, staged = _train_and_stage(config, task, weights, adapter, registry, outdir,
                                           created)
        _install(staged)
    print(f"wrote {outdir}/metrics.csv, summary.json, trainable.flckpt")
    print(f"final train accuracy {summary['final_train_accuracy']}, "
          f"dev accuracy {summary['final_dev_accuracy']}")
    return EXIT_OK


def cmd_fewshot(args) -> int:
    config = load_experiment_config(args.config, args.set)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"bad --sizes {args.sizes!r}") from None
    if not sizes:
        raise ValueError("--sizes is empty")
    if len(set(sizes)) != len(sizes):
        # each size writes its own size_NNNN/, so a repeat would overwrite it
        raise ValueError(f"duplicate size in --sizes {args.sizes!r}")
    for size in sizes:  # fewshot_subsample's rule, before the task is drawn
        if not 1 <= size <= config.task.train_size:
            raise ValueError(f"subset size {size} outside [1, {config.task.train_size}]")
    outdir = _resolve_outdir(args, "fewshot")
    task, weights, _adapter, _registry = build_experiment(config)
    subsets = fewshot_subsample(task, sizes, seed=config.task.seed)
    snapshot = [(name, t.data.copy()) for name, t, _g in weights.named_tensors()]

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
    config = load_experiment_config(args.config, args.set)
    load_checkpoint(args.checkpoint)  # refuse an unreadable or non-trainable file before any work
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltune",
        description="verification, budget accounting, and training runs for "
                    "feed-forward layer tuning over a frozen encoder")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the equivalence suites")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference check of every trainable tensor")
    _add_config_args(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("params", help="parameter counts and trainable fractions per mode")
    _add_config_args(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("train", help="one training run with metrics and checkpoint")
    _add_config_args(p)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("fewshot", help="nested stratified subset sweep")
    _add_config_args(p)
    p.add_argument("--out", default=None, help="output directory")
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
