"""CLI contract: subcommands, exit codes, config validation, file outputs."""

import argparse
import json
import math
import re
import typing
from pathlib import Path

import pytest

from fltune import checkpoint, cli, training
from fltune.adapters import verify_theorem1
from fltune.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    TaskSpec,
    load_experiment_config,
    main,
)
from fltune.encoder import EncoderConfig
from fltune.training import TrainConfig, read_metrics_csv


def desk_config(tmp_path, **train_overrides):
    train = dict(mode="fl", d_a=4, prompt_len=3, d_a_prime=2,
                 learning_rate=3e-3, batch_size=8, epochs=1, seed=3)
    train.update(train_overrides)
    config = {
        "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                    "max_seq_len": 16, "n_classes": 2},
        "task": {"kind": "classification", "train_size": 40, "dev_size": 16,
                 "test_size": 16, "seq_len": 8, "seed": 1},
        "train": train,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_default_passes(capsys):
    assert main(["verify", "--trials", "50"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert [line.partition(": ")[0] for line in out] == [
        "ffn split equivalence", "ffn placement invariance",
        "attention expansion equivalence", "prefix gate identity"]
    assert [line.rpartition(": ")[2] for line in out] == ["PASS"] * 4


def test_verify_failing_suite_fails(capsys, monkeypatch):
    def failing(**kwargs):
        report = verify_theorem1(**kwargs)
        report.failures.append("trial 0: forced")
        return report

    monkeypatch.setattr(cli, "verify_theorem1", failing)
    assert main(["verify", "--trials", "10"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("ffn split equivalence: ") and out[0].endswith(": FAIL")
    assert [line.rpartition(": ")[2] for line in out[1:]] == ["PASS"] * 3


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--tolerance", "1e-12"), ("gradcheck", "--eps", "1e-5"),
    ("gradcheck", "--threshold", "1e-4"), ("gradcheck", "--examples", "2")])
def test_fixed_check_bounds_are_not_flags(tmp_path, capsys, command, flag, value):
    # verify runs at 1e-12; gradcheck probes two examples at eps 1e-5 against 1e-4
    argv = [command] if command == "verify" else [command, str(desk_config(tmp_path))]
    assert main([*argv, flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {flag} {value}" in captured.err


CONFIG_COMMANDS = {"gradcheck": [], "params": [], "train": [], "fewshot": [],
                   "eval": ["--checkpoint", "missing.flckpt"]}


@pytest.mark.parametrize("command, route", [
    *[(command, route) for route in ("--seed", "output_dir") for command in CONFIG_COMMANDS],
    ("verify", "--seed"), ("params", "--json")])
def test_each_setting_has_one_route(tmp_path, monkeypatch, capsys, command, route):
    # the training seed is --set train.seed=N and the run directory is --out,
    # else $FLTUNE_OUTPUT_ROOT/<command>; verify's --seed seeds its suites,
    # and params prints only JSON
    monkeypatch.setenv("FLTUNE_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    if command == "verify":
        assert main(["verify", "--seed", "3", "--trials", "2"]) == EXIT_OK
        return
    path = desk_config(tmp_path)
    argv = [command, str(path), *CONFIG_COMMANDS[command]]
    if route == "output_dir":
        config = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**config, "output_dir": str(tmp_path / "out")}),
                        encoding="utf-8")
        expected = "config error: unknown key(s): output_dir\n"
    else:
        flag = {"--seed": ["--seed", "7"], "--json": ["--json"]}[route]
        argv += flag
        expected = f"fltune: error: unrecognized arguments: {' '.join(flag)}\n"
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(expected)
    assert sorted(tmp_path.rglob("*")) == before


def test_verify_zero_trials_is_usage_error(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
    assert "trials" in capsys.readouterr().err


def test_verify_negative_seed_is_usage_error(capsys):
    assert main(["verify", "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: seed must be nonnegative, got -1\n")


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                    "max_seq_len": 16, "n_classes": 2},
        "train": {"mode": "fl", "learnig_rate": 0.01},
    }), encoding="utf-8")
    assert main(["params", str(path)]) == EXIT_USAGE
    assert "learnig_rate" in capsys.readouterr().err


def test_fl_layer_subset_is_not_a_config_key(tmp_path, capsys):
    # FL adds units to the FFN of every layer
    path = desk_config(tmp_path, layer_subset=[0])
    out = tmp_path / "out"
    assert main(["train", str(path), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == "config error: unknown key(s): train.layer_subset\n"
    assert not out.exists()


def readme_config_keys() -> dict[str, set]:
    """Section prefix -> keys, from the ``jsonc`` block under "Config file keys"."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config file keys\s*```jsonc\n(.*?)```", text, re.S).group(1)
    block = re.sub(r"//[^\n]*", "", block)
    section = r'"(\w+)":\s*\{([^{}]*)\}'
    sections = dict(re.findall(section, block))
    scalars = re.findall(r'"(\w+)"\s*:', re.sub(section, "", block))
    keys = {"": set(sections) | set(scalars)}
    keys.update((name + ".", set(re.findall(r'"(\w+)"', body)))
                for name, body in sections.items())
    return keys


def test_readme_config_keys_match_the_schema():
    schema = {"": ExperimentConfig, "encoder.": EncoderConfig, "task.": TaskSpec,
              "train.": TrainConfig}
    assert readme_config_keys() == {prefix: set(typing.get_type_hints(cls))
                                    for prefix, cls in schema.items()}


def readme_cli_flags() -> dict[str, set]:
    """Subcommand -> the flags its lines in the README's CLI block pass; a
    line for ``{a,b}`` counts for both, and comments are not read."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    flags: dict[str, set] = {}
    for line in block.splitlines():
        words = line.partition("#")[0].split()
        if words[:1] == ["fltune"]:
            for command in words[1].strip("{}").split(","):
                flags.setdefault(command, set()).update(w for w in words if w.startswith("--"))
    return flags


def test_readme_cli_flags_match_the_parser():
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    parser_flags = {name: {flag for action in parser._actions for flag in action.option_strings}
                    for name, parser in commands.items()}
    assert readme_cli_flags() == {name: flags - {"-h", "--help"}
                                  for name, flags in parser_flags.items()}


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{\n  "encoder": {,}\n}\n', encoding="utf-8")
    assert main(["params", str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_seq_len_budget_validated_for_pv1(tmp_path, capsys):
    path = desk_config(tmp_path, mode="pv1", prompt_len=12)
    assert main(["train", str(path), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("prompt_len, message", [
    (12, "task seq_len 8 exceeds the available budget 4 (max_seq_len 16, mode pv1)"),
    (16, "prompt_len 16 leaves no room for tokens in max_seq_len 16 (mode pv1)"),
    (160, "prompt_len 160 leaves no room for tokens in max_seq_len 16 (mode pv1)"),
])
def test_seq_len_budget_message_never_names_a_negative_budget(tmp_path, capsys, prompt_len,
                                                              message):
    path = desk_config(tmp_path, mode="pv1", prompt_len=prompt_len)
    for command in ("params", "train"):
        assert main([command, str(path), "--set", "train.mode=pv1"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: in config: {message}\n"


def test_set_overrides_land(tmp_path):
    path = desk_config(tmp_path)
    config = load_experiment_config(path, overrides=["train.learning_rate=0.5", "train.seed=42"])
    assert config.train.learning_rate == 0.5
    assert config.train.seed == 42


@pytest.mark.parametrize("assignment", ["no_equals_sign", "=3", ".x=1", "train..seed=1",
                                        "train.=1"])
def test_bad_set_assignment_rejected(tmp_path, capsys, assignment):
    path = desk_config(tmp_path)
    assert main(["params", str(path), "--set", assignment]) == EXIT_USAGE
    assert f"--set needs key.path=value, got {assignment!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command, args", [("params", []), ("gradcheck", []),
                                           ("eval", ["--checkpoint", "missing.flckpt"])])
def test_only_train_and_fewshot_take_out(tmp_path, capsys, command, args):
    # the three commands write no run directory, so --out would be ignored
    path = desk_config(tmp_path)
    assert main([command, str(path), *args, "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------

def test_params_json_fractions(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["params", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    modes = payload["modes"]
    assert modes["finetune"]["fraction"] == 1.0
    assert 0.0 < modes["fl"]["fraction"] < 1.0
    assert modes["fl"]["trainable"] < modes["finetune"]["trainable"]
    assert 0.60 <= payload["ffn_share_per_layer"] <= 0.70
    for mode in ("fl", "pv1", "pv2", "ma", "finetune"):
        assert mode in modes


def test_params_prints_only_its_json_payload(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["params", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert set(json.loads(out)) == {"encoder", "ffn_share_per_layer", "modes"}


def test_params_reports_unfittable_mode_instead_of_crashing(tmp_path, capsys):
    # default prompt length (160) cannot fit max_seq_len 16; the pv1 row
    # must degrade to an explanation, not a traceback
    path = desk_config(tmp_path)
    assert main(["params", str(path), "--set", "train.prompt_len=160"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert "error" in payload["modes"]["pv1"]
    assert payload["modes"]["fl"]["trainable"] > 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [[], ["--set", "task.train_size=1"]])
def test_gradcheck_passes_on_small_config(tmp_path, capsys, args):
    # a one-example split is probed whole, as train uses it
    path = desk_config(tmp_path)
    assert main(["gradcheck", str(path), *args]) == EXIT_OK
    out = capsys.readouterr().out
    assert "adapter.layer00.w1" in out
    assert "FAIL" not in out


def test_gradcheck_refuses_wide_models(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["gradcheck", str(path), "--set", "encoder.d_m=64"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: refusing d_m 64 > 32 "
                            "(finite differences would be too slow)\n")


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------

def test_train_writes_outputs(tmp_path, capsys):
    path = desk_config(tmp_path)
    outdir = tmp_path / "run"
    assert main(["train", str(path), "--out", str(outdir)]) == EXIT_OK
    assert (outdir / "metrics.csv").exists()
    assert (outdir / "trainable.flckpt").exists()
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    assert summary["mode"] == "fl"
    assert summary["steps"] == 5  # 40 examples / batch 8
    assert 0.0 <= summary["final_dev_accuracy"] <= 1.0
    rows = read_metrics_csv(outdir / "metrics.csv")
    assert [r.step for r in rows] == [1, 2, 3, 4, 5]


def readme_summary_keys() -> set:
    """The keys listed under "summary.json", a nested one as ``outer.inner``."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = re.search(r"### summary\.json\n(.*?)\n## ", text, re.S).group(1)
    return set(re.findall(r"^- `([\w.]+)`:", section, re.M))


def test_readme_summary_keys_match_run_summary(tmp_path):
    path = desk_config(tmp_path)
    outdir = tmp_path / "run"
    assert main(["train", str(path), "--out", str(outdir)]) == EXIT_OK
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    keys = set()
    for key, value in summary.items():
        keys |= {f"{key}.{inner}" for inner in value} if isinstance(value, dict) else {key}
    assert readme_summary_keys() == keys


def test_train_outputs_reproducible_except_wallclock(tmp_path):
    path = desk_config(tmp_path)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["train", str(path), "--out", str(d)]) == EXIT_OK

    def stable_rows(d):
        return [(r.step, r.loss, r.smoothed_loss, r.accuracy)
                for r in read_metrics_csv(d / "metrics.csv")]

    assert stable_rows(dirs[0]) == stable_rows(dirs[1])
    assert (dirs[0] / "summary.json").read_bytes() == (dirs[1] / "summary.json").read_bytes()
    assert ((dirs[0] / "trainable.flckpt").read_bytes()
            == (dirs[1] / "trainable.flckpt").read_bytes())


def test_eval_reloads_checkpoint(tmp_path, capsys):
    path = desk_config(tmp_path)
    outdir = tmp_path / "run"
    assert main(["train", str(path), "--out", str(outdir)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", str(path), "--checkpoint", str(outdir / "trainable.flckpt")]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["test"]["accuracy"] <= 1.0
    assert payload["dev"]["f1"] is None


@pytest.mark.parametrize("fault", ["missing", "directory", "bad-magic", "truncated"])
def test_eval_refuses_a_bad_checkpoint_before_any_work(tmp_path, capsys, monkeypatch, fault):
    path = desk_config(tmp_path)
    ckpt = tmp_path / "trainable.flckpt"
    if fault == "directory":
        ckpt.mkdir()
    elif fault == "bad-magic":
        ckpt.write_bytes(b"not a checkpoint\n{}\n===BINARY===\n")
    elif fault == "truncated":
        checkpoint.save_tensors(ckpt, [("w", [[1.0, 2.0]])])
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
    with pytest.raises(checkpoint.CheckpointError) as refused:
        checkpoint.load_checkpoint(ckpt)

    def no_work(_config):
        raise AssertionError("build_experiment reached")

    monkeypatch.setattr(cli, "build_experiment", no_work)
    assert main(["eval", str(path), "--checkpoint", str(ckpt)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused.value}\n"


def test_eval_refuses_a_checkpoint_of_another_kind_before_any_work(tmp_path, capsys,
                                                                    monkeypatch):
    path = desk_config(tmp_path)
    ckpt = tmp_path / "backbone.flckpt"
    checkpoint.save_tensors(ckpt, [("w", [[1.0, 2.0]])])
    ckpt.write_bytes(ckpt.read_bytes().replace(b'"kind": "trainable"', b'"kind": "backbone"'))

    def no_work(_config):
        raise AssertionError("build_experiment reached")

    monkeypatch.setattr(cli, "build_experiment", no_work)
    assert main(["eval", str(path), "--checkpoint", str(ckpt),
                 "--set", "pretrain_steps=300"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {ckpt}: checkpoint kind 'backbone', expected 'trainable'\n"


def test_train_respects_output_root_env(tmp_path, monkeypatch):
    # the run directory is --out, else $FLTUNE_OUTPUT_ROOT/<command>; each run
    # adds only its own directory
    plain = desk_config(tmp_path)
    monkeypatch.setenv("FLTUNE_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    for argv, written in [([str(plain), "--out", str(tmp_path / "from_flag")], "from_flag"),
                          ([str(plain)], "root/train")]:
        before = {p.name for p in tmp_path.iterdir()}
        assert main(["train", *argv]) == EXIT_OK
        assert (tmp_path / written / "metrics.csv").exists()
        assert {p.name for p in tmp_path.iterdir()} == before | {written.split("/")[0]}


# ---------------------------------------------------------------------------
# fewshot
# ---------------------------------------------------------------------------

def test_fewshot_writes_five_summaries(tmp_path):
    path = desk_config(tmp_path, epochs=2)
    outdir = tmp_path / "fs"
    assert main(["fewshot", str(path), "--out", str(outdir),
                 "--sizes", "8,16,24,32,40"]) == EXIT_OK
    payload = json.loads((outdir / "fewshot_summary.json").read_text(encoding="utf-8"))
    assert payload["sizes"] == [8, 16, 24, 32, 40]
    assert len(payload["runs"]) == 5
    for size, run in zip(payload["sizes"], payload["runs"]):
        assert run["train_size"] == size
        rows = read_metrics_csv(outdir / f"size_{size:04d}" / "metrics.csv")
        assert run["convergence_step"] == training.convergence_step([r.loss for r in rows])
        assert (outdir / f"size_{size:04d}" / "summary.json").exists()


def test_fewshot_oversized_request_is_usage_error(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["fewshot", str(path), "--out", str(tmp_path / "fs"),
                 "--sizes", "999"]) == EXIT_USAGE


def test_fewshot_bad_sizes_is_usage_error(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["fewshot", str(path), "--out", str(tmp_path / "fs"),
                 "--sizes", "a,b"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: bad --sizes 'a,b'\n"


def test_fewshot_empty_sizes_is_usage_error(tmp_path, capsys):
    path = desk_config(tmp_path)
    assert main(["fewshot", str(path), "--out", str(tmp_path / "fs"),
                 "--sizes", ","]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --sizes is empty\n"


def test_fewshot_duplicate_sizes_is_usage_error(tmp_path, capsys):
    path = desk_config(tmp_path)
    outdir = tmp_path / "fs"
    assert main(["fewshot", str(path), "--out", str(outdir), "--sizes", "8,16,8",
                 "--set", "train.max_steps=2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: duplicate size in --sizes '8,16,8'\n"
    assert not outdir.exists()


# ---------------------------------------------------------------------------
# the benchmark's call forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, mode", [("classification", "fl"), ("tagging", "pv2")])
def test_the_benchmark_worker_call_forms_keep_working(tmp_path, kind, mode):
    # perfbench/worker.py drives the program only through these calls; a
    # change of task layout that breaks them fails here, not only in the
    # benchmark run
    path = desk_config(tmp_path, mode=mode, prompt_len=2)
    config = cli.load_experiment_config(
        path, ["pretrain_steps=2"] + (["task.kind=tagging", "encoder.n_classes=3"]
                                      if kind == "tagging" else []))
    task, weights, adapter, registry = cli.build_experiment(config)
    assert (len(task.train), len(task.dev)) == (config.task.train_size,
                                                config.task.dev_size)
    metrics = training.train(weights, adapter, task, config.train, registry=registry)
    assert len(metrics.rows) == math.ceil(len(task.train) / config.train.batch_size)
    assert all(math.isfinite(r.loss) for r in metrics.rows)
    result = training.evaluate(weights, adapter, task.dev, task.kind)
    assert math.isfinite(result.mean_loss) and 0.0 <= result.accuracy <= 1.0
    assert (result.f1 is not None) == (kind == "tagging")
    before = {e.name: e.tensor.data.tobytes() for e in registry.trainable_entries()}
    ckpt = tmp_path / "block.flckpt"
    checkpoint.save_trainable(registry, ckpt, config_echo=config.encoder.to_dict())
    checkpoint.load_trainable(ckpt, registry)
    assert {e.name: e.tensor.data.tobytes() for e in registry.trainable_entries()} == before
    assert registry.frozen_violations() == []
