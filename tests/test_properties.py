"""Property-based robustness: wrong-typed config values and corrupted
checkpoint bytes fail with the package's own errors and nothing else, a
rejected or diverging ``train`` run leaves no output behind, and every op's
gradient matches finite differences over random shapes."""

import contextlib
import dataclasses
import inspect
import io
import json
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltune import tensor
from fltune.checkpoint import CheckpointError, load_tensors, save_tensors
from fltune.cli import (
    EXIT_CHECK_FAILED,
    EXIT_USAGE,
    ConfigError,
    ExperimentConfig,
    TaskSpec,
    load_experiment_config,
    main,
)
from fltune.encoder import EncoderConfig
from fltune.tensor import Tensor, check_gradients, matmul, sum_all
from fltune.training import MODES, TrainConfig

BASE_CONFIG = {
    "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                "max_seq_len": 16, "n_classes": 2},
    "task": {"kind": "classification", "train_size": 20, "dev_size": 8,
             "test_size": 8, "seq_len": 8, "seed": 1},
    "train": {"mode": "fl", "d_a": 2, "max_steps": 2},
    "pretrain_steps": 0,
}

SECTIONS = {"": ExperimentConfig, "encoder.": EncoderConfig, "task.": TaskSpec,
            "train.": TrainConfig}
FIELDS = [(prefix + name, hint) for prefix, cls in SECTIONS.items()
          for name, hint in typing.get_type_hints(cls).items()]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=6)


def json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, int, float, str, dict)):
        return {bool: "bool", int: "int", float: "float", str: "str", dict: "object"}[type(value)]
    return "list"


def allowed_kinds(hint) -> set:
    """The JSON kinds a field of this type accepts."""
    if dataclasses.is_dataclass(hint):
        return {"object"}
    if typing.get_origin(hint) is typing.Union:
        return set().union(*(allowed_kinds(arg) for arg in typing.get_args(hint)))
    return {type(None): {"null"}, int: {"int"}, float: {"int", "float"}, str: {"str"}}[hint]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    return path


def test_base_config_loads(config_path):
    assert load_experiment_config(config_path).train.max_steps == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_wrong_typed_config_value_is_a_config_error(config_path, data):
    key, hint = data.draw(st.sampled_from(FIELDS), label="field")
    value = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) not in allowed_kinds(hint)),
                      label="value")
    with pytest.raises(ConfigError):
        load_experiment_config(config_path, overrides=[f"{key}={json.dumps(value)}"])


@pytest.fixture(scope="module")
def out_root(tmp_path_factory):
    return tmp_path_factory.mktemp("runs")


def train_leaves_nothing(config_path, out, assignments):
    """Run ``train`` with ``--set`` assignments; the exit code and stderr.
    The output directory must not exist afterwards."""
    err = io.StringIO()
    args = ["train", str(config_path), "--out", str(out)]
    for assignment in assignments:
        args += ["--set", assignment]
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert not out.exists()
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_wrong_typed_train_value_exits_2_and_leaves_nothing(config_path, out_root, data):
    key, hint = data.draw(st.sampled_from(FIELDS), label="field")
    value = data.draw(JSON_VALUES.filter(lambda v: json_kind(v) not in allowed_kinds(hint)),
                      label="value")
    code, err = train_leaves_nothing(config_path, out_root / "out",
                                     [f"{key}={json.dumps(value)}"])
    assert code == EXIT_USAGE and err.startswith("config error:")


def test_diverging_train_run_exits_1_and_leaves_nothing(config_path, tmp_path):
    code, err = train_leaves_nothing(config_path, tmp_path / "out", [
        "train.learning_rate=1e300", 'train.optimizer="sgd"', 'train.mode="finetune"'])
    assert code == EXIT_CHECK_FAILED and err.startswith("run aborted:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("assignment", [
    "pretrain_steps=null", "pretrain_steps=[1]", "pretrain_steps=2.7",
    "train.batch_size=2.5", 'train.max_steps="5"',
    "encoder.d_m=16.5", "task.train_size=16.0",
])
def test_wrong_typed_value_exits_2_with_config_error(config_path, capsys, assignment):
    assert main(["params", str(config_path), "--set", assignment]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("assignment", ['train.position="infix"', "train.infix_index=3"])
def test_fl_placement_is_not_a_config_key(config_path, capsys, assignment):
    assert main(["params", str(config_path), "--set", assignment]) == EXIT_USAGE
    assert "unknown key(s): train." in capsys.readouterr().err


@pytest.mark.parametrize("assignment", ["task.vocab_size=32", "task.n_classes=2",
                                        "train.beta1=0.9", "train.beta2=0.999",
                                        "train.adam_eps=1e-8"])
def test_single_value_settings_are_not_config_keys(config_path, capsys, assignment):
    # the task's vocabulary and classes are the encoder's; Adam's betas and
    # epsilon are fixed
    assert main(["params", str(config_path), "--set", assignment]) == EXIT_USAGE
    assert f"unknown key(s): {assignment.partition('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, args, message", [
    ("train", ["--set", "encoder.n_heads=0"],
     "config error: in encoder: EncoderConfig.n_heads must be positive, got 0"),
    ("train", ["--set", "encoder.d_m=2", "--set", "encoder.n_heads=4"],
     "config error: in encoder: EncoderConfig.d_k must be positive, got 0"),
    ("train", ["--set", "task.seq_len=0"], "error: seq_len must be at least 1, got 0"),
    ("train", ["--set", "train.max_steps=0"],
     "config error: in train: max_steps must be at least 1 or null, got 0"),
    ("train", ["--set", "train.max_steps=-3"],
     "config error: in train: max_steps must be at least 1 or null, got -3"),
    ("train", ["--set", "train.loss_threshold=0"],
     "config error: in train: loss_threshold must be positive, got 0"),
    ("train", ["--set", "task.kind=tagging"],
     "config error: in config: tagging tasks need encoder.n_classes 3, got 2"),
    ("fewshot", ["--sizes", "999"], "error: subset size 999 outside [1, 20]"),
])
def test_rejected_run_exits_2_and_writes_nothing(config_path, tmp_path, capsys,
                                                 command, args, message):
    out = tmp_path / "out"
    assert main([command, str(config_path), "--out", str(out), *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("via", ["set", "file"])
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999",
                                  pytest.param("1" + "0" * 400, id="10**400")])
@pytest.mark.parametrize("key", ["learning_rate", "smoothing_alpha", "loss_threshold"])
def test_non_finite_float_exits_2_and_leaves_nothing(config_path, tmp_path, key, text, via):
    # json reads NaN and Infinity, 1e999 as inf, and an int beyond the largest float
    if via == "set":
        path, assignments = config_path, [f"train.{key}={text}"]
    else:
        config = {**BASE_CONFIG, "train": {**BASE_CONFIG["train"], key: "VALUE"}}
        path, assignments = tmp_path / "config.json", []
        path.write_text(json.dumps(config).replace('"VALUE"', text), encoding="utf-8")
    code, err = train_leaves_nothing(path, tmp_path / "out", assignments)
    assert code == EXIT_USAGE
    assert err.startswith(f"config error: train.{key} must be a finite float, got ")


def op_case(name, draw, rng):
    """Values of op ``name``'s differentiable operands, then its other
    arguments; every dimension is drawn from 1-6."""
    m, n, k = (draw(st.integers(1, 6), label="dim") for _ in range(3))
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    if name == "matmul":
        return [u(m, k), u(k, n)], []
    if name == "add":
        return [u(m, n), u(m, n)], []
    if name == "scale":
        return [u(m, n)], [rng.uniform(-2.0, 2.0)]
    if name == "relu":
        # |x| >= 0.1, so no finite-difference probe crosses the kink at 0
        return [rng.choice([-1.0, 1.0], (m, n)) * rng.uniform(0.1, 1.0, (m, n))], []
    if name == "affine":
        # with the clamp on, redraw until every pre-activation is 0.05 or
        # more from the kink at 0
        relu = draw(st.booleans(), label="relu")
        while True:
            x, w, b = u(m, k), u(k, n), u(1, n)
            if not relu or np.abs(x @ w + b).min() >= 0.05:
                return [x, w, b], [relu]
    if name == "concat":
        return [u(m, n), u(k, n)], []
    if name == "row_slice":
        start = draw(st.integers(0, m), label="start")
        return [u(m, n)], [start, draw(st.integers(start, m), label="stop")]
    if name == "gather_rows":
        return [u(m, n)], [draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6),
                                label="ids")]
    if name == "layer_norm":  # the fourth operand is the keyword operand residual
        return [u(m, n), u(1, n), u(1, n), u(m, n)], []
    if name == "cross_entropy_mean":
        return [u(m, n)], [draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m),
                                label="labels")]
    if name in ("transpose", "softmax_rows", "sum_all"):
        return [u(m, n)], []
    if name in ("attention_weights", "attention_values"):
        # m query rows, n key rows and k columns per example and head; the
        # score expansion's operands ride along as fixed arguments
        batch, heads = (draw(st.integers(1, 3), label=label) for label in ("batch", "heads"))
        if name == "attention_values":
            return [u(batch * heads * m, n), u(batch * n, heads * k)], [batch, heads]
        expansion = []
        if draw(st.booleans(), label="expansion"):
            j = draw(st.integers(1, 6), label="dim")
            expansion = [Tensor(u(batch * m, heads * j)), Tensor(u(batch * n, heads * j))]
        return ([u(batch * m, heads * k), u(batch * n, heads * k)],
                [batch, heads, rng.uniform(0.1, 2.0), *expansion])
    raise AssertionError(f"no gradient case for op {name}")


OPS = sorted(name for name, fn in vars(tensor).items()
             if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
             and not name.startswith("_") and name != "check_gradients")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_op_gradients_match_finite_differences(data):
    name = data.draw(st.sampled_from(OPS), label="op")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    arrays, args = op_case(name, data.draw, rng)
    operands = [Tensor(a, requires_grad=True) for a in arrays]
    if name == "layer_norm":
        op = lambda: tensor.layer_norm(*operands[:3], residual=operands[3])
    else:
        op = lambda: getattr(tensor, name)(*operands, *args)
    out_shape = op().shape
    if len(out_shape) == 2:  # reduce to a scalar through a fixed random column
        column = Tensor(rng.normal(size=(out_shape[1], 1)))
        loss = lambda _x: sum_all(matmul(op(), column))
    else:
        loss = lambda _x: op()
    for i, x in enumerate(operands):
        err = check_gradients(loss, x, eps=1e-6, max_coords=x.size, rng=rng)
        assert err < 1e-6, f"{name} operand {i} of shapes {[a.shape for a in arrays]}: {err:.3e}"


CHECKPOINT_TENSORS = {"adapter.w1": (2, 3), "adapter.b1": (1, 3), "empty": (0, 2), "scalar": ()}


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("ckpt") / "good.flckpt"
    save_tensors(path, [(name, rng.normal(size=shape))
                        for name, shape in CHECKPOINT_TENSORS.items()])
    return path, path.read_bytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_corrupted_byte_raises_checkpoint_error_or_loads_expected(checkpoint_bytes, data):
    good_path, good = checkpoint_bytes
    pos = data.draw(st.integers(0, len(good) - 1), label="position")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != good[pos]), label="byte")
    path = good_path.with_name("corrupt.flckpt")
    path.write_bytes(good[:pos] + bytes([byte]) + good[pos + 1:])
    try:
        _, loaded = load_tensors(path, CHECKPOINT_TENSORS)
    except CheckpointError:
        return
    assert {name: arr.shape for name, arr in loaded.items()} == CHECKPOINT_TENSORS


# A trainable checkpoint carries the fingerprint of the frozen backbone and the
# encoder config it was trained with; the base run pretrains its backbone.
TRAINED_CONFIG = dict(BASE_CONFIG, pretrain_steps=2,
                      train={"d_a": 2, "prompt_len": 2, "d_a_prime": 2, "max_steps": 2})
# Other values of these keys build another model, which no checkpoint fits.
MODEL_KEYS = {"encoder.d_m": [4, 12], "encoder.n_heads": [1, 4], "encoder.n_layers": [2],
              "encoder.vocab_size": [24, 40], "encoder.max_seq_len": [12, 20],
              "encoder.n_classes": [3], "encoder.d_k": [2, 6], "encoder.d_v": [2, 6],
              "encoder.d_o": [16, 24]}
# These change only the frozen backbone, which a finetune checkpoint holds in full.
BACKBONE_KEYS = {"backbone_seed": [1, 7], "pretrain_steps": [0, 1, 3], "task.seed": [0, 9]}
RUN_KEYS = {"train.seed": [3, 8], "train.learning_rate": [0.5, 1e-5]}


def run_cli(args):
    """``main(args)``'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The config path and each mode's ``train`` checkpoint."""
    root = tmp_path_factory.mktemp("trained")
    config = root / "config.json"
    config.write_text(json.dumps(TRAINED_CONFIG), encoding="utf-8")
    checkpoints = {}
    for mode in MODES:
        out = root / mode
        assert run_cli(["train", config, "--out", out, "--set", f"train.mode={mode}"])[0] == 0
        checkpoints[mode] = out / "trainable.flckpt"
    return config, checkpoints


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_checkpoint_loads_only_into_the_model_it_was_trained_with(trained, data):
    config, checkpoints = trained
    mode = data.draw(st.sampled_from(MODES), label="mode")
    keys = {**MODEL_KEYS, **BACKBONE_KEYS, **RUN_KEYS}
    key = data.draw(st.sampled_from(sorted(keys)), label="key")
    value = data.draw(st.sampled_from(keys[key]), label="value")
    code, err = run_cli(["eval", config, "--checkpoint", checkpoints[mode],
                         "--set", f"train.mode={mode}", "--set", f"{key}={value}"])
    if key in MODEL_KEYS or (key in BACKBONE_KEYS and mode != "finetune"):
        assert code == EXIT_USAGE and err.startswith(f"error: {checkpoints[mode]}: "), err
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("mode", MODES)
def test_each_fewshot_checkpoint_loads_under_the_sweep_config(trained, tmp_path, mode):
    config, _ = trained
    out = tmp_path / "sweep"
    assert run_cli(["fewshot", config, "--out", out, "--set", f"train.mode={mode}",
                    "--sizes", "4,8"]) == (0, "")
    for size in ("0004", "0008"):
        assert run_cli(["eval", config, "--checkpoint", out / f"size_{size}/trainable.flckpt",
                        "--set", f"train.mode={mode}"]) == (0, "")
