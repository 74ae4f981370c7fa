"""Property-based robustness: wrong-typed config values and corrupted
checkpoint bytes fail with the package's own errors and nothing else, a
rejected or diverging ``train`` run leaves no output behind, ``params`` and
``train`` refuse the same task and train sections, every op's gradient
matches finite differences over random shapes, and packed prefix attention
over a subset of query rows matches the gate-form oracle example by example."""

import contextlib
import dataclasses
import inspect
import io
import itertools
import json
import re
import shutil
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fltune import tensor
from fltune.checkpoint import CheckpointError, load_tensors, save_tensors
from fltune.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    ConfigError,
    ExperimentConfig,
    TaskSpec,
    load_experiment_config,
    main,
)
from fltune.adapters import VERIFY_TOLERANCE, prefix_gate_reference
from fltune.data import KINDS, check_task
from fltune.encoder import AttentionLayer, EncoderConfig, attention_forward
from fltune.tensor import Tensor, check_gradients, gather_rows, matmul, sum_all
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
                                        "train.adam_eps=1e-8", "train.smoothing_alpha=0.99",
                                        "encoder.d_k=8", "encoder.d_v=8"])
def test_single_value_settings_are_not_config_keys(config_path, capsys, assignment):
    # the task's vocabulary and classes are the encoder's; Adam's betas and
    # epsilon, the loss smoothing rate and each head's width (d_m // n_heads)
    # are fixed
    assert main(["params", str(config_path), "--set", assignment]) == EXIT_USAGE
    assert f"unknown key(s): {assignment.partition('=')[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("command, args, message", [
    ("train", ["--set", "encoder.n_heads=0"],
     "config error: in encoder: EncoderConfig.n_heads must be positive, got 0"),
    ("train", ["--set", "encoder.d_m=2", "--set", "encoder.n_heads=4"],
     "config error: in encoder: EncoderConfig.d_k must be positive, got 0"),
    ("train", ["--set", "task.seq_len=0"],
     "config error: in config: classification tasks need seq_len at least 1, got 0"),
    ("train", ["--set", "train.max_steps=0"],
     "config error: in train: max_steps must be at least 1 or null, got 0"),
    ("train", ["--set", "train.max_steps=-3"],
     "config error: in train: max_steps must be at least 1 or null, got -3"),
    ("train", ["--set", "train.loss_threshold=0.5"],
     "config error: unknown key(s): train.loss_threshold"),
    ("train", ["--set", "task.kind=tagging"],
     "config error: in config: tagging tasks need n_classes 3, got 2"),
    ("fewshot", ["--sizes", "999"], "error: subset size 999 outside [1, 20]"),
    ("train", ["--set", "train.seed=-1"],
     "config error: in train: seed must be nonnegative, got -1"),
    ("train", ["--set", "train.seed=-3"],
     "config error: in train: seed must be nonnegative, got -3"),
    ("train", ["--set", "task.seed=-1"],
     "config error: in config: task.seed must be nonnegative, got -1"),
    ("fewshot", ["--set", "backbone_seed=-1"],
     "config error: in config: backbone_seed must be nonnegative, got -1"),
])
def test_rejected_run_exits_2_and_writes_nothing(config_path, tmp_path, capsys,
                                                 command, args, message):
    out = tmp_path / "out"
    assert main([command, str(config_path), "--out", str(out), *args]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("params", []), ("gradcheck", []), ("eval", ["--checkpoint", "missing.flckpt"]),
    ("fewshot", []), ("train", [])])
@pytest.mark.parametrize("assignments, message", [
    (["task.kind=bogus"],
     "task kind must be one of ('classification', 'pair', 'tagging'), got 'bogus'"),
    (["task.kind=pair", "encoder.n_classes=3"], "pair tasks need n_classes 2, got 3"),
    (["task.dev_size=0"], "train, dev and test sizes must each be at least 1, got (20, 0, 8)"),
    (["task.seq_len=0"], "classification tasks need seq_len at least 1, got 0"),
    (["task.kind=pair", "task.seq_len=4"], "pair tasks need seq_len at least 5, got 4"),
    (["encoder.vocab_size=5"],
     "vocab_size 5 is too small for classification tasks with n_classes 2 (needs at least 7)"),
])
def test_task_rule_is_a_config_error_in_every_command(config_path, tmp_path, monkeypatch, capsys,
                                                      command, args, assignments, message):
    # params reads no task, so only the config's rules can refuse these for it
    monkeypatch.chdir(tmp_path)  # the default output root is ./runs
    sets = [arg for assignment in assignments for arg in ("--set", assignment)]
    assert main([command, str(config_path), *sets, *args]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"config error: in config: {message}\n")
    assert not any(tmp_path.iterdir())


# values on each side of a task rule's bound, including the count of
# distinct examples, which seq_len 1-3 brings below the splits' total (listed
# first, so the derandomized draws include such a section)
TASK_VALUES = {
    "task.kind": st.sampled_from(KINDS + ("bogus",)),
    "task.train_size": st.integers(0, 2),
    "task.dev_size": st.integers(0, 2),
    "task.test_size": st.integers(0, 2),
    "task.seq_len": st.sampled_from([1, 2, 3, 0, 4, 5, 8]),
    "encoder.n_classes": st.integers(1, 4),
    "encoder.vocab_size": st.integers(5, 10),
}


@st.composite
def task_sections(draw):
    """A valid task section for a drawn kind, with the encoder's vocab_size
    and n_classes, in which up to two values are then redrawn."""
    kind = draw(st.sampled_from(KINDS))
    section = {"task.kind": kind, "task.train_size": 2, "task.dev_size": 2,
               "task.test_size": 2, "task.seq_len": 8, "encoder.vocab_size": 12,
               "encoder.n_classes": {"pair": 2, "tagging": 3}.get(kind, 2)}
    for key in draw(st.lists(st.sampled_from(sorted(TASK_VALUES)), max_size=2, unique=True)):
        section[key] = draw(TASK_VALUES[key])
    return section


def run_main(args) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(section=task_sections())
def test_params_and_train_agree_on_every_task_section(config_path, out_root, section):
    sets = [arg for key, value in section.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]
    out = out_root / "agree"
    params = run_main(["params", str(config_path), *sets])
    train = run_main(["train", str(config_path), "--out", str(out), *sets])
    if params[0] == EXIT_OK:
        assert (train[0], train[2]) == (EXIT_OK, ""), train
        shutil.rmtree(out)
    else:
        assert params[0] == train[0] == EXIT_USAGE
        assert params[1:] == train[1:] == ("", params[2])
        assert params[2].startswith("config error: ") and params[2].count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("seq_len", [1, 2, 3, 4])
def test_tagging_example_count_matches_a_regex_oracle(seq_len):
    # at vocab_size 9, ids 3-4 begin an entity, 5-6 continue one and 7-8 are
    # fillers; the generator draws fillers and entities of a begin id and up
    # to two inside ids, so its rows are those the regex matches
    letters = "xxxbbiiff"
    rows = sum(re.fullmatch(r"(f|bi{0,2})*", "".join(letters[t] for t in row)) is not None
               for row in itertools.product(range(9), repeat=seq_len))
    check_task("tagging", (rows - 2, 1, 1), seq_len, 9, 3)
    with pytest.raises(ValueError, match=f" have {rows} distinct examples, fewer than the "
                                         f"{rows + 1} the three splits need$"):
        check_task("tagging", (rows - 1, 1, 1), seq_len, 9, 3)


EVERY_COMMAND = [("params", []), ("gradcheck", []), ("eval", ["--checkpoint", "missing.flckpt"]),
                 ("fewshot", []), ("train", [])]


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a command draws a task or pretrains a backbone."""
    def reached(*_args, **_kwargs):
        raise AssertionError("a refused run drew a task or pretrained a backbone")
    monkeypatch.setattr("fltune.cli.generate_task", reached)
    monkeypatch.setattr("fltune.cli.pretrain_backbone", reached)


@pytest.mark.parametrize("command, args", EVERY_COMMAND)
@pytest.mark.parametrize("mode, assignment, message", [
    ("fl", "d_a=-1", "d_a must be nonnegative, got -1"),
    ("ma", "d_a_prime=-1", "d_a_prime must be nonnegative, got -1"),
    ("pv1", "prompt_len=0", "prompt_len must be positive, got 0"),
    ("pv2", "prompt_len=0", "prompt_len must be positive, got 0"),
])
def test_adapter_size_rule_is_a_config_error_in_every_command(
        config_path, tmp_path, monkeypatch, capsys, no_work, command, args, mode, assignment,
        message):
    monkeypatch.chdir(tmp_path)  # the default output root is ./runs
    sets = ["--set", f"train.mode={mode}", "--set", f"train.{assignment}",
            "--set", "pretrain_steps=1"]
    assert main([command, str(config_path), *sets, *args]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"config error: in train: {message}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, args, message", [
    ("fewshot", ["--sizes", "5000"], "error: subset size 5000 outside [1, 20]"),
    ("fewshot", ["--sizes", "4,0"], "error: subset size 0 outside [1, 20]"),
    *((command, [*args, "--set", "task.seq_len=1"],
       "config error: in config: classification tasks of seq_len 1 with vocab_size 32 and "
       "n_classes 2 have 2 distinct examples, fewer than the 36 the three splits need")
      for command, args in EVERY_COMMAND),
])
def test_run_refused_before_the_task_is_drawn(config_path, tmp_path, monkeypatch, capsys,
                                              no_work, command, args, message):
    monkeypatch.chdir(tmp_path)
    assert main([command, str(config_path), "--set", "pretrain_steps=1", *args]) == EXIT_USAGE
    assert capsys.readouterr() == ("", message + "\n")
    assert not any(tmp_path.iterdir())


# each adapter size on both sides of its rule; BASE_CONFIG leaves pv1 a
# sequence budget of 16 - 8 = 8 prompt rows
TRAIN_VALUES = {
    "train.mode": st.sampled_from(MODES),
    "train.d_a": st.integers(-1, 1),
    "train.d_a_prime": st.integers(-1, 1),
    "train.prompt_len": st.sampled_from([-1, 0, 1, 8, 9]),
}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(section=st.fixed_dictionaries(TRAIN_VALUES))
def test_params_and_train_agree_mode_by_mode(config_path, out_root, section):
    sets = [arg for key, value in section.items()
            for arg in ("--set", f"{key}={json.dumps(value)}")]
    out = out_root / "modes"
    params = run_main(["params", str(config_path), *sets])
    train = run_main(["train", str(config_path), "--out", str(out), *sets])
    if params[0] != EXIT_OK:
        assert params[0] == train[0] == EXIT_USAGE
        assert params[1:] == train[1:] == ("", params[2])
        assert params[2].startswith("config error: ") and params[2].count("\n") == 1
        assert not out.exists()
        return
    assert (train[0], train[2]) == (EXIT_OK, ""), train
    shutil.rmtree(out)
    rows = json.loads(params[1])["modes"]
    for mode in MODES:
        code, stdout, stderr = run_main(["params", str(config_path), *sets,
                                         "--set", f"train.mode={mode}"])
        if "error" in rows[mode]:
            # the row carries the message of the rule that refuses the mode
            assert (code, stdout) == (EXIT_USAGE, "")
            assert stderr in {f"config error: in {where}: {rows[mode]['error']}\n"
                              for where in ("train", "config")}
        else:
            assert (code, stderr) == (EXIT_OK, "")
            assert json.loads(stdout)["modes"] == rows


@pytest.mark.parametrize("command, args", [("params", []), ("gradcheck", []),
                                           ("eval", ["--checkpoint", "missing.flckpt"])])
@pytest.mark.parametrize("key, section", [("train.seed", "train"), ("task.seed", "config"),
                                          ("backbone_seed", "config")])
def test_negative_seed_is_a_config_error_in_every_command(config_path, capsys, command, args,
                                                          key, section):
    # NumPy's own "expected non-negative integer" names no key, and params
    # printed it as a row
    assert main([command, str(config_path), "--set", f"{key}=-1", *args]) == EXIT_USAGE
    captured = capsys.readouterr()
    name = "seed" if section == "train" else key
    assert captured.out == ""
    assert captured.err == f"config error: in {section}: {name} must be nonnegative, got -1\n"


@pytest.mark.parametrize("via", ["set", "file"])
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e999",
                                  pytest.param("1" + "0" * 400, id="10**400")])
@pytest.mark.parametrize("key", ["learning_rate"])
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_prefix_attention_matches_gate_oracle(data):
    # the path pv2's last layer runs: several examples packed, key/value
    # prefix rows, and only some rows of each example as queries
    batch, heads = data.draw(st.integers(1, 3), label="batch"), data.draw(st.integers(1, 2))
    l, T = data.draw(st.integers(0, 6), label="prefix_len"), data.draw(st.integers(1, 5))
    d_m, d_k, d_v = (data.draw(st.integers(1, 6), label="dim") for _ in range(3))
    n_rows = data.draw(st.integers(1, T), label="query rows per example")
    rows = [data.draw(st.lists(st.integers(0, T - 1), min_size=n_rows, max_size=n_rows,
                               unique=True), label="rows") for _ in range(batch)]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = lambda *shape: Tensor(rng.uniform(-1.0, 1.0, shape))
    layer = AttentionLayer(n_heads=heads, wq=u(d_m, heads * d_k), wk=u(d_m, heads * d_k),
                           wv=u(d_m, heads * d_v), out_proj=u(heads * d_v, d_m),
                           out_bias=u(1, d_m))
    prefix = (u(l, heads * d_k), u(l, heads * d_v))
    x = u(batch * T, d_m)
    queries = gather_rows(x, [b * T + r for b, picked in enumerate(rows) for r in picked])
    got = attention_forward(layer, x, kv_prefix=prefix, queries=queries, batch=batch).data
    want = np.concatenate([prefix_gate_reference(layer, prefix, x.data[b * T:(b + 1) * T])[picked]
                           for b, picked in enumerate(rows)])
    assert np.max(np.abs(got - want)) <= VERIFY_TOLERANCE


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
              "encoder.n_classes": [3], "encoder.d_o": [16, 24]}
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
