"""One forward path: the adapter hook protocol and the single attention loop."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

from conftest import child_env, small_config
import fltune
import fltune.adapters as adapters_module
import fltune.encoder as encoder_module
from fltune.adapters import (
    FLAdapter,
    MAAdapter,
    PromptAdapter,
    init_fl_adapter,
    init_ma_adapter,
    ma_forward,
)
from fltune.cli import build_experiment, load_experiment_config
from fltune.encoder import (
    AdapterHooks,
    attention_forward,
    encoder_forward,
    init_encoder,
)
import fltune.tensor as tensor_module
import fltune.training as training_module
from fltune.tensor import Tensor
from fltune.training import TrainConfig


def encoder_tree() -> ast.Module:
    return ast.parse(Path(encoder_module.__file__).read_text(encoding="utf-8"))


def test_encoder_imports_nothing_from_adapters():
    for node in ast.walk(encoder_tree()):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rsplit(".", 1)[-1] != "adapters", ast.dump(node)
            assert all(alias.name != "adapters" for alias in node.names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(not alias.name.endswith("adapters") for alias in node.names)


def test_encoder_has_no_adapter_type_checks():
    adapter_types = {"FLAdapter", "PromptAdapter", "MAAdapter"}
    for node in ast.walk(encoder_tree()):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not names & adapter_types, ast.dump(node)


def test_every_adapter_implements_the_hooks():
    for cls in (FLAdapter, PromptAdapter, MAAdapter):
        assert issubclass(cls, AdapterHooks)


def test_base_hooks_are_transparent():
    weights = init_encoder(small_config(), seed=1)
    tokens = np.array([[3, 5, 7, 9, 11]])
    plain = encoder_forward(weights, tokens, pooled=True).data
    hooked = encoder_forward(weights, tokens, adapter=AdapterHooks(), pooled=True).data
    assert np.array_equal(plain, hooked)


def test_custom_adapter_overriding_one_hook_matches_fl_adapter():
    config = small_config()
    weights = init_encoder(config, seed=2)
    fl = init_fl_adapter(config, d_a=3, seed=3)
    rng = np.random.default_rng(4)
    for params in fl.layers.values():
        params.w2.data = rng.normal(0.0, 0.5, params.w2.shape)

    class OnlyFFN(AdapterHooks):
        def ffn_units(self, i):
            return fl.layers[i]

    tokens = np.array([[4, 6, 8, 10]])
    assert np.array_equal(encoder_forward(weights, tokens, adapter=fl, pooled=True).data,
                          encoder_forward(weights, tokens, adapter=OnlyFFN(), pooled=True).data)


def test_ma_forward_is_attention_with_expansion():
    config = small_config()
    weights = init_encoder(config, seed=5)
    ma = init_ma_adapter(config, d_a_prime=3, seed=6)
    rng = np.random.default_rng(7)
    p = ma.layers[0]
    p.dwk.data = rng.normal(0.0, 0.5, p.dwk.shape)
    p.dwo.data = rng.normal(0.0, 0.5, p.dwo.shape)
    x = Tensor(rng.normal(size=(5, config.d_m)))
    attn = weights.layers[0].attn
    assert np.array_equal(ma_forward(attn, ma.layers[0], x).data,
                          attention_forward(attn, x, expansion=ma.attn_expansion(0)).data)
    assert not np.array_equal(ma_forward(attn, ma.layers[0], x).data,
                              attention_forward(attn, x).data)


def test_adapters_hold_only_their_tensors():
    # FL placement cannot change the output, so neither the adapter nor the
    # run config carries one; only the ffn_fl_concat oracle takes it.
    field_names = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert field_names(FLAdapter) == ["layers"]
    assert field_names(PromptAdapter) == ["prompt", "prefixes"]
    assert field_names(MAAdapter) == ["layers"]
    assert not {"position", "infix_index"} & set(field_names(TrainConfig))


def test_adapter_builders_leave_the_size_rules_to_the_config():
    # TrainConfig holds each mode's adapter-size rule, so every command
    # refuses a bad size before it draws a task; a raise in a builder would
    # be a second copy of a rule, reached only after that work
    builders = []
    for module, pattern in ((adapters_module, r"init_\w+_adapter"),
                            (training_module, "make_adapter")):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        builders += [(Path(module.__file__).name, fn) for fn in tree.body
                     if isinstance(fn, ast.FunctionDef) and re.fullmatch(pattern, fn.name)]
    assert len(builders) == 5
    raises = [f"{file}:{node.lineno} in {fn.name}" for file, fn in builders
              for node in ast.walk(fn) if isinstance(node, ast.Raise)]
    assert not raises, f"adapter builders that raise: {raises}"


def test_attention_joins_no_weights_per_forward():
    # every per-head family is one packed matrix, so attention_forward
    # concatenates no weights and there is no helper to join them
    tree = encoder_tree()
    attn = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "attention_forward")
    for node in ast.walk(attn):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert name != "concat", f"encoder.py:{node.lineno}: concat(...)"
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert "_join" not in defined


def test_biased_projections_use_the_fused_affine_op():
    # add(matmul(...), ...) and relu(...) would allocate what affine() fuses
    package = Path(encoder_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "add" and node.args and isinstance(node.args[0], ast.Call):
                first = node.args[0].func
                assert getattr(first, "id", getattr(first, "attr", None)) != "matmul", \
                    f"{path.name}:{node.lineno}: add(matmul(...), ...)"
            if name == "relu":
                assert path.name == "tensor.py", f"{path.name}:{node.lineno}: relu(...)"


def test_tensor_ops_skip_the_slow_numpy_paths():
    # np.add.at dispatches per row and ndarray.mean goes through NumPy's
    # Python wrappers; the ops use np.bincount and np.add.reduce instead
    path = Path(encoder_module.__file__).with_name("tensor.py")
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            assert func.attr != "mean", f"tensor.py:{node.lineno}: .mean(...)"
            assert not (func.attr == "at" and getattr(func.value, "attr", None) == "add"), \
                f"tensor.py:{node.lineno}: np.add.at(...)"


TENSOR_PARAMETERS = {"a", "b", "x", "w", "table", "gain", "bias", "residual", "logits",
                     "q", "k", "qx", "kx", "v"}


def test_backward_closures_capture_no_tensors():
    # a record keeps only the arrays its formula reads; a closure over a whole
    # input Tensor would keep that Tensor's data alive until backward
    recording = {}
    for name, fn in vars(tensor_module).items():
        if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__:
            bw = [c for c in fn.__code__.co_consts
                  if isinstance(c, types.CodeType) and c.co_name == "bw"]
            if bw:
                recording[name] = bw
    assert set(recording) == {
        "matmul", "affine", "transpose", "add", "scale", "relu", "softmax_rows", "concat",
        "row_slice", "gather_rows", "layer_norm", "cross_entropy_mean", "sum_all",
        "attention_weights", "attention_values"}
    for name, (bw,) in recording.items():
        captured = set(bw.co_freevars) & TENSOR_PARAMETERS
        assert not captured, f"tensor.{name}'s bw captures {sorted(captured)}"


def run_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter that imports fltune from this
    tree; its stdout."""
    done = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_package_binds_no_public_name():
    # each public name is bound once, in the module that defines it, and a
    # bare import loads no module (so it leaves the allocator untouched)
    out = run_python("import sys, fltune\n"
                     "print(sorted(n for n in vars(fltune) if not n.startswith('__')),\n"
                     "      fltune.__version__, sorted(m for m in sys.modules if 'fltune' in m))")
    assert out.split() == ["[]", fltune.__version__, "['fltune']"]


def test_each_module_imports_on_its_own():
    # an import cycle breaks whichever module of it a caller imports first,
    # so each module is imported into an interpreter holding no fltune module
    modules = sorted(f"fltune.{m.name}" for m in pkgutil.iter_modules(fltune.__path__))
    assert len(modules) == 7
    run_python("import importlib, sys\n"
               f"for name in {modules!r}:\n"
               "    for key in [k for k in sys.modules if k.split('.')[0] == 'fltune']:\n"
               "        del sys.modules[key]\n"
               "    importlib.import_module(name)\n")


# fltune writes metrics.csv but never reads it back; the tests keep this
# reader because it is their one parser for that file
USED_ONLY_BY_TESTS = {"read_metrics_csv"}


def referenced_names(node: ast.AST) -> set[str]:
    """Every name, attribute and string constant under ``node``."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found.add(n.value)
    return found


def public_methods(cls: ast.ClassDef) -> list[str]:
    return [m.name for m in cls.body
            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]


def test_every_public_name_has_a_caller_outside_the_tests():
    # a public function, class or method of a public class that only tests
    # call is code kept for tests. The check goes by name, so it misses a
    # method whose name other code uses for something else: a local variable
    # (SyntheticTask.label_fn once shared its name with one in generate_task)
    # or another type's attribute (ParamRegistry.get with dict.get).
    repo = Path(__file__).resolve().parents[1]
    package = repo / "src" / "fltune"
    harness = [p for p in sorted((repo / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    defined, used = {}, set()
    for path in sorted(package.glob("*.py")) + harness:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = referenced_names(stmt)
            if (path.parent == package and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = f"{path.name}:{stmt.name}"
                names.discard(stmt.name)
                if isinstance(stmt, ast.ClassDef):
                    defined.update((m, f"{path.name}:{stmt.name}.{m}")
                                   for m in public_methods(stmt))
            used |= names
    assert USED_ONLY_BY_TESTS <= set(defined)
    unused = sorted(defined[n] for n in set(defined) - used - USED_ONLY_BY_TESTS)
    assert not unused, f"public names no code outside the tests references: {unused}"


def test_no_module_imports_a_name_it_never_uses():
    package = Path(encoder_module.__file__).parent
    for path in sorted(package.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(f"{path.name}:{line}: {name}" for name, line in imported.items()
                        if name not in used)
        assert not unused, f"imported and never used: {unused}"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def import_spans(monkeypatch):
    """A fresh import of perfbench's span tracer module."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("spans")


def test_every_name_perfbench_looks_up_exists(monkeypatch):
    # perfbench drives the program by name: spans.METHODS is read when spans
    # is imported, spans.FUNCTIONS with getattr under --trace 1, and spans.py
    # and worker.py read module attributes; without this check a deleted name
    # fails only in the slow `pytest perfbench`
    spans = import_spans(monkeypatch)  # raises if a METHODS class is gone
    missing = [f"{home.__name__}.{name}" for home, names in spans.FUNCTIONS.items()
               for name in names if not hasattr(home, name)]
    missing += [f"{cls.__name__}.{meth}" for _home, cls, meth in spans.METHODS
                if not hasattr(cls, meth)]
    for file in ("spans.py", "worker.py"):
        tree = ast.parse((PERFBENCH / file).read_text(encoding="utf-8"))
        homes = {"fltune": fltune}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fltune"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if node.module == "fltune":
                        homes[alias.asname or alias.name] = importlib.import_module(
                            f"fltune.{alias.name}")
                    elif not hasattr(module, alias.name):
                        missing.append(f"{file}: {node.module}.{alias.name}")
        missing += [f"{file}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                    and n.value.id in homes and not hasattr(homes[n.value.id], n.attr)]
    assert not missing, f"names perfbench looks up that the program lacks: {missing}"


def test_a_training_run_calls_the_encoder_names_perfbench_traces(monkeypatch):
    # perfbench's encoder figures come from the spans of encoder.encoder_forward
    # and encoder.encoder_hidden; a name that only some other path calls would
    # leave them reading 0 on a working run
    spans = import_spans(monkeypatch)
    config = load_experiment_config(PERFBENCH.parent / "configs" / "demo_classification.json", [
        "train.max_steps=2", "task.train_size=32", "task.dev_size=8", "task.test_size=8"])
    task, weights, adapter, registry = build_experiment(config)
    with spans.Tracer() as tracer:
        training_module.train(weights, adapter, task, config.train, registry)
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("encoder.encoder_forward") >= 1
    assert names.count("encoder.encoder_hidden") >= 1


# parameters only the tests pass, each to reach what a run never varies: an
# argv in place of sys.argv, a hand-made theorem-1 instance, every coordinate
# of a gradient check, and a layer norm epsilon other than the encoder's
TEST_SEAMS = {"cli.py:main(argv=)", "adapters.py:verify_theorem1(draw=)",
              "tensor.py:check_gradients(max_coords=)", "tensor.py:layer_norm(eps=)"}


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no program call overrides is a constant kept as a
    # parameter; calls from the tests do not count, so a knob only a test
    # turns must be listed in TEST_SEAMS. Like the check above this goes by
    # name: a call counts for every public function or method of its name, a
    # class call for the class's __init__, and a positional argument for the
    # parameter in its place (after self)
    repo = Path(__file__).resolve().parents[1]
    package = repo / "src" / "fltune"
    harness = [p for p in sorted((repo / "perfbench").glob("*.py"))
               if not p.name.startswith("test_")]
    functions = []  # (the name calls use, label, definition, leading self or not)
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                functions.append((stmt.name, f"{path.name}:{stmt.name}", stmt, 0))
            elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                functions += [(stmt.name if m.name == "__init__" else m.name,
                               f"{path.name}:{stmt.name}.{m.name}", m, 1)
                              for m in stmt.body if isinstance(m, ast.FunctionDef)
                              and (m.name == "__init__" or not m.name.startswith("_"))]
    keywords, positional = {}, {}
    for path in sorted(package.glob("*.py")) + harness:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
                positional[name] = max(positional.get(name, 0), len(node.args))
    unpassed = []
    for name, label, fn, skip in functions:
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        passed = keywords.get(name, set())
        unpassed += [f"{label}({a.arg}=)" for i, a in enumerate(args[first:], first)
                     if a.arg not in passed and positional.get(name, 0) <= i - skip]
        unpassed += [f"{label}({a.arg}=)"
                     for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if d is not None and a.arg not in passed]
    stale = TEST_SEAMS - set(unpassed)
    assert not stale, f"seams a program call now passes: {sorted(stale)}"
    unpassed = sorted(set(unpassed) - TEST_SEAMS)
    assert not unpassed, f"defaulted parameters no program call passes: {unpassed}"
