"""Outside-in span tracer for the fltune benchmark.

``Tracer.install()`` rebinds each traced public function of ``fltune`` to a
timing wrapper in every module namespace that holds it. The ops are imported
by name into ``encoder``, ``adapters``, ``training`` and ``data``, and
``encoder_hidden`` imports the adapter functions at call time, so patching
``fltune.tensor`` alone would miss most calls. ``Tracer.uninstall()`` puts
the originals back. No file of the program changes.

A span is one call: name, start and end (``perf_counter_ns``), parent span,
step id and phase. Spans stay in memory, in flat integer arrays, until
``save`` writes them out. Integer nanoseconds keep self time (duration minus
the duration of direct children) exactly non-negative.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

from fltune import adapters, checkpoint, cli, data, encoder, tensor, training
from workloads import OPS

FUNCTIONS = {
    tensor: OPS,
    encoder: ("encoder_forward", "encoder_hidden", "attention_forward", "ffn_forward"),
    adapters: ("ffn_fl_split", "ma_forward", "build_registry"),
    training: ("train", "evaluate"),
    data: ("generate_task", "pretrain_backbone"),
    checkpoint: ("save_trainable", "load_trainable"),
    cli: ("load_experiment_config", "build_experiment"),
}
METHODS = (
    (tensor, tensor.Tape, "backward"),
    (training, training.Adam, "step"),
    (training, training.SGD, "step"),
    (adapters, adapters.ParamRegistry, "frozen_violations"),
)
# Every namespace that may hold a traced function under its own name.
NAMESPACES = tuple(FUNCTIONS)

PHASES = ("setup", "timed", "eval", "check")
OPTIMIZER_SPANS = ("training.Adam.step", "training.SGD.step")
NO_STEP = -1


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.step = array("l")
        self.phase = array("l")
        # tape records for Tape.backward, output bytes for ops, else 0
        self.value = array("q")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._phase = 0
        self._step = NO_STEP
        self._next_step = 0
        self._train_depth = 0

    # -- recording ---------------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = PHASES.index(phase)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self._step)
        self.phase.append(self._phase)
        self.value.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _begin_step(self) -> None:
        if self._phase == PHASES.index("timed"):
            self._step = self._next_step
            self._next_step += 1
        else:
            self._step = NO_STEP

    def _wrap(self, name: str, fn, kind: str):
        name_id = self._name_id(name)

        if kind == "op":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    out = fn(*args, **kwargs)
                    self.value[idx] = out.data.nbytes
                    return out
                finally:
                    self._close(idx)
        elif kind == "backward":
            @functools.wraps(fn)
            def wrapper(tape, *args, **kwargs):
                idx = self._open(name_id)
                self.value[idx] = len(tape)
                try:
                    return fn(tape, *args, **kwargs)
                finally:
                    self._close(idx)
        elif kind == "train":
            # A step runs from the start of train (or the end of the previous
            # optimizer step) to the end of its own optimizer step.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                self._train_depth += 1
                self._begin_step()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._train_depth -= 1
                    self._step = NO_STEP
                    self._close(idx)
        elif kind == "optimizer":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
                    if self._train_depth:
                        self._begin_step()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for home, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(home, fname)
                kind = ("op" if home is tensor else
                        "train" if original is training.train else "plain")
                wrapper = self._wrap(f"{_short(home)}.{fname}", original, kind)
                for ns in NAMESPACES:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        for home, cls, meth in METHODS:
            original = cls.__dict__[meth]
            kind = ("backward" if cls is tensor.Tape else
                    "optimizer" if meth == "step" else "plain")
            name = f"{_short(home)}.{cls.__name__}.{meth}"
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(name, original, kind))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays, one entry per span."""
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.int64),
            "end": np.asarray(self.end, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "step": np.asarray(self.step, dtype=np.int64),
            "phase": np.asarray(self.phase, dtype=np.int64),
            "value": np.asarray(self.value, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write the spans as a compressed ``.npz`` with a ``names`` table."""
        np.savez_compressed(path, names=np.asarray(self.names), phases=np.asarray(PHASES),
                            **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Span duration minus the summed duration of its direct children (ns)."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    # bincount sums in float64; durations in a run stay far below 2**53 ns
    return dur - child.astype(np.int64)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of complete timed steps.

    A timed step is complete when it holds an optimizer step. The caller adds
    the figures that need outside knowledge (checkpoint bytes, eval example
    counts, trainable values and the untraced step latency).
    """
    s = tracer.arrays()
    nid = {n: i for i, n in enumerate(tracer.names)}
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    parent_or_0 = np.where(has_parent, s["parent"], 0)

    def named(*wanted):
        return np.isin(s["name"], [nid[w] for w in wanted if w in nid])

    def ms(mask) -> float:
        return float(dur[mask].sum()) * 1e-6

    def ms_minus_children(parent_mask, *child_names) -> float:
        """Time of the spans minus that of their direct children of the given names."""
        child = named(*child_names) & has_parent & parent_mask[parent_or_0]
        covered = np.bincount(s["parent"][child], weights=dur[child], minlength=len(dur))
        return (float(dur[parent_mask].sum()) - float(covered[parent_mask].sum())) * 1e-6

    opt = named(*OPTIMIZER_SPANS) & (s["step"] >= 0)
    steps = np.unique(s["step"][opt])
    in_steps = np.isin(s["step"], steps) & (s["step"] >= 0)
    n = max(len(steps), 1)
    phase = {p: s["phase"] == i for i, p in enumerate(PHASES)}
    out: dict[str, float] = {}

    backward = named("tensor.Tape.backward") & in_steps
    out["tensor.tape_records_per_step"] = float(s["value"][backward].sum()) / n
    out["tensor.backward_ms_per_step"] = ms(backward) / n
    ops = named(*(f"tensor.{op}" for op in OPS)) & in_steps
    out["tensor.out_bytes_per_step"] = float(s["value"][ops].sum()) / n
    for op in OPS:
        m = named(f"tensor.{op}") & in_steps
        out[f"tensor.op_calls_per_step.{op}"] = float(m.sum()) / n
        out[f"tensor.op_ms_per_step.{op}"] = ms(m) / n

    fwd = named("encoder.encoder_forward") & in_steps
    out["encoder.forward_ms_per_example"] = ms(fwd) / max(int(fwd.sum()), 1)
    out["encoder.attn_ms_per_step"] = ms(named("encoder.attention_forward") & in_steps) / n
    out["encoder.ffn_ms_per_step"] = ms(named("encoder.ffn_forward") & in_steps) / n
    out["encoder.hidden_self_ms_per_step"] = ms_minus_children(
        named("encoder.encoder_hidden") & in_steps, "encoder.attention_forward",
        "encoder.ffn_forward", "adapters.ffn_fl_split", "adapters.ma_forward") / n
    out["adapters.fl_term_ms_per_step"] = ms_minus_children(
        named("adapters.ffn_fl_split") & in_steps, "encoder.ffn_forward") / n
    out["adapters.ma_ms_per_step"] = ms(named("adapters.ma_forward") & in_steps) / n
    out["adapters.adapter_ms_per_step"] = (out["adapters.fl_term_ms_per_step"]
                                           + out["adapters.ma_ms_per_step"])

    train_child = has_parent & named("training.train")[parent_or_0] & in_steps
    out["training.forward_ms_per_step"] = ms(
        train_child & ~named("tensor.Tape.backward", *OPTIMIZER_SPANS)) / n
    out["training.optimizer_ms_per_step"] = ms(opt) / n
    # A step runs from the start of train (first step of a call) or the end of
    # the previous optimizer step to the end of its own optimizer step. Spans
    # are numbered in start order, so one call's optimizer spans are sorted.
    opt_idx = np.flatnonzero(opt)
    call = s["parent"][opt_idx]
    first = np.ones(len(opt_idx), dtype=bool)
    first[1:] = call[1:] != call[:-1]
    begin = np.where(first, s["start"][call], np.concatenate(([0], s["end"][opt_idx[:-1]])))
    out["training.step_self_ms"] = (
        float((s["end"][opt_idx] - begin).sum()) * 1e-6 - ms(train_child)) / n

    out["adapters.build_registry_ms"] = ms(named("adapters.build_registry") & phase["setup"])
    out["data.generate_task_ms"] = ms(named("data.generate_task") & phase["setup"])
    out["data.pretrain_ms"] = ms(named("data.pretrain_backbone") & phase["setup"])
    out["cli.build_experiment_ms"] = ms(named("cli.build_experiment") & phase["setup"])
    out["adapters.frozen_check_ms"] = ms(
        named("adapters.ParamRegistry.frozen_violations") & phase["check"])
    out["checkpoint.save_ms"] = ms(named("checkpoint.save_trainable") & phase["check"])
    out["checkpoint.load_ms"] = ms(named("checkpoint.load_trainable") & phase["check"])
    out["training.eval_ms"] = ms(named("training.evaluate") & phase["eval"])
    out["trace.steps"] = float(len(steps))
    return out
