"""Optimizers, deterministic training loop, loss smoothing, and the few-shot
subsampling protocol.

Every run is a pure function of (weights, adapter, task, config): data order
comes from the config seed, there is no dropout, and wall-clock time is the
only nondeterministic output column. One run is single-threaded; parallelism
comes from launching independent runs in separate processes with disjoint
output paths.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .adapters import (
    ParamRegistry,
    RegistryEntry,
    build_registry,
    count_parameters,
    init_fl_adapter,
    init_ma_adapter,
    init_pv1_adapter,
    init_pv2_adapter,
)
from .encoder import EncoderConfig, EncoderWeights, encoder_forward_batch
from .tensor import Tape, Tensor, cross_entropy_mean

MODES = ("fl", "pv1", "pv2", "ma", "finetune")

METRICS_HEADER = "step,loss,smoothed_loss,accuracy,wallclock_ms"

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's b1, b2 and eps


class DivergenceError(RuntimeError):
    """Training loss or a gradient became non-finite."""


@dataclass
class TrainConfig:
    """One run's hyperparameters, including the tuning-method selector and
    its adapter shape."""

    mode: str = "fl"
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 1
    seed: int = 0
    optimizer: str = "adam"
    smoothing_alpha: float = 0.99
    max_steps: Optional[int] = None
    loss_threshold: float = 0.5
    # adapter hyperparameters
    d_a: int = 160
    prompt_len: int = 160
    d_a_prime: int = 160

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.smoothing_alpha < 1.0):
            raise ValueError(f"smoothing_alpha must be in [0, 1), got {self.smoothing_alpha}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be nonnegative, got {self.epochs}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1 or null, got {self.max_steps}")
        if self.loss_threshold <= 0:
            raise ValueError(f"loss_threshold must be positive, got {self.loss_threshold}")


@dataclass
class StepRow:
    step: int
    loss: float
    smoothed_loss: float
    accuracy: float
    wallclock_ms: float


@dataclass
class EvalResult:
    accuracy: float
    mean_loss: float
    f1: Optional[float] = None


@dataclass
class RunMetrics:
    rows: list[StepRow] = field(default_factory=list)
    final_dev: Optional[EvalResult] = None

    @property
    def steps(self) -> int:
        return len(self.rows)


def smooth_loss(previous_smoothed: Optional[float], current: float, alpha: float = 0.99) -> float:
    """Exponential smoothing: alpha * previous + (1 - alpha) * current.

    The first step has no previous value and seeds the series with the raw
    loss. The complementary weight is computed as (1 - alpha).
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    current = float(current)
    if previous_smoothed is None:
        return current
    return alpha * float(previous_smoothed) + (1.0 - alpha) * current


def steps_to_threshold(metrics: RunMetrics, threshold: float) -> Optional[int]:
    """First step whose smoothed loss reached the threshold, if any."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    for row in metrics.rows:
        if row.smoothed_loss <= threshold:
            return row.step
    return None


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class SGD:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, entries: Sequence[RegistryEntry]) -> None:
        for e in entries:
            if e.tensor.grad is not None:
                e.tensor.data -= self.learning_rate * e.tensor.grad


class Adam:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        # The moments of the tensors in the layout (the ids of those that had a
        # gradient on the last step) are views into the flat m and v; every
        # other tensor's are its own arrays.
        self._state: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._layout: tuple[int, ...] = ()
        self._m = self._v = np.zeros(0)

    def _relayout(self, grads: list, layout: tuple[int, ...]) -> None:
        """Build flat moments for a new set of live tensors. Each keeps its
        moments (zeros on its first step); every other tensor keeps a copy of
        its own, untouched until it is live again, so no old flat array stays
        referenced."""
        self._state = {key: (m.copy(), v.copy()) for key, (m, v) in self._state.items()}
        total = sum(g.size for g in grads)
        self._m, self._v = np.zeros(total), np.zeros(total)
        lo = 0
        for key, g in zip(layout, grads):
            views = (self._m[lo:lo + g.size].reshape(g.shape),
                     self._v[lo:lo + g.size].reshape(g.shape))
            old = self._state.get(key)
            if old is not None:
                views[0][...] = old[0]
                views[1][...] = old[1]
            self._state[key] = views
            lo += g.size
        self._layout = layout

    def step(self, entries: Sequence[RegistryEntry]) -> None:
        """m = b1·m + (1-b1)·g and v = b2·v + (1-b2)·g², updated in place, then
        data -= lr · m̂ / (sqrt(v̂) + eps) with the bias-corrected m̂ and v̂.

        One pass over flat moments: the live gradients are concatenated once,
        so the update costs the same dozen NumPy calls for any number of
        tensors, and then each tensor subtracts its slice from its ``data`` in
        place. Every operation is elementwise, so the result equals the
        per-tensor update bit for bit. A tensor without a gradient is skipped
        and its moments stay as they are."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        live = [e.tensor for e in entries if e.tensor.grad is not None]
        if not live:
            return
        grads = [t.grad for t in live]
        layout = tuple(id(t) for t in live)
        if layout != self._layout:
            self._relayout(grads, layout)
        m, v = self._m, self._v
        g = np.concatenate(grads, axis=None)
        tmp = np.multiply(g, 1 - b1)
        m *= b1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1 - b2
        v *= b2
        v += tmp
        np.divide(m, 1 - b1 ** self.t, out=tmp)
        tmp *= self.learning_rate
        denom = np.divide(v, 1 - b2 ** self.t, out=g)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        tmp /= denom
        lo = 0
        for t, grad in zip(live, grads):
            t.data -= tmp[lo:lo + grad.size].reshape(grad.shape)
            lo += grad.size


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return SGD(config.learning_rate)
    return Adam(config.learning_rate)


def make_adapter(encoder_config: EncoderConfig, config: TrainConfig):
    """Build the trainable delta selected by config.mode (None for finetune)."""
    seed = [config.seed, 1]
    if config.mode == "finetune":
        return None
    if config.mode == "fl":
        return init_fl_adapter(encoder_config, d_a=config.d_a, seed=seed)
    if config.mode == "pv1":
        return init_pv1_adapter(encoder_config, prompt_len=config.prompt_len, seed=seed)
    if config.mode == "pv2":
        return init_pv2_adapter(encoder_config, prompt_len=config.prompt_len, seed=seed)
    if config.mode == "ma":
        return init_ma_adapter(encoder_config, d_a_prime=config.d_a_prime, seed=seed)
    raise ValueError(f"unknown mode {config.mode!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

EVAL_CHUNK = 16   # fewest examples per packed forward pass in evaluate
EVAL_ROWS = 512   # rows a pass packs when EVAL_CHUNK examples hold fewer


def _batch_forward(weights, adapter, examples, per_position: bool):
    """One packed forward pass over ``examples``: the mean loss over every
    label row, the correct and total label counts, and the predictions."""
    logits = encoder_forward_batch(weights, [ex.tokens for ex in examples], adapter=adapter,
                                   per_position=per_position)
    labels = ([v for ex in examples for v in ex.label] if per_position
              else [ex.label for ex in examples])
    loss = cross_entropy_mean(logits, labels)
    pred = logits.data.argmax(axis=1)
    correct = int((pred == np.asarray(labels)).sum())
    return loss, correct, len(labels), pred


def tag_spans(labels: Sequence[int]) -> set[tuple[int, int]]:
    """Maximal begin+inside runs as (start, end) half-open position spans."""
    spans = set()
    start = None
    for i, lab in enumerate(labels):
        if lab == 1:  # begin
            if start is not None:
                spans.add((start, i))
            start = i
        elif lab == 2:  # inside
            if start is None:
                start = i  # tolerate dangling inside tags in predictions
        else:
            if start is not None:
                spans.add((start, i))
                start = None
    if start is not None:
        spans.add((start, len(labels)))
    return spans


def span_f1(true_seqs: Sequence[Sequence[int]], pred_seqs: Sequence[Sequence[int]]) -> float:
    """Micro-averaged exact span match F1 over a dataset.

    The two lists pair up sequence by sequence; lists or pairs of different
    lengths raise ValueError."""
    if len(true_seqs) != len(pred_seqs):
        raise ValueError(f"{len(true_seqs)} true sequences but {len(pred_seqs)} predicted")
    tp = fp = fn = 0
    for i, (true_labels, pred_labels) in enumerate(zip(true_seqs, pred_seqs)):
        if len(true_labels) != len(pred_labels):
            raise ValueError(f"sequence {i}: {len(true_labels)} true labels but "
                             f"{len(pred_labels)} predicted")
        t = tag_spans(true_labels)
        p = tag_spans(pred_labels)
        tp += len(t & p)
        fp += len(p - t)
        fn += len(t - p)
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def batch_loss(weights, adapter, examples, kind: str) -> tuple[Tensor, int, int]:
    """Mean loss over a batch, plus its correct and total label counts.

    The batch runs as one packed pass. Every example has the same number of
    label rows, so the mean over all rows is the mean of per-example means.
    """
    if not examples:
        raise ValueError("cannot take the loss of an empty batch")
    loss, correct, labels, _ = _batch_forward(weights, adapter, examples, kind == "tagging")
    return loss, correct, labels


def evaluate(weights, adapter, examples, kind: str) -> EvalResult:
    """Accuracy (token-level for tagging) and mean loss; span F1 for tagging.

    Runs packed passes of ``max(EVAL_CHUNK, EVAL_ROWS // rows)`` examples,
    where ``rows`` is the sequence length plus the adapter's prompt rows.
    Packed examples never mix, so the pass plan leaves accuracy and F1 as one
    pass per example gives them; ``mean_loss`` adds up per-pass means, so its
    last bits depend on the plan. A non-finite mean loss raises
    DivergenceError.
    """
    if not examples:
        raise ValueError("cannot evaluate an empty example list")
    per_position = kind == "tagging"
    total_correct = total_labels = 0
    loss_sum = 0.0
    true_seqs, pred_seqs = [], []
    prompt = None if adapter is None else adapter.prompt_rows()
    rows = len(examples[0].tokens) + (0 if prompt is None else prompt.shape[0])
    chunk_size = max(EVAL_CHUNK, EVAL_ROWS // max(rows, 1))
    # As in train_step: weights that overflowed are reported once, as the
    # DivergenceError below, not as floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(examples), chunk_size):
            chunk = examples[lo:lo + chunk_size]
            loss, correct, n, pred = _batch_forward(weights, adapter, chunk, per_position)
            loss_sum += loss.item() * len(chunk)
            total_correct += correct
            total_labels += n
            if per_position:
                true_seqs += [ex.label for ex in chunk]
                pred_seqs += pred.reshape(len(chunk), -1).tolist()
    mean_loss = loss_sum / len(examples)
    if not np.isfinite(mean_loss):
        raise DivergenceError(f"non-finite mean loss {mean_loss} over {len(examples)} "
                              "examples; the weights have diverged")
    f1 = span_f1(true_seqs, pred_seqs) if per_position else None
    return EvalResult(accuracy=total_correct / total_labels, mean_loss=mean_loss, f1=f1)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def train_step(loss_fn: Callable[[], tuple], trainable: Sequence[RegistryEntry],
               optimizer, step: int) -> tuple:
    """One optimizer step on the loss that ``loss_fn()`` records on a fresh tape.

    ``loss_fn`` returns the scalar loss tensor, then any values to hand back
    after the loss value. A non-finite loss or gradient raises
    DivergenceError before any tensor changes; grads are always cleared.
    """
    # Overflow on the way to a non-finite value is reported once, as the
    # DivergenceError below, not as floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            with Tape() as tape:
                loss, *extras = loss_fn()
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise DivergenceError(
                        f"non-finite loss {loss_val} at step {step}; aborting run")
                tape.backward(loss)
            for e in trainable:
                if e.tensor.grad is not None and not np.isfinite(e.tensor.grad).all():
                    raise DivergenceError(
                        f"non-finite gradient for {e.name} at step {step}; aborting run")
            optimizer.step(trainable)
        finally:
            for e in trainable:
                e.tensor.grad = None
    return (loss_val, *extras)


def train(weights: EncoderWeights, adapter, task, config: TrainConfig,
          registry: Optional[ParamRegistry] = None) -> RunMetrics:
    """Deterministic training of the trainable tensors selected by the mode.

    The registry (built here unless supplied) freezes the backbone for
    adapter modes. ``train_step`` aborts on a non-finite loss or gradient.
    Metrics rows carry raw loss, the smoothed series, batch accuracy, and
    cumulative wall-clock ms. When any step ran, the run ends with one
    dev-split evaluation, ``final_dev``, which raises DivergenceError if the
    last step left weights whose dev loss is not finite.
    """
    if registry is None:
        registry = build_registry(weights, adapter)
    trainable = registry.trainable_entries()
    optimizer = make_optimizer(config)
    rng = np.random.default_rng([config.seed, 2])

    metrics = RunMetrics()
    smoothed: Optional[float] = None
    start = time.perf_counter()
    step = 0

    for _epoch in range(config.epochs):
        order = rng.permutation(len(task.train))
        for lo in range(0, len(order), config.batch_size):
            batch = [task.train[i] for i in order[lo:lo + config.batch_size]]
            loss_val, correct, labels = train_step(
                lambda: batch_loss(weights, adapter, batch, task.kind),
                trainable, optimizer, step + 1)
            step += 1
            smoothed = smooth_loss(smoothed, loss_val, config.smoothing_alpha)
            metrics.rows.append(StepRow(
                step=step,
                loss=loss_val,
                smoothed_loss=smoothed,
                accuracy=correct / labels,
                wallclock_ms=(time.perf_counter() - start) * 1000.0,
            ))
            if step == config.max_steps:
                break
        if step == config.max_steps:
            break

    if metrics.rows:
        metrics.final_dev = evaluate(weights, adapter, task.dev, task.kind)
    return metrics


# ---------------------------------------------------------------------------
# Few-shot protocol
# ---------------------------------------------------------------------------

def _strat_key(example) -> int:
    label = example.label
    if isinstance(label, (tuple, list)):
        return int(any(v > 0 for v in label))
    return int(label)


def fewshot_subsample(task, sizes: Sequence[int], seed: int = 0) -> list:
    """Nested, class-stratified training subsets of the given sizes.

    Subsets are prefixes of one seeded class-interleaved ordering, so smaller
    sets are contained in larger ones and every prefix tracks the pool's
    class proportions within one example. Dev/test splits are shared.
    """
    pool = task.train
    for s in sizes:
        if not (1 <= s <= len(pool)):
            raise ValueError(f"subset size {s} outside [1, {len(pool)}]")

    rng = np.random.default_rng([seed, 3])
    by_class: dict[int, list[int]] = {}
    for i, ex in enumerate(pool):
        by_class.setdefault(_strat_key(ex), []).append(i)
    classes = sorted(by_class)
    for c in classes:
        idx = np.array(by_class[c])
        by_class[c] = idx[rng.permutation(len(idx))].tolist()

    proportions = {c: len(by_class[c]) / len(pool) for c in classes}
    taken = {c: 0 for c in classes}
    ordering: list[int] = []
    for t in range(1, max(sizes) + 1):
        # largest-deficit class next; prefix counts then stay within one of
        # the exact proportional share
        candidates = [c for c in classes if taken[c] < len(by_class[c])]
        pick = max(candidates, key=lambda c: (proportions[c] * t - taken[c], -c))
        ordering.append(by_class[pick][taken[pick]])
        taken[pick] += 1

    return [dataclasses.replace(task, train=[pool[i] for i in ordering[:s]])
            for s in sizes]


# ---------------------------------------------------------------------------
# Metrics files
# ---------------------------------------------------------------------------

def write_metrics_csv(metrics: RunMetrics, path) -> None:
    """CSV schema: step,loss,smoothed_loss,accuracy,wallclock_ms.

    Floats are written with repr so they parse back bit-exactly; wall-clock
    is the only column excluded from reproducibility guarantees.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in metrics.rows:
            fh.write(f"{r.step},{r.loss!r},{r.smoothed_loss!r},"
                     f"{r.accuracy!r},{r.wallclock_ms!r}\n")


def read_metrics_csv(path) -> list[StepRow]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header: {header!r}")
        for line in fh:
            step, loss, smoothed, acc, wall = line.strip().split(",")
            rows.append(StepRow(int(step), float(loss), float(smoothed),
                                float(acc), float(wall)))
    return rows


def run_summary(metrics: RunMetrics, registry: ParamRegistry, config: TrainConfig,
                task_kind: str, train_size: int) -> dict:
    """Deterministic run summary (no wall-clock fields)."""
    counts = count_parameters(registry)
    final_dev = metrics.final_dev
    return {
        "mode": config.mode,
        "task_kind": task_kind,
        "train_size": train_size,
        "seed": config.seed,
        "steps": metrics.steps,
        "final_train_accuracy": metrics.rows[-1].accuracy if metrics.rows else None,
        "final_dev_accuracy": final_dev.accuracy if final_dev else None,
        "final_dev_f1": final_dev.f1 if final_dev else None,
        "loss_threshold": config.loss_threshold,
        "steps_to_threshold": steps_to_threshold(metrics, config.loss_threshold),
        "params": {
            "total": counts.total,
            "trainable": counts.trainable,
            "fraction": counts.fraction,
        },
    }
