"""Optimizers, deterministic training loop, loss smoothing, the convergence
step, and the few-shot subsampling protocol.

Every run is a pure function of (weights, adapter, task, config): data order
comes from the config seed, there is no dropout, and wall-clock time is the
only nondeterministic output column. A run's one helper thread computes the
trailing rows of its large matrix products and layer norms and the trailing
examples of its large attention ops (``tensor._split``), bit for bit; parallel
runs go in separate processes with disjoint output paths.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence

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
from .encoder import EncoderConfig, EncoderWeights, encoder_forward
from .tensor import Tape, Tensor, cross_entropy_mean

MODES = ("fl", "pv1", "pv2", "ma", "finetune")

METRICS_HEADER = "step,loss,smoothed_loss,accuracy,wallclock_ms"

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's b1, b2 and eps
SMOOTHING_ALPHA = 0.99  # weight of the previous value in the smoothed loss
CONVERGENCE_WINDOW = 0.1  # a loss window's share of the run's steps, in convergence_step
CONVERGENCE_BAND = 0.1  # the settled band's share of |first window mean - last window mean|


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
    max_steps: Optional[int] = None
    # adapter hyperparameters
    d_a: int = 160
    prompt_len: int = 160
    d_a_prime: int = 160

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1 or null, got {self.max_steps}")
        # the selected mode's adapter size (pv1's upper bound is the sequence budget)
        if self.mode == "fl" and self.d_a < 0:
            raise ValueError(f"d_a must be nonnegative, got {self.d_a}")
        if self.mode == "ma" and self.d_a_prime < 0:
            raise ValueError(f"d_a_prime must be nonnegative, got {self.d_a_prime}")
        if self.mode in ("pv1", "pv2") and self.prompt_len < 1:
            raise ValueError(f"prompt_len must be positive, got {self.prompt_len}")


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
    """A finished run: one row per step (at least one) and the final dev result."""

    rows: list[StepRow]
    final_dev: EvalResult


def smooth_loss(previous_smoothed: Optional[float], current: float) -> float:
    """Exponential smoothing: alpha * previous + (1 - alpha) * current.

    alpha is ``SMOOTHING_ALPHA``, and the complementary weight is computed as
    (1 - alpha). The first step has no previous value and seeds the series
    with the raw loss.
    """
    current = float(current)
    if previous_smoothed is None:
        return current
    return SMOOTHING_ALPHA * float(previous_smoothed) + (1.0 - SMOOTHING_ALPHA) * current


def convergence_step(losses: Sequence[float]) -> Optional[int]:
    """The first step j from which the run stays settled, or None.

    m_k is the mean of the raw losses of steps k..k+w-1, w = ceil(CONVERGENCE_WINDOW·n).
    j is the first k such that every m_i with i >= k lies within
    CONVERGENCE_BAND·|m_1 - m_last| of m_last. None unless one more window follows j (j <= n - 2w + 1)."""
    w = int(np.ceil(CONVERGENCE_WINDOW * len(losses)))
    means = np.lib.stride_tricks.sliding_window_view(np.asarray(losses, float), w).mean(axis=1)
    far = np.flatnonzero(np.abs(means - means[-1]) > CONVERGENCE_BAND * abs(means[0] - means[-1]))
    step = int(far[-1]) + 2 if far.size else 1
    return step if step <= len(losses) - 2 * w + 1 else None


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
        # the ids of the tensors with a gradient on the first step that had
        # one, in entry order; their moments are packed in that order in the
        # flat m and v
        self._layout: tuple[int, ...] = ()
        self._m = self._v = np.zeros(0)

    def step(self, entries: Sequence[RegistryEntry]) -> None:
        """m = b1·m + (1-b1)·g and v = b2·v + (1-b2)·g², updated in place, then
        data -= lr · m̂ / (sqrt(v̂) + eps) with the bias-corrected m̂ and v̂.

        One pass over flat moments: the live gradients are concatenated once,
        so the update costs the same dozen NumPy calls for any number of
        tensors, and then each tensor subtracts its slice from its ``data`` in
        place. Every operation is elementwise, so the result equals the
        per-tensor update bit for bit. The first step with a gradient fixes the
        set of tensors trained (others have no moments); a later step whose
        set differs raises ValueError before any tensor or moment changes."""
        live = [e.tensor for e in entries if e.tensor.grad is not None]
        layout = tuple(id(t) for t in live)
        if not self._layout:
            self._layout = layout
            self._m, self._v = np.zeros((2, sum(t.grad.size for t in live)))
        elif layout != self._layout:
            raise ValueError(f"Adam: the tensors with a gradient ({len(live)}) are not "
                             f"those of its first step ({len(self._layout)})")
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        if not live:
            return
        grads = [t.grad for t in live]
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
    if config.mode == "fl":
        return init_fl_adapter(encoder_config, d_a=config.d_a, seed=seed)
    if config.mode == "pv1":
        return init_pv1_adapter(encoder_config, prompt_len=config.prompt_len, seed=seed)
    if config.mode == "pv2":
        return init_pv2_adapter(encoder_config, prompt_len=config.prompt_len, seed=seed)
    if config.mode == "ma":
        return init_ma_adapter(encoder_config, d_a_prime=config.d_a_prime, seed=seed)
    return None


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

EVAL_ROWS = 1024  # most rows an evaluate pass packs, unless one example holds more


def _span_ends(tags: np.ndarray) -> np.ndarray:
    """Per position, the half-open end of the span that starts there, or -1.

    A span is a maximal begin+inside run: it starts at a begin tag (1), or at
    an inside tag (2) whose predecessor is neither (a dangling inside tag in a
    prediction), and ends at the next tag that is not 2. ``tags`` must end
    with a tag that is not 2.
    """
    inside = tags == 2
    run = inside | (tags == 1)
    starts = np.flatnonzero(run & ~(inside & np.concatenate(([False], run[:-1]))))
    stops = np.flatnonzero(~inside)
    ends = np.full(tags.shape, -1)
    ends[starts] = stops[np.searchsorted(stops, starts, side="right")]
    return ends


def span_f1(true: np.ndarray, pred: np.ndarray) -> float:
    """Micro-averaged exact span match F1 over a dataset.

    ``true`` and ``pred`` are integer arrays of one (N, T) shape, one row
    per sequence; other shapes raise ValueError. Tags other than 1 (begin)
    and 2 (inside) are outside tags. Each row gains an outside column, so no
    span crosses from one sequence into the next, and all rows are scored as
    one array."""
    if true.shape != pred.shape:
        raise ValueError(f"true labels have shape {true.shape} but predictions {pred.shape}")
    t = _span_ends(np.pad(true, ((0, 0), (0, 1))).ravel())
    p = _span_ends(np.pad(pred, ((0, 0), (0, 1))).ravel())
    tp = int(np.count_nonzero((t == p) & (t >= 0)))
    fp = int(np.count_nonzero(p >= 0)) - tp
    fn = int(np.count_nonzero(t >= 0)) - tp
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def batch_loss(weights, adapter, examples, kind: str) -> tuple[Tensor, np.ndarray]:
    """Mean loss over a batch (a ``data.Split``) and the predicted label of
    each label row, flat, example after example.

    The batch runs as one packed pass, the one forward pass of training,
    evaluation and gradcheck. Every example has the same number of label
    rows, so the mean over all rows is the mean of per-example means.
    """
    if not examples:
        raise ValueError("cannot take the loss of an empty batch")
    logits = encoder_forward(weights, examples.tokens, adapter=adapter,
                             pooled=kind != "tagging")
    return cross_entropy_mean(logits, examples.labels.ravel()), logits.data.argmax(axis=1)


def evaluate(weights, adapter, examples, kind: str) -> EvalResult:
    """Accuracy (token-level for tagging) and mean loss over a ``data.Split``;
    span F1 for tagging.

    Runs packed passes of ``max(1, EVAL_ROWS // rows)`` examples, where
    ``rows`` is the sequence length plus the adapter's prompt rows, so a pass
    exceeds ``EVAL_ROWS`` rows only when one example does.
    Packed examples never mix, so the pass plan leaves accuracy and F1 as one
    pass per example gives them; ``mean_loss`` adds up per-pass means, so its
    last bits depend on the plan. A non-finite mean loss raises
    DivergenceError.
    """
    if not examples:
        raise ValueError("cannot evaluate an empty split")
    loss_sum = 0.0
    preds = []
    prompt = None if adapter is None else adapter.prompt_rows()
    rows = examples.tokens.shape[1] + (0 if prompt is None else prompt.shape[0])
    chunk_size = max(1, EVAL_ROWS // max(rows, 1))
    # As in train_step: weights that overflowed are reported once, as the
    # DivergenceError below, not as floating-point warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(examples), chunk_size):
            chunk = examples[lo:lo + chunk_size]
            loss, pred = batch_loss(weights, adapter, chunk, kind)
            loss_sum += loss.item() * len(chunk)
            preds.append(pred)
    mean_loss = loss_sum / len(examples)
    if not np.isfinite(mean_loss):
        raise DivergenceError(f"non-finite mean loss {mean_loss} over {len(examples)} "
                              "examples; the weights have diverged")
    labels = examples.labels
    pred = np.concatenate(preds).reshape(labels.shape)
    f1 = span_f1(labels, pred) if kind == "tagging" else None
    return EvalResult(accuracy=int(np.count_nonzero(pred == labels)) / labels.size,
                      mean_loss=mean_loss, f1=f1)


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


def _batches(split, config: TrainConfig, rng) -> Iterator:
    """Every epoch's minibatches in order; an epoch draws its permutation
    when its first batch is taken."""
    for _epoch in range(config.epochs):
        order = rng.permutation(len(split))
        for lo in range(0, len(order), config.batch_size):
            yield split[order[lo:lo + config.batch_size]]


def train(weights: EncoderWeights, adapter, task, config: TrainConfig,
          registry: Optional[ParamRegistry] = None) -> RunMetrics:
    """Deterministic training of the trainable tensors selected by the mode.

    The registry (built here unless supplied) freezes the backbone for
    adapter modes. ``train_step`` aborts on a non-finite loss or gradient.
    Metrics rows carry raw loss, the smoothed series, batch accuracy, and
    cumulative wall-clock ms. The run ends with one dev-split evaluation,
    ``final_dev``, which raises DivergenceError if the last step left weights
    whose dev loss is not finite. An empty train split raises ValueError.
    """
    if not task.train:
        raise ValueError("cannot train on an empty train split")
    if registry is None:
        registry = build_registry(weights, adapter)
    trainable = registry.trainable_entries()
    optimizer = make_optimizer(config)
    rng = np.random.default_rng([config.seed, 2])

    rows: list[StepRow] = []
    smoothed: Optional[float] = None
    start = time.perf_counter()
    for step, batch in enumerate(islice(_batches(task.train, config, rng), config.max_steps), 1):
        loss_val, pred = train_step(
            lambda: batch_loss(weights, adapter, batch, task.kind), trainable, optimizer, step)
        smoothed = smooth_loss(smoothed, loss_val)
        rows.append(StepRow(step=step, loss=loss_val, smoothed_loss=smoothed,
                            accuracy=int(np.count_nonzero(pred == batch.labels.ravel()))
                            / batch.labels.size,
                            wallclock_ms=(time.perf_counter() - start) * 1000.0))
    return RunMetrics(rows, evaluate(weights, adapter, task.dev, task.kind))


# ---------------------------------------------------------------------------
# Few-shot protocol
# ---------------------------------------------------------------------------

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
    # the class is the label, or for tagging whether the row tags any entity
    keys = pool.labels if pool.labels.ndim == 1 else (pool.labels > 0).any(axis=1)
    classes = np.unique(keys).tolist()
    by_class = {c: rng.permutation(np.flatnonzero(keys == c)) for c in classes}

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

    return [dataclasses.replace(task, train=pool[np.array(ordering[:s])]) for s in sizes]


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
    return {
        "mode": config.mode,
        "task_kind": task_kind,
        "train_size": train_size,
        "seed": config.seed,
        "steps": len(metrics.rows),
        "final_train_accuracy": metrics.rows[-1].accuracy,
        "final_dev_accuracy": metrics.final_dev.accuracy,
        "final_dev_f1": metrics.final_dev.f1,
        "convergence_step": convergence_step([r.loss for r in metrics.rows]),
        "params": {
            "total": counts.total,
            "trainable": counts.trainable,
            "fraction": counts.fraction,
        },
    }
