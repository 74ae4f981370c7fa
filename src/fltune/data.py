"""Synthetic desk-scale datasets whose labels are exact functions of the
tokens, plus a token-denoising pretext that gives the frozen backbone
pretrained semantics.

Vocabulary layout (shared across kinds): id 0 pads, 1 separates segments,
2 is the mask token. Classification and pair tasks reserve one marker token
per class starting at id 3; the tagging task reserves entity-begin tokens
{3, 4} and entity-inside tokens {5, 6}, and its filler tokens never overlap
them, so the per-position tag is a pure function of the token.

Each split is a ``Split``: an ``(N, T)`` int64 token array and its label
array, ``(N,)`` for classification and pair tasks or ``(N, T)`` for tagging,
both read-only. Training, evaluation, few-shot subsampling and pretraining
read those arrays directly, and a slice or index array of a split is a split.

Generators are pure functions of their seed and safe to call from anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .adapters import build_registry
from .encoder import EncoderWeights, encoder_hidden_batch
from .tensor import ShapeError, Tensor, affine, cross_entropy_mean, gather_rows
from .training import Adam, train_step

PAD_ID = 0
SEP_ID = 1
MASK_ID = 2
MARKER_BASE = 3
ENTITY_BEGIN_IDS = (3, 4)
ENTITY_INSIDE_IDS = (5, 6)
TAG_OUTSIDE, TAG_BEGIN, TAG_INSIDE = 0, 1, 2
PRETRAIN_LEARNING_RATE = 1e-3  # pretext Adam step size
PRETRAIN_BATCH_SIZE = 8        # sequences per pretext step
MASK_PROB = 0.15               # chance that a pretext position is masked

KINDS = ("classification", "pair", "tagging")


@dataclass(frozen=True, eq=False)
class Split:
    """N examples: ``tokens`` (N, T) and ``labels`` (N,) or (N, T), both
    int64 and marked read-only. Indexing by a slice or an index array gives
    the split of those examples; an integer index, which gives no (N, T)
    tokens, raises ``ShapeError``, and so does iterating."""

    tokens: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.tokens.ndim != 2 or self.labels.shape[:1] != self.tokens.shape[:1]:
            raise ShapeError(f"a split holds (N, T) tokens and N label rows, got tokens "
                             f"{self.tokens.shape} and labels {self.labels.shape}")
        self.tokens.flags.writeable = self.labels.flags.writeable = False

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, index) -> Split:
        return Split(self.tokens[index], self.labels[index])


@dataclass
class SyntheticTask:
    kind: str
    train: Split
    dev: Split
    test: Split


# ---------------------------------------------------------------------------
# Labeling rules (the oracles; generation uses exactly these)
# ---------------------------------------------------------------------------

def label_classification(tokens: Sequence[int]) -> int:
    """The marker token in position 0 names the class."""
    return int(tokens[0]) - MARKER_BASE


def label_pair(tokens: Sequence[int]) -> int:
    """1 when the two segment markers match, else 0. Segments are the token
    runs before and after the first separator; each starts with its marker."""
    sep = tokens.index(SEP_ID)
    return int(tokens[0] == tokens[sep + 1])


def label_tagging(tokens: Sequence[int]) -> tuple[int, ...]:
    """Begin/inside/outside tag per position, read off the token identity."""
    return tuple(TAG_BEGIN if t in ENTITY_BEGIN_IDS else TAG_INSIDE if t in ENTITY_INSIDE_IDS
                 else TAG_OUTSIDE for t in tokens)


LABEL_FNS = {
    "classification": label_classification,
    "pair": label_pair,
    "tagging": label_tagging,
}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _filler_range(kind: str, vocab_size: int, n_classes: int) -> tuple[int, int]:
    """The ids a filler token takes: those after the kind's marker tokens."""
    lo = max(ENTITY_INSIDE_IDS) + 1 if kind == "tagging" else MARKER_BASE + n_classes
    return lo, vocab_size


def check_task(kind: str, sizes: Sequence[int], seq_len: int, vocab_size: int,
               n_classes: int) -> None:
    """Raise ValueError unless ``generate_task`` can build a task of these
    settings; the experiment config calls it too, so it holds every task rule.
    Only a tagging task near its count of distinct rows can still exhaust
    ``generate_task``'s draw attempts, as that generator is not uniform."""
    if kind not in KINDS:
        raise ValueError(f"task kind must be one of {KINDS}, got {kind!r}")
    if len(sizes) != 3 or min(sizes) < 1:
        raise ValueError(f"train, dev and test sizes must each be at least 1, got {sizes}")
    min_len = 5 if kind == "pair" else 1
    if seq_len < min_len:
        raise ValueError(f"{kind} tasks need seq_len at least {min_len}, got {seq_len}")
    classes = {"pair": 2, "tagging": 3}.get(kind, n_classes)
    if n_classes != classes:
        raise ValueError(f"{kind} tasks need n_classes {classes}, got {n_classes}")
    lo, _ = _filler_range(kind, vocab_size, n_classes)
    if vocab_size < lo + 2:
        raise ValueError(f"vocab_size {vocab_size} is too small for {kind} tasks with "
                         f"n_classes {n_classes} (needs at least {lo + 2})")
    # The distinct rows the kind's generator can draw, in Python ints (the
    # count overflows int64 at seq_len 64). Each position at least doubles
    # the count, so counting stops 3 positions past the total's bit length,
    # where the count already exceeds the total.
    total, fillers = sum(sizes), vocab_size - lo
    length = min(seq_len, total.bit_length() + 3)
    if kind == "classification":
        rows = n_classes * fillers ** (length - 1)
    elif kind == "pair":
        rows = n_classes ** 2 * fillers ** (length - 3)
    else:  # runs of fillers and entities: a begin id, then up to two inside ids
        rows, rows1, rows2 = 1, 0, 0  # rows of lengths L, L-1 and L-2, from L = 0
        for _ in range(length):
            rows, rows1, rows2 = (fillers + 2) * rows + 4 * rows1 + 8 * rows2, rows, rows1
    if rows < total:
        raise ValueError(f"{kind} tasks of seq_len {seq_len} with vocab_size {vocab_size} and "
                         f"n_classes {n_classes} have {rows} distinct examples, fewer than "
                         f"the {total} the three splits need")


def _gen_classification(rng, seq_len, n_classes, filler):
    lo, hi = filler
    tokens = rng.integers(lo, hi, size=seq_len)
    tokens[0] = MARKER_BASE + int(rng.integers(0, n_classes))
    return tuple(int(t) for t in tokens)


def _gen_pair(rng, seq_len, n_classes, filler):
    lo, hi = filler
    n_markers = n_classes  # marker alphabet; label is equality, not identity
    tokens = rng.integers(lo, hi, size=seq_len)
    seg = (seq_len - 1) // 2
    first = MARKER_BASE + int(rng.integers(0, n_markers))
    if rng.random() < 0.5:
        second = first
    else:
        second = MARKER_BASE + int(rng.integers(0, n_markers - 1))
        if second >= first:
            second += 1
    tokens[0] = first
    tokens[seg] = SEP_ID
    tokens[seg + 1] = second
    return tuple(int(t) for t in tokens)


def _gen_tagging(rng, seq_len, n_classes, filler):
    lo, hi = filler
    tokens: list[int] = []
    while len(tokens) < seq_len:
        room = seq_len - len(tokens)
        if rng.random() < 0.25:
            tokens.append(ENTITY_BEGIN_IDS[int(rng.integers(0, len(ENTITY_BEGIN_IDS)))])
            inside = int(rng.integers(0, min(2, room - 1) + 1))
            for _ in range(inside):
                tokens.append(ENTITY_INSIDE_IDS[int(rng.integers(0, len(ENTITY_INSIDE_IDS)))])
        else:
            tokens.append(int(rng.integers(lo, hi)))
    return tuple(tokens)


def generate_task(
    kind: str,
    sizes: Sequence[int] = (2000, 500, 500),
    seed: int = 0,
    vocab_size: int = 64,
    seq_len: int = 16,
    n_classes: int = 2,
) -> SyntheticTask:
    """Deterministic task with disjoint train/dev/test splits.

    Examples are deduplicated on their token tuples before splitting, so no
    example can appear in two splits. Labels come from the kind's rule, which
    classifies every example perfectly by construction.
    """
    check_task(kind, sizes, seq_len, vocab_size, n_classes)
    filler = _filler_range(kind, vocab_size, n_classes)
    gen = {"classification": _gen_classification, "pair": _gen_pair,
           "tagging": _gen_tagging}[kind]
    label_fn = LABEL_FNS[kind]

    rng = np.random.default_rng([seed, 0])
    total = sum(sizes)
    seen: set[tuple[int, ...]] = set()
    examples: list[tuple[int, ...]] = []
    attempts = 0
    while len(examples) < total:
        attempts += 1
        if attempts > 200 * total:
            raise ValueError(
                f"could not draw {total} distinct examples for {kind} with "
                f"vocab {vocab_size} and seq_len {seq_len}")
        tokens = gen(rng, seq_len, n_classes, filler)
        if tokens in seen:
            continue
        seen.add(tokens)
        examples.append(tokens)

    tokens = np.array(examples, dtype=np.int64)
    labels = np.array([label_fn(t) for t in examples], dtype=np.int64)
    a, b, _ = sizes
    return SyntheticTask(kind=kind, train=Split(tokens[:a], labels[:a]),
                         dev=Split(tokens[a:a + b], labels[a:a + b]),
                         test=Split(tokens[a + b:], labels[a + b:]))


# ---------------------------------------------------------------------------
# Backbone pretraining pretext
# ---------------------------------------------------------------------------

def _pretext_batch(rng, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``PRETRAIN_BATCH_SIZE`` rows drawn from ``tokens`` and their bool masks;
    each mask row marks at least one position."""
    rows = tokens[rng.integers(0, len(tokens), size=PRETRAIN_BATCH_SIZE)]
    mask = np.empty(rows.shape, dtype=bool)
    for m in mask:
        m[:] = rng.random(len(m)) < MASK_PROB
        if not m.any():
            m[int(rng.integers(0, len(m)))] = True
    return rows, mask


def _pretext_loss(weights: EncoderWeights, head_w: Tensor, head_b: Tensor,
                  batch: tuple[np.ndarray, np.ndarray]) -> Tensor:
    """The batch's masked-token loss: the mean over examples of each
    example's mean cross entropy over its masked positions.

    It is one weighted ``cross_entropy_mean`` over every masked row, where
    each of example b's n_b rows weighs ``(1.0 / PRETRAIN_BATCH_SIZE) / n_b``.
    That is the factor the per-example chain (gather, mean, scale by 1/B, add)
    hands each row in backward, so the gradients equal that chain's bit for
    bit; only the rounding of the loss value differs.
    """
    tokens, mask = batch
    hidden = encoder_hidden_batch(weights, np.where(mask, MASK_ID, tokens))
    logits = affine(hidden, head_w, head_b)
    counts = mask.sum(axis=1)
    return cross_entropy_mean(gather_rows(logits, np.flatnonzero(mask)), tokens[mask],
                              np.repeat((1.0 / PRETRAIN_BATCH_SIZE) / counts, counts))


def pretrain_backbone(
    weights: EncoderWeights,
    task: SyntheticTask,
    steps: int,
    seed: int = 0,
) -> None:
    """Train every backbone parameter on token denoising, in place.

    Each Adam step draws ``PRETRAIN_BATCH_SIZE`` training sequences and
    replaces each position by the mask token with probability ``MASK_PROB``
    (at least one per sequence). A throwaway vocabulary head predicts the
    original ids at the masked positions; the loss is the mean over the
    sequences of each one's mean cross entropy, built as one weighted
    ``cross_entropy_mean`` (see ``_pretext_loss``), so a step records the
    same few ops whatever the batch holds. The task head is untouched; the
    pretext head is discarded. The resulting weights are the frozen starting
    point for adapter experiments.
    """
    if steps == 0:
        return
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")

    config = weights.config
    rng = np.random.default_rng([seed, 4])
    pre_head_w = Tensor(rng.normal(0.0, 0.02, (config.d_m, config.vocab_size)),
                        requires_grad=True)
    pre_head_b = Tensor(np.zeros((1, config.vocab_size)), requires_grad=True)

    saved_flags = [(t, t.requires_grad) for _name, t, _group in weights.named_tensors()]
    optimizer = Adam(PRETRAIN_LEARNING_RATE)

    try:
        registry = build_registry(weights)
        registry.register("pretext.weight", pre_head_w, frozen=False, group="pretext")
        registry.register("pretext.bias", pre_head_b, frozen=False, group="pretext")
        trainable = registry.trainable_entries()
        for step in range(steps):
            train_step(lambda: (_pretext_loss(weights, pre_head_w, pre_head_b,
                                              _pretext_batch(rng, task.train.tokens)),),
                       trainable, optimizer, step + 1)
    finally:
        for t, flag in saved_flags:
            t.requires_grad = flag
