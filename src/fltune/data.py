"""Synthetic desk-scale datasets whose labels are exact functions of the
tokens, plus a token-denoising pretext that gives the frozen backbone
pretrained semantics.

Vocabulary layout (shared across kinds): id 0 pads, 1 separates segments,
2 is the mask token. Classification and pair tasks reserve one marker token
per class starting at id 3; the tagging task reserves entity-begin tokens
{3, 4} and entity-inside tokens {5, 6}, and its filler tokens never overlap
them, so the per-position tag is a pure function of the token.

Generators are pure functions of their seed and safe to call from anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from .adapters import build_registry
from .encoder import EncoderWeights, encoder_hidden_batch
from .tensor import Tensor, affine, cross_entropy_mean, gather_rows
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


class Example(NamedTuple):
    tokens: tuple[int, ...]
    label: Union[int, tuple[int, ...]]


@dataclass
class SyntheticTask:
    kind: str
    train: list[Example]
    dev: list[Example]
    test: list[Example]


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
    tags = []
    for t in tokens:
        if t in ENTITY_BEGIN_IDS:
            tags.append(TAG_BEGIN)
        elif t in ENTITY_INSIDE_IDS:
            tags.append(TAG_INSIDE)
        else:
            tags.append(TAG_OUTSIDE)
    return tuple(tags)


LABEL_FNS = {
    "classification": label_classification,
    "pair": label_pair,
    "tagging": label_tagging,
}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _filler_range(kind: str, vocab_size: int, n_classes: int) -> tuple[int, int]:
    if kind == "tagging":
        lo = max(ENTITY_INSIDE_IDS) + 1
    else:
        lo = MARKER_BASE + n_classes
    if vocab_size - lo < 2:
        raise ValueError(
            f"vocab size {vocab_size} too small for the {kind} marker set "
            f"(needs at least {lo + 2})")
    return lo, vocab_size


def _gen_classification(rng, seq_len, n_classes, filler):
    lo, hi = filler
    tokens = rng.integers(lo, hi, size=seq_len)
    tokens[0] = MARKER_BASE + int(rng.integers(0, n_classes))
    return tuple(int(t) for t in tokens)


def _gen_pair(rng, seq_len, n_classes, filler):
    if seq_len < 5:
        raise ValueError(f"pair task needs seq_len >= 5, got {seq_len}")
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
        if room >= 1 and rng.random() < 0.25:
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
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if len(sizes) != 3 or any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be three positive counts, got {sizes}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be at least 1, got {seq_len}")
    if kind == "pair" and n_classes != 2:
        raise ValueError("pair task is match/mismatch and needs n_classes=2")
    if kind == "tagging" and n_classes != 3:
        raise ValueError("tagging uses begin/inside/outside tags and needs n_classes=3")

    filler = _filler_range(kind, vocab_size, n_classes)
    gen = {"classification": _gen_classification, "pair": _gen_pair,
           "tagging": _gen_tagging}[kind]
    label_fn = LABEL_FNS[kind]

    rng = np.random.default_rng([seed, 0])
    total = sum(sizes)
    seen: set[tuple[int, ...]] = set()
    examples: list[Example] = []
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
        examples.append(Example(tokens=tokens, label=label_fn(tokens)))

    a, b, _ = sizes
    return SyntheticTask(kind=kind, train=examples[:a], dev=examples[a:a + b],
                         test=examples[a + b:])


# ---------------------------------------------------------------------------
# Backbone pretraining pretext
# ---------------------------------------------------------------------------

def _pretext_batch(rng, sequences: Sequence[tuple[int, ...]]) -> list:
    """``PRETRAIN_BATCH_SIZE`` (tokens, mask) pairs drawn from ``sequences``;
    each mask marks at least one position."""
    batch = []
    for i in rng.integers(0, len(sequences), size=PRETRAIN_BATCH_SIZE):
        tokens = list(sequences[int(i)])
        mask = rng.random(len(tokens)) < MASK_PROB
        if not mask.any():
            mask[int(rng.integers(0, len(tokens)))] = True
        batch.append((tokens, mask))
    return batch


def _pretext_loss(weights: EncoderWeights, head_w: Tensor, head_b: Tensor,
                  batch: list) -> Tensor:
    """The batch's masked-token loss: the mean over examples of each
    example's mean cross entropy over its masked positions.

    It is one weighted ``cross_entropy_mean`` over every masked row, where
    each of example b's n_b rows weighs ``(1.0 / PRETRAIN_BATCH_SIZE) / n_b``.
    That is the factor the per-example chain (gather, mean, scale by 1/B, add)
    hands each row in backward, so the gradients equal that chain's bit for
    bit; only the rounding of the loss value differs.
    """
    hidden, _ = encoder_hidden_batch(
        weights, [[MASK_ID if m else t for t, m in zip(tokens, mask)]
                  for tokens, mask in batch])
    logits = affine(hidden, head_w, head_b)
    rows, targets, row_weights = [], [], []
    for b, (tokens, mask) in enumerate(batch):
        positions = np.flatnonzero(mask)
        rows.append(b * len(tokens) + positions)
        targets += [tokens[p] for p in positions]
        row_weights.append(np.full(len(positions),
                                   (1.0 / PRETRAIN_BATCH_SIZE) / len(positions)))
    return cross_entropy_mean(gather_rows(logits, np.concatenate(rows)), targets,
                              np.concatenate(row_weights))


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
    sequences = [ex.tokens for ex in task.train]

    try:
        registry = build_registry(weights)
        registry.register("pretext.weight", pre_head_w, frozen=False, group="pretext")
        registry.register("pretext.bias", pre_head_b, frozen=False, group="pretext")
        trainable = registry.trainable_entries()
        for step in range(steps):
            train_step(lambda: (_pretext_loss(weights, pre_head_w, pre_head_b,
                                              _pretext_batch(rng, sequences)),),
                       trainable, optimizer, step + 1)
    finally:
        for t, flag in saved_flags:
            t.requires_grad = flag
