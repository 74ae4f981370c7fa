"""A pretrained-shaped transformer encoder used as the frozen backbone.

Multi-head self-attention, position-wise feed-forward sublayers, residual
connections with post-norm layout (each residual sum is formed and normalized
by one ``layer_norm`` op), token plus position embeddings, and a linear task
head pooled at the first token position. Tuning methods plug in through
``AdapterHooks``.

A batch of equal-length sequences runs as one packed stack of rows, example
after example; the single-sequence functions are a batch of one. Every step
but attention treats rows independently, and attention
(``tensor.attention_weights``/``attention_values``) mixes rows only within
one example and one head, so an example's output does not depend on the rest
of its batch.

When only the pooled row is read (classification and pair tasks), the final
layer computes only that row of each example: its keys and values still come
from every row, but its queries, attention row, output projection, layer
norms and FFN run on the pooled rows. The pooled logits therefore equal those
of the all-rows pass up to float rounding.

A forward/backward pass runs on the calling thread; independent batches may
run concurrently as long as each uses its own tape, with weight tensors
read-only while adapters train.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import chain
from typing import Iterator, Optional, Sequence

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    affine,
    attention_values,
    attention_weights,
    concat,
    gather_rows,
    layer_norm,
    matmul,
    row_slice,
)

INIT_STD = 0.02  # std of every Gaussian-initialized backbone and adapter matrix


@dataclass
class EncoderConfig:
    """Shape of the backbone. d_k, d_v, d_o default to the standard relations
    d_k = d_v = d_m / n_heads and d_o = 4 * d_m."""

    d_m: int
    n_heads: int
    n_layers: int
    vocab_size: int
    max_seq_len: int
    n_classes: int
    d_k: Optional[int] = None
    d_v: Optional[int] = None
    d_o: Optional[int] = None

    def __post_init__(self):
        # Declaration order: the given fields, n_heads among them, are checked
        # before d_k/d_v/d_o are derived from them, and derived values are
        # checked too (d_m 2 with n_heads 4 gives d_k 0).
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                value = 4 * self.d_m if f.name == "d_o" else self.d_m // self.n_heads
                setattr(self, f.name, value)
            if value < 1:
                raise ValueError(f"EncoderConfig.{f.name} must be positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AttentionLayer:
    """Packed multi-head projections plus the output projection.

    Head h owns column block h of ``wq``, ``wk`` and ``wv`` and row block h
    of ``out_proj``, which maps the heads' values back to model width.
    """

    n_heads: int
    wq: Tensor        # d_m x n_heads·d_k
    wk: Tensor        # d_m x n_heads·d_k
    wv: Tensor        # d_m x n_heads·d_v
    out_proj: Tensor  # n_heads·d_v x d_m
    out_bias: Tensor  # 1 x d_m


@dataclass
class FFNLayer:
    w1: Tensor  # d_m x d_o
    b1: Tensor  # 1 x d_o
    w2: Tensor  # d_o x d_m
    b2: Tensor  # 1 x d_m


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class EncoderLayer:
    attn: AttentionLayer
    ffn: FFNLayer
    norm1: NormParams
    norm2: NormParams


@dataclass
class EncoderWeights:
    config: EncoderConfig
    tok_emb: Tensor
    pos_emb: Tensor
    layers: list[EncoderLayer]
    head_w: Tensor
    head_b: Tensor

    def named_tensors(self) -> Iterator[tuple[str, Tensor, str]]:
        """Yield (name, tensor, group) for every backbone parameter.

        Groups: 'embedding', 'block', 'head'. Each tensor appears exactly once.
        """
        yield "embedding.token", self.tok_emb, "embedding"
        yield "embedding.position", self.pos_emb, "embedding"
        for i, layer in enumerate(self.layers):
            p = f"layer{i:02d}"
            yield f"{p}.attn.q", layer.attn.wq, "block"
            yield f"{p}.attn.k", layer.attn.wk, "block"
            yield f"{p}.attn.v", layer.attn.wv, "block"
            yield f"{p}.attn.out_proj", layer.attn.out_proj, "block"
            yield f"{p}.attn.out_bias", layer.attn.out_bias, "block"
            yield f"{p}.norm1.gain", layer.norm1.gain, "block"
            yield f"{p}.norm1.bias", layer.norm1.bias, "block"
            yield f"{p}.ffn.w1", layer.ffn.w1, "block"
            yield f"{p}.ffn.b1", layer.ffn.b1, "block"
            yield f"{p}.ffn.w2", layer.ffn.w2, "block"
            yield f"{p}.ffn.b2", layer.ffn.b2, "block"
            yield f"{p}.norm2.gain", layer.norm2.gain, "block"
            yield f"{p}.norm2.bias", layer.norm2.bias, "block"
        yield "head.weight", self.head_w, "head"
        yield "head.bias", self.head_b, "head"


class AdapterHooks:
    """How a tuning method plugs into ``encoder_hidden``: ``prompt_rows()``
    gives rows prepended to the embedded input; for layer ``i``,
    ``kv_prefix(i)`` gives one (e0, e1) pair of key/value prefix rows,
    ``attn_expansion(i)`` one attention expansion (dwq, dwk, dwv, dwo), both
    packed by head like ``AttentionLayer``, and ``ffn_units(i)`` added FFN
    hidden units (w1, b1, w2). A hook returns None where the method adds
    nothing, so this base class is the transparent adapter; adapters override
    only the hooks they use."""

    def prompt_rows(self) -> Optional[Tensor]:
        return None

    def kv_prefix(self, i: int) -> Optional[tuple[Tensor, Tensor]]:
        return None

    def attn_expansion(self, i: int):
        return None

    def ffn_units(self, i: int):
        return None


def init_encoder(config: EncoderConfig, seed: int = 0) -> EncoderWeights:
    """Synthesize pretrained-shaped weights: Gaussian(0, INIT_STD) matrices under a
    fixed seed, zero biases, identity layer norms. Real checkpoints are out of
    scope; the tasks module can further pre-train these on a pretext task."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols, heads=1):
        # one rows x cols draw per head, in head order, packed side by side
        draw = rng.normal(0.0, INIT_STD, (heads, rows, cols))
        return Tensor(draw.transpose(1, 0, 2).reshape(rows, heads * cols))

    layers = []
    for _ in range(config.n_layers):
        attn = AttentionLayer(
            n_heads=config.n_heads,
            wq=mat(config.d_m, config.d_k, config.n_heads),
            wk=mat(config.d_m, config.d_k, config.n_heads),
            wv=mat(config.d_m, config.d_v, config.n_heads),
            out_proj=mat(config.n_heads * config.d_v, config.d_m),
            out_bias=Tensor(np.zeros((1, config.d_m))),
        )
        ffn = FFNLayer(
            w1=mat(config.d_m, config.d_o),
            b1=Tensor(np.zeros((1, config.d_o))),
            w2=mat(config.d_o, config.d_m),
            b2=Tensor(np.zeros((1, config.d_m))),
        )
        norm1 = NormParams(Tensor(np.ones((1, config.d_m))), Tensor(np.zeros((1, config.d_m))))
        norm2 = NormParams(Tensor(np.ones((1, config.d_m))), Tensor(np.zeros((1, config.d_m))))
        layers.append(EncoderLayer(attn, ffn, norm1, norm2))

    return EncoderWeights(
        config=config,
        tok_emb=mat(config.vocab_size, config.d_m),
        pos_emb=mat(config.max_seq_len, config.d_m),
        layers=layers,
        head_w=mat(config.d_m, config.n_classes),
        head_b=Tensor(np.zeros((1, config.n_classes))),
    )


def _prepend_rows(head: Tensor, body: Tensor, batch: int) -> Tensor:
    """``head``'s rows placed before each of the ``batch`` examples packed in ``body``."""
    n, per = head.shape[0], body.shape[0] // batch
    ids = np.concatenate([np.broadcast_to(np.arange(n), (batch, n)),
                          n + per * np.arange(batch)[:, None] + np.arange(per)], axis=1)
    return gather_rows(concat(head, body), ids.ravel())


def attention_forward(
    layer: AttentionLayer,
    x: Tensor,
    kv_prefix: Optional[tuple[Tensor, Tensor]] = None,
    return_weights: bool = False,
    expansion=None,
    queries: Optional[Tensor] = None,
    batch: int = 1,
):
    """Multi-head scaled dot-product self-attention over ``batch`` examples.

    ``x`` packs the examples' rows one after another, the same number per
    example; each example attends only to its own rows. ``queries``
    optionally gives the rows that attend (default ``x``), packed the same
    way; keys and values always come from every row of ``x``, and the output
    has one row per query row.

    ``kv_prefix`` optionally supplies trainable rows (e0, e1), packed like
    ``wk`` and ``wv``, that are prepended to every example's keys and values,
    so every attention row becomes a distribution over seq + prefix_len keys.
    ``expansion`` optionally widens each head's inner dimensions: scores
    become q·k + (x·dwq)(x·dwk)ᵀ under the frozen 1/sqrt(d_k) scaling, and
    the extra value columns, mapped to model width by dwo, are summed in after
    the frozen output projection; its dwq side takes the query rows. dwq, dwk
    and dwv are packed like ``wq`` and dwo like ``out_proj``. With
    ``return_weights`` the softmax matrices are returned as well, one
    (Tq, Tk) matrix per example and head, example-major.
    """
    n_heads = layer.n_heads
    d_k = layer.wq.shape[1] // n_heads
    if queries is None:
        queries = x
    q = matmul(queries, layer.wq)
    k = matmul(x, layer.wk)
    v = matmul(x, layer.wv)
    if kv_prefix is not None:
        e0, e1 = kv_prefix
        if e0.shape[0] != e1.shape[0]:
            raise ShapeError(f"kv_prefix row counts disagree: {e0.shape} vs {e1.shape}")
        k = _prepend_rows(e0, k, batch)
        v = _prepend_rows(e1, v, batch)
    qx = kx = None
    if expansion is not None:
        qx = matmul(queries, expansion.dwq)
        kx = matmul(x, expansion.dwk)
    a = attention_weights(q, k, batch, n_heads, 1.0 / np.sqrt(d_k), qx, kx)
    out = affine(attention_values(a, v, batch, n_heads), layer.out_proj, layer.out_bias)
    if expansion is not None:
        xv = matmul(x, expansion.dwv)
        out = add(out, matmul(attention_values(a, xv, batch, n_heads), expansion.dwo))
    if return_weights:
        tq = queries.shape[0] // batch
        return out, [row_slice(a, i * tq, (i + 1) * tq) for i in range(batch * n_heads)]
    return out


def ffn_forward(layer: FFNLayer, x: Tensor) -> Tensor:
    """Position-wise feed-forward: relu(x @ w1 + b1) @ w2 + b2."""
    if x.shape[1] != layer.w1.shape[0]:
        raise ShapeError(f"ffn input width {x.shape} does not match w1 {layer.w1.shape}")
    return affine(affine(x, layer.w1, layer.b1, relu=True), layer.w2, layer.b2)


def ffn_fl_split(layer: FFNLayer, params, x: Tensor) -> Tensor:
    """Expanded FFN computed without any concatenation.

    The frozen layer and the added units (``params``: w1, b1, w2) are
    evaluated independently and summed, backbone contribution first, added
    units second. This is the production path for training; it never
    touches the frozen matrices.
    """
    params.added_units()
    backbone = ffn_forward(layer, x)
    hidden = affine(x, params.w1, params.b1, relu=True)
    return add(backbone, matmul(hidden, params.w2))


def _batch_ids(config: EncoderConfig, sequences: Sequence[Sequence[int]],
               prompt_len: int) -> tuple[Sequence[int], int]:
    """Flat token ids of an equal-length batch, example after example, and
    the sequence length.

    A batch that converts to one 2-d integer array with every id in range,
    room for the prompt rows and no bool among its tokens (``np.asarray``
    reads True beside an int as 1) is checked as a whole; any other batch
    goes through ``_validate_tokens`` token by token, which raises the
    ``ShapeError`` that names the fault.
    """
    try:
        arr = np.asarray(sequences)
    except ValueError:  # a ragged batch: the per-token check names the fault
        arr = None
    if (arr is not None and arr.ndim == 2 and arr.shape[1] and arr.dtype.kind in "iu"
            and arr.shape[1] + prompt_len <= config.max_seq_len
            and arr.min() >= 0 and arr.max() < config.vocab_size
            and {bool, np.bool_}.isdisjoint(map(type, chain.from_iterable(sequences)))):
        return arr.ravel(), arr.shape[1]
    ids = [_validate_tokens(config, tokens, prompt_len) for tokens in sequences]
    lengths = sorted({len(s) for s in ids})
    if len(lengths) > 1:
        raise ShapeError(f"batch sequences differ in length: {lengths}")
    return [t for s in ids for t in s], lengths[0]


def _validate_tokens(config: EncoderConfig, tokens: Sequence[int], prompt_len: int) -> list[int]:
    ids = []
    for t in tokens:  # an integral float such as 3.0 is an id; 3.7, '3' or True is not
        try:
            i = int(t)
        except (TypeError, ValueError, OverflowError):
            i = None
        if i is None or i != t or isinstance(t, (bool, np.bool_)):
            raise ShapeError(f"token {t!r} is not an integer")
        if not 0 <= i < config.vocab_size:
            raise ShapeError(f"unknown token id {i} for vocab size {config.vocab_size}")
        ids.append(i)
    if not ids:
        raise ShapeError("token sequence is empty")
    if len(ids) + prompt_len > config.max_seq_len:
        raise ShapeError(
            f"sequence too long: {len(ids)} tokens + {prompt_len} prompt rows "
            f"> max_seq_len {config.max_seq_len}")
    return ids


def encoder_hidden_batch(
    weights: EncoderWeights,
    sequences: Sequence[Sequence[int]],
    adapter: Optional[AdapterHooks] = None,
    pooled: bool = False,
) -> tuple[Tensor, int]:
    """Hidden states after the final layer for a batch of equal-length
    sequences, packed example after example, plus the prompt row count.

    Every ``AdapterHooks`` hook is consulted: prompt rows are prepended to
    each example's embedding rows, key/value prefixes and the attention
    expansion enter each attention sublayer, and added FFN units contribute
    to each FFN output through the split form. With no adapter (or a
    transparent one) this is the plain frozen backbone. Each example holds
    prompt_len + seq rows. With ``pooled`` the final layer computes only row
    ``prompt_len`` of each example (its keys and values still read every
    row), and the result is those rows, one per example. Sequences of
    different lengths raise ``ShapeError``.
    """
    hooks = adapter if adapter is not None else AdapterHooks()
    config = weights.config
    prompt = hooks.prompt_rows()
    prompt_len = 0 if prompt is None else prompt.shape[0]
    batch = len(sequences)
    if not batch:
        raise ShapeError("batch has no sequences")
    ids, seq_len = _batch_ids(config, sequences, prompt_len)
    total = prompt_len + seq_len

    x = gather_rows(weights.tok_emb, ids)
    if prompt_len:
        x = _prepend_rows(prompt, x, batch)
    x = add(x, gather_rows(weights.pos_emb, np.tile(np.arange(total), batch)))

    last = len(weights.layers) - 1
    for i, layer in enumerate(weights.layers):
        rows = (gather_rows(x, total * np.arange(batch) + prompt_len)
                if pooled and i == last else x)
        attn_out = attention_forward(layer.attn, x, kv_prefix=hooks.kv_prefix(i),
                                     expansion=hooks.attn_expansion(i), queries=rows,
                                     batch=batch)
        x = layer_norm(rows, layer.norm1.gain, layer.norm1.bias, residual=attn_out)
        units = hooks.ffn_units(i)
        ffn_out = ffn_forward(layer.ffn, x) if units is None else ffn_fl_split(layer.ffn, units, x)
        x = layer_norm(x, layer.norm2.gain, layer.norm2.bias, residual=ffn_out)
    return x, prompt_len


def encoder_hidden(
    weights: EncoderWeights,
    tokens: Sequence[int],
    adapter: Optional[AdapterHooks] = None,
    pooled: bool = False,
) -> tuple[Tensor, int]:
    """``encoder_hidden_batch`` for one sequence."""
    return encoder_hidden_batch(weights, [tokens], adapter, pooled)


def encoder_forward_batch(
    weights: EncoderWeights,
    sequences: Sequence[Sequence[int]],
    adapter=None,
    per_position: bool = False,
) -> Tensor:
    """Run the full encoder and task head on a batch of equal-length
    sequences, with optional tuning adapter.

    Returns batch x n_classes logits, each example pooled at its first token
    position (prompt rows shift that position but never replace it), or
    (batch·seq) x n_classes logits, one row per input token, example after
    example, when ``per_position``. The pooled case runs the final layer on
    the pooled rows alone (``encoder_hidden_batch(..., pooled=True)``).
    """
    hidden, prompt_len = encoder_hidden_batch(weights, sequences, adapter,
                                              pooled=not per_position)
    if per_position and prompt_len:
        total = hidden.shape[0] // len(sequences)
        hidden = gather_rows(hidden, np.flatnonzero(np.arange(hidden.shape[0]) % total
                                                    >= prompt_len))
    return affine(hidden, weights.head_w, weights.head_b)


def encoder_forward(
    weights: EncoderWeights,
    tokens: Sequence[int],
    adapter=None,
    per_position: bool = False,
) -> Tensor:
    """``encoder_forward_batch`` for one sequence: 1 x n_classes logits, or
    seq x n_classes with ``per_position``."""
    return encoder_forward_batch(weights, [tokens], adapter, per_position)


def layer_param_counts(config: EncoderConfig) -> dict[str, int]:
    """Closed-form per-layer parameter counts by sublayer."""
    attn = (config.n_heads * config.d_m * (2 * config.d_k + config.d_v)
            + config.n_heads * config.d_v * config.d_m + config.d_m)
    ffn = config.d_m * config.d_o + config.d_o + config.d_o * config.d_m + config.d_m
    norms = 4 * config.d_m
    return {"attention": attn, "ffn": ffn, "norms": norms, "total": attn + ffn + norms}


def ffn_parameter_share(config: EncoderConfig) -> float:
    """Fraction of per-layer parameters that live in the feed-forward sublayer."""
    counts = layer_param_counts(config)
    return counts["ffn"] / counts["total"]
