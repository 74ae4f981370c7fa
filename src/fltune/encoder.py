"""A pretrained-shaped transformer encoder used as the frozen backbone.

Multi-head self-attention, position-wise feed-forward sublayers, residual
connections with post-norm layout (each residual sum is formed and normalized
by one ``layer_norm`` op), token plus position embeddings, and a linear task
head pooled at the first token position. Tuning methods plug in through
``AdapterHooks``.

A batch is an (N, T) integer array of token ids, N examples of T tokens, and
runs as one packed stack of rows, example after example; the single-sequence
functions take a 1-d array and run a batch of one. Every step but attention
treats rows independently, and attention
(``tensor.attention_weights``/``attention_values``) mixes rows only within
one example and one head, so an example's output does not depend on the rest
of its batch.

Prompt rows never leave the encoder: the final layer computes only the rows
the head reads, each example's first token row when pooled (classification
and pair tasks), else every token row. Its keys and values still read every
row, prompt rows included, while its queries, attention rows, output
projection, layer norms and FFN run on the read rows alone, so the logits
equal those of an all-rows pass up to float rounding.

A forward/backward pass runs on the calling thread; independent batches may
run concurrently as long as each uses its own tape, with weight tensors
read-only while adapters train.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

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
)

INIT_STD = 0.02  # std of every Gaussian-initialized backbone and adapter matrix


@dataclass
class EncoderConfig:
    """Shape of the backbone. Every head is d_k = d_v = d_m // n_heads wide,
    and d_o defaults to 4 * d_m."""

    d_m: int
    n_heads: int
    n_layers: int
    vocab_size: int
    max_seq_len: int
    n_classes: int
    d_o: Optional[int] = None

    def __post_init__(self):
        if self.d_o is None:
            self.d_o = 4 * self.d_m
        # d_k is checked after the fields it derives from (d_m 2 with n_heads
        # 4 gives 0), so a bad n_heads is named before it is divided by
        names = [f.name for f in fields(self)]
        for name in names[:-1] + ["d_k", names[-1]]:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"EncoderConfig.{name} must be positive, got {value}")

    @property
    def d_k(self) -> int:
        """Width of each head's queries, keys and values."""
        return self.d_m // self.n_heads

    d_v = d_k

    def to_dict(self) -> dict:
        return {**asdict(self), "d_k": self.d_k, "d_v": self.d_v}


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
    ``return_weights`` the softmax probabilities are returned as well, as
    ``attention_weights`` gives them: (batch·heads·Tq, Tk), ordered by
    example, then head, then query row.
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
        return out, a
    return out


def ffn_forward(layer: FFNLayer, x: Tensor) -> Tensor:
    """Position-wise feed-forward: relu(x @ w1 + b1) @ w2 + b2."""
    return affine(affine(x, layer.w1, layer.b1, relu=True), layer.w2, layer.b2)


def ffn_fl_split(layer: FFNLayer, params, x: Tensor) -> Tensor:
    """Expanded FFN computed without any concatenation.

    The frozen layer and the added units (``params``: w1, b1, w2) are
    evaluated independently and summed, backbone contribution first, added
    units second. This is the production path for training; it never
    touches the frozen matrices.
    """
    backbone = ffn_forward(layer, x)
    hidden = affine(x, params.w1, params.b1, relu=True)
    return add(backbone, matmul(hidden, params.w2))


def _batch_ids(config: EncoderConfig, tokens: np.ndarray, prompt_len: int) -> np.ndarray:
    """The flat token ids of an (N, T) integer array, example after example.

    Any other batch, or one with no rows, no columns, no room for the prompt
    rows or an id outside the vocabulary, raises ``ShapeError``. ``min`` and
    ``max`` are the accept test; the offending id is looked up only on refusal.
    """
    if not (isinstance(tokens, np.ndarray) and tokens.ndim == 2 and tokens.dtype.kind in "iu"):
        got = (f"{tokens.ndim}-d {tokens.dtype} array" if isinstance(tokens, np.ndarray)
               else type(tokens).__name__)
        raise ShapeError(f"a token batch is an (N, T) integer array, got {got}")
    batch, seq_len = tokens.shape
    if not batch:
        raise ShapeError("batch has no sequences")
    if not seq_len:
        raise ShapeError("token sequence is empty")
    if seq_len + prompt_len > config.max_seq_len:
        raise ShapeError(f"sequence too long: {seq_len} tokens + {prompt_len} prompt rows "
                         f"> max_seq_len {config.max_seq_len}")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        bad = tokens[(tokens < 0) | (tokens >= config.vocab_size)][0]
        raise ShapeError(f"unknown token id {bad} for vocab size {config.vocab_size}")
    return tokens.ravel()


def encoder_hidden_batch(
    weights: EncoderWeights,
    tokens: np.ndarray,
    adapter: Optional[AdapterHooks] = None,
    pooled: bool = False,
) -> Tensor:
    """Hidden states after the final layer for an (N, T) integer array of
    token ids: one row per token, example after example, or with ``pooled``
    each example's first token row, one per example.

    Every ``AdapterHooks`` hook is consulted: prompt rows are prepended to
    each example's embedding rows, key/value prefixes and the attention
    expansion enter each attention sublayer, and added FFN units contribute
    to each FFN output through the split form. With no adapter (or a
    transparent one) this is the plain frozen backbone. Each example holds
    prompt_len + T rows in every layer but the last, which computes only the
    returned rows (its keys and values still read every row), so prompt rows
    never leave the encoder. A batch that is not such an array, or holds an
    id outside the vocabulary, raises ``ShapeError``.
    """
    hooks = adapter if adapter is not None else AdapterHooks()
    config = weights.config
    prompt = hooks.prompt_rows()
    prompt_len = 0 if prompt is None else prompt.shape[0]
    ids = _batch_ids(config, tokens, prompt_len)
    batch, seq_len = tokens.shape
    total = prompt_len + seq_len

    x = gather_rows(weights.tok_emb, ids)
    if prompt_len:
        x = _prepend_rows(prompt, x, batch)
    x = add(x, gather_rows(weights.pos_emb, np.tile(np.arange(total), batch)))

    # the rows the final layer computes: token rows, or the first of each example
    read = (total * np.arange(batch)[:, None] + prompt_len
            + np.arange(1 if pooled else seq_len)).ravel()
    last = len(weights.layers) - 1
    for i, layer in enumerate(weights.layers):
        rows = gather_rows(x, read) if i == last and read.size < x.shape[0] else x
        attn_out = attention_forward(layer.attn, x, kv_prefix=hooks.kv_prefix(i),
                                     expansion=hooks.attn_expansion(i), queries=rows,
                                     batch=batch)
        x = layer_norm(rows, layer.norm1.gain, layer.norm1.bias, residual=attn_out)
        units = hooks.ffn_units(i)
        ffn_out = ffn_forward(layer.ffn, x) if units is None else ffn_fl_split(layer.ffn, units, x)
        x = layer_norm(x, layer.norm2.gain, layer.norm2.bias, residual=ffn_out)
    return x


def encoder_hidden(
    weights: EncoderWeights,
    tokens: np.ndarray,
    adapter: Optional[AdapterHooks] = None,
    pooled: bool = False,
) -> Tensor:
    """``encoder_hidden_batch`` for one sequence, a 1-d integer array."""
    return encoder_hidden_batch(weights, tokens[None] if isinstance(tokens, np.ndarray)
                                else tokens, adapter, pooled)


def encoder_forward_batch(
    weights: EncoderWeights,
    tokens: np.ndarray,
    adapter=None,
    per_position: bool = False,
) -> Tensor:
    """Run the full encoder and task head on an (N, T) integer array of token
    ids, with optional tuning adapter.

    Returns batch x n_classes logits, each example pooled at its first token
    position (prompt rows shift that position but never replace it), or
    (batch·seq) x n_classes logits, one row per input token, example after
    example, when ``per_position``. The head reads exactly the rows
    ``encoder_hidden_batch`` returns.
    """
    return affine(encoder_hidden_batch(weights, tokens, adapter, pooled=not per_position),
                  weights.head_w, weights.head_b)


def encoder_forward(
    weights: EncoderWeights,
    tokens: np.ndarray,
    adapter=None,
    per_position: bool = False,
) -> Tensor:
    """``encoder_forward_batch`` for one sequence, a 1-d integer array: 1 x
    n_classes logits, or seq x n_classes with ``per_position``."""
    return encoder_forward_batch(weights, tokens[None] if isinstance(tokens, np.ndarray)
                                 else tokens, adapter, per_position)


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
