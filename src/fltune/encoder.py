"""A pretrained-shaped transformer encoder used as the frozen backbone.

Per-head self-attention, position-wise feed-forward sublayers, residual
connections with post-norm layout (layer norm applied after each residual
add), token plus position embeddings, and a linear task head pooled at the
first token position. Tuning methods plug in through ``AdapterHooks``.

Forward/backward is single-threaded per example; independent examples may run
concurrently as long as each uses its own tape, with weight tensors read-only
while adapters train.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    add,
    concat,
    gather_rows,
    layer_norm,
    matmul,
    relu,
    row_slice,
    scale,
    softmax_rows,
    transpose,
)


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
        if self.d_k is None:
            self.d_k = self.d_m // self.n_heads
        if self.d_v is None:
            self.d_v = self.d_m // self.n_heads
        if self.d_o is None:
            self.d_o = 4 * self.d_m
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ValueError(f"EncoderConfig.{f.name} must be positive, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AttentionLayer:
    """Per-head projection matrices plus the multi-head output projection.

    The output projection maps the concatenated head values (n_heads * d_v)
    back to model width; it is part of the frozen backbone.
    """

    wq: list[Tensor]
    wk: list[Tensor]
    wv: list[Tensor]
    out_proj: Tensor
    out_bias: Tensor


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
            for h in range(len(layer.attn.wq)):
                yield f"{p}.attn.q{h}", layer.attn.wq[h], "block"
                yield f"{p}.attn.k{h}", layer.attn.wk[h], "block"
                yield f"{p}.attn.v{h}", layer.attn.wv[h], "block"
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
    ``kv_prefix(i)`` gives per-head (e0, e1) key/value prefix rows,
    ``attn_expansion(i)`` per-head attention expansions (dwq, dwk, dwv, dwo)
    and ``ffn_units(i)`` added FFN hidden units (w1, b1, w2). A hook returns
    None where the method adds nothing, so this base class is the transparent
    adapter; adapters override only the hooks they use."""

    def prompt_rows(self) -> Optional[Tensor]:
        return None

    def kv_prefix(self, i: int) -> Optional[Sequence[tuple[Tensor, Tensor]]]:
        return None

    def attn_expansion(self, i: int) -> Optional[Sequence]:
        return None

    def ffn_units(self, i: int):
        return None


def init_encoder(config: EncoderConfig, seed: int = 0, std: float = 0.02) -> EncoderWeights:
    """Synthesize pretrained-shaped weights: Gaussian(0, std) matrices under a
    fixed seed, zero biases, identity layer norms. Real checkpoints are out of
    scope; the tasks module can further pre-train these on a pretext task."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return Tensor(rng.normal(0.0, std, (rows, cols)))

    layers = []
    for _ in range(config.n_layers):
        attn = AttentionLayer(
            wq=[mat(config.d_m, config.d_k) for _ in range(config.n_heads)],
            wk=[mat(config.d_m, config.d_k) for _ in range(config.n_heads)],
            wv=[mat(config.d_m, config.d_v) for _ in range(config.n_heads)],
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


def attention_forward(
    layer: AttentionLayer,
    x: Tensor,
    kv_prefix: Optional[Sequence[tuple[Tensor, Tensor]]] = None,
    return_weights: bool = False,
    expansion: Optional[Sequence] = None,
):
    """Multi-head scaled dot-product self-attention.

    ``kv_prefix`` optionally supplies per-head trainable rows (e0, e1) that
    are prepended to that head's key and value matrices, so every attention
    row becomes a distribution over seq + prefix_len keys. ``expansion``
    optionally widens each head's inner dimensions: scores become
    q·k + (x·dwq)(x·dwk)ᵀ under the frozen 1/sqrt(d_k) scaling, and the extra
    value columns, mapped to model width by dwo, are summed in after the
    frozen output projection. With ``return_weights`` the per-head softmax
    matrices are returned as well.
    """
    n_heads = len(layer.wq)
    d_k = layer.wq[0].shape[1]
    if kv_prefix is not None:
        if len(kv_prefix) != n_heads:
            raise ShapeError(f"kv_prefix must cover all {n_heads} heads, got {len(kv_prefix)}")
        for e0, e1 in kv_prefix:
            if e0.shape[0] != e1.shape[0]:
                raise ShapeError(
                    f"kv_prefix row counts disagree: {e0.shape} vs {e1.shape}")
    if expansion is not None and len(expansion) != n_heads:
        raise ShapeError(f"expansion params must cover all {n_heads} heads, got {len(expansion)}")

    head_outs = []
    weights = []
    extras = []
    for h in range(n_heads):
        q = matmul(x, layer.wq[h])
        k = matmul(x, layer.wk[h])
        v = matmul(x, layer.wv[h])
        if kv_prefix is not None:
            e0, e1 = kv_prefix[h]
            k = concat(e0, k, "rows")
            v = concat(e1, v, "rows")
        scores = matmul(q, transpose(k))
        p = expansion[h] if expansion is not None else None
        if p is not None and p.dwq.shape[1]:
            scores = add(scores, matmul(matmul(x, p.dwq), transpose(matmul(x, p.dwk))))
        a = softmax_rows(scale(scores, 1.0 / np.sqrt(d_k)))
        weights.append(a)
        head_outs.append(matmul(a, v))
        if p is not None and p.dwv.shape[1]:
            extras.append(matmul(matmul(a, matmul(x, p.dwv)), p.dwo))

    merged = head_outs[0]
    for h in range(1, n_heads):
        merged = concat(merged, head_outs[h], "cols")
    out = add(matmul(merged, layer.out_proj), layer.out_bias)
    for extra in extras:
        out = add(out, extra)
    if return_weights:
        return out, weights
    return out


def ffn_forward(layer: FFNLayer, x: Tensor) -> Tensor:
    """Position-wise feed-forward: relu(x @ w1 + b1) @ w2 + b2."""
    if x.shape[1] != layer.w1.shape[0]:
        raise ShapeError(f"ffn input width {x.shape} does not match w1 {layer.w1.shape}")
    hidden = relu(add(matmul(x, layer.w1), layer.b1))
    return add(matmul(hidden, layer.w2), layer.b2)


def ffn_fl_split(layer: FFNLayer, params, x: Tensor) -> Tensor:
    """Expanded FFN computed without any concatenation.

    The frozen layer and the added units (``params``: w1, b1, w2) are
    evaluated independently and summed, backbone contribution first, added
    units second. This is the production path for training; it never
    touches the frozen matrices.
    """
    params.added_units()
    backbone = ffn_forward(layer, x)
    hidden = relu(add(matmul(x, params.w1), params.b1))
    return add(backbone, matmul(hidden, params.w2))


def _validate_tokens(config: EncoderConfig, tokens: Sequence[int], prompt_len: int) -> list[int]:
    ids = [int(t) for t in tokens]
    if not ids:
        raise ShapeError("token sequence is empty")
    for t in ids:
        if t < 0 or t >= config.vocab_size:
            raise ShapeError(f"unknown token id {t} for vocab size {config.vocab_size}")
    if len(ids) + prompt_len > config.max_seq_len:
        raise ShapeError(
            f"sequence too long: {len(ids)} tokens + {prompt_len} prompt rows "
            f"> max_seq_len {config.max_seq_len}")
    return ids


def encoder_hidden(
    weights: EncoderWeights,
    tokens: Sequence[int],
    adapter: Optional[AdapterHooks] = None,
) -> tuple[Tensor, int]:
    """Hidden states after the final layer, plus the prompt row count.

    Every ``AdapterHooks`` hook is consulted: prompt rows are prepended to
    the embedding sequence, key/value prefixes and the attention expansion
    enter each attention sublayer, and added FFN units contribute to each
    FFN output through the split form. With no adapter (or a transparent
    one) this is the plain frozen backbone.
    """
    hooks = adapter if adapter is not None else AdapterHooks()
    config = weights.config
    prompt = hooks.prompt_rows()
    prompt_len = 0 if prompt is None else prompt.shape[0]
    ids = _validate_tokens(config, tokens, prompt_len)

    x = gather_rows(weights.tok_emb, ids)
    if prompt_len:
        x = concat(prompt, x, "rows")
    total = prompt_len + len(ids)
    x = add(x, gather_rows(weights.pos_emb, range(total)))

    for i, layer in enumerate(weights.layers):
        attn_out = attention_forward(layer.attn, x, kv_prefix=hooks.kv_prefix(i),
                                     expansion=hooks.attn_expansion(i))
        x = layer_norm(add(x, attn_out), layer.norm1.gain, layer.norm1.bias)
        units = hooks.ffn_units(i)
        ffn_out = ffn_forward(layer.ffn, x) if units is None else ffn_fl_split(layer.ffn, units, x)
        x = layer_norm(add(x, ffn_out), layer.norm2.gain, layer.norm2.bias)
    return x, prompt_len


def encoder_forward(
    weights: EncoderWeights,
    tokens: Sequence[int],
    adapter=None,
    per_position: bool = False,
) -> Tensor:
    """Run the full encoder and task head, with optional tuning adapter.

    Returns 1 x n_classes logits pooled at the first token position (prompt
    rows shift that position but never replace it), or seq x n_classes
    logits, one row per input token, when ``per_position``.
    """
    hidden, prompt_len = encoder_hidden(weights, tokens, adapter)
    if per_position:
        body = row_slice(hidden, prompt_len, hidden.shape[0]) if prompt_len else hidden
        return add(matmul(body, weights.head_w), weights.head_b)
    pooled = row_slice(hidden, prompt_len, prompt_len + 1)
    return add(matmul(pooled, weights.head_w), weights.head_b)


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
