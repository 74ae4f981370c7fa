"""Tuning methods as trainable deltas over a frozen backbone.

The adapter containers (FL, PV1/PV2 prompts, MA) are plain data that
implement the encoder's ``AdapterHooks`` protocol; the production forward
paths they feed (``ffn_fl_split`` and the expansion argument of
``attention_forward``) live in ``encoder`` and are re-exported here.

This module holds the materialized-concatenation oracles for both
expansions and the gate-form oracle for key/value prefixes. Their agreement
with the production paths, checked by the verify_* suites within
``VERIFY_TOLERANCE`` (1e-12), makes the split, position-invariance and
prefix-gate theorems executable. The parameter registry with frozen-content
hashing and the budget accounting live here too.

The oracles multiply with plain ``@``, never ``tensor._product``'s row split.
Adapters are safe to read concurrently; only the optimizer step mutates them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .encoder import (INIT_STD, AdapterHooks, AttentionLayer, EncoderConfig, EncoderWeights,
                      FFNLayer, attention_forward, ffn_fl_split)
from .tensor import ShapeError, Tensor

POSITIONS = ("prefix", "infix", "suffix")
VERIFY_TOLERANCE = 1e-12  # sup-norm bound every verify_* trial must meet


# ---------------------------------------------------------------------------
# Adapter containers
# ---------------------------------------------------------------------------

@dataclass
class FLLayerParams:
    """Trainable hidden-unit expansion for one FFN layer.

    There is no second bias: the expansion only contributes
    relu(x @ w1 + b1) @ w2, the frozen layer keeps its own b2.
    """

    w1: Tensor  # d_m x d_a
    b1: Tensor  # 1 x d_a
    w2: Tensor  # d_a x d_m


@dataclass
class FLAdapter(AdapterHooks):
    """Per-layer independent hidden-unit expansions of the FFN sublayers.

    It stores no placement: where the added units sit cannot change the output
    (``verify_theorem2``), so only the ``ffn_fl_concat`` oracle takes one."""

    layers: dict[int, FLLayerParams]

    def ffn_units(self, i: int) -> Optional[FLLayerParams]:
        return self.layers.get(i)

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        for i in sorted(self.layers):
            p = self.layers[i]
            yield f"adapter.layer{i:02d}.w1", p.w1
            yield f"adapter.layer{i:02d}.b1", p.b1
            yield f"adapter.layer{i:02d}.w2", p.w2


@dataclass
class PromptAdapter(AdapterHooks):
    """Trainable prompts: input-level rows (pv1) or per-layer key/value
    prefix rows (pv2), one (e0, e1) pair per layer, packed by head like the
    backbone's ``wk`` and ``wv``: head h owns column block h."""

    prompt: Optional[Tensor] = None                          # pv1: l x d_m
    prefixes: Optional[list[tuple[Tensor, Tensor]]] = None   # pv2: [layer] = (e0, e1)

    def prompt_rows(self) -> Optional[Tensor]:
        return self.prompt

    def kv_prefix(self, i: int) -> Optional[tuple[Tensor, Tensor]]:
        return None if self.prefixes is None else self.prefixes[i]

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        if self.prompt is not None:
            yield "adapter.prompt", self.prompt
        for i, (e0, e1) in enumerate(self.prefixes or ()):
            yield f"adapter.layer{i:02d}.e0", e0
            yield f"adapter.layer{i:02d}.e1", e1


@dataclass
class MALayerParams:
    """Inner-dimension expansion of every head of one attention layer.

    dwq/dwk widen the score inner dimension, dwv/dwo widen the value inner
    dimension; dwo maps the extra value columns back to model width. Head h
    owns column block h of dwq, dwk and dwv and row block h of dwo.
    """

    dwq: Tensor  # d_m x n_heads·d_a'
    dwk: Tensor  # d_m x n_heads·d_a'
    dwv: Tensor  # d_m x n_heads·d_a'
    dwo: Tensor  # n_heads·d_a' x d_m


@dataclass
class MAAdapter(AdapterHooks):
    """Attention-side expansion of every layer."""

    layers: list[MALayerParams]

    def attn_expansion(self, i: int) -> MALayerParams:
        return self.layers[i]

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        for i, p in enumerate(self.layers):
            yield f"adapter.layer{i:02d}.dwq", p.dwq
            yield f"adapter.layer{i:02d}.dwk", p.dwk
            yield f"adapter.layer{i:02d}.dwv", p.dwv
            yield f"adapter.layer{i:02d}.dwo", p.dwo


def _packed(per_head: Sequence[tuple[np.ndarray, ...]],
            axes: Sequence[int]) -> tuple[Tensor, ...]:
    """One trainable tensor per family from per-head blocks (one tuple per
    head, in head order): head h is block h along the family's axis."""
    return tuple(Tensor(np.concatenate(blocks, axis=axis), requires_grad=True)
                 for blocks, axis in zip(zip(*per_head), axes))


def init_fl_adapter(config: EncoderConfig, d_a: int = 160, seed: int = 0) -> FLAdapter:
    """Fresh expansion units for the FFN of every layer.

    w1 is Gaussian, b1 and w2 start at zero, so the adapter is transparent:
    the first forward pass reproduces the frozen backbone exactly.
    """
    rng = np.random.default_rng(seed)
    return FLAdapter(layers={
        i: FLLayerParams(
            w1=Tensor(rng.normal(0.0, INIT_STD, (config.d_m, d_a)), requires_grad=True),
            b1=Tensor(np.zeros((1, d_a)), requires_grad=True),
            w2=Tensor(np.zeros((d_a, config.d_m)), requires_grad=True),
        )
        for i in range(config.n_layers)
    })


def init_pv1_adapter(config: EncoderConfig, prompt_len: int = 160, seed: int = 0) -> PromptAdapter:
    """Input-level continuous prompt. Prompt rows consume sequence budget:
    inputs may be at most max_seq_len - prompt_len tokens."""
    rng = np.random.default_rng(seed)
    return PromptAdapter(
        prompt=Tensor(rng.normal(0.0, INIT_STD, (prompt_len, config.d_m)), requires_grad=True),
    )


def init_pv2_adapter(config: EncoderConfig, prompt_len: int = 160, seed: int = 0) -> PromptAdapter:
    """Per-layer trainable key/value prefix rows, drawn head by head."""
    rng = np.random.default_rng(seed)
    draw = lambda cols: rng.normal(0.0, INIT_STD, (prompt_len, cols))
    prefixes = [
        _packed([(draw(config.d_k), draw(config.d_v)) for _ in range(config.n_heads)], (1, 1))
        for _ in range(config.n_layers)
    ]
    return PromptAdapter(prefixes=prefixes)


def init_ma_adapter(config: EncoderConfig, d_a_prime: int = 160, seed: int = 0) -> MAAdapter:
    """Attention-side expansion units for every layer and head.

    dwq/dwv are Gaussian while dwk and dwo start at zero, so both the score
    and the output contributions vanish at initialization and the adapter is
    transparent, mirroring the FFN expansion's zero-start.
    """
    rng = np.random.default_rng(seed)
    shape = (config.d_m, d_a_prime)
    head = lambda: (rng.normal(0.0, INIT_STD, shape), np.zeros(shape),
                    rng.normal(0.0, INIT_STD, shape), np.zeros(shape[::-1]))
    layers = [
        MALayerParams(*_packed([head() for _ in range(config.n_heads)], (1, 1, 1, 0)))
        for _ in range(config.n_layers)
    ]
    return MAAdapter(layers=layers)


# ---------------------------------------------------------------------------
# FFN expansion: concatenation oracle (the split path is encoder.ffn_fl_split)
# ---------------------------------------------------------------------------

def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def ffn_fl_concat(
    layer: FFNLayer,
    params: FLLayerParams,
    x,
    position: str = "prefix",
    infix_index: Optional[int] = None,
) -> np.ndarray:
    """Expanded FFN computed by materializing the concatenated matrices.

    Verification oracle only (plain arrays, no tape). The added columns of
    the first weight matrix and the added rows of the second are inserted at
    hidden index s of the frozen layer: 0 for a prefix, d_o for a suffix,
    ``infix_index`` (default d_o // 2) for an infix. The single-pass reduction
    over the expanded hidden axis differs from the split path only by float
    summation order.
    """
    if position not in POSITIONS:
        raise ValueError(f"position must be one of {POSITIONS}, got {position!r}")
    X = _as_array(x)
    w1, b1, w2, b2 = (_as_array(t) for t in (layer.w1, layer.b1, layer.w2, layer.b2))
    aw1, ab1, aw2 = (_as_array(t) for t in (params.w1, params.b1, params.w2))
    d_o = w1.shape[1]
    s = (0 if position == "prefix" else d_o if position == "suffix"
         else d_o // 2 if infix_index is None else infix_index)
    if not (0 <= s <= d_o):  # only an infix index can fall outside
        raise ShapeError(f"infix index {s} out of range [0, {d_o}]")
    w1e = np.concatenate([w1[:, :s], aw1, w1[:, s:]], axis=1)
    b1e = np.concatenate([b1[:, :s], ab1, b1[:, s:]], axis=1)
    w2e = np.concatenate([w2[:s], aw2, w2[s:]], axis=0)
    return np.maximum(X @ w1e + b1e, 0.0) @ w2e + b2


# ---------------------------------------------------------------------------
# Attention expansion: split path and concatenation oracle
# ---------------------------------------------------------------------------

def ma_forward(layer: AttentionLayer, params: MALayerParams, x: Tensor) -> Tensor:
    """Attention with expanded score and value inner dimensions, the
    additive-split analog of the FFN expansion (see ``attention_forward``)."""
    return attention_forward(layer, x, expansion=params)


def ma_concat_reference(layer: AttentionLayer, params: MALayerParams, x) -> np.ndarray:
    """Materialized-concatenation oracle for the attention expansion.

    Slices each head's blocks out of the packed matrices, builds
    [q : q'], [k : k'], [v : v'] and the stacked output projection of that
    head explicitly, then sums head contributions. Plain arrays only.
    """
    X = _as_array(x)
    n_heads = layer.n_heads
    d_k = layer.wq.shape[1] // n_heads
    out = _as_array(layer.out_bias).copy()
    heads = lambda t, axis=1: np.split(_as_array(t), n_heads, axis=axis)
    for wq, wk, wv, wo, dwq, dwk, dwv, dwo in zip(
            heads(layer.wq), heads(layer.wk), heads(layer.wv), heads(layer.out_proj, 0),
            heads(params.dwq), heads(params.dwk), heads(params.dwv), heads(params.dwo, 0)):
        qx = np.concatenate([X @ wq, X @ dwq], axis=1)
        kx = np.concatenate([X @ wk, X @ dwk], axis=1)
        scores = (qx @ kx.T) / np.sqrt(d_k)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        a = e / e.sum(axis=1, keepdims=True)
        vx = np.concatenate([X @ wv, X @ dwv], axis=1)
        w_out = np.concatenate([wo, dwo], axis=0)
        out = out + (a @ vx) @ w_out
    return out


def prefix_gate_reference(layer: AttentionLayer, prefix, x) -> np.ndarray:
    """Gate-form oracle for ``attention_forward`` with ``kv_prefix=prefix``: per head,
    (1 − λ)·softmax(qKᵀ/√d_k)V + λ·softmax(qP_kᵀ/√d_k)P_v, λ the prefix's share of the
    joint softmax mass (He et al., arXiv 2110.04366, §3)."""
    X = _as_array(x)
    n_heads = layer.n_heads
    scale = 1.0 / np.sqrt(layer.wq.shape[1] // n_heads)
    out = _as_array(layer.out_bias).copy()
    heads = lambda t, axis=1: np.split(_as_array(t), n_heads, axis=axis)
    for wq, wk, wv, wo, pk, pv in zip(heads(layer.wq), heads(layer.wk), heads(layer.wv),
                                      heads(layer.out_proj, 0), *map(heads, prefix)):
        s, s_p = (X @ wq @ (X @ wk).T) * scale, (X @ wq @ pk.T) * scale
        m = np.maximum(s.max(axis=1, keepdims=True),
                       s_p.max(axis=1, keepdims=True, initial=-np.inf))
        e, e_p = np.exp(s - m), np.exp(s_p - m)
        z, z_p = e.sum(axis=1, keepdims=True), e_p.sum(axis=1, keepdims=True)
        lam = z_p / (z + z_p)  # 0 without prefix rows, where e_p / z_p has no columns
        out = out + ((1.0 - lam) * (e / z) @ (X @ wv) + lam * (e_p / z_p) @ pv) @ wo
    return out


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    name: str
    trials: int
    max_deviation: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: max deviation {self.max_deviation:.3e} over "
                f"{self.trials} trials (tolerance {VERIFY_TOLERANCE:g}): {status}")


def _run_trials(name: str, trials: int, seed: int, trial: Callable) -> VerifyReport:
    """The trial loop shared by the verify_* suites.

    ``trial(rng, t)`` runs trial ``t`` and returns its deviation and the
    label naming it in a failure message. A deviation above
    ``VERIFY_TOLERANCE``, NaN included, is a failure.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    report = VerifyReport(name, trials, 0.0)
    for t in range(trials):
        dev, label = trial(rng, t)
        # NaN-sticky, unlike max()
        report.max_deviation = float(np.maximum(report.max_deviation, dev))
        if not dev <= VERIFY_TOLERANCE:
            report.failures.append(f"trial {t}: {label} {dev:.3e} > {VERIFY_TOLERANCE:g}")
    return report


def _random_ffn_instance(rng: np.random.Generator):
    d_m = int(rng.integers(4, 33))
    d_o = int(rng.integers(8, 65))
    d_a = int(rng.integers(1, 33))
    seq = int(rng.integers(1, 9))
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    layer = FFNLayer(w1=Tensor(u(d_m, d_o)), b1=Tensor(u(1, d_o)),
                     w2=Tensor(u(d_o, d_m)), b2=Tensor(u(1, d_m)))
    params = FLLayerParams(w1=Tensor(u(d_m, d_a)), b1=Tensor(u(1, d_a)),
                           w2=Tensor(u(d_a, d_m)))
    return layer, params, Tensor(u(seq, d_m))


def _random_attention(rng: np.random.Generator, d_m: int, d_k: int, d_v: int,
                      n_heads: int) -> AttentionLayer:
    u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
    # one d_m x d draw per head, in head order, packed side by side
    heads = lambda d: Tensor(u(n_heads, d_m, d).transpose(1, 0, 2).reshape(d_m, -1))
    return AttentionLayer(
        n_heads=n_heads,
        wq=heads(d_k),
        wk=heads(d_k),
        wv=heads(d_v),
        out_proj=Tensor(u(n_heads * d_v, d_m)),
        out_bias=Tensor(u(1, d_m)),
    )


def verify_theorem1(trials: int = 200, seed: int = 0,
                    draw: Optional[Callable] = None) -> VerifyReport:
    """Split-form vs concatenated-form equivalence of the expanded FFN.

    Each trial draws a random frozen layer, expansion, input, and placement,
    and compares the two computation paths in the sup norm.
    """
    draw = draw or _random_ffn_instance

    def trial(rng, t):
        layer, params, x = draw(rng)
        position = POSITIONS[int(rng.integers(0, 3))]
        infix = int(rng.integers(0, layer.w1.shape[1] + 1))
        split = ffn_fl_split(layer, params, x).data
        conc = ffn_fl_concat(layer, params, x, position=position, infix_index=infix)
        dev = float(np.max(np.abs(split - conc))) if split.size else 0.0
        return dev, f"position={position} deviation"

    return _run_trials("ffn split equivalence", trials, seed, trial)


def verify_theorem2(trials: int = 200, seed: int = 0) -> VerifyReport:
    """Placement invariance of the expanded FFN.

    Prefix, suffix, and infix concatenated forms must agree pairwise; the
    infix index sweeps the boundary values 0 and d_o as well as random
    interior splits.
    """

    def trial(rng, t):
        layer, params, x = _random_ffn_instance(rng)
        d_o = layer.w1.shape[1]
        # always exercise both boundaries, then a random interior index
        infix = (0, d_o)[t % 3] if t % 3 < 2 else int(rng.integers(0, d_o + 1))
        outs = [ffn_fl_concat(layer, params, x, position="prefix"),
                ffn_fl_concat(layer, params, x, position="infix", infix_index=infix),
                ffn_fl_concat(layer, params, x, position="suffix")]
        dev = max(float(np.max(np.abs(a - b))) if a.size else 0.0
                  for i, a in enumerate(outs) for b in outs[i + 1:])
        return dev, f"infix={infix} pairwise deviation"

    return _run_trials("ffn placement invariance", trials, seed, trial)


def verify_ma_equivalence(trials: int = 100, seed: int = 0) -> VerifyReport:
    """Additive-split attention expansion vs its materialized-concat oracle."""

    def trial(rng, t):
        d_m = int(rng.integers(4, 17))
        d_k = int(rng.integers(2, 9))
        d_v = int(rng.integers(2, 9))
        d_a = int(rng.integers(1, 9))
        n_heads = int(rng.integers(1, 3))
        seq = int(rng.integers(1, 8))
        layer = _random_attention(rng, d_m, d_k, d_v, n_heads)
        u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
        params = MALayerParams(*_packed(
            [(u(d_m, d_a), u(d_m, d_a), u(d_m, d_a), u(d_a, d_m)) for _ in range(n_heads)],
            (1, 1, 1, 0)))
        x = Tensor(u(seq, d_m))
        split = ma_forward(layer, params, x).data
        conc = ma_concat_reference(layer, params, x)
        return float(np.max(np.abs(split - conc))), "deviation"

    return _run_trials("attention expansion equivalence", trials, seed, trial)


def verify_prefix_gate(trials: int = 50, seed: int = 0) -> VerifyReport:
    """Attention with key/value prefixes vs its gate-form oracle
    (``prefix_gate_reference``); prefix length 0 is among the cases."""

    def trial(rng, t):
        d_m = int(rng.integers(4, 17))
        d_k = int(rng.integers(2, 9))
        d_v = int(rng.integers(2, 9))
        n_heads = int(rng.integers(1, 3))
        seq = int(rng.integers(1, 8))
        l = int(rng.integers(0, 9)) if t else 4
        layer = _random_attention(rng, d_m, d_k, d_v, n_heads)
        u = lambda *shape: rng.uniform(-1.0, 1.0, shape)
        prefix = _packed([(u(l, d_k), u(l, d_v)) for _ in range(n_heads)], (1, 1))
        x = Tensor(u(seq, d_m))
        out = attention_forward(layer, x, kv_prefix=prefix).data
        return float(np.max(np.abs(out - prefix_gate_reference(layer, prefix, x)))), "deviation"

    return _run_trials("prefix gate identity", trials, seed, trial)


# ---------------------------------------------------------------------------
# Parameter registry and budget accounting
# ---------------------------------------------------------------------------

def tensor_content_hash(t: Tensor) -> str:
    """Byte-exact identity of a tensor's contents (shape included)."""
    h = hashlib.sha256()
    h.update(repr(t.data.shape).encode())
    h.update(np.ascontiguousarray(t.data))  # hashes in place unless data is a strided view
    return h.hexdigest()


@dataclass
class RegistryEntry:
    name: str
    tensor: Tensor
    frozen: bool
    group: str
    content_hash: Optional[str]  # frozen entries only; None for a trainable one


@dataclass
class ParamCounts:
    total: int
    trainable: int

    @property
    def fraction(self) -> float:
        return self.trainable / self.total if self.total else 0.0


class ParamRegistry:
    """Every parameter tensor exactly once, with a frozen flag and, for a
    frozen tensor, the content hash taken at registration time for
    immutability checks."""

    def __init__(self):
        self.entries: list[RegistryEntry] = []
        self._names: set[str] = set()
        self._seen_ids: set[int] = set()

    def register(self, name: str, tensor: Tensor, frozen: bool, group: str) -> None:
        if name in self._names:
            raise ValueError(f"duplicate registry name: {name}")
        if id(tensor) in self._seen_ids:
            raise ValueError(f"tensor registered twice (second name: {name})")
        tensor.requires_grad = not frozen
        entry = RegistryEntry(name, tensor, frozen, group,
                              tensor_content_hash(tensor) if frozen else None)
        self.entries.append(entry)
        self._names.add(name)
        self._seen_ids.add(id(tensor))

    def trainable_entries(self) -> list[RegistryEntry]:
        return [e for e in self.entries if not e.frozen]

    def frozen_entries(self) -> list[RegistryEntry]:
        return [e for e in self.entries if e.frozen]

    def frozen_violations(self) -> list[str]:
        """Frozen tensors whose bytes changed since registration."""
        return [e.name for e in self.frozen_entries()
                if tensor_content_hash(e.tensor) != e.content_hash]


def build_registry(weights: EncoderWeights, adapter=None) -> ParamRegistry:
    """Registry for one tuning mode.

    Without an adapter this is full fine-tuning: every backbone tensor
    trains. With one, the backbone is frozen and the adapter plus the task
    head train.
    """
    reg = ParamRegistry()
    for name, tensor, group in weights.named_tensors():
        frozen = adapter is not None and group != "head"
        reg.register(name, tensor, frozen=frozen, group=group)
    if adapter is not None:
        for name, tensor in adapter.named_tensors():
            reg.register(name, tensor, frozen=False, group="adapter")
    return reg


def count_parameters(registry: ParamRegistry,
                     groups: Optional[Sequence[str]] = None) -> ParamCounts:
    """Exact element counts over the registry, optionally restricted to groups."""
    picked = [e for e in registry.entries if groups is None or e.group in groups]
    return ParamCounts(total=sum(e.tensor.size for e in picked),
                       trainable=sum(e.tensor.size for e in picked if not e.frozen))
