"""Tuning methods as trainable deltas over a frozen backbone.

The adapter containers (FL, PV1/PV2 prompts, MA) are plain data that
implement the encoder's ``AdapterHooks`` protocol; the production forward
paths they feed (``ffn_fl_split`` and the expansion argument of
``attention_forward``) live in ``encoder`` and are re-exported here.

This module holds the materialized-concatenation oracles for both
expansions. Their agreement with the split paths is the executable form of
the split and position-invariance equivalence theorems, checked by the
verify_* suites at near-machine-epsilon tolerance. The parameter registry
with frozen-content hashing and the budget accounting live here too.

Adapters are safe to read concurrently; only the single-threaded optimizer
step mutates them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .encoder import (AdapterHooks, AttentionLayer, EncoderConfig, EncoderWeights, FFNLayer,
                      attention_forward, ffn_fl_split)
from .tensor import ShapeError, Tensor

POSITIONS = ("prefix", "infix", "suffix")


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

    def added_units(self) -> int:
        d_a = self.w1.shape[1]
        if self.b1.shape[1] != d_a or self.w2.shape[0] != d_a:
            raise ShapeError(
                f"added-unit count inconsistent across adapter tensors: "
                f"w1 {self.w1.shape}, b1 {self.b1.shape}, w2 {self.w2.shape}")
        return d_a


@dataclass
class FLAdapter(AdapterHooks):
    """Per-layer independent hidden-unit expansions of the FFN sublayers."""

    d_a: int
    position: str
    infix_index: Optional[int]
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
    """Trainable prompts: input-level rows (pv1) or per-layer, per-head
    key/value prefix rows (pv2)."""

    mode: str  # "pv1" | "pv2"
    prompt_len: int
    prompt: Optional[Tensor] = None                                # pv1: l x d_m
    prefixes: Optional[list[list[tuple[Tensor, Tensor]]]] = None   # pv2: [layer][head] = (e0, e1)

    def prompt_rows(self) -> Optional[Tensor]:
        return self.prompt if self.mode == "pv1" else None

    def kv_prefix(self, i: int) -> Optional[list[tuple[Tensor, Tensor]]]:
        return self.prefixes[i] if self.mode == "pv2" else None

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        if self.mode == "pv1":
            yield "adapter.prompt", self.prompt
        else:
            for i, heads in enumerate(self.prefixes):
                for h, (e0, e1) in enumerate(heads):
                    yield f"adapter.layer{i:02d}.head{h}.e0", e0
                    yield f"adapter.layer{i:02d}.head{h}.e1", e1


@dataclass
class MAHeadParams:
    """Inner-dimension expansion of one attention head.

    dwq/dwk widen the score inner dimension, dwv/dwo widen the value inner
    dimension; dwo maps the extra value columns back to model width.
    """

    dwq: Tensor  # d_m x d_a'
    dwk: Tensor  # d_m x d_a'
    dwv: Tensor  # d_m x d_a'
    dwo: Tensor  # d_a' x d_m


@dataclass
class MAAdapter(AdapterHooks):
    d_a_prime: int
    layers: list[list[MAHeadParams]]  # [layer][head]

    def attn_expansion(self, i: int) -> list[MAHeadParams]:
        return self.layers[i]

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        for i, heads in enumerate(self.layers):
            for h, p in enumerate(heads):
                yield f"adapter.layer{i:02d}.head{h}.dwq", p.dwq
                yield f"adapter.layer{i:02d}.head{h}.dwk", p.dwk
                yield f"adapter.layer{i:02d}.head{h}.dwv", p.dwv
                yield f"adapter.layer{i:02d}.head{h}.dwo", p.dwo


def init_fl_adapter(
    config: EncoderConfig,
    d_a: int = 160,
    position: str = "prefix",
    infix_index: Optional[int] = None,
    layer_subset: Optional[Sequence[int]] = None,
    seed: int = 0,
    std: float = 0.02,
) -> FLAdapter:
    """Fresh expansion units for each selected layer.

    w1 is Gaussian, b1 and w2 start at zero, so the adapter is transparent:
    the first forward pass reproduces the frozen backbone exactly.
    """
    if position not in POSITIONS:
        raise ValueError(f"position must be one of {POSITIONS}, got {position!r}")
    if d_a < 0:
        raise ValueError(f"d_a must be nonnegative, got {d_a}")
    if position == "infix":
        infix_index = config.d_o // 2 if infix_index is None else infix_index
        if not (0 <= infix_index <= config.d_o):
            raise ShapeError(f"infix index {infix_index} out of range [0, {config.d_o}]")
    rng = np.random.default_rng(seed)
    subset = range(config.n_layers) if layer_subset is None else sorted(set(layer_subset))
    layers = {}
    for i in subset:
        if not (0 <= i < config.n_layers):
            raise ValueError(f"layer index {i} out of range for {config.n_layers} layers")
        layers[i] = FLLayerParams(
            w1=Tensor(rng.normal(0.0, std, (config.d_m, d_a)), requires_grad=True),
            b1=Tensor(np.zeros((1, d_a)), requires_grad=True),
            w2=Tensor(np.zeros((d_a, config.d_m)), requires_grad=True),
        )
    return FLAdapter(d_a=d_a, position=position, infix_index=infix_index, layers=layers)


def init_pv1_adapter(config: EncoderConfig, prompt_len: int = 160, seed: int = 0,
                     std: float = 0.02) -> PromptAdapter:
    """Input-level continuous prompt. Prompt rows consume sequence budget:
    inputs may be at most max_seq_len - prompt_len tokens."""
    if not (1 <= prompt_len <= config.max_seq_len - 1):
        raise ValueError(
            f"prompt_len must be in [1, {config.max_seq_len - 1}], got {prompt_len}")
    rng = np.random.default_rng(seed)
    return PromptAdapter(
        mode="pv1",
        prompt_len=prompt_len,
        prompt=Tensor(rng.normal(0.0, std, (prompt_len, config.d_m)), requires_grad=True),
    )


def init_pv2_adapter(config: EncoderConfig, prompt_len: int = 160, seed: int = 0,
                     std: float = 0.02) -> PromptAdapter:
    """Per-layer, per-head trainable key/value prefix rows."""
    if prompt_len < 1:
        raise ValueError(f"prompt_len must be positive, got {prompt_len}")
    rng = np.random.default_rng(seed)
    prefixes = [
        [(Tensor(rng.normal(0.0, std, (prompt_len, config.d_k)), requires_grad=True),
          Tensor(rng.normal(0.0, std, (prompt_len, config.d_v)), requires_grad=True))
         for _ in range(config.n_heads)]
        for _ in range(config.n_layers)
    ]
    return PromptAdapter(mode="pv2", prompt_len=prompt_len, prefixes=prefixes)


def init_ma_adapter(config: EncoderConfig, d_a_prime: int = 160, seed: int = 0,
                    std: float = 0.02) -> MAAdapter:
    """Attention-side expansion units for every layer and head.

    dwq/dwv are Gaussian while dwk and dwo start at zero, so both the score
    and the output contributions vanish at initialization and the adapter is
    transparent, mirroring the FFN expansion's zero-start.
    """
    if d_a_prime < 0:
        raise ValueError(f"d_a_prime must be nonnegative, got {d_a_prime}")
    rng = np.random.default_rng(seed)
    layers = [
        [MAHeadParams(
            dwq=Tensor(rng.normal(0.0, std, (config.d_m, d_a_prime)), requires_grad=True),
            dwk=Tensor(np.zeros((config.d_m, d_a_prime)), requires_grad=True),
            dwv=Tensor(rng.normal(0.0, std, (config.d_m, d_a_prime)), requires_grad=True),
            dwo=Tensor(np.zeros((d_a_prime, config.d_m)), requires_grad=True),
        ) for _ in range(config.n_heads)]
        for _ in range(config.n_layers)
    ]
    return MAAdapter(d_a_prime=d_a_prime, layers=layers)


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
    blockwise_sum: bool = False,
) -> np.ndarray:
    """Expanded FFN computed by materializing the concatenated matrices.

    Verification oracle only (plain arrays, no tape). The added columns of
    the first weight matrix and the added rows of the second sit at the
    requested position inside the expanded hidden layer.

    With ``blockwise_sum`` the reduction over the expanded hidden axis is
    evaluated per block, backbone block(s) first and added units last; that
    is exactly the summation order of the split path, so for a prefix (or
    suffix) placement the result is bit-for-bit equal to it. The default
    single-pass reduction differs from the split path only by float
    summation order.
    """
    params.added_units()
    if position not in POSITIONS:
        raise ValueError(f"position must be one of {POSITIONS}, got {position!r}")
    X = _as_array(x)
    w1, b1, w2, b2 = (_as_array(t) for t in (layer.w1, layer.b1, layer.w2, layer.b2))
    aw1, ab1, aw2 = (_as_array(t) for t in (params.w1, params.b1, params.w2))
    d_o = w1.shape[1]

    if position == "prefix":
        pieces = [("added", aw1, ab1, aw2), ("frozen", w1, b1, w2)]
    elif position == "suffix":
        pieces = [("frozen", w1, b1, w2), ("added", aw1, ab1, aw2)]
    else:
        s = d_o // 2 if infix_index is None else infix_index
        if not (0 <= s <= d_o):
            raise ShapeError(f"infix index {s} out of range [0, {d_o}]")
        pieces = [("frozen", w1[:, :s], b1[:, :s], w2[:s]),
                  ("added", aw1, ab1, aw2),
                  ("frozen", w1[:, s:], b1[:, s:], w2[s:])]

    if not blockwise_sum:
        w1e = np.concatenate([p[1] for p in pieces], axis=1)
        b1e = np.concatenate([p[2] for p in pieces], axis=1)
        w2e = np.concatenate([p[3] for p in pieces], axis=0)
        hidden = np.maximum(X @ w1e + b1e, 0.0)
        return hidden @ w2e + b2

    # Identical-summation-order evaluation: per-block hidden products, then
    # frozen block(s) + b2 first and the added block last. Every placement
    # has at least one frozen block.
    hidden_blocks = [(kind, np.maximum(X @ w1b + b1b, 0.0))
                     for kind, w1b, b1b, _ in pieces]
    out = None
    for (kind, hb), (_, _, _, w2b) in zip(hidden_blocks, pieces):
        if kind == "frozen":
            out = hb @ w2b if out is None else out + hb @ w2b
    out = out + b2
    for (kind, hb), (_, _, _, w2b) in zip(hidden_blocks, pieces):
        if kind == "added":
            out = out + hb @ w2b
    return out


# ---------------------------------------------------------------------------
# Attention expansion: split path and concatenation oracle
# ---------------------------------------------------------------------------

def ma_forward(layer: AttentionLayer, params: Sequence[MAHeadParams], x: Tensor) -> Tensor:
    """Attention with expanded score and value inner dimensions, the
    additive-split analog of the FFN expansion (see ``attention_forward``)."""
    return attention_forward(layer, x, expansion=params)


def ma_concat_reference(layer: AttentionLayer, params: Sequence[MAHeadParams], x) -> np.ndarray:
    """Materialized-concatenation oracle for the attention expansion.

    Builds [q : q'], [k : k'], [v : v'] and the per-head stacked output
    projection explicitly, then sums head contributions. Plain arrays only.
    """
    X = _as_array(x)
    n_heads = len(layer.wq)
    d_k = layer.wq[0].shape[1]
    d_v = layer.wv[0].shape[1]
    out_proj = _as_array(layer.out_proj)
    out = _as_array(layer.out_bias).copy()
    for h in range(n_heads):
        p = params[h]
        qx = np.concatenate([X @ _as_array(layer.wq[h]), X @ _as_array(p.dwq)], axis=1)
        kx = np.concatenate([X @ _as_array(layer.wk[h]), X @ _as_array(p.dwk)], axis=1)
        scores = (qx @ kx.T) / np.sqrt(d_k)
        scores -= scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        a = e / e.sum(axis=1, keepdims=True)
        vx = np.concatenate([X @ _as_array(layer.wv[h]), X @ _as_array(p.dwv)], axis=1)
        w_out = np.concatenate([out_proj[h * d_v:(h + 1) * d_v], _as_array(p.dwo)], axis=0)
        out = out + (a @ vx) @ w_out
    return out


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    name: str
    trials: int
    tolerance: float
    max_deviation: float
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.max_deviation <= self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: max deviation {self.max_deviation:.3e} over "
                f"{self.trials} trials (tolerance {self.tolerance:g}): {status}")


def _run_trials(name: str, trials: int, tolerance: float, seed: int,
                trial: Callable) -> VerifyReport:
    """The trial loop shared by the verify_* suites.

    ``trial(rng, t, fail)`` runs trial ``t`` and returns its deviation and
    the label naming it in a failure message; it may report failures of its
    own through ``fail(message)``.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    report = VerifyReport(name, trials, tolerance, 0.0)
    for t in range(trials):
        dev, label = trial(rng, t, lambda msg: report.failures.append(f"trial {t}: {msg}"))
        report.max_deviation = max(report.max_deviation, dev)
        if dev > tolerance:
            report.failures.append(f"trial {t}: {label} {dev:.3e} > {tolerance:g}")
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
    u = lambda *shape: Tensor(rng.uniform(-1.0, 1.0, shape))
    return AttentionLayer(
        wq=[u(d_m, d_k) for _ in range(n_heads)],
        wk=[u(d_m, d_k) for _ in range(n_heads)],
        wv=[u(d_m, d_v) for _ in range(n_heads)],
        out_proj=u(n_heads * d_v, d_m),
        out_bias=u(1, d_m),
    )


def verify_theorem1(trials: int = 200, tolerance: float = 1e-12, seed: int = 0,
                    draw: Optional[Callable] = None) -> VerifyReport:
    """Split-form vs concatenated-form equivalence of the expanded FFN.

    Each trial draws a random frozen layer, expansion, input, and placement,
    and compares the two computation paths in the sup norm.
    """
    draw = draw or _random_ffn_instance

    def trial(rng, t, fail):
        layer, params, x = draw(rng)
        position = POSITIONS[int(rng.integers(0, 3))]
        infix = int(rng.integers(0, layer.w1.shape[1] + 1))
        split = ffn_fl_split(layer, params, x).data
        conc = ffn_fl_concat(layer, params, x, position=position, infix_index=infix)
        dev = float(np.max(np.abs(split - conc))) if split.size else 0.0
        return dev, f"position={position} deviation"

    return _run_trials("ffn split equivalence", trials, tolerance, seed, trial)


def verify_theorem2(trials: int = 200, tolerance: float = 1e-12, seed: int = 0,
                    draw: Optional[Callable] = None) -> VerifyReport:
    """Placement invariance of the expanded FFN.

    Prefix, suffix, and infix concatenated forms must agree pairwise; the
    infix index sweeps the boundary values 0 and d_o as well as random
    interior splits.
    """
    draw = draw or _random_ffn_instance

    def trial(rng, t, fail):
        layer, params, x = draw(rng)
        d_o = layer.w1.shape[1]
        # always exercise both boundaries, then a random interior index
        if t % 3 == 0:
            infix = 0
        elif t % 3 == 1:
            infix = d_o
        else:
            infix = int(rng.integers(0, d_o + 1))
        outs = [ffn_fl_concat(layer, params, x, position="prefix"),
                ffn_fl_concat(layer, params, x, position="infix", infix_index=infix),
                ffn_fl_concat(layer, params, x, position="suffix")]
        dev = max(float(np.max(np.abs(a - b))) if a.size else 0.0
                  for i, a in enumerate(outs) for b in outs[i + 1:])
        return dev, f"infix={infix} pairwise deviation"

    return _run_trials("ffn placement invariance", trials, tolerance, seed, trial)


def verify_ma_equivalence(trials: int = 100, tolerance: float = 1e-12,
                          seed: int = 0) -> VerifyReport:
    """Additive-split attention expansion vs its materialized-concat oracle."""

    def trial(rng, t, fail):
        d_m = int(rng.integers(4, 17))
        d_k = int(rng.integers(2, 9))
        d_v = int(rng.integers(2, 9))
        d_a = int(rng.integers(1, 9))
        n_heads = int(rng.integers(1, 3))
        seq = int(rng.integers(1, 8))
        layer = _random_attention(rng, d_m, d_k, d_v, n_heads)
        u = lambda *shape: Tensor(rng.uniform(-1.0, 1.0, shape))
        params = [MAHeadParams(dwq=u(d_m, d_a), dwk=u(d_m, d_a), dwv=u(d_m, d_a), dwo=u(d_a, d_m))
                  for _ in range(n_heads)]
        x = u(seq, d_m)
        split = ma_forward(layer, params, x).data
        conc = ma_concat_reference(layer, params, x)
        return float(np.max(np.abs(split - conc))), "deviation"

    return _run_trials("attention expansion equivalence", trials, tolerance, seed, trial)


def verify_prefix_attention_rows(trials: int = 50, tolerance: float = 1e-12,
                                 seed: int = 0) -> VerifyReport:
    """Attention rows with key/value prefixes are probability distributions
    over seq + prefix_len keys: each row must sum to 1."""

    def trial(rng, t, fail):
        d_m = int(rng.integers(4, 17))
        d_k = int(rng.integers(2, 9))
        d_v = int(rng.integers(2, 9))
        n_heads = int(rng.integers(1, 3))
        seq = int(rng.integers(1, 8))
        l = int(rng.integers(0, 9)) if t else 4
        layer = _random_attention(rng, d_m, d_k, d_v, n_heads)
        u = lambda *shape: Tensor(rng.uniform(-1.0, 1.0, shape))
        prefix = [(u(l, d_k), u(l, d_v)) for _ in range(n_heads)]
        _, weights = attention_forward(layer, u(seq, d_m), kv_prefix=prefix, return_weights=True)
        dev = 0.0
        for a in weights:
            if a.shape != (seq, seq + l):
                fail(f"weight shape {a.shape} != {(seq, seq + l)}")
            dev = max(dev, float(np.max(np.abs(a.data.sum(axis=1) - 1.0))))
        return dev, "row sum deviation"

    return _run_trials("prefix attention normalization", trials, tolerance, seed, trial)


# ---------------------------------------------------------------------------
# Parameter registry and budget accounting
# ---------------------------------------------------------------------------

def tensor_content_hash(t: Tensor) -> str:
    """Byte-exact identity of a tensor's contents (shape included)."""
    h = hashlib.sha256()
    h.update(repr(t.data.shape).encode())
    h.update(t.data.tobytes())
    return h.hexdigest()


@dataclass
class RegistryEntry:
    name: str
    tensor: Tensor
    frozen: bool
    group: str
    content_hash: str


@dataclass
class ParamCounts:
    total: int
    trainable: int

    @property
    def fraction(self) -> float:
        return self.trainable / self.total if self.total else 0.0

    def as_tuple(self) -> tuple[int, int, float]:
        return self.total, self.trainable, self.fraction


class ParamRegistry:
    """Every parameter tensor exactly once, with a frozen flag and the
    content hash taken at registration time for immutability checks."""

    def __init__(self):
        self.entries: list[RegistryEntry] = []
        self._by_name: dict[str, RegistryEntry] = {}
        self._seen_ids: set[int] = set()

    def register(self, name: str, tensor: Tensor, frozen: bool, group: str) -> None:
        if name in self._by_name:
            raise ValueError(f"duplicate registry name: {name}")
        if id(tensor) in self._seen_ids:
            raise ValueError(f"tensor registered twice (second name: {name})")
        tensor.requires_grad = not frozen
        entry = RegistryEntry(name, tensor, frozen, group, tensor_content_hash(tensor))
        self.entries.append(entry)
        self._by_name[name] = entry
        self._seen_ids.add(id(tensor))

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, name: str) -> RegistryEntry:
        return self._by_name[name]

    def trainable_entries(self) -> list[RegistryEntry]:
        return [e for e in self.entries if not e.frozen]

    def frozen_entries(self) -> list[RegistryEntry]:
        return [e for e in self.entries if e.frozen]

    def changed_names(self) -> list[str]:
        """Names whose current content hash differs from registration."""
        return [e.name for e in self.entries
                if tensor_content_hash(e.tensor) != e.content_hash]

    def frozen_violations(self) -> list[str]:
        """Frozen tensors whose bytes changed since registration."""
        changed = set(self.changed_names())
        return [e.name for e in self.frozen_entries() if e.name in changed]


def build_registry(weights: EncoderWeights, adapter=None, finetune: bool = False) -> ParamRegistry:
    """Registry for one tuning mode.

    Full fine-tuning trains every backbone tensor and takes no adapter;
    every other mode freezes the backbone and trains the adapter (if any)
    plus the task head.
    """
    if finetune and adapter is not None:
        raise ValueError("full fine-tuning takes no adapter")
    reg = ParamRegistry()
    for name, tensor, group in weights.named_tensors():
        frozen = not finetune and group != "head"
        reg.register(name, tensor, frozen=frozen, group=group)
    if adapter is not None:
        for name, tensor in adapter.named_tensors():
            reg.register(name, tensor, frozen=False, group="adapter")
    return reg


def count_parameters(registry: ParamRegistry,
                     groups: Optional[Sequence[str]] = None) -> ParamCounts:
    """Exact element counts over the registry, optionally restricted to groups."""
    total = trainable = 0
    for e in registry.entries:
        if groups is not None and e.group not in groups:
            continue
        n = e.tensor.size
        total += n
        if not e.frozen:
            trainable += n
    return ParamCounts(total=total, trainable=trainable)
