"""One packed multi-head layout: every per-head parameter family is one
matrix with head h in block h. Seeded init draws the per-head values in the
order they were always drawn, malformed packed operands are op-contract
ShapeErrors, and checkpoints written with one tensor per head are refused."""

import json
import re

import numpy as np
import pytest

from fltune.adapters import (
    MALayerParams,
    build_registry,
    init_ma_adapter,
    init_pv2_adapter,
)
from fltune.checkpoint import CheckpointError, load_trainable, save_tensors
from fltune.cli import EXIT_USAGE, build_experiment, load_experiment_config, main
from fltune.encoder import (
    INIT_STD,
    AttentionLayer,
    EncoderConfig,
    attention_forward,
    init_encoder,
)
from fltune.tensor import ShapeError, Tensor
from fltune.training import TrainConfig, make_adapter


def config_with(n_heads):
    return EncoderConfig(d_m=12, n_heads=n_heads, n_layers=2, vocab_size=16,
                         max_seq_len=8, n_classes=3)


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# seeded init draws the per-head sequence, then packs it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_heads", [1, 2, 3])
def test_backbone_init_packs_the_per_head_draws(n_heads):
    c = config_with(n_heads)
    weights = init_encoder(c, seed=5)
    rng = np.random.default_rng(5)
    draw = lambda *shape: rng.normal(0.0, INIT_STD, shape)
    for layer in weights.layers:
        assert layer.attn.n_heads == n_heads
        for packed, d in ((layer.attn.wq, c.d_k), (layer.attn.wk, c.d_k), (layer.attn.wv, c.d_v)):
            assert_bitwise(packed.data, np.hstack([draw(c.d_m, d) for _ in range(n_heads)]))
        assert_bitwise(layer.attn.out_proj.data, draw(n_heads * c.d_v, c.d_m))
        assert_bitwise(layer.ffn.w1.data, draw(c.d_m, c.d_o))
        assert_bitwise(layer.ffn.w2.data, draw(c.d_o, c.d_m))
    assert_bitwise(weights.tok_emb.data, draw(c.vocab_size, c.d_m))
    assert_bitwise(weights.pos_emb.data, draw(c.max_seq_len, c.d_m))
    assert_bitwise(weights.head_w.data, draw(c.d_m, c.n_classes))


@pytest.mark.parametrize("n_heads", [1, 2, 3])
def test_pv2_init_packs_the_per_head_draws(n_heads):
    c = config_with(n_heads)
    adapter = init_pv2_adapter(c, prompt_len=3, seed=6)
    rng = np.random.default_rng(6)
    for e0, e1 in adapter.prefixes:
        heads = [(rng.normal(0.0, INIT_STD, (3, c.d_k)), rng.normal(0.0, INIT_STD, (3, c.d_v)))
                 for _ in range(n_heads)]
        assert_bitwise(e0.data, np.hstack([h[0] for h in heads]))
        assert_bitwise(e1.data, np.hstack([h[1] for h in heads]))
        assert e0.requires_grad and e1.requires_grad


@pytest.mark.parametrize("n_heads", [1, 2, 3])
def test_ma_init_packs_the_per_head_draws(n_heads):
    c = config_with(n_heads)
    adapter = init_ma_adapter(c, d_a_prime=4, seed=7)
    rng = np.random.default_rng(7)
    for p in adapter.layers:
        heads = [(rng.normal(0.0, INIT_STD, (c.d_m, 4)), rng.normal(0.0, INIT_STD, (c.d_m, 4)))
                 for _ in range(n_heads)]
        assert_bitwise(p.dwq.data, np.hstack([h[0] for h in heads]))
        assert_bitwise(p.dwv.data, np.hstack([h[1] for h in heads]))
        assert_bitwise(p.dwk.data, np.zeros((c.d_m, 4 * n_heads)))
        assert_bitwise(p.dwo.data, np.zeros((4 * n_heads, c.d_m)))


# ---------------------------------------------------------------------------
# malformed packed operands fail an op contract
# ---------------------------------------------------------------------------

D_M, D_K, D_V, HEADS = 6, 3, 4, 2


def ma(dwq=HEADS * 3, dwk=HEADS * 3, dwv=HEADS * 3, dwo=HEADS * 3):
    """MA operands of the given packed widths (dwo: rows)."""
    full = lambda *shape: Tensor(np.full(shape, 0.1))
    return MALayerParams(dwq=full(D_M, dwq), dwk=full(D_M, dwk), dwv=full(D_M, dwv),
                         dwo=full(dwo, D_M))


MALFORMED = {
    "e0-width": dict(kv_prefix=(Tensor(np.ones((2, HEADS * D_K + 1))),
                                Tensor(np.ones((2, HEADS * D_V))))),
    "e1-width": dict(kv_prefix=(Tensor(np.ones((2, HEADS * D_K))),
                                Tensor(np.ones((2, HEADS * D_V - 1))))),
    "dwq-dwk-widths": dict(expansion=ma(dwk=HEADS * 2)),
    "dwv-not-per-head": dict(expansion=ma(dwv=3, dwo=3)),
    "dwo-rows": dict(expansion=ma(dwo=HEADS * 4)),
    "dwk-without-dwq": dict(expansion=ma(dwq=0)),
    "dwo-without-dwv": dict(expansion=ma(dwv=0)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_packed_operands_raise_shape_error(case):
    rng = np.random.default_rng(8)
    u = lambda *shape: Tensor(rng.uniform(-1, 1, shape))
    layer = AttentionLayer(n_heads=HEADS, wq=u(D_M, HEADS * D_K), wk=u(D_M, HEADS * D_K),
                           wv=u(D_M, HEADS * D_V), out_proj=u(HEADS * D_V, D_M),
                           out_bias=u(1, D_M))
    x = u(4, D_M)
    attention_forward(layer, x, expansion=ma())  # the well-formed operands run
    with pytest.raises(ShapeError):
        attention_forward(layer, x, **MALFORMED[case])


# ---------------------------------------------------------------------------
# checkpoints with one tensor per head are refused
# ---------------------------------------------------------------------------

PACKED = re.compile(r"(layer\d\d\.attn\.[qkv])|adapter\.(layer\d\d)\.(e0|e1|dwq|dwk|dwv|dwo)")


def per_head_layout(registry, n_heads):
    """The trainable tensors under the one-tensor-per-head names
    (``layer00.attn.q0``, ``adapter.layer00.head0.e0``, ...)."""
    named = []
    for e in registry.trainable_entries():
        m = PACKED.fullmatch(e.name)
        if m is None:
            named.append((e.name, e.tensor.data))
            continue
        axis = 0 if e.name.endswith("dwo") else 1
        for h, block in enumerate(np.split(e.tensor.data, n_heads, axis=axis)):
            named.append((f"{m[1]}{h}" if m[1] else f"adapter.{m[2]}.head{h}.{m[3]}", block))
    return named


@pytest.mark.parametrize("mode, missing", [("pv2", "adapter.layer00.e0"),
                                           ("ma", "adapter.layer00.dwq"),
                                           ("finetune", "layer00.attn.q")])
def test_per_head_checkpoint_is_refused_and_installs_nothing(tmp_path, mode, missing):
    c = config_with(2)
    train = TrainConfig(mode=mode, prompt_len=3, d_a_prime=4, seed=1)
    weights = init_encoder(c, seed=9)
    registry = build_registry(weights, make_adapter(c, train), finetune=(mode == "finetune"))
    path = tmp_path / "old.flckpt"
    save_tensors(path, [(name, arr + 1.0) for name, arr in per_head_layout(registry, 2)])
    before = {e.name: e.tensor.data.tobytes() for e in registry.entries}
    with pytest.raises(CheckpointError, match=f"missing tensors: .*{re.escape(missing)}(,|$)"):
        load_trainable(path, registry)
    assert {e.name: e.tensor.data.tobytes() for e in registry.entries} == before


def test_eval_of_a_per_head_checkpoint_is_a_usage_error(tmp_path, capsys):
    config = {
        "encoder": {"d_m": 8, "n_heads": 2, "n_layers": 1, "vocab_size": 32,
                    "max_seq_len": 16, "n_classes": 2},
        "task": {"kind": "classification", "train_size": 8, "dev_size": 4,
                 "test_size": 4, "seq_len": 8, "seed": 1},
        "train": {"mode": "pv2", "prompt_len": 3, "seed": 3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    *_, registry = build_experiment(load_experiment_config(cfg))
    ckpt = tmp_path / "old.flckpt"
    save_tensors(ckpt, per_head_layout(registry, 2))
    assert main(["eval", str(cfg), "--checkpoint", str(ckpt)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "adapter.layer00.e0" in lines[0]
