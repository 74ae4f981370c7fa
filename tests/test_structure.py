"""One forward path: the adapter hook protocol and the single attention loop."""

import ast
import dataclasses
from pathlib import Path

import numpy as np

import fltune.encoder as encoder_module
from fltune.adapters import (
    FLAdapter,
    MAAdapter,
    PromptAdapter,
    init_fl_adapter,
    init_ma_adapter,
    ma_forward,
)
from fltune.encoder import (
    AdapterHooks,
    EncoderConfig,
    attention_forward,
    encoder_forward,
    init_encoder,
)
from fltune.tensor import Tensor
from fltune.training import TrainConfig


def small_config():
    return EncoderConfig(d_m=8, n_heads=2, n_layers=2, vocab_size=16,
                         max_seq_len=12, n_classes=3)


def encoder_tree() -> ast.Module:
    return ast.parse(Path(encoder_module.__file__).read_text(encoding="utf-8"))


def test_encoder_imports_nothing_from_adapters():
    for node in ast.walk(encoder_tree()):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").rsplit(".", 1)[-1] != "adapters", ast.dump(node)
            assert all(alias.name != "adapters" for alias in node.names), ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(not alias.name.endswith("adapters") for alias in node.names)


def test_encoder_has_no_adapter_type_checks():
    adapter_types = {"FLAdapter", "PromptAdapter", "MAAdapter"}
    for node in ast.walk(encoder_tree()):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not names & adapter_types, ast.dump(node)


def test_every_adapter_implements_the_hooks():
    for cls in (FLAdapter, PromptAdapter, MAAdapter):
        assert issubclass(cls, AdapterHooks)


def test_base_hooks_are_transparent():
    weights = init_encoder(small_config(), seed=1)
    tokens = [3, 5, 7, 9, 11]
    plain = encoder_forward(weights, tokens).data
    hooked = encoder_forward(weights, tokens, adapter=AdapterHooks()).data
    assert np.array_equal(plain, hooked)


def test_custom_adapter_overriding_one_hook_matches_fl_adapter():
    config = small_config()
    weights = init_encoder(config, seed=2)
    fl = init_fl_adapter(config, d_a=3, seed=3)
    rng = np.random.default_rng(4)
    for params in fl.layers.values():
        params.w2.data = rng.normal(0.0, 0.5, params.w2.shape)

    class OnlyFFN(AdapterHooks):
        def ffn_units(self, i):
            return fl.layers[i]

    tokens = [4, 6, 8, 10]
    assert np.array_equal(encoder_forward(weights, tokens, adapter=fl).data,
                          encoder_forward(weights, tokens, adapter=OnlyFFN()).data)


def test_ma_forward_is_attention_with_expansion():
    config = small_config()
    weights = init_encoder(config, seed=5)
    ma = init_ma_adapter(config, d_a_prime=3, seed=6)
    rng = np.random.default_rng(7)
    for p in ma.layers[0]:
        p.dwk.data = rng.normal(0.0, 0.5, p.dwk.shape)
        p.dwo.data = rng.normal(0.0, 0.5, p.dwo.shape)
    x = Tensor(rng.normal(size=(5, config.d_m)))
    attn = weights.layers[0].attn
    assert np.array_equal(ma_forward(attn, ma.layers[0], x).data,
                          attention_forward(attn, x, expansion=ma.attn_expansion(0)).data)
    assert not np.array_equal(ma_forward(attn, ma.layers[0], x).data,
                              attention_forward(attn, x).data)


def test_adapters_hold_only_their_tensors():
    # FL placement cannot change the output, so neither the adapter nor the
    # run config carries one; only the ffn_fl_concat oracle takes it.
    field_names = lambda cls: [f.name for f in dataclasses.fields(cls)]
    assert field_names(FLAdapter) == ["layers"]
    assert field_names(PromptAdapter) == ["prompt", "prefixes"]
    assert field_names(MAAdapter) == ["layers"]
    assert not {"position", "infix_index"} & set(field_names(TrainConfig))


def test_biased_projections_use_the_fused_affine_op():
    # add(matmul(...), ...) and relu(...) would allocate what affine() fuses
    package = Path(encoder_module.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "add" and node.args and isinstance(node.args[0], ast.Call):
                first = node.args[0].func
                assert getattr(first, "id", getattr(first, "attr", None)) != "matmul", \
                    f"{path.name}:{node.lineno}: add(matmul(...), ...)"
            if name == "relu":
                assert path.name == "tensor.py", f"{path.name}:{node.lineno}: relu(...)"
