"""Checkpoint format: round trips, determinism, validation errors, sizes."""

import os
import re
import stat

import numpy as np
import pytest

from conftest import small_config
from fltune.adapters import build_registry, init_fl_adapter
from fltune.checkpoint import (
    CheckpointError,
    load_checkpoint,
    load_tensors,
    save_tensors,
    save_trainable,
    load_trainable,
)
from fltune.encoder import encoder_forward, init_encoder


def test_save_load_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    named = [("a", rng.uniform(-1, 1, (3, 4))),
             ("b", rng.uniform(-1, 1, (1, 7))),
             ("empty", np.zeros((2, 0)))]
    path = tmp_path / "t.flckpt"
    save_tensors(path, named)
    _, loaded = load_tensors(path, {n: a.shape for n, a in named})
    for name, arr in named:
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64


def test_loaded_arrays_are_writable_native_and_own_their_memory(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("a", np.arange(6.0).reshape(2, 3)), ("s", np.asarray(7.0)),
                        ("empty", np.zeros((0, 2)))])
    expected = {"a": (2, 3), "s": (), "empty": (0, 2)}
    _, first = load_tensors(path, expected)
    for arr in first.values():
        assert arr.dtype == np.dtype(np.float64) and arr.dtype.isnative
        assert arr.flags.writeable and arr.flags.owndata and arr.flags.c_contiguous
    first["a"][0, 0] = -1.0
    first["s"][()] = -1.0
    _, second = load_tensors(path, expected)
    assert np.array_equal(second["a"], np.arange(6.0).reshape(2, 3)) and second["s"] == 7.0


def test_any_layout_or_dtype_writes_the_c_ordered_float64_bytes(tmp_path):
    base = np.arange(12.0).reshape(3, 4) - 5.5
    p1, p2 = tmp_path / "a.flckpt", tmp_path / "b.flckpt"
    save_tensors(p1, [("t", base.T.copy()), ("be", base), ("i", np.arange(4.0))])
    save_tensors(p2, [("t", base.T), ("be", base.astype(">f8")), ("i", np.arange(4))])
    assert p1.read_bytes() == p2.read_bytes()


def test_identical_state_gives_identical_bytes(tmp_path):
    rng = np.random.default_rng(1)
    named = [("w", rng.uniform(-1, 1, (5, 5)))]
    p1, p2 = tmp_path / "a.flckpt", tmp_path / "b.flckpt"
    save_tensors(p1, named, config_echo={"d_a": 4})
    save_tensors(p2, named, config_echo={"d_a": 4})
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_is_readable_and_payload_sized(tmp_path):
    named = [("w", np.ones((2, 3))), ("v", np.zeros((4,)))]
    path = tmp_path / "t.flckpt"
    save_tensors(path, named, config_echo={"note": 1})
    manifest, payload = load_checkpoint(path)
    assert manifest["format_version"] == 1
    assert manifest["kind"] == "trainable"
    assert [row["name"] for row in manifest["tensors"]] == ["w", "v"]
    assert len(payload) == 8 * (6 + 4)
    # manifest text is plain JSON between magic and sentinel
    text = path.read_bytes().split(b"===BINARY===")[0].decode("utf-8")
    assert '"kind": "trainable"' in text


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("w", np.ones((1, 1)))])
    raw = path.read_bytes().replace(b'"format_version": 1', b'"format_version": 9')
    path.write_bytes(raw)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("w", np.ones((4, 4)))])
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_not_a_checkpoint_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    path.write_bytes(b"something else entirely\n")
    with pytest.raises(CheckpointError, match="magic|sentinel"):
        load_checkpoint(path)


def test_shape_mismatch_names_offending_tensor(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=1)
    path = tmp_path / "trainable.flckpt"
    save_trainable(build_registry(weights, init_fl_adapter(config, d_a=4, seed=2)), path)
    other = build_registry(weights, init_fl_adapter(config, d_a=6, seed=3))
    with pytest.raises(CheckpointError, match=r"shape mismatch for adapter\.layer00\.w1"):
        load_trainable(path, other)


def test_kind_mismatch_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("w", np.ones((1, 1)))])
    good = path.read_bytes()
    # the kinds that once held a whole backbone or a bare adapter
    for kind in ("backbone", "adapter"):
        path.write_bytes(good.replace(b'"kind": "trainable"', f'"kind": "{kind}"'.encode()))
        with pytest.raises(CheckpointError,
                           match=f"checkpoint kind '{kind}', expected 'trainable'"):
            load_tensors(path, {"w": (1, 1)})


def test_missing_and_extra_tensors_rejected(tmp_path):
    path = tmp_path / "t.flckpt"
    save_tensors(path, [("w", np.ones((1, 1)))])
    with pytest.raises(CheckpointError, match="missing tensors: v"):
        load_tensors(path, {"w": (1, 1), "v": (1, 1)})
    with pytest.raises(CheckpointError, match="unexpected tensors: w"):
        load_tensors(path, {})


def test_file_without_the_backbone_key_is_refused_and_installs_nothing(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=1)
    path = tmp_path / "trainable.flckpt"
    save_trainable(build_registry(weights, init_fl_adapter(config, d_a=4, seed=2)), path)
    # as a file written before the key existed
    raw, n = re.subn(rb'\n  "backbone": "[0-9a-f]{64}",', b"", path.read_bytes())
    assert n == 1
    path.write_bytes(raw)
    other = build_registry(weights, init_fl_adapter(config, d_a=4, seed=3))
    before = [e.tensor.data.copy() for e in other.trainable_entries()]
    with pytest.raises(CheckpointError, match="no backbone fingerprint"):
        load_trainable(path, other)
    assert all(np.array_equal(e.tensor.data, b)
               for e, b in zip(other.trainable_entries(), before))

def test_adapter_round_trip_on_fresh_backbone_bitwise(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=5)
    adapter = init_fl_adapter(config, d_a=4, seed=6)
    registry = build_registry(weights, adapter)
    # give the adapter nonzero w2 so it actually shapes the output
    rng = np.random.default_rng(7)
    for params in adapter.layers.values():
        params.w2.data = rng.normal(0.0, 0.1, params.w2.shape)
    tokens = np.array([[9, 2, 7, 1]])
    logits_before = encoder_forward(weights, tokens, adapter=adapter, pooled=True).data

    path = tmp_path / "trainable.flckpt"
    save_trainable(registry, path, config_echo={"d_a": 4})
    rebuilt = init_encoder(config, seed=5)
    fresh = init_fl_adapter(config, d_a=4, seed=99)
    load_trainable(path, build_registry(rebuilt, fresh))
    logits_after = encoder_forward(rebuilt, tokens, adapter=fresh, pooled=True).data
    assert np.array_equal(logits_before, logits_after)


def test_empty_adapter_round_trips(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=8)
    registry = build_registry(weights, init_fl_adapter(config, d_a=0, seed=8))
    path = tmp_path / "empty.flckpt"
    save_trainable(registry, path)
    fresh = build_registry(init_encoder(config, seed=8), init_fl_adapter(config, d_a=0, seed=9))
    load_trainable(path, fresh)
    pairs = list(zip(registry.trainable_entries(), fresh.trainable_entries()))
    assert any(e.tensor.size == 0 for e, _ in pairs)
    for e, e2 in pairs:
        assert e.name == e2.name and np.array_equal(e.tensor.data, e2.tensor.data)


def test_adapter_payload_is_eight_bytes_per_trainable_value(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=10)
    adapter = init_fl_adapter(config, d_a=4, seed=11)
    registry = build_registry(weights, adapter)
    path = tmp_path / "trainable.flckpt"
    save_trainable(registry, path)
    _, payload = load_checkpoint(path)
    trainable_count = sum(e.tensor.size for e in registry.trainable_entries())
    assert len(payload) == 8 * trainable_count

    # adapter-only file never contains frozen backbone tensors
    manifest, _ = load_checkpoint(path)
    names = {row["name"] for row in manifest["tensors"]}
    frozen_names = {e.name for e in registry.frozen_entries()}
    assert not names & frozen_names


def test_trainable_round_trip_restores_registry(tmp_path):
    config = small_config()
    weights = init_encoder(config, seed=12)
    adapter = init_fl_adapter(config, d_a=4, seed=13)
    registry = build_registry(weights, adapter)
    path = tmp_path / "trainable.flckpt"
    save_trainable(registry, path)

    weights2 = init_encoder(config, seed=12)
    adapter2 = init_fl_adapter(config, d_a=4, seed=77)
    registry2 = build_registry(weights2, adapter2)
    load_trainable(path, registry2)
    for e, e2 in zip(registry.trainable_entries(), registry2.trainable_entries()):
        assert e.name == e2.name
        assert np.array_equal(e.tensor.data, e2.tensor.data)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_checkpoint_mode_follows_the_umask_like_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        save_tensors(tmp_path / "t.flckpt", [("a", np.ones((2, 3)))])
        with open(tmp_path / "sibling.json", "w", encoding="utf-8") as fh:
            fh.write("{}")
    finally:
        os.umask(old)
    mode = stat.S_IMODE(os.stat(tmp_path / "t.flckpt").st_mode)
    assert mode == stat.S_IMODE(os.stat(tmp_path / "sibling.json").st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sibling.json", "t.flckpt"]
