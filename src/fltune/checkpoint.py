"""Deterministic checkpoint files for backbones and adapter-only deltas.

Layout of a ``.flckpt`` file:

    fltune checkpoint                 magic line
    { ... json manifest ... }         format_version, kind, config echo,
                                      tensor table (name, shape, offset)
    ===BINARY===                      sentinel line
    <payload>                         concatenated row-major little-endian
                                      float64 values, at the listed offsets

The manifest is human-readable on its own; the payload is byte-deterministic
for identical tensor contents. Writes go through a temp file and rename, so
concurrent readers never observe a partial file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Optional, Sequence

import numpy as np

from .adapters import ParamRegistry
from .encoder import EncoderConfig, EncoderWeights, init_encoder

MAGIC = b"fltune checkpoint"
SENTINEL = b"===BINARY==="
FORMAT_VERSION = 1
FILE_EXTENSION = ".flckpt"


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint."""


def save_tensors(path, named: Sequence[tuple[str, np.ndarray]], kind: str,
                 config_echo: Optional[dict] = None) -> None:
    """Write tensors in the given order; byte-identical for identical state."""
    table = []
    chunks = []
    offset = 0
    for name, arr in named:
        arr = np.asarray(arr, dtype=np.float64)
        raw = arr.astype("<f8").tobytes(order="C")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": config_echo or {},
        "tensors": table,
    }
    body = (MAGIC + b"\n"
            + json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
            + b"\n" + SENTINEL + b"\n" + b"".join(chunks))

    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict, bytes]:
    """Parse manifest and payload, validating magic, sentinel, version, and
    payload length against the tensor table."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, payload = raw.partition(b"\n" + SENTINEL + b"\n")
    if not sep:
        raise CheckpointError(f"{path}: missing payload sentinel")
    magic, newline, manifest_text = head.partition(b"\n")
    if magic != MAGIC or not newline:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic line)")
    try:
        manifest = json.loads(manifest_text.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})")
    expected_bytes = _validate_table(path, manifest.get("tensors"))
    if len(payload) != expected_bytes:
        raise CheckpointError(
            f"{path}: truncated payload: {len(payload)} bytes, expected {expected_bytes}")
    return manifest, payload


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_table(path, table) -> int:
    """Check the tensor table has the form ``save_tensors`` writes: a list of
    {name, shape, offset} rows, shapes of non-negative ints, each offset
    equal to the end of the previous tensor starting from 0, so tensors are
    ordered, contiguous and never overlap. Returns the payload size."""
    if not isinstance(table, list):
        raise CheckpointError(f"{path}: manifest tensor table must be a list")
    end = 0
    for row in table:
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            raise CheckpointError(f"{path}: malformed tensor table row {row!r}")
        name, shape, offset = row["name"], row.get("shape"), row.get("offset")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise CheckpointError(f"{path}: tensor {name}: bad shape {shape!r}")
        if not _is_count(offset) or offset != end:
            raise CheckpointError(
                f"{path}: tensor {name}: offset {offset!r}, expected {end} "
                "(tensors must be ordered and contiguous)")
        end += 8 * math.prod(shape)
    return end


def load_tensors(path, expected: dict[str, tuple[int, ...]],
                 kind: Optional[str] = None) -> dict[str, np.ndarray]:
    """Load and validate against expected name -> shape before returning.

    Every expected tensor must be present with the exact shape, and the file
    may not contain extras; errors name the offending tensor. Nothing is
    installed anywhere by this function.
    """
    manifest, payload = load_checkpoint(path)
    if kind is not None and manifest.get("kind") != kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {manifest.get('kind')!r}, expected {kind!r}")
    table = {row["name"]: row for row in manifest["tensors"]}
    missing = sorted(set(expected) - set(table))
    if missing:
        raise CheckpointError(f"{path}: missing tensors: {', '.join(missing)}")
    extra = sorted(set(table) - set(expected))
    if extra:
        raise CheckpointError(f"{path}: unexpected tensors: {', '.join(extra)}")
    for name, shape in expected.items():
        got = tuple(table[name]["shape"])
        if got != tuple(shape):
            raise CheckpointError(
                f"{path}: shape mismatch for {name}: file has {got}, expected {tuple(shape)}")
    out = {}
    for name, shape in expected.items():
        row = table[name]
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        start = row["offset"]
        arr = np.frombuffer(payload[start:start + 8 * n], dtype="<f8").reshape(shape)
        out[name] = arr.astype(np.float64).copy()
    return out


# ---------------------------------------------------------------------------
# Backbone and adapter convenience wrappers
# ---------------------------------------------------------------------------

def save_backbone(weights: EncoderWeights, path) -> None:
    named = [(name, t.data) for name, t, _group in weights.named_tensors()]
    save_tensors(path, named, kind="backbone", config_echo=weights.config.to_dict())


def load_backbone(path, config: EncoderConfig) -> EncoderWeights:
    """Rebuild a full backbone; shapes are validated against the config
    before any tensor is installed."""
    weights = init_encoder(config, seed=0)
    expected = {name: t.shape for name, t, _group in weights.named_tensors()}
    loaded = load_tensors(path, expected, kind="backbone")
    for name, t, _group in weights.named_tensors():
        t.data = loaded[name]
    return weights


def save_adapter(adapter, path, config_echo: Optional[dict] = None) -> None:
    """Adapter-only delta: contains exclusively the adapter's trainable
    tensors, nothing from the frozen backbone."""
    named = [(name, t.data) for name, t in adapter.named_tensors()]
    save_tensors(path, named, kind="adapter", config_echo=config_echo)


def load_adapter(path, adapter) -> None:
    """Install saved tensors into a freshly built adapter of the same shape."""
    expected = {name: t.shape for name, t in adapter.named_tensors()}
    loaded = load_tensors(path, expected, kind="adapter")
    for name, t in adapter.named_tensors():
        t.data = loaded[name]


def save_trainable(registry: ParamRegistry, path,
                   config_echo: Optional[dict] = None) -> None:
    """Everything the current mode trains (adapter tensors plus task head,
    or the whole model under full fine-tuning)."""
    named = [(e.name, e.tensor.data) for e in registry.trainable_entries()]
    save_tensors(path, named, kind="trainable", config_echo=config_echo)


def load_trainable(path, registry: ParamRegistry) -> None:
    expected = {e.name: e.tensor.shape for e in registry.trainable_entries()}
    loaded = load_tensors(path, expected, kind="trainable")
    for e in registry.trainable_entries():
        e.tensor.data = loaded[e.name]
