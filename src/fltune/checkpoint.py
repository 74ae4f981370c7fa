"""Deterministic checkpoint files for a run's trainable tensors.

A checkpoint holds only what a run trains; the frozen backbone is rebuilt
from the config. Every file is of kind ``trainable``; others are refused.

Layout of a ``.flckpt`` file:

    fltune checkpoint                 magic line
    { ... json manifest ... }         format_version, kind, config echo,
                                      backbone fingerprint, tensor table
                                      (name, shape, offset)
    ===BINARY===                      sentinel line
    <payload>                         concatenated row-major little-endian
                                      float64 values, at the listed offsets

The manifest is human-readable on its own; the payload is byte-deterministic
for identical tensor contents. A trainable checkpoint loads only into a model
with the backbone fingerprint and encoder config it was saved with.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional, Sequence

import numpy as np

from .adapters import ParamRegistry

MAGIC = b"fltune checkpoint"
SENTINEL = b"===BINARY==="
FORMAT_VERSION = 1
KIND = "trainable"


class CheckpointError(ValueError):
    """Malformed, truncated, or mismatched checkpoint."""


def save_tensors(path, named: Sequence[tuple[str, np.ndarray]],
                 config_echo: Optional[dict] = None, backbone: Optional[str] = None) -> None:
    """Write tensors in the given order; byte-identical for identical state.
    ``backbone`` is the manifest's backbone fingerprint (null when None). The
    file at ``path`` is written in place, so a failed write can leave it
    partial."""
    table = []
    arrays = []
    offset = 0
    for name, arr in named:
        # a view of the caller's array unless it is not C-ordered little-endian float64
        arr = np.asarray(arr, dtype="<f8", order="C")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        arrays.append(arr)
        offset += arr.nbytes
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": KIND,
        "config": config_echo or {},
        "backbone": backbone,
        "tensors": table,
    }
    header = (MAGIC + b"\n"
              + json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
              + b"\n" + SENTINEL + b"\n")
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in arrays:
            fh.write(arr)


def load_checkpoint(path) -> tuple[dict, bytes]:
    """Parse manifest and payload, validating magic, sentinel, version, kind
    (``trainable``) and payload length against the tensor table."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    head, sep, payload = raw.partition(b"\n" + SENTINEL + b"\n")
    if not sep:
        raise CheckpointError(f"{path}: missing payload sentinel")
    magic, newline, manifest_text = head.partition(b"\n")
    if magic != MAGIC or not newline:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic line)")
    try:
        manifest = json.loads(manifest_text.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: manifest is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})")
    if manifest.get("kind") != KIND:
        raise CheckpointError(
            f"{path}: checkpoint kind {manifest.get('kind')!r}, expected {KIND!r}")
    expected_bytes = _validate_table(path, manifest.get("tensors"))
    if len(payload) != expected_bytes:
        raise CheckpointError(
            f"{path}: truncated payload: {len(payload)} bytes, expected {expected_bytes}")
    return manifest, payload


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _validate_table(path, table) -> int:
    """Check the tensor table has the form ``save_tensors`` writes: a list of
    {name, shape, offset} rows, names distinct, shapes of non-negative ints,
    each offset the end of the previous tensor starting from 0, so tensors
    are ordered, contiguous and never overlap. Returns the payload size."""
    if not isinstance(table, list):
        raise CheckpointError(f"{path}: manifest tensor table must be a list")
    end = 0
    names = set()
    for row in table:
        if not isinstance(row, dict) or not isinstance(row.get("name"), str):
            raise CheckpointError(f"{path}: malformed tensor table row {row!r}")
        name, shape, offset = row["name"], row.get("shape"), row.get("offset")
        if name in names:
            raise CheckpointError(f"{path}: tensor {name} listed twice")
        names.add(name)
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise CheckpointError(f"{path}: tensor {name}: bad shape {shape!r}")
        if not _is_count(offset) or offset != end:
            raise CheckpointError(
                f"{path}: tensor {name}: offset {offset!r}, expected {end} "
                "(tensors must be ordered and contiguous)")
        end += 8 * math.prod(shape)
    return end


def load_tensors(path, expected: dict[str, tuple[int, ...]]
                 ) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest and the tensors, validated against expected name -> shape.

    Every expected tensor must be present with the exact shape, and the file
    may not contain extras; errors name the offending tensor. Nothing is
    installed anywhere by this function.
    """
    manifest, payload = load_checkpoint(path)
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
    # astype copies: each array is native float64, writable and owns its memory
    return manifest, {
        name: np.frombuffer(payload, "<f8", count=math.prod(shape),
                            offset=table[name]["offset"]).reshape(shape).astype(np.float64)
        for name, shape in expected.items()}


def _backbone_fingerprint(registry: ParamRegistry) -> str:
    """SHA-256 over the (name, registration content hash) pairs of the
    registry's frozen entries: the same for the same frozen backbone."""
    pairs = [[e.name, e.content_hash] for e in registry.frozen_entries()]
    return hashlib.sha256(json.dumps(pairs).encode("utf-8")).hexdigest()


def save_trainable(registry: ParamRegistry, path,
                   config_echo: Optional[dict] = None) -> None:
    """Everything the current mode trains (adapter tensors plus task head,
    or the whole model under full fine-tuning), with the fingerprint of the
    frozen backbone it was trained against."""
    named = [(e.name, e.tensor.data) for e in registry.trainable_entries()]
    save_tensors(path, named, config_echo=config_echo,
                 backbone=_backbone_fingerprint(registry))


def load_trainable(path, registry: ParamRegistry,
                   config_echo: Optional[dict] = None) -> None:
    """Install a checkpoint into the registry's trainable tensors. After the
    name and shape checks, its config echo must equal ``config_echo`` (compared
    only when one is given) and its backbone fingerprint the registry's, or
    CheckpointError is raised first. A finetune registry has no frozen
    entries, so its fingerprint is that of an empty list."""
    expected = {e.name: e.tensor.shape for e in registry.trainable_entries()}
    manifest, loaded = load_tensors(path, expected)
    if config_echo is not None and manifest.get("config") != config_echo:
        raise CheckpointError(f"{path}: trained with another encoder config")
    backbone = manifest.get("backbone")
    if backbone is None:
        raise CheckpointError(f"{path}: no backbone fingerprint (written by an older "
                              "version); retrain to get a checkpoint that loads")
    if backbone != _backbone_fingerprint(registry):
        raise CheckpointError(f"{path}: trained against another frozen backbone")
    for e in registry.trainable_entries():
        e.tensor.data = loaded[e.name]
