"""Checkpoint format: flat little-endian float64 binary plus a JSON manifest.

The manifest ``<stem>.json`` fully describes the saved network: the
``model`` record it was built from (``Network.spec``), the layer topology,
parameter shapes, optimizer step counter and the RNG seed the run started
from. Loading refuses a network whose dtype, record, layers or parameters
differ, and manifests older than version 2, which had no ``model`` record.
Values are widened to float64 on save and narrowed back on load, which is
lossless for float32 training, so a save/load cycle is bit-exact; loading
refuses a value, weight or moment, that is not finite in the network's dtype.

``<stem>.bin`` holds the parameters, then the Adam first moments, then the
second moments, each array's values in C order. ``save_checkpoint`` writes
them to the file one array at a time, so its only transient is one array's
float64 copy. ``checkpoint_bytes`` returns a ``bytearray`` holding the
manifest JSON, a NUL byte and the ``.bin`` bytes, each array cast straight
into its slice; it compares and hashes like ``bytes``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..errors import CheckpointError, ShapeMismatch
from .layers import Network
from .optim import ParamStore

MAGIC = "vader-checkpoint"
VERSION = 2
#: Manifest entries that must equal those of the network being loaded into.
_ARCHITECTURE = ("model", "layers", "params")
#: The manifest's other entries, each with the test its parsed JSON value
#: must pass (exact types: no bool is an int) and what that test asks for.
_SCALARS = {
    "seed": (lambda v: v is None or type(v) is int, "an integer or null"),
    "dtype": (lambda v: type(v) is str, "a string"),
    "step": (lambda v: type(v) is int and v >= 0, "a non-negative integer"),
    "has_adam": (lambda v: type(v) is bool, "true or false"),
}


def _manifest(network: Network, store: ParamStore | None, seed) -> dict:
    return {
        "format": MAGIC,
        "version": VERSION,
        "seed": seed,
        "dtype": np.dtype(network.dtype).name,
        "step": 0 if store is None else store.step_count,
        "has_adam": store is not None,
        "model": network.spec,
        "layers": [
            {"name": n.name, "kind": n.layer.kind, "inputs": n.inputs, **n.layer.config()}
            for n in network.nodes
        ],
        "params": [{"name": p.name, "shape": list(p.shape)} for p in network.params()],
    }


def _manifest_json(network: Network, store: ParamStore | None, seed) -> str:
    return json.dumps(_manifest(network, store, seed), indent=1, sort_keys=True)


def _arrays(network: Network, store: ParamStore | None) -> list[np.ndarray]:
    """The saved arrays in ``.bin`` order: parameters, then m, then v."""
    arrays = [p.value for p in network.params()]
    if store is not None:
        arrays += [*store.m, *store.v]
    return arrays


def checkpoint_bytes(network: Network, store: ParamStore | None = None, seed=None) -> bytearray:
    """Manifest JSON, a NUL byte and the ``.bin`` bytes in one buffer,
    suitable for hashing and comparing."""
    header = _manifest_json(network, store, seed).encode("utf-8") + b"\x00"
    arrays = _arrays(network, store)
    out = bytearray(len(header) + 8 * sum(a.size for a in arrays))
    out[: len(header)] = header
    offset = len(header)
    for a in arrays:
        np.frombuffer(out, "<f8", a.size, offset).reshape(a.shape)[...] = a
        offset += 8 * a.size
    return out


def save_checkpoint(stem, network: Network, store: ParamStore | None = None, seed=None) -> Path:
    """Write ``<stem>.json`` and ``<stem>.bin``; returns the manifest path.

    Both are written under ``.tmp`` names first and renamed into place,
    ``.bin`` before ``.json``, so a save that fails while writing leaves
    the previous checkpoint as it was."""
    stem = Path(stem)
    manifest = _manifest_json(network, store, seed)
    stem.parent.mkdir(parents=True, exist_ok=True)
    json_path, bin_path = stem.with_suffix(".json"), stem.with_suffix(".bin")
    json_tmp, bin_tmp = stem.with_suffix(".json.tmp"), stem.with_suffix(".bin.tmp")
    try:
        json_tmp.write_text(manifest + "\n", encoding="utf-8")
        with bin_tmp.open("wb") as f:
            for a in _arrays(network, store):
                f.write(np.ascontiguousarray(a, dtype="<f8"))
        os.replace(bin_tmp, bin_path)
        os.replace(json_tmp, json_path)
    finally:
        json_tmp.unlink(missing_ok=True)
        bin_tmp.unlink(missing_ok=True)
    return json_path


def read_manifest(stem) -> dict:
    """Parse ``<stem>.json``; CheckpointError unless it is a complete manifest
    of the current version whose entries outside the architecture have their
    exact JSON types."""
    path = Path(stem).with_suffix(".json")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint manifest")
    if manifest.get("version") != VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {manifest.get('version')} is not {VERSION}; retrain the model"
        )
    missing = sorted({*_SCALARS, *_ARCHITECTURE} - manifest.keys())
    if missing:
        raise CheckpointError(f"{path}: manifest lacks {', '.join(missing)}")
    for key, (valid, what) in _SCALARS.items():
        if not valid(manifest[key]):
            raise CheckpointError(f"{path}: manifest {key} {manifest[key]!r} is not {what}")
    return manifest


def load_checkpoint(stem, network: Network, store: ParamStore | None = None) -> dict:
    """Restore parameters into ``network``, and the optimizer moments into
    ``store`` when one is given and the checkpoint holds them.

    The manifest's dtype must be the network's (CheckpointError otherwise),
    and its model record, layers and parameter shapes must equal the target
    network's (ShapeMismatch otherwise); returns the manifest dict.
    """
    stem = Path(stem)
    manifest = read_manifest(stem)
    expected = _manifest(network, store, None)
    if manifest["dtype"] != expected["dtype"]:
        raise CheckpointError(f"{stem}: manifest dtype {manifest['dtype']!r} is not the network's {expected['dtype']}")
    for key in _ARCHITECTURE:
        if manifest[key] != expected[key]:
            raise ShapeMismatch(
                f"{stem}: checkpoint {key} differ from the network's"
                + (f" (saved {manifest[key]}, network {expected[key]})" if key == "model" else "")
            )
    params = network.params()
    raw = stem.with_suffix(".bin").read_bytes()
    sizes = [p.value.size for p in params]
    need = sum(sizes) * (3 if manifest["has_adam"] else 1)
    if len(raw) != 8 * need:
        raise CheckpointError(f"{stem}: expected {8 * need} bytes of values, found {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f8")
    limit = np.finfo(network.dtype).max
    if flat.size and not (-limit <= flat.min() and flat.max() <= limit):  # False for a NaN, which min and max return
        bad = flat[~(np.abs(flat) <= limit)][0]
        raise CheckpointError(f"{stem}: value {bad} is not finite in {np.dtype(network.dtype).name}")

    def take(offset, target):
        for arr, size in zip(target, sizes):
            chunk = flat[offset : offset + size].reshape(arr.shape)
            arr[...] = chunk.astype(arr.dtype)
            offset += size
        return offset

    offset = take(0, [p.value for p in params])
    if manifest["has_adam"] and store is not None:
        offset = take(offset, store.m)
        take(offset, store.v)
        store.step_count = manifest["step"]
    return manifest
