"""Checkpoint format: flat little-endian binary in the network's dtype plus a JSON manifest.

The manifest ``<stem>.json`` fully describes the saved network: the
``model`` record it was built from (``Network.spec``), the layer topology,
parameter shapes, dtype, optimizer step counter and the RNG seed the run
started from. Loading refuses a network whose dtype, record, layers or
parameters differ, and a manifest of any other version. Values are saved as
the network holds them, so a save/load cycle is bit-exact; loading refuses
a value, weight or moment, that is NaN or infinite.

``<stem>.bin`` holds the parameters, then the Adam first moments, then the
second moments, each array's values in C order and little-endian in the
manifest's dtype. ``save_checkpoint`` writes them one array at a time, a
contiguous array without copying it. ``checkpoint_bytes`` returns a
``bytearray`` holding the manifest JSON, a NUL byte and the ``.bin`` bytes,
each array copied straight into its slice; it compares and hashes like
``bytes``.
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
VERSION = 3
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
    arrays, dtype = _arrays(network, store), np.dtype(network.dtype).newbyteorder("<")
    out = bytearray(len(header) + dtype.itemsize * sum(a.size for a in arrays))
    out[: len(header)] = header
    offset = len(header)
    for a in arrays:
        np.frombuffer(out, dtype, a.size, offset).reshape(a.shape)[...] = a
        offset += dtype.itemsize * a.size
    return out


def save_checkpoint(stem, network: Network, store: ParamStore | None = None, seed=None) -> Path:
    """Write ``<stem>.json`` and ``<stem>.bin``; returns the manifest path.

    Both are written under ``.tmp`` names first and renamed into place,
    ``.bin`` before ``.json``, so a save that fails while writing leaves
    the previous checkpoint as it was."""
    stem = Path(stem)
    manifest, dtype = _manifest_json(network, store, seed), np.dtype(network.dtype).newbyteorder("<")
    stem.parent.mkdir(parents=True, exist_ok=True)
    json_path, bin_path = stem.with_suffix(".json"), stem.with_suffix(".bin")
    json_tmp, bin_tmp = stem.with_suffix(".json.tmp"), stem.with_suffix(".bin.tmp")
    try:
        json_tmp.write_text(manifest + "\n", encoding="utf-8")
        with bin_tmp.open("wb") as f:
            for a in _arrays(network, store):
                f.write(np.ascontiguousarray(a, dtype=dtype))
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
    version = manifest.get("version")
    if type(version) is not int or version != VERSION:  # 3.0 == 3: the type is checked, as every scalar's
        raise CheckpointError(f"{path}: checkpoint version {version} is not {VERSION}; retrain the model")
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
    dtype = np.dtype(network.dtype).newbyteorder("<")
    raw = stem.with_suffix(".bin").read_bytes()
    need = dtype.itemsize * sum(p.value.size for p in network.params()) * (3 if manifest["has_adam"] else 1)
    if len(raw) != need:
        raise CheckpointError(f"{stem}: expected {need} bytes of values, found {len(raw)}")
    flat = np.frombuffer(raw, dtype=dtype)
    if flat.size and not (np.isfinite(flat.min()) and np.isfinite(flat.max())):  # both are NaN if any value is
        bad = flat[~np.isfinite(flat)][0]
        raise CheckpointError(f"{stem}: value {bad} is not finite in {dtype.name}")
    restore_moments = manifest["has_adam"] and store is not None
    offset = 0
    for arr in _arrays(network, store if restore_moments else None):
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    if restore_moments:
        store.step_count = manifest["step"]
    return manifest
