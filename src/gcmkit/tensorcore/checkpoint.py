"""Parameter checkpoints: a JSON manifest plus a flat float64 binary.

The manifest lists every entry (name, shape, offset) in serialization
order together with caller metadata (architecture config, RNG seed, step
count); params.bin holds the concatenated little-endian float64 payload.
A network's entries are its `state_entries()`, one ordered list of live
arrays. `encode_checkpoint` turns them into files for
`artifacts.write_files`, and `load_state` copies loaded arrays back into
them. Reload is bit-exact, and a malformed checkpoint raises
ValidationError naming its file.
"""

import json
import os
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..errors import ValidationError

_MANIFEST = "manifest.json"
_PAYLOAD = "params.bin"


def encode_checkpoint(entries: List[Tuple[str, np.ndarray]], meta: dict) -> Dict[str, bytes]:
    """The checkpoint files as {file name: bytes}."""
    names = [name for name, _ in entries]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate entry names in checkpoint")
    records = []
    offset = 0
    blobs = []
    for name, arr in entries:
        arr = np.asarray(arr, dtype="<f8")
        records.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size
        blobs.append(arr.tobytes())  # tobytes always serializes C-order
    manifest = {"format": 1, "entries": records, "total": offset, "meta": meta}
    manifest_text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return {_MANIFEST: manifest_text.encode(), _PAYLOAD: b"".join(blobs)}


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    """({entry name: array}, meta) of the checkpoint directory `path`."""
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise ValidationError(f"no checkpoint manifest under {path}")
    raw = np.fromfile(os.path.join(path, _PAYLOAD), dtype="<f8")
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.load(fh)
        if manifest.get("format") != 1:
            raise ValueError(f"unsupported checkpoint format {manifest.get('format')!r}")
        if raw.size != manifest["total"]:
            raise ValueError(f"payload holds {raw.size} values, manifest promises {manifest['total']}")
        if not isinstance(manifest["meta"], dict):
            raise ValueError("meta is not a JSON object")
        out = {}
        for rec in manifest["entries"]:
            size = int(np.prod(rec["shape"])) if rec["shape"] else 1
            if rec["offset"] < 0:  # a negative slice start would read another entry's values
                raise ValueError(f"entry {rec['name']!r} has negative offset {rec['offset']}")
            out[rec["name"]] = raw[rec["offset"] : rec["offset"] + size].reshape(rec["shape"]).copy()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed checkpoint {manifest_path}: {why}") from None
    return out, manifest["meta"]


def load_state(state: List[Tuple[str, np.ndarray]], arrays: Mapping[str, np.ndarray], path: str) -> None:
    """Copy arrays[name] into each live array of a `state_entries()` list, checking names and shapes."""
    unknown = sorted(set(arrays) - {name for name, _ in state})
    if unknown:
        raise ValidationError(f"{path} holds entries {unknown} that match no state array")
    for name, live in state:
        if name not in arrays:
            raise ValidationError(f"{path} has no entry {name!r}")
        if arrays[name].shape != live.shape:
            raise ValidationError(f"{path}: entry {name!r} has shape {arrays[name].shape}, expected {live.shape}")
        live[...] = arrays[name]
