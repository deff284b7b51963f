"""Parameter checkpoints: a JSON manifest plus a flat float64 binary.

The manifest lists every entry (name, shape, offset) in serialization
order together with caller metadata (architecture config, RNG seed, step
count); params.bin holds the concatenated little-endian float64 payload.
Reload is bit-exact.
"""

import json
import os
from typing import Dict, List, Tuple

import numpy as np

from ..artifacts import write_files
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


def save_checkpoint(path: str, entries: List[Tuple[str, np.ndarray]], meta: dict) -> None:
    write_files(path, encode_checkpoint(entries, meta))


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], dict]:
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise ValidationError(f"no checkpoint manifest under {path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != 1:
        raise ValidationError(f"unsupported checkpoint format {manifest.get('format')!r}")
    raw = np.fromfile(os.path.join(path, _PAYLOAD), dtype="<f8")
    if raw.size != manifest["total"]:
        raise ValidationError(
            f"checkpoint payload holds {raw.size} values, manifest promises {manifest['total']}"
        )
    out = {}
    for rec in manifest["entries"]:
        size = int(np.prod(rec["shape"])) if rec["shape"] else 1
        out[rec["name"]] = raw[rec["offset"] : rec["offset"] + size].reshape(rec["shape"]).copy()
    return out, manifest["meta"]
