"""Parameter checkpoints: a JSON manifest plus a flat float64 binary.

The manifest lists every entry (name, shape, offset) in serialization
order together with caller metadata (architecture config, RNG seed, step
count); params.bin holds the concatenated little-endian float64 payload.
A network's entries are its `state_entries()`, one ordered list of live
arrays. `encode_checkpoint` turns them into files for
`artifacts.write_files`, and `load_state` copies loaded arrays back into
them. Reload is bit-exact, and a malformed checkpoint, or one whose
payload holds NaN or Inf, raises ValidationError naming its file.
"""

import json
import math
import os
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..errors import ValidationError
from ..spec import Field, parse, read_json

_MANIFEST = "manifest.json"
_PAYLOAD = "params.bin"
MANIFEST_FIELDS = (
    Field("format", (int,), choices=(1,)),
    Field("entries", (list,), fields=(
        Field("name", (str,)),
        Field("shape", (list,), items=(int,), low=0),
        Field("offset", (int,), low=0),
    )),
    Field("total", (int,), low=0),
    Field("meta", (dict,)),
)


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
    """({entry name: array}, meta) of the checkpoint directory `path`, whose entries must tile its finite payload."""
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise ValidationError(f"no checkpoint manifest under {path}")
    raw = np.fromfile(os.path.join(path, _PAYLOAD), dtype="<f8")
    where = f"malformed checkpoint {manifest_path}"
    manifest = parse(read_json(manifest_path, "checkpoint manifest"), MANIFEST_FIELDS, where)
    spans = sorted((rec["offset"], math.prod(rec["shape"]), rec["name"], rec["shape"]) for rec in manifest["entries"])
    end = 0
    for offset, size, name, _ in spans:
        if offset != end:
            raise ValidationError(f"{where}: entry {name!r} starts at offset {offset}, "
                                  f"where the entries before it end at {end}")
        end += size
    if not end == manifest["total"] == raw.size:
        raise ValidationError(f"{where}: the entries cover {end} values, the manifest promises {manifest['total']} "
                              f"and the payload holds {raw.size}")
    out = {name: raw[offset:offset + size].reshape(shape).copy() for offset, size, name, shape in spans}
    if len(out) < len(spans):
        raise ValidationError(f"{where}: an entry name is listed twice")
    for name, arr in out.items():
        if not np.all(np.isfinite(arr)):
            raise ValidationError(f"payload of checkpoint {manifest_path} is non-finite in entry {name!r}")
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
