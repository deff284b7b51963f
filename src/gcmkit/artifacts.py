"""The one artifact writer: files on disk and the run manifest that hashes them.

`write_files` writes every run file, GCF cube and checkpoint. `RunManifest.put`
is the only way a file enters a run's `manifest.json`: it writes the bytes it
is given and records their sha256 without reading them back. Stage wall times
go to the unlisted `timing.json`, so the manifest is byte-stable across reruns.
"""

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Union

from . import __version__


def write_files(directory: str, files: Mapping[str, bytes]) -> None:
    """Write each {relative path: bytes} under directory, creating parent directories."""
    for rel, blob in files.items():
        path = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(blob)


def json_text(obj) -> str:
    """The artifact JSON layout: one-space indent, sorted keys, a final newline."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@dataclass
class RunManifest:
    run_dir: str
    config_hash: str
    outputs: Dict[str, str] = field(default_factory=dict)
    timing_ms: Dict[str, int] = field(default_factory=dict)

    def put(self, rel: str, data: Union[str, bytes]) -> None:
        """Write text (as UTF-8) or bytes to run_dir/rel and register their sha256."""
        blob = data.encode() if isinstance(data, str) else data
        write_files(self.run_dir, {rel: blob})
        self.outputs[rel] = hashlib.sha256(blob).hexdigest()

    @contextmanager
    def stage(self, name: str):
        """Record the wall time of the enclosed block as stage `name` in timing.json."""
        t0 = time.perf_counter()
        yield
        self.timing_ms[name] = int(round((time.perf_counter() - t0) * 1000))

    def write(self) -> None:
        """Write manifest.json and timing.json; neither is registered."""
        manifest = {"config_hash": self.config_hash, "version": __version__, "outputs": self.outputs}
        write_files(self.run_dir, {
            "manifest.json": json_text(manifest).encode(),
            "timing.json": json_text({"stage_wall_ms": self.timing_ms}).encode(),
        })
