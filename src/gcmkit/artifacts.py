"""The one artifact writer: files on disk and the run manifest that hashes them.

`write_files` writes every run file, GCF cube and checkpoint. `RunManifest.put`
is the only way a file enters a run's `manifest.json`: it writes the bytes it
is given and records their sha256 without reading them back. Stage wall times
and the process's peak RSS at each stage's end go to the unlisted
`timing.json`, so the manifest is byte-stable across reruns.
`csv_text` and `json_text` are the two table layouts every artifact uses.
"""

import hashlib
import json
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Union

from . import __version__


def write_files(directory: str, files: Mapping[str, bytes]) -> None:
    """Write each {relative path: bytes} under directory, creating parent directories."""
    for rel, blob in files.items():
        path = os.path.join(directory, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(blob)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The artifact CSV layout: a float cell is repr(float(v)), None is empty, anything else str(v)."""
    def cell(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


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
    peak_rss_mb: Dict[str, float] = field(default_factory=dict)

    def put(self, rel: str, data: Union[str, bytes]) -> None:
        """Write text (as UTF-8) or bytes to run_dir/rel and register their sha256."""
        blob = data.encode() if isinstance(data, str) else data
        write_files(self.run_dir, {rel: blob})
        self.outputs[rel] = hashlib.sha256(blob).hexdigest()

    @contextmanager
    def stage(self, name: str):
        """Record the wall time of the enclosed block as stage `name` in timing.json,
        and the process's peak RSS so far (`ru_maxrss`) when it ends."""
        t0 = time.perf_counter()
        yield
        self.timing_ms[name] = int(round((time.perf_counter() - t0) * 1000))
        self.peak_rss_mb[name] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)

    def write(self) -> None:
        """Once the run has succeeded, write manifest.json and timing.json (neither registered).

        First the files the previous manifest lists and this run did not `put`
        go: only paths inside run_dir, with directories left empty, so no
        artifact outlives its run. A run that fails before `write` removes nothing.
        """
        self._remove_stale()
        manifest = {"config_hash": self.config_hash, "version": __version__, "outputs": self.outputs}
        write_files(self.run_dir, {
            "manifest.json": json_text(manifest).encode(),
            "timing.json": json_text({"stage_wall_ms": self.timing_ms,
                                      "stage_peak_rss_mb": self.peak_rss_mb}).encode(),
        })

    def _remove_stale(self) -> None:
        try:
            with open(os.path.join(self.run_dir, "manifest.json")) as fh:
                listed = list(json.load(fh)["outputs"].keys())
        except (OSError, ValueError, LookupError, TypeError, AttributeError):  # no previous run, or not ours
            return
        root = os.path.realpath(self.run_dir)
        kept = {os.path.realpath(os.path.join(root, rel)) for rel in self.outputs}
        for rel in listed:
            path = os.path.realpath(os.path.join(root, rel))
            if path in kept or os.path.commonpath([root, path]) != root or not os.path.isfile(path):
                continue
            os.remove(path)
            parent = os.path.dirname(path)
            while parent != root and not os.listdir(parent):
                os.rmdir(parent)
                parent = os.path.dirname(parent)
