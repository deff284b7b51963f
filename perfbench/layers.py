"""Per-layer metrics: what each one is, where it is measured, what it moves.

Values are per round (one rank call, or one downscale call for each of the
four architectures): times and counts are summed over the calls of a round,
and `*_per_step` values are per optimizer step of that architecture. A
metric reads 0 on a workload where its layer does not run.

`LAYER_METRICS` holds (name, unit, workloads it is declared for, the
end-to-end metric it should move). perfbench/README.md carries the same
map in prose.
"""

import json
import os
import statistics
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from tracing import Tracer, op_layer_values
from workloads import ARCHS

RANK = ("rank-mem", "rank-stream")
MEM = ("rank-mem",)
STREAM = ("rank-stream",)
DS = ("downscale-train",)

LAYER_METRICS: List[Tuple[str, str, Tuple[str, ...], str]] = [
    ("gcf.read_s", "s", RANK, "op_s on rank-mem (rank_s)"),
    ("gcf.chunk_read_s", "s", STREAM, "op_s on rank-stream (rank_s)"),
    ("gcf.bytes_read", "bytes", RANK, "op_s on rank-stream (rank_s)"),
    ("geogrid.regrid_s", "s", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("geogrid.dtr_s", "s", MEM, "op_s on rank-mem (rank_s)"),
    ("geogrid.select_season_s", "s", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("geogrid.select_season_calls", "count", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("metrics.pool_s", "s", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("metrics.pool_calls", "count", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("metrics.report_s", "s", MEM + DS, "op_s on rank-mem (rank_s)"),
    ("metrics.stream_s", "s", STREAM, "op_s on rank-stream (rank_s)"),
    ("metrics.pairs_pooled", "count", RANK + DS, "invariant: a perf change leaves it unchanged"),
    ("metrics.flagged", "count", RANK + DS, "invariant: a perf change leaves it unchanged"),
    ("ranking.weightnet_train_s", "s", RANK, "op_s on both rank workloads (rank_s)"),
    ("ranking.rank_all_s", "s", RANK, "op_s on both rank workloads (rank_s)"),
    ("ranking.assemble_matrix_calls", "count", RANK, "op_s on both rank workloads (rank_s)"),
]
for _arch in ARCHS + ("weightnet",):
    _where = RANK if _arch == "weightnet" else DS
    _moves = "op_s on both rank workloads (rank_s)" if _arch == "weightnet" else f"op_s on downscale-train (downscale_s.{_arch})"
    LAYER_METRICS += [
        (f"tensorcore.forward_ms_per_step.{_arch}", "ms", _where, _moves),
        (f"tensorcore.backward_ms_per_step.{_arch}", "ms", _where, _moves),
        (f"tensorcore.optim_ms_per_step.{_arch}", "ms", _where, _moves),
        (f"tensorcore.nodes_per_step.{_arch}", "count", _where, _moves),
    ]
for _arch in ARCHS:
    _moves = f"op_s on downscale-train (downscale_s.{_arch})"
    LAYER_METRICS += [
        (f"downscale.train_s.{_arch}", "s", DS, _moves),
        (f"downscale.trainer_self_ms_per_step.{_arch}", "ms", DS, _moves),
        (f"downscale.predict_s.{_arch}", "s", DS, _moves),
    ]
LAYER_METRICS += [
    ("downscale.data_s", "s", DS, "op_s on downscale-train"),
    ("downscale.evaluate_s", "s", DS, "op_s on downscale-train"),
]
for _stage in ("load", "metrics", "weights", "rank"):
    LAYER_METRICS.append((f"pipeline.stage_ms.{_stage}", "ms", RANK, "op_s on both rank workloads (rank_s)"))
for _stage in ("data",) + tuple(f"train.{a}" for a in ARCHS) + ("evaluate",):
    LAYER_METRICS.append((f"pipeline.stage_ms.{_stage}", "ms", DS, "op_s on downscale-train"))
LAYER_METRICS += [
    ("pipeline.write_s", "s", RANK, "op_s on both rank workloads (rank_s)"),
    ("pipeline.artifact_bytes", "bytes", RANK + DS, "information: bytes the run writes"),
    ("trace.overhead_pct", "%", RANK + DS, "none: traced minus untraced op_s, as a share of untraced"),
]

UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}
EXACT = {name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "bytes")}

# which wrapped target feeds each metric, to explain a metric that is absent
SOURCES = {
    "gcf.read_s": "gcmkit.gcf.read_cube",
    "gcf.chunk_read_s": "gcmkit.gcf.iter_time_chunks",
    "geogrid.regrid_s": "gcmkit.geogrid.regrid_bilinear",
    "geogrid.dtr_s": "gcmkit.geogrid.derive_dtr",
    "geogrid.select_season_s": "gcmkit.geogrid.select_season",
    "geogrid.select_season_calls": "gcmkit.geogrid.select_season",
    "metrics.pool_s": "gcmkit.metrics.pool",
    "metrics.pool_calls": "gcmkit.metrics.pool",
    "metrics.report_s": "gcmkit.metrics.compute_report",
    "metrics.stream_s": "gcmkit.metrics.StreamingPool.update",
    "ranking.weightnet_train_s": "gcmkit.ranking.train_weightnet",
    "ranking.rank_all_s": "gcmkit.ranking.rank_all",
    "ranking.assemble_matrix_calls": "gcmkit.ranking.assemble_matrix",
    "downscale.data_s": "gcmkit.downscale.data.benchmark_sets",
    "downscale.evaluate_s": "gcmkit.downscale.evaluate.comparison_table",
}


def _artifact_values(run_dir: str) -> Dict[str, float]:
    """Values read from the run's own files: stage timings, artifact sizes,
    pooled pair counts and flagged metric slots."""
    out: Dict[str, float] = {}
    with open(os.path.join(run_dir, "timing.json")) as fh:
        for stage, ms in json.load(fh)["stage_wall_ms"].items():
            out[f"pipeline.stage_ms.{stage}"] = float(ms)
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        outputs = json.load(fh)["outputs"]
    out["pipeline.artifact_bytes"] = sum(os.path.getsize(os.path.join(run_dir, rel)) for rel in outputs)
    report = "reports.csv" if "reports.csv" in outputs else "downscale_report.csv"
    pairs = flagged = 0
    with open(os.path.join(run_dir, report)) as fh:
        header = fh.readline().strip().split(",")
        n_col = header.index("n")
        valid_cols = [i for i, h in enumerate(header) if h.endswith("_valid")]
        for line in fh:
            cells = line.strip().split(",")
            pairs += int(cells[n_col])
            flagged += sum(cells[i] == "False" for i in valid_cols)
    out["metrics.pairs_pooled"] = pairs
    out["metrics.flagged"] = flagged
    return out


def call_values(tracer: Tracer, first_span: int, run_dir: str) -> Dict[str, float]:
    """Every per-layer value one call produced."""
    raw = op_layer_values(tracer, first_span)
    counts = tracer.counts
    try:
        out = _artifact_values(run_dir)
    except (OSError, ValueError, KeyError):  # reported as absent metrics
        out = {}
    for name in ("gcf.read", "gcf.chunk_read", "geogrid.regrid", "geogrid.dtr", "geogrid.select_season",
                 "metrics.pool", "metrics.report", "metrics.stream", "ranking.weightnet_train",
                 "ranking.rank_all", "downscale.data", "downscale.evaluate"):
        if name + "_s" in raw:
            out[name + "_s"] = raw[name + "_s"]
    for name in ("gcf.bytes_read", "geogrid.select_season_calls", "metrics.pool_calls",
                 "ranking.assemble_matrix_calls"):
        if name in counts:
            out[name] = counts[name]
    for arch in ARCHS + ("weightnet",):
        steps = counts.get(f"tensorcore.steps.{arch}", 0)
        if not steps:
            continue
        for part in ("forward", "backward", "optim"):
            out[f"tensorcore.{part}_ms_per_step.{arch}"] = 1000.0 * raw.get(f"tensorcore.{part}.{arch}_s", 0.0) / steps
        out[f"tensorcore.nodes_per_step.{arch}"] = counts.get(f"tensorcore.nodes.{arch}", 0) / steps
        if f"downscale.train.{arch}_s" in raw:
            out[f"downscale.train_s.{arch}"] = raw[f"downscale.train.{arch}_s"]
            out[f"downscale.trainer_self_ms_per_step.{arch}"] = 1000.0 * raw[f"downscale.trainer_self.{arch}_s"] / steps
    for key, value in raw.items():
        if key.startswith("downscale.predict.") and key.endswith("_s"):
            out["downscale.predict_s." + key[len("downscale.predict."):-2]] = value
    if "pipeline.stage_ms.rank" in out and "ranking.rank_all_s" in out:
        out["pipeline.write_s"] = out["pipeline.stage_ms.rank"] / 1000.0 - out["ranking.rank_all_s"]
    return out


def aggregate(calls: List[Tuple[str, Dict[str, float]]]) -> Tuple[Dict[str, float], List[str]]:
    """Per-round values from per-call values, and exact counts that differ
    between repetitions of the same call."""
    by_label: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for label, values in calls:
        for name, value in values.items():
            by_label[label][name].append(value)
    per_round: Counter = Counter()
    problems = []
    for label, metrics in sorted(by_label.items()):
        for name, values in metrics.items():
            if name in EXACT and len(set(values)) > 1:
                problems.append(f"{name} differs between repetitions of {label}: {sorted(set(values))}")
            per_round[name] += statistics.median(values)
    return dict(per_round), problems
