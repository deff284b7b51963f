"""Pipeline orchestration: validated configs and staged runs.

Every stage hands its artifacts (`artifacts.csv_text` and `json_text`
tables, and the files the GCF and checkpoint encoders return) to
`artifacts.RunManifest.put`, which writes each one and lists its sha256
in the run's `manifest.json`; only the downscale train logs, which hold
wall times, are written unlisted. This module opens no file for writing.

The rank stage has one path at every scale: each cube source streams
fixed-size time blocks from its payloads, derives DTR and regrids per
block, and `metrics.sweep` scores every (zone, season) context from them,
so its memory is bounded by about one block per source.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gcf
from .artifacts import RunManifest, config_hash, csv_text, json_text, write_files
from .errors import NumericFault, ValidationError
from .geogrid import (
    DataCube,
    LAND_ZONES,
    SEASONS,
    ZONE_NAMES,
    bilinear_blend,
    bilinear_weights,
    check_dtr_pair,
    dtr_values,
)
from .metrics import BLOCK, MAX_BINS, METRIC_NAMES, ZONE_OVERALL, context_index, report_rows_to_csv, sweep
from .ranking import (
    Criterion,
    WeightNet,
    WeightNetConfig,
    assemble_matrix,
    default_criteria,
    evaluate_weightnet,
    heatmap_csv,
    order_by_cc,
    rank_all,
    train_weightnet,
)
from . import downscale as dsc
from .downscale.presets import desk_arch_config, desk_train_config
from .tensorcore import encode_checkpoint

ZONE_BY_NAME = {name: code for code, name in ZONE_NAMES.items()}
ALL_SEASON_IDS = ("DJF", "MAM", "JJA", "SON", "ANNUAL")
DEFAULT_ZONE_KEYS = tuple(ZONE_NAMES[z] for z in LAND_ZONES) + (ZONE_OVERALL,)


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in `path`; a malformed file or another JSON value is a ValidationError."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} {path} is not a JSON object")
    return obj


def _require(condition: bool, stage: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"[{stage}] {message}")


def _typed(block: dict, key: str, default, types: tuple, prefix: str = "", low=-math.inf, high=math.inf):
    """block[key], or default when absent, checked to be exactly one of `types` (so no bool for int)
    and, for an int, to lie in [low, high]."""
    value = block.get(key, default)
    names = " or ".join(t.__name__ for t in types)
    _require(type(value) in types, "config", f"{prefix}{key} must be {names}, got {value!r}")
    _require(type(value) is not int or low <= value <= high, "config", f"{prefix}{key} must lie in [{low}, {high}], got {value}")
    return value


@dataclass
class PipelineConfig:
    """Validated rank-stage configuration."""

    seed: int
    reference: dict
    models: List[dict]
    mask: str
    seasons: Tuple[str, ...]
    zones: Tuple[str, ...]
    criteria: List[Criterion]
    weights: object  # "uniform" | "train" | {"checkpoint": path}
    pdf_bins: int = 100
    weightnet: WeightNetConfig = None
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        _require(os.path.isfile(path), "config", f"config file {path} does not exist")
        raw = read_json_object(path, "[config] config file")
        try:
            return cls.from_dict(raw)
        except ValidationError as exc:
            raise ValidationError(f"{exc} (config file {path})") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        stage = "config"
        _require(raw.get("schema_version") == 1, stage, "schema_version must be 1")
        _require("models" in raw and isinstance(raw["models"], list), stage, "models list required")
        _require(len(raw["models"]) >= 2, stage, "ranking needs at least 2 models")
        for i, m in enumerate(raw["models"]):
            _require(isinstance(m, dict), stage, f"models[{i}] must be a JSON object, got {m!r}")
            label = m.get("label")
            # labels are CSV cells of ranking.csv and top5.csv, which are not quoted
            _require(isinstance(label, str) and label and not any(c in label for c in ",\n\r"), stage,
                     f"models[{i}].label must be a non-empty string without ',' or a line break, got {label!r}")
        labels = [m["label"] for m in raw["models"]]
        _require(len(set(labels)) == len(labels), stage, "model labels must be unique")
        _require("reference" in raw, stage, "reference cube required")
        _require(isinstance(raw["reference"], dict), stage, f"reference must be a JSON object, got {raw['reference']!r}")
        _require("mask" in raw, stage, "zone mask required")
        _require(isinstance(raw["mask"], str), stage, f"mask must be a path string, got {raw['mask']!r}")
        for where, spec in [(f"model {m['label']}", m) for m in raw["models"]] + [("reference", raw["reference"])]:
            for key in ("path", "tasmax", "tasmin"):
                if key in spec:
                    _require(isinstance(spec[key], str), stage, f"{where}: {key} must be a path string, got {spec[key]!r}")
                    _require(os.path.isdir(spec[key]), stage, f"{where}: missing path {spec[key]}")
        _require(os.path.isdir(raw["mask"]), stage, f"mask path {raw['mask']} does not exist")

        seasons = tuple(_typed(raw, "seasons", list(ALL_SEASON_IDS), (list,)))
        _require(
            seasons and all(isinstance(s, str) and s in SEASONS for s in seasons),
            stage,
            f"seasons must name some of {list(SEASONS)}",
        )
        zones = tuple(_typed(raw, "zones", list(DEFAULT_ZONE_KEYS), (list,)))
        _require(
            zones and all(isinstance(z, str) and (z in ZONE_BY_NAME or z == ZONE_OVERALL) for z in zones),
            stage,
            f"zones must name some of {sorted(ZONE_BY_NAME)} or {ZONE_OVERALL!r}",
        )
        names = _typed(raw, "criteria", [], (list,))
        _require(all(isinstance(n, str) for n in names), stage, f"criteria must be a list of criterion names, got {names!r}")
        criteria = default_criteria(tuple(names)) if names else default_criteria()
        weights = raw.get("weights", "uniform")
        if isinstance(weights, dict):
            _require(isinstance(weights.get("checkpoint"), str), stage, "weights object needs a 'checkpoint' path string")
            _require(os.path.isdir(weights["checkpoint"]), stage, f"weights checkpoint {weights['checkpoint']} missing")
        else:
            _require(weights in ("uniform", "train"), stage, f"weights must be uniform, train or a checkpoint, got {weights!r}")
        seed = _typed(raw, "seed", 0, (int,))
        wn_raw = raw.get("weightnet", {})
        _require(isinstance(wn_raw, dict), stage, f"weightnet must be a JSON object, got {wn_raw!r}")
        learning_rate = float(_typed(wn_raw, "learning_rate", 1e-3, (int, float), "weightnet."))
        _require(0.0 < learning_rate < math.inf, stage,
                 f"weightnet.learning_rate must be positive and finite, got {learning_rate!r}")
        wn = WeightNetConfig(
            epochs=_typed(wn_raw, "epochs", 50, (int,), "weightnet.", low=1),
            warm_epochs=_typed(wn_raw, "warm_epochs", 5, (int,), "weightnet.", low=0),
            batch_size=_typed(wn_raw, "batch_size", 32, (int,), "weightnet.", low=1),
            learning_rate=learning_rate,
            seed=seed,
        )
        return cls(
            seed=seed,
            reference=raw["reference"],
            models=raw["models"],
            mask=raw["mask"],
            seasons=seasons,
            zones=zones,
            criteria=criteria,
            weights=weights,
            pdf_bins=_typed(raw, "pdf_bins", 100, (int,), low=2, high=MAX_BINS),
            weightnet=wn,
            raw=raw,
        )


class _CubeSource:
    """One rank source, a cube {"path"} or a tasmax/tasmin pair, as re-iterable (t0, block) pairs.

    Opening it validates every header once, and a model's times against the
    reference (`like`). Each iteration streams BLOCK time steps at a time:
    a pair is read in step and turned into DTR per block, and a model off
    the reference grid is regridded per block, with the bits of that slice
    of the whole-cube `regrid_bilinear(derive_dtr(...))`.
    """

    def __init__(self, spec: dict, name: str, like: "_CubeSource" = None):
        keys = ("path",) if "path" in spec else ("tasmax", "tasmin")
        _require(all(k in spec for k in keys), "load",
                 f"{name}: cube source needs 'path' or 'tasmax'+'tasmin', got {sorted(spec)}")
        self.paths = tuple(spec[k] for k in keys)
        try:
            heads = [gcf.read_header(path) for path in self.paths]
            if len(heads) == 2:
                check_dtr_pair(*heads)
        except ValidationError as exc:
            raise ValidationError(f"[load] {name}: {exc}") from None
        head = heads[0]
        self.time, self.fill, self.fills = head.time, head.fill, [h.fill for h in heads]
        self.lat, self.lon, self.corners = head.lat, head.lon, None
        if like is not None:
            _require(head.time == like.time, "load", f"{name} and the reference cover different times")
            self.lat, self.lon = like.lat, like.lon
            if not (head.lat == like.lat and head.lon == like.lon):
                self.corners = bilinear_weights(head.lat, head.lon, like.lat, like.lon)

    def __iter__(self):
        lows = gcf.iter_time_chunks(self.paths[1], BLOCK) if len(self.paths) == 2 else None
        # each step rebinds `block`, so a source never holds more than the block it yields
        for t0, block in gcf.iter_time_chunks(self.paths[0], BLOCK):
            if lows is not None:
                block = dtr_values(block, next(lows)[1], *self.fills, where=lambda t, y, x: (
                    f"time index {t0 + t} ({'%04d-%02d-%02d' % self.time[t0 + t]}) of {self.paths[1]}"))
            if self.corners is not None:
                block = bilinear_blend(block, self.corners, self.fill)
            yield t0, block


def run_rank(config: PipelineConfig, run_dir: str) -> RunManifest:
    """Full ranking stage: load, score every (zone, season) context, rank, export.

    No payload is loaded whole: each model is swept once, block by block
    alongside the reference, so memory is bounded by about one block per
    `_CubeSource` at any cube size.
    """
    manifest = RunManifest(run_dir, config_hash(config.raw))
    specs = {spec["label"]: spec for spec in config.models}

    with manifest.stage("load"):
        mask = gcf.read_mask(config.mask)
        obs = _CubeSource(config.reference, "reference")
        _require(mask.lat == obs.lat and mask.lon == obs.lon, "load", "zone mask must be on the reference grid")
        models = {label: _CubeSource(specs[label], f"model {label}", like=obs) for label in sorted(specs)}

    with manifest.stage("metrics"):
        months = np.array([m for _, m, _ in obs.time])
        index = context_index(months, mask, {z: ZONE_BY_NAME.get(z, z) for z in config.zones}, config.seasons)
        per_model = {
            label: sweep(source, obs, index, source.fill, obs.fill, config.pdf_bins, label=f"model {label}")
            for label, source in models.items()
        }
        reports = {ctx: [(label, per_model[label][ctx]) for label in models] for ctx, _, _ in index}

    with manifest.stage("weights"):
        weight_source = config.weights
        if weight_source == "train":
            matrices = [
                assemble_matrix(reports[ctx], config.criteria, context=ctx) for ctx in sorted(reports)
            ]
            net, epoch_mse = train_weightnet(matrices, config.weightnet)
            for name, blob in encode_checkpoint(*net.checkpoint()).items():
                manifest.put(f"weightnet.ckpt/{name}", blob)
            history = {"epoch_mse": epoch_mse, "context_mse": evaluate_weightnet(net, matrices)}
            manifest.put("weightnet_history.json", json.dumps(history, indent=1) + "\n")
            weight_source = net
        elif isinstance(weight_source, dict):
            weight_source = WeightNet.load(weight_source["checkpoint"])

    with manifest.stage("rank"):
        results, weights_used = rank_all(reports, weight_source, config.criteria)
        _write_rank_outputs(manifest, config, reports, results, weights_used)

    manifest.write()
    return manifest


RANKING_COLUMNS = ["context", "model", "cc", "d_plus", "d_minus", "rank", *METRIC_NAMES, "n"]
TOP5_COLUMNS = ["zone", "season", "rank", "model", "score", "bias", "rmse", "kge", "nse", "pdf_overlap"]


def _write_rank_outputs(manifest, config, reports, results, weights_used) -> None:
    report_rows = [
        {"model": label, "zone": zone_key, "season": season_id, **rep.as_dict()}
        for (zone_key, season_id) in sorted(reports)
        for label, rep in reports[(zone_key, season_id)]
    ]
    manifest.put("reports.csv", report_rows_to_csv(report_rows))
    manifest.put("reports.json", json_text(report_rows))

    ranking = []  # one row per (context, model) in rank order; top5.csv is its rank <= 5 rows
    for res in results:
        reps = dict(reports[res.context])
        for rank, label in enumerate(res.order, start=1):
            i = res.models.index(label)
            ranking.append({"context": "/".join(res.context), "zone": res.context[0], "season": res.context[1],
                            "model": label, "rank": rank, "cc": res.cc[i], "score": res.cc[i],
                            "d_plus": res.d_plus[i], "d_minus": res.d_minus[i], **reps[label].as_dict()})
    manifest.put("ranking.csv", csv_text(RANKING_COLUMNS, ([row[c] for c in RANKING_COLUMNS] for row in ranking)))
    manifest.put("heatmap.csv", heatmap_csv({res.context: dict(zip(res.models, res.cc)) for res in results}))

    by_context = {res.context: res for res in results}
    weights_obj = {
        f"{ctx[0]}/{ctx[1]}": {"weights": [float(v) for v in wv.w], "source": src,
                               "criteria": [c.name for c in by_context[ctx].criteria]}
        for ctx, (wv, src) in sorted(weights_used.items())
    }
    manifest.put("weights.json", json_text(weights_obj))
    manifest.put("top5.csv", csv_text(TOP5_COLUMNS, (
        [row[c] for c in TOP5_COLUMNS] for row in ranking if row["rank"] <= 5
    )))
    manifest.put("config.json", json_text(config.raw))


def _train_config(kind: str, overrides: dict):
    """The benchmark preset for `kind` with `overrides` applied and validated."""
    tcfg = desk_train_config(kind, "benchmark")
    known = sorted(f.name for f in fields(tcfg))
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ValidationError(f"unknown train key(s) {unknown}; known: {known}")
    return replace(tcfg, **overrides)


LOG_COLUMNS = ["epoch", "train_loss", "val_loss", "wall_ms"]


def run_downscale(
    run_dir: str,
    archs: Sequence[str] = dsc.ARCH_KINDS,
    data_spec: Optional[dict] = None,
    seed: int = 0,
    train_overrides: Optional[dict] = None,
) -> RunManifest:
    """Downscale stage: train each architecture, evaluate against baseline.

    Without a data spec the bundled synthetic benchmark is used; a data
    spec {"coarse": gcf_path, "fine": gcf_path, "window": t} trains on the
    first 80% of its windows and evaluates on the held-out rest, the same
    split `downscale eval --data` scores (`dsc.spec_split`).
    """
    tcfgs = {kind: _train_config(kind, train_overrides or {}) for kind in archs}
    manifest = RunManifest(run_dir, config_hash({"archs": list(archs), "seed": seed, "data": data_spec or "bundled"}))

    with manifest.stage("data"):
        train_set, test_set = dsc.spec_split(data_spec) if data_spec else dsc.benchmark_sets()

    predictions = {}
    for kind in archs:
        with manifest.stage(f"train.{kind}"):
            cfg = desk_arch_config(kind, seed=seed)
            result = dsc.train(cfg, train_set, tcfgs[kind])
            # the log holds wall times, so it stays out of the manifest; an
            # aborted run keeps its log and its last good parameters on disk
            log = ([row[c] for c in LOG_COLUMNS] for row in result.log)
            write_files(run_dir, {f"{kind}_train_log.csv": csv_text(LOG_COLUMNS, log).encode()})
            for name, blob in encode_checkpoint(*result.model.checkpoint()).items():
                manifest.put(f"{kind}.ckpt/{name}", blob)
            if result.aborted:
                raise NumericFault(f"[train.{kind}] training aborted on non-finite loss")
            predictions[kind] = dsc.predict_dataset(result.model, test_set)

    with manifest.stage("evaluate"):
        rows = dsc.comparison_table(predictions, test_set, zones=(ZONE_OVERALL,), seasons=("ANNUAL",))
        manifest.put("downscale_report.csv", report_rows_to_csv(rows))

    manifest.write()
    return manifest


def read_ranking(path: str) -> Dict[Tuple[str, str], Dict[str, float]]:
    """The closeness coefficients of a rank run's ranking.csv, as {(zone, season): {model: cc}}.

    A file that is missing, not UTF-8, without the context/model/cc
    columns or without rows, a malformed row, an unknown zone or season,
    and a context whose model set differs from the others are each a
    ValidationError naming the file and the line or context.
    """
    _require(os.path.isfile(path), "report", f"no {path} (empty run dir?)")
    with open(path, "rb") as fh:
        try:
            lines = fh.read().decode().splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"[report] {path} is not UTF-8 text: {exc}") from None
    idx = {name: i for i, name in enumerate(lines[0].strip().split(",") if lines else ())}
    missing = [name for name in ("context", "model", "cc") if name not in idx]
    _require(not missing, "report", f"{path} lacks column(s) {missing}")
    cc: Dict[Tuple[str, str], Dict[str, float]] = {}
    for number, line in enumerate(lines[1:], start=2):
        parts = line.strip().split(",")
        try:
            zone_key, season_id = parts[idx["context"]].split("/")
            label, score = parts[idx["model"]], float(parts[idx["cc"]])
        except (IndexError, ValueError):
            raise ValidationError(f"[report] {path} line {number} is malformed: {line!r}") from None
        _require((zone_key in ZONE_BY_NAME or zone_key == ZONE_OVERALL) and season_id in SEASONS, "report",
                 f"{path} line {number} names an unknown context {zone_key}/{season_id}")
        cc.setdefault((zone_key, season_id), {})[label] = score
    _require(bool(cc), "report", f"{path} holds no rows")
    first = min(cc)
    for (zone_key, season_id), scores in sorted(cc.items()):
        _require(scores.keys() == cc[first].keys(), "report", f"{path} context {zone_key}/{season_id} ranks "
                 f"{sorted(scores)}, but {first[0]}/{first[1]} ranks {sorted(cc[first])}")
    return cc


def run_report(rank_dir: str, out_dir: str, downscale_dir: Optional[str] = None) -> RunManifest:
    """Re-derive plot-ready bundles from a finished rank run.

    Emits the ranking heatmap matrix (the bytes of the run's heatmap.csv),
    the per-(zone, season) mean-score table, the best-model-per-cell raster
    (each land cell gets the top model of its zone's full-year context)
    and, when a downscale run is given, the architecture comparison table.
    A rank run whose ranking.csv or config.json cannot be read is a
    ValidationError that names the file, and so is an out_dir it reads.
    """
    _require(os.path.isdir(rank_dir), "report", f"run dir {rank_dir} does not exist")
    for source in filter(None, (rank_dir, downscale_dir)):
        _require(os.path.realpath(source) != os.path.realpath(out_dir), "report",
                 f"the bundle would replace the run it reads: {out_dir}")
    ranking_path = os.path.join(rank_dir, "ranking.csv")
    config_path = os.path.join(rank_dir, "config.json")
    cc = read_ranking(ranking_path)
    _require(os.path.isfile(config_path), "report", f"{rank_dir} holds no config.json")
    raw_config = read_json_object(config_path, "[report] rank config")
    _require("mask" in raw_config, "report", f"{config_path} names no zone mask")
    with open(ranking_path, "rb") as fh:
        manifest = RunManifest(out_dir, hashlib.sha256(fh.read()).hexdigest())

    with manifest.stage("report"):
        manifest.put("fig3_heatmap.csv", heatmap_csv(cc))

        # mean score per (zone, season); zone rows also carry the across-zone
        # mean of the per-zone means as an alternative aggregate
        contexts = sorted(cc)
        mean_cc = {ctx: float(np.mean(list(cc[ctx].values()))) for ctx in contexts}
        rows = []
        for zone_key, season_id in contexts:
            member = [mean_cc[(z, s)] for z, s in contexts if s == season_id and z != ZONE_OVERALL]
            extra = float(np.mean(member)) if zone_key == ZONE_OVERALL and member else None
            rows.append([zone_key, season_id, mean_cc[(zone_key, season_id)], extra])
        manifest.put("fig4_mean_scores.csv", csv_text(["zone", "season", "mean_cc", "mean_of_zone_means"], rows))

        # best model per land cell from each zone's full-year winner
        mask = gcf.read_mask(raw_config["mask"])
        label_index = {label: i for i, label in enumerate(sorted(cc[contexts[0]]))}
        raster = np.full(mask.codes.shape, -9999.0)
        for (zone_key, season_id), scores in sorted(cc.items()):
            if season_id == "ANNUAL" and zone_key != ZONE_OVERALL:
                raster[mask.codes == ZONE_BY_NAME[zone_key]] = float(label_index[order_by_cc(scores)[0]])
        cube = DataCube(
            lat=mask.lat, lon=mask.lon, time=((1, 1, 1),), calendar="standard",
            variable="best_model_index", data=raster[None], fill=-9999.0, units="model_index",
        )
        for name, blob in gcf.encode_cube(cube).items():
            manifest.put(f"fig5_best_model/{name}", blob)
        manifest.put("fig5_model_labels.json", json_text({"index_to_model": {str(i): m for m, i in label_index.items()}}))

        if downscale_dir:
            src = os.path.join(downscale_dir, "downscale_report.csv")
            _require(os.path.isfile(src), "report", f"{downscale_dir} holds no downscale_report.csv")
            with open(src) as fh:
                manifest.put("fig6_downscale_comparison.csv", "\n".join(fh.read().splitlines()) + "\n")

    manifest.write()
    return manifest
