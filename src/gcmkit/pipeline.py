"""Pipeline orchestration: validated configs and staged runs.

Every stage hands its artifacts (CSV and JSON text, and the files the GCF
and checkpoint encoders return) to `artifacts.RunManifest.put`, which
writes each one and lists its sha256 in the run's `manifest.json`; this
module opens no file for writing.

The rank stage has one path at every scale: each cube source streams
fixed-size time blocks from its payloads, derives DTR and regrids per
block, and `metrics.sweep` scores every (zone, season) context from them,
so its memory is bounded by about one block per source.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gcf
from .artifacts import RunManifest, config_hash, json_text
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
from .metrics import (
    BLOCK,
    ZONE_OVERALL,
    context_index,
    report_rows_to_csv,
    report_rows_to_json,
    sweep,
)
from .ranking import (
    Criterion,
    WeightNet,
    WeightNetConfig,
    assemble_matrix,
    default_criteria,
    evaluate_weightnet,
    heatmap_table,
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


def _typed(block: dict, key: str, default, types: tuple, prefix: str = ""):
    """block[key], or default when absent, checked to be exactly one of `types` (so no bool for int)."""
    value = block.get(key, default)
    names = " or ".join(t.__name__ for t in types)
    _require(type(value) in types, "config", f"{prefix}{key} must be {names}, got {value!r}")
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
        labels = [m.get("label") for m in raw["models"]]
        _require(all(labels), stage, "every model needs a label")
        _require(len(set(labels)) == len(labels), stage, "model labels must be unique")
        _require("reference" in raw, stage, "reference cube required")
        _require("mask" in raw, stage, "zone mask required")
        for where, spec in [(f"model {m['label']}", m) for m in raw["models"]] + [("reference", raw["reference"])]:
            for key in ("path", "tasmax", "tasmin"):
                if key in spec:
                    _require(os.path.isdir(spec[key]), stage, f"{where}: missing path {spec[key]}")
        _require(os.path.isdir(raw["mask"]), stage, f"mask path {raw['mask']} does not exist")

        seasons = tuple(raw.get("seasons", ALL_SEASON_IDS))
        _require(all(s in SEASONS for s in seasons), stage, f"unknown season in {seasons}")
        zones = tuple(raw.get("zones", DEFAULT_ZONE_KEYS))
        _require(
            all(z in ZONE_BY_NAME or z == ZONE_OVERALL for z in zones),
            stage,
            f"zones must name {sorted(ZONE_BY_NAME)} or {ZONE_OVERALL!r}",
        )
        names = raw.get("criteria")
        criteria = default_criteria(tuple(names)) if names else default_criteria()
        weights = raw.get("weights", "uniform")
        if isinstance(weights, dict):
            _require("checkpoint" in weights, stage, "weights object needs a 'checkpoint' key")
            _require(os.path.isdir(weights["checkpoint"]), stage, f"weights checkpoint {weights['checkpoint']} missing")
        else:
            _require(weights in ("uniform", "train"), stage, f"weights must be uniform, train or a checkpoint, got {weights!r}")
        seed = _typed(raw, "seed", 0, (int,))
        wn_raw = raw.get("weightnet", {})
        _require(isinstance(wn_raw, dict), stage, f"weightnet must be a JSON object, got {wn_raw!r}")
        wn = WeightNetConfig(
            epochs=_typed(wn_raw, "epochs", 50, (int,), "weightnet."),
            warm_epochs=_typed(wn_raw, "warm_epochs", 5, (int,), "weightnet."),
            batch_size=_typed(wn_raw, "batch_size", 32, (int,), "weightnet."),
            learning_rate=float(_typed(wn_raw, "learning_rate", 1e-3, (int, float), "weightnet.")),
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
            pdf_bins=_typed(raw, "pdf_bins", 100, (int,)),
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
        results, weights_used, top5 = rank_all(reports, weight_source, config.criteria)
        _write_rank_outputs(manifest, config, reports, results, weights_used, top5)

    manifest.write()
    return manifest


def _write_rank_outputs(manifest, config, reports, results, weights_used, top5) -> None:
    report_rows = []
    for (zone_key, season_id) in sorted(reports):
        for label, rep in reports[(zone_key, season_id)]:
            row = {"model": label, "zone": zone_key, "season": season_id}
            row.update(rep.as_dict())
            report_rows.append(row)
    manifest.put("reports.csv", report_rows_to_csv(report_rows))
    manifest.put("reports.json", report_rows_to_json(report_rows))

    by_context = {res.context: res for res in results}
    metric_names = list(reports[next(iter(sorted(reports)))][0][1].as_dict().keys())
    metric_names = [m for m in metric_names if m not in ("n", "flags")]
    lines = ["context,model,cc,d_plus,d_minus,rank," + ",".join(metric_names) + ",n"]
    for ctx in sorted(by_context):
        res = by_context[ctx]
        rep_by_label = dict(reports[ctx])
        for label in res.order:
            i = res.models.index(label)
            rep = rep_by_label[label]
            raw = ["" if rep.value(m) is None else repr(float(rep.value(m))) for m in metric_names]
            lines.append(
                f"{ctx[0]}/{ctx[1]},{label},{float(res.cc[i])!r},"
                f"{float(res.d_plus[i])!r},{float(res.d_minus[i])!r},{res.rank_of(label)},"
                + ",".join(raw)
                + f",{rep.n}"
            )
    manifest.put("ranking.csv", "\n".join(lines) + "\n")

    models, contexts, matrix = heatmap_table(results)
    lines = ["model," + ",".join(contexts)]
    for i, label in enumerate(models):
        lines.append(label + "," + ",".join(repr(float(v)) for v in matrix[i]))
    manifest.put("heatmap.csv", "\n".join(lines) + "\n")

    weights_obj = {
        f"{ctx[0]}/{ctx[1]}": {"weights": [float(v) for v in wv.w], "source": src,
                               "criteria": [c.name for c in by_context[ctx].criteria]}
        for ctx, (wv, src) in sorted(weights_used.items())
    }
    manifest.put("weights.json", json_text(weights_obj))

    keys = ("score", "bias", "rmse", "kge", "nse", "pdf_overlap")
    lines = ["zone,season,rank,model," + ",".join(keys)]
    for row in top5:
        values = ["" if row[k] is None else repr(float(row[k])) for k in keys]
        lines.append(",".join([row["zone"], row["season"], str(row["rank"]), row["model"]] + values))
    manifest.put("top5.csv", "\n".join(lines) + "\n")
    manifest.put("config.json", json_text(config.raw))


def _train_config(kind: str, overrides: dict):
    """The benchmark preset for `kind` with `overrides` applied and validated."""
    tcfg = desk_train_config(kind, "benchmark")
    known = sorted(f.name for f in fields(tcfg))
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ValidationError(f"unknown train key(s) {unknown}; known: {known}")
    return replace(tcfg, **overrides)


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
    os.makedirs(run_dir, exist_ok=True)  # the trainer writes each train log straight into it
    manifest = RunManifest(run_dir, config_hash({"archs": list(archs), "seed": seed, "data": data_spec or "bundled"}))

    with manifest.stage("data"):
        train_set, test_set = dsc.spec_split(data_spec) if data_spec else dsc.benchmark_sets()

    predictions = {}
    for kind in archs:
        with manifest.stage(f"train.{kind}"):
            cfg = desk_arch_config(kind, seed=seed)
            log_path = os.path.join(run_dir, f"{kind}_train_log.csv")
            result = dsc.train(cfg, train_set, tcfgs[kind], log_path=log_path)
            # an aborted run keeps its last good parameters on disk
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


def run_report(rank_dir: str, out_dir: str, downscale_dir: Optional[str] = None) -> RunManifest:
    """Re-derive plot-ready bundles from a finished rank run.

    Emits the ranking heatmap matrix, the per-(zone, season) mean-score
    table, the best-model-per-cell raster (each land cell gets the top
    model of its zone's full-year context) and, when a downscale run is
    given, the architecture comparison table. A rank run whose
    ranking.csv or config.json cannot be read is a ValidationError that
    names the file.
    """
    _require(os.path.isdir(rank_dir), "report", f"run dir {rank_dir} does not exist")
    ranking_path = os.path.join(rank_dir, "ranking.csv")
    config_path = os.path.join(rank_dir, "config.json")
    _require(os.path.isfile(ranking_path), "report", f"{rank_dir} holds no ranking.csv (empty run dir?)")
    _require(os.path.isfile(config_path), "report", f"{rank_dir} holds no config.json")
    with open(ranking_path, "rb") as fh:
        ranking = fh.read()
    manifest = RunManifest(out_dir, hashlib.sha256(ranking).hexdigest())

    with manifest.stage("report"):
        cc: Dict[Tuple[str, str], Dict[str, float]] = {}
        try:
            lines = ranking.decode().splitlines()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"[report] {ranking_path} is not UTF-8 text: {exc}") from None
        idx = {name: i for i, name in enumerate(lines[0].strip().split(",") if lines else ())}
        missing = [name for name in ("context", "model", "cc") if name not in idx]
        _require(not missing, "report", f"{ranking_path} lacks column(s) {missing}")
        for number, line in enumerate(lines[1:], start=2):
            parts = line.strip().split(",")
            try:
                zone_key, season_id = parts[idx["context"]].split("/")
                cc.setdefault((zone_key, season_id), {})[parts[idx["model"]]] = float(parts[idx["cc"]])
            except (IndexError, ValueError):
                raise ValidationError(f"[report] {ranking_path} line {number} is malformed: {line!r}") from None
        _require(bool(cc), "report", f"{ranking_path} holds no rows")

        # heatmap matrix (models x contexts)
        contexts = sorted(cc)
        models = sorted(next(iter(cc.values())))
        lines = ["model," + ",".join(f"{z}/{s}" for z, s in contexts)]
        for label in models:
            lines.append(label + "," + ",".join(repr(cc[ctx][label]) for ctx in contexts))
        manifest.put("fig3_heatmap.csv", "\n".join(lines) + "\n")

        # mean score per (zone, season); zone rows also carry the across-zone
        # mean of the per-zone means as an alternative aggregate
        zone_keys = sorted({z for z, _ in contexts})
        mean_cc = {ctx: float(np.mean(list(cc[ctx].values()))) for ctx in contexts}
        lines = ["zone,season,mean_cc,mean_of_zone_means"]
        for zone_key, season_id in contexts:
            extra = ""
            if zone_key == ZONE_OVERALL:
                member = [
                    mean_cc[(z, season_id)]
                    for z in zone_keys
                    if z != ZONE_OVERALL and (z, season_id) in mean_cc
                ]
                if member:
                    extra = repr(float(np.mean(member)))
            lines.append(f"{zone_key},{season_id},{mean_cc[(zone_key, season_id)]!r},{extra}")
        manifest.put("fig4_mean_scores.csv", "\n".join(lines) + "\n")

        # best model per land cell from each zone's full-year winner
        raw_config = read_json_object(config_path, "[report] rank config")
        _require("mask" in raw_config, "report", f"{config_path} names no zone mask")
        mask = gcf.read_mask(raw_config["mask"])
        label_index = {label: i for i, label in enumerate(models)}
        raster = np.full(mask.codes.shape, -9999.0)
        for zone_key in zone_keys:
            if zone_key != ZONE_OVERALL and (zone_key, "ANNUAL") in cc:
                winner = min(cc[(zone_key, "ANNUAL")].items(), key=lambda kv: (-kv[1], kv[0]))[0]
                raster[mask.codes == ZONE_BY_NAME[zone_key]] = float(label_index[winner])
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
