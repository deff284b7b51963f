"""Pipeline orchestration: validated configs, staged runs, manifests.

Every stage writes plain CSV/JSON artifacts into a run directory and a
`manifest.json` holding the config hash, tool version and a sha256 per
output file; wall-clock numbers go to a separate `timing.json` so the
manifest itself is byte-stable across reruns of the same config and seed.

The rank stage has one path at every scale: each cube source streams
fixed-size time blocks from its payloads, derives DTR and regrids per
block, and `metrics.sweep` scores every (zone, season) context from them,
so its memory is bounded by about one block per source.
"""

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, gcf
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

ZONE_BY_NAME = {name: code for code, name in ZONE_NAMES.items()}
ALL_SEASON_IDS = ("DJF", "MAM", "JJA", "SON", "ANNUAL")
DEFAULT_ZONE_KEYS = tuple(ZONE_NAMES[z] for z in LAND_ZONES) + (ZONE_OVERALL,)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    version: str = __version__
    outputs: Dict[str, str] = field(default_factory=dict)
    timing_ms: Dict[str, int] = field(default_factory=dict)

    def add_output(self, run_dir: str, rel: str) -> None:
        self.outputs[rel] = _sha256(os.path.join(run_dir, rel))

    def write(self, run_dir: str) -> None:
        manifest = {
            "config_hash": self.config_hash,
            "version": self.version,
            "outputs": dict(sorted(self.outputs.items())),
        }
        with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(run_dir, "timing.json"), "w") as fh:
            json.dump({"stage_wall_ms": self.timing_ms}, fh, indent=1, sort_keys=True)
            fh.write("\n")


class _StageTimer:
    def __init__(self, manifest: RunManifest, name: str):
        self.manifest, self.name = manifest, name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.manifest.timing_ms[self.name] = int(round((time.perf_counter() - self.t0) * 1000))
        return False


def _require(condition: bool, stage: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"[{stage}] {message}")


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
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"[config] malformed JSON in {path}: {exc}") from None
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        stage = "config"
        _require(raw.get("schema_version") == 1, stage, "schema_version must be 1")
        _require("models" in raw and isinstance(raw["models"], list), stage, "models list required")
        _require(len(raw["models"]) >= 2, stage, "ranking needs at least 2 models")
        labels = [m.get("label") for m in raw["models"]]
        _require(all(labels), stage, "every model needs a label")
        _require(len(set(labels)) == len(labels), stage, "model labels must be unique")
        _require("reference" in raw, stage, "reference cube required")
        _require("mask" in raw, stage, "zone mask required")
        for m in raw["models"]:
            for key in ("path", "tasmax", "tasmin"):
                if key in m:
                    _require(os.path.isdir(m[key]), stage, f"model {m['label']}: missing path {m[key]}")
        for key in ("path", "tasmax", "tasmin"):
            if key in raw["reference"]:
                _require(os.path.isdir(raw["reference"][key]), stage, f"reference: missing path {raw['reference'][key]}")
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
        wn_raw = raw.get("weightnet", {})
        wn = WeightNetConfig(
            epochs=int(wn_raw.get("epochs", 50)),
            warm_epochs=int(wn_raw.get("warm_epochs", 5)),
            batch_size=int(wn_raw.get("batch_size", 32)),
            learning_rate=float(wn_raw.get("learning_rate", 1e-3)),
            seed=int(raw.get("seed", 0)),
        )
        return cls(
            seed=int(raw.get("seed", 0)),
            reference=raw["reference"],
            models=raw["models"],
            mask=raw["mask"],
            seasons=seasons,
            zones=zones,
            criteria=criteria,
            weights=weights,
            pdf_bins=int(raw.get("pdf_bins", 100)),
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
    os.makedirs(run_dir, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash(config.raw))
    specs = {spec["label"]: spec for spec in config.models}

    with _StageTimer(manifest, "load"):
        mask = gcf.read_mask(config.mask)
        obs = _CubeSource(config.reference, "reference")
        _require(mask.lat == obs.lat and mask.lon == obs.lon, "load", "zone mask must be on the reference grid")
        models = {label: _CubeSource(specs[label], f"model {label}", like=obs) for label in sorted(specs)}

    with _StageTimer(manifest, "metrics"):
        months = np.array([m for _, m, _ in obs.time])
        index = context_index(months, mask, {z: ZONE_BY_NAME.get(z, z) for z in config.zones}, config.seasons)
        per_model = {
            label: sweep(source, obs, index, source.fill, obs.fill, config.pdf_bins, label=f"model {label}")
            for label, source in models.items()
        }
        reports = {ctx: [(label, per_model[label][ctx]) for label in models] for ctx, _, _ in index}

    with _StageTimer(manifest, "weights"):
        weight_source = config.weights
        if weight_source == "train":
            matrices = [
                assemble_matrix(reports[ctx], config.criteria, context=ctx) for ctx in sorted(reports)
            ]
            net, history = train_weightnet(matrices, config.weightnet)
            net.save(os.path.join(run_dir, "weightnet.ckpt"))
            with open(os.path.join(run_dir, "weightnet_history.json"), "w") as fh:
                json.dump(
                    {"epoch_mse": history, "context_mse": evaluate_weightnet(net, matrices)},
                    fh,
                    indent=1,
                )
                fh.write("\n")
            for rel in ("weightnet_history.json", "weightnet.ckpt/manifest.json", "weightnet.ckpt/params.bin"):
                manifest.add_output(run_dir, rel)
            weight_source = net
        elif isinstance(weight_source, dict):
            weight_source = WeightNet.load(weight_source["checkpoint"])

    with _StageTimer(manifest, "rank"):
        results, weights_used, top5 = rank_all(reports, weight_source, config.criteria)
        _write_rank_outputs(run_dir, manifest, config, reports, results, weights_used, top5)

    manifest.write(run_dir)
    return manifest


def _write_rank_outputs(run_dir, manifest, config, reports, results, weights_used, top5) -> None:
    report_rows = []
    for (zone_key, season_id) in sorted(reports):
        for label, rep in reports[(zone_key, season_id)]:
            row = {"model": label, "zone": zone_key, "season": season_id}
            row.update(rep.as_dict())
            report_rows.append(row)
    report_rows_to_csv(report_rows, os.path.join(run_dir, "reports.csv"))
    report_rows_to_json(report_rows, os.path.join(run_dir, "reports.json"))

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
    with open(os.path.join(run_dir, "ranking.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    models, contexts, matrix = heatmap_table(results)
    lines = ["model," + ",".join(contexts)]
    for i, label in enumerate(models):
        lines.append(label + "," + ",".join(repr(float(v)) for v in matrix[i]))
    with open(os.path.join(run_dir, "heatmap.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    weights_obj = {
        f"{ctx[0]}/{ctx[1]}": {"weights": [float(v) for v in wv.w], "source": src,
                               "criteria": [c.name for c in by_context[ctx].criteria]}
        for ctx, (wv, src) in sorted(weights_used.items())
    }
    with open(os.path.join(run_dir, "weights.json"), "w") as fh:
        json.dump(weights_obj, fh, indent=1, sort_keys=True)
        fh.write("\n")

    lines = ["zone,season,rank,model,score,bias,rmse,kge,nse,pdf_overlap"]
    for row in top5:
        lines.append(
            ",".join(
                [
                    row["zone"],
                    row["season"],
                    str(row["rank"]),
                    row["model"],
                ]
                + ["" if row[k] is None else repr(float(row[k])) for k in ("score", "bias", "rmse", "kge", "nse", "pdf_overlap")]
            )
        )
    with open(os.path.join(run_dir, "top5.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        json.dump(config.raw, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for rel in ("reports.csv", "reports.json", "ranking.csv", "heatmap.csv", "weights.json", "top5.csv", "config.json"):
        manifest.add_output(run_dir, rel)


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
    os.makedirs(run_dir, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash({"archs": list(archs), "seed": seed, "data": data_spec or "bundled"}))

    with _StageTimer(manifest, "data"):
        train_set, test_set = dsc.spec_split(data_spec) if data_spec else dsc.benchmark_sets()

    predictions = {}
    rows_log = []
    for kind in archs:
        with _StageTimer(manifest, f"train.{kind}"):
            cfg = desk_arch_config(kind, seed=seed)
            ckpt = os.path.join(run_dir, f"{kind}.ckpt")
            log_path = os.path.join(run_dir, f"{kind}_train_log.csv")
            result = dsc.train(cfg, train_set, tcfgs[kind], ckpt_path=ckpt, log_path=log_path)
            if result.aborted:
                raise NumericFault(f"[train.{kind}] training aborted on non-finite loss")
            predictions[kind] = dsc.predict_dataset(result.model, test_set)
            rows_log.append((kind, log_path, ckpt))

    with _StageTimer(manifest, "evaluate"):
        rows = dsc.comparison_table(predictions, test_set, zones=(ZONE_OVERALL,), seasons=("ANNUAL",))
        report_rows_to_csv(rows, os.path.join(run_dir, "downscale_report.csv"))

    manifest.add_output(run_dir, "downscale_report.csv")
    for kind, log_path, ckpt in rows_log:
        manifest.add_output(run_dir, os.path.basename(ckpt) + "/manifest.json")
        manifest.add_output(run_dir, os.path.basename(ckpt) + "/params.bin")
    manifest.write(run_dir)
    return manifest


def run_report(rank_dir: str, out_dir: str, downscale_dir: Optional[str] = None) -> RunManifest:
    """Re-derive plot-ready bundles from a finished rank run.

    Emits the ranking heatmap matrix, the per-(zone, season) mean-score
    table, the best-model-per-cell raster (each land cell gets the top
    model of its zone's full-year context) and, when a downscale run is
    given, the architecture comparison table.
    """
    _require(os.path.isdir(rank_dir), "report", f"run dir {rank_dir} does not exist")
    ranking_path = os.path.join(rank_dir, "ranking.csv")
    config_path = os.path.join(rank_dir, "config.json")
    _require(os.path.isfile(ranking_path), "report", f"{rank_dir} holds no ranking.csv (empty run dir?)")
    _require(os.path.isfile(config_path), "report", f"{rank_dir} holds no config.json")
    os.makedirs(out_dir, exist_ok=True)
    manifest = RunManifest(config_hash=_sha256(ranking_path))

    with _StageTimer(manifest, "report"):
        cc: Dict[Tuple[str, str], Dict[str, float]] = {}
        with open(ranking_path) as fh:
            header = fh.readline().strip().split(",")
            idx = {name: i for i, name in enumerate(header)}
            for line in fh:
                parts = line.strip().split(",")
                zone_key, season_id = parts[idx["context"]].split("/")
                cc.setdefault((zone_key, season_id), {})[parts[idx["model"]]] = float(parts[idx["cc"]])

        # heatmap matrix (models x contexts)
        contexts = sorted(cc)
        models = sorted(next(iter(cc.values())))
        lines = ["model," + ",".join(f"{z}/{s}" for z, s in contexts)]
        for label in models:
            lines.append(label + "," + ",".join(repr(cc[ctx][label]) for ctx in contexts))
        _write_text(out_dir, "fig3_heatmap.csv", lines)

        # mean score per (zone, season); zone rows also carry the across-zone
        # mean of the per-zone means as an alternative aggregate
        zone_keys = sorted({z for z, _ in contexts})
        season_ids = sorted({s for _, s in contexts})
        mean_cc = {ctx: float(np.mean(list(cc[ctx].values()))) for ctx in contexts}
        lines = ["zone,season,mean_cc,mean_of_zone_means"]
        for zone_key in zone_keys:
            for season_id in season_ids:
                if (zone_key, season_id) not in mean_cc:
                    continue
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
        _write_text(out_dir, "fig4_mean_scores.csv", lines)

        # best model per land cell from each zone's full-year winner
        raw_config = json.load(open(config_path))
        mask = gcf.read_mask(raw_config["mask"])
        label_index = {label: i for i, label in enumerate(models)}
        best = {}
        for zone_key in zone_keys:
            if zone_key == ZONE_OVERALL or (zone_key, "ANNUAL") not in cc:
                continue
            ranked = sorted(cc[(zone_key, "ANNUAL")].items(), key=lambda kv: (-kv[1], kv[0]))
            best[ZONE_BY_NAME[zone_key]] = ranked[0][0]
        raster = np.full(mask.codes.shape, -9999.0)
        for code, label in best.items():
            raster[mask.codes == code] = float(label_index[label])
        cube = DataCube(
            lat=mask.lat, lon=mask.lon, time=((1, 1, 1),), calendar="standard",
            variable="best_model_index", data=raster[None], fill=-9999.0, units="model_index",
        )
        gcf.write_cube(cube, os.path.join(out_dir, "fig5_best_model"))
        _write_text(out_dir, "fig5_model_labels.json",
                    [json.dumps({"index_to_model": {str(i): m for m, i in label_index.items()}}, indent=1, sort_keys=True)])

        outputs = ["fig3_heatmap.csv", "fig4_mean_scores.csv", "fig5_model_labels.json",
                   "fig5_best_model/header.json", "fig5_best_model/data.bin"]

        if downscale_dir:
            src = os.path.join(downscale_dir, "downscale_report.csv")
            _require(os.path.isfile(src), "report", f"{downscale_dir} holds no downscale_report.csv")
            with open(src) as fh:
                _write_text(out_dir, "fig6_downscale_comparison.csv", fh.read().splitlines())
            outputs.append("fig6_downscale_comparison.csv")

    for rel in outputs:
        manifest.add_output(out_dir, rel)
    manifest.write(out_dir)
    return manifest


def _write_text(out_dir: str, rel: str, lines: List[str]) -> None:
    with open(os.path.join(out_dir, rel), "w") as fh:
        fh.write("\n".join(lines) + "\n")
