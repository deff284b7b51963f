"""Pipeline orchestration: validated configs, staged runs, manifests.

Every stage writes plain CSV/JSON artifacts into a run directory and a
`manifest.json` holding the config hash, tool version and a sha256 per
output file; wall-clock numbers go to a separate `timing.json` so the
manifest itself is byte-stable across reruns of the same config and seed.
"""

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__, gcf
from .errors import NumericFault, ValidationError
from .geogrid import (
    DataCube,
    GridField,
    LAND_ZONES,
    SEASONS,
    ZONE_NAMES,
    ZoneMask,
    derive_dtr,
    regrid_bilinear,
)
from .metrics import (
    MetricReport,
    PooledSample,
    StreamingPool,
    ZONE_OVERALL,
    compute_report,
    report_rows_to_csv,
    report_rows_to_json,
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


def _load_cube_source(spec: dict, stage: str) -> DataCube:
    """A cube source is either one ready cube or a tasmax/tasmin pair."""
    if "path" in spec:
        return gcf.read_cube(spec["path"])
    if "tasmax" in spec and "tasmin" in spec:
        return derive_dtr(gcf.read_cube(spec["tasmax"]), gcf.read_cube(spec["tasmin"]))
    raise ValidationError(f"[{stage}] cube source needs 'path' or 'tasmax'+'tasmin', got {sorted(spec)}")


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


def _context_index(months: np.ndarray, mask: ZoneMask, zones: Sequence[str], seasons: Sequence[str]):
    """(context, time rows, flat cell indices) for every (zone, season), built once per rank run."""
    rows = {s: np.flatnonzero(np.isin(months, sorted(SEASONS[s].months))) for s in seasons}
    for season_id, r in rows.items():
        _require(r.size > 0, "metrics", f"no time steps fall in season {season_id}")
    cells = {
        z: np.flatnonzero(mask.cells_in(LAND_ZONES if z == ZONE_OVERALL else {ZONE_BY_NAME[z]}))
        for z in zones
    }
    return [((z, s), rows[s], cells[z]) for z in zones for s in seasons]


def _pairs(block_m: np.ndarray, block_o: np.ndarray, rows, cells, fill_m: float, fill_o: float):
    """Paired non-fill values of one context inside a (time x lat x lon) block.

    The values come out in the order of `block[np.ix_(rows, cells)]`; a
    contiguous run of rows is sliced, not copied, before the cell gather.
    """
    if rows[-1] - rows[0] == len(rows) - 1:
        rows = slice(rows[0], rows[-1] + 1)
    m = block_m.reshape(len(block_m), -1)[rows].take(cells, axis=1)
    o = block_o.reshape(len(block_o), -1)[rows].take(cells, axis=1)
    ok = (m != fill_m) & (o != fill_o)
    return (m.ravel(), o.ravel()) if ok.all() else (m[ok], o[ok])


def _cube_reports(label: str, cube: DataCube, obs: DataCube, index, bins: int) -> Dict[Tuple[str, str], MetricReport]:
    """Every context of one in-memory model; the same sample as `full_report`."""
    _require(cube.time == obs.time, "metrics", f"model {label} and the reference cover different times")
    out = {}
    for ctx, rows, cells in index:
        m, o = _pairs(cube.data, obs.data, rows, cells, cube.fill, obs.fill)
        _require(m.size >= 2, "metrics", f"empty pooled sample for model {label} in {ctx}")
        out[ctx] = compute_report(PooledSample(m, o), bins=bins)
    return out


def _stream_reports(model_path: str, obs_path: str, index, bins: int, chunk: int) -> Dict[Tuple[str, str], MetricReport]:
    """Every context of one model from two passes over both GCF payloads.

    Each block is dispatched to the `StreamingPool` of every context, so a
    pool sees the same update sequence as a sweep over its context alone.
    """
    meta_m, meta_o = gcf._load_header(model_path), gcf._load_header(obs_path)
    _require(meta_m["time"] == meta_o["time"], "metrics", f"{model_path} and the reference cover different times")
    fill_m, fill_o = gcf.canonical_fill(meta_m["fill_value"]), gcf.canonical_fill(meta_o["fill_value"])
    pools = [StreamingPool(bins=bins) for _ in index]

    def sweep(feed):
        blocks = zip(gcf.iter_time_chunks(model_path, chunk), gcf.iter_time_chunks(obs_path, chunk))
        for (t0, block_m), (_, block_o) in blocks:
            for pool, (_, rows, cells) in zip(pools, index):
                lo, hi = np.searchsorted(rows, (t0, t0 + len(block_m)))
                if hi > lo:
                    feed(pool, *_pairs(block_m, block_o, rows[lo:hi] - t0, cells, fill_m, fill_o))

    sweep(StreamingPool.update)
    for pool, (ctx, _, _) in zip(pools, index):
        _require(pool.n >= 2, "metrics", f"empty pooled sample for {model_path} in {ctx}")
        pool.freeze()
    sweep(StreamingPool.update_hist)
    return {ctx: pool.report() for pool, (ctx, _, _) in zip(pools, index)}


def _model_reports(one_model, labels: Sequence[str], index, jobs: int = 1):
    """Reports for every (zone, season, model); `one_model(label, index)` sweeps one model.

    With `jobs` > 1 the models are swept in parallel threads.
    """
    labels = sorted(labels)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_model = dict(zip(labels, pool.map(lambda label: one_model(label, index), labels)))
    else:
        per_model = {label: one_model(label, index) for label in labels}
    return {ctx: [(label, per_model[label][ctx]) for label in labels] for ctx, _, _ in index}


def run_rank(config: PipelineConfig, run_dir: str, jobs: int = 1, full_scale: bool = False, chunk: int = 64) -> RunManifest:
    """Full ranking stage: regrid, pool, score, rank, export.

    With `full_scale` the pooling runs in bounded memory directly over the
    GCF payloads; the model cubes must already sit on the reference grid
    (run the regrid subcommand first) and must be single-variable sources.
    """
    os.makedirs(run_dir, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash(config.raw))

    with _StageTimer(manifest, "load"):
        mask = gcf.read_mask(config.mask)
        if full_scale:
            _require("path" in config.reference, "load", "full-scale mode needs a single-cube reference source")
            obs_path = config.reference["path"]
            obs_header = gcf._load_header(obs_path)
            ref_lat, ref_lon = obs_header["lat"], obs_header["lon"]
            months = np.array([int(t.split("-")[1]) for t in obs_header["time"]])
            model_paths = {}
            for spec in config.models:
                _require("path" in spec, "load", f"full-scale mode needs a single-cube source for {spec['label']}")
                header = gcf._load_header(spec["path"])
                _require(
                    header["lat"] == ref_lat and header["lon"] == ref_lon,
                    "load",
                    f"model {spec['label']} is not on the reference grid; regrid it first",
                )
                model_paths[spec["label"]] = spec["path"]
            one_model = lambda label, index: _stream_reports(model_paths[label], obs_path, index, config.pdf_bins, chunk)
        else:
            obs = _load_cube_source(config.reference, "load")
            ref_lat, ref_lon = obs.lat.values, obs.lon.values
            months = obs.months()
            model_cubes = {}
            for spec in config.models:
                cube = _load_cube_source(spec, "load")
                model_cubes[spec["label"]] = regrid_bilinear(cube, obs.lat, obs.lon)
            one_model = lambda label, index: _cube_reports(label, model_cubes[label], obs, index, config.pdf_bins)
        _require(
            np.array_equal(mask.lat.values, ref_lat) and np.array_equal(mask.lon.values, ref_lon),
            "load",
            "zone mask must be on the reference grid",
        )

    with _StageTimer(manifest, "metrics"):
        index = _context_index(months, mask, config.zones, config.seasons)
        reports = _model_reports(one_model, [spec["label"] for spec in config.models], index, jobs)

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


def run_downscale(
    run_dir: str,
    archs: Sequence[str] = dsc.ARCH_KINDS,
    data_spec: Optional[dict] = None,
    seed: int = 0,
    window: int = 4,
    train_overrides: Optional[dict] = None,
) -> RunManifest:
    """Downscale stage: train each architecture, evaluate against baseline.

    Without a data spec the bundled synthetic benchmark is used; a data
    spec {"coarse": gcf_path, "fine": gcf_path} trains on real cube pairs
    split 80/20 along the window list.
    """
    os.makedirs(run_dir, exist_ok=True)
    manifest = RunManifest(config_hash=config_hash({"archs": list(archs), "seed": seed, "data": data_spec or "bundled"}))

    with _StageTimer(manifest, "data"):
        if data_spec:
            coarse = gcf.read_cube(data_spec["coarse"])
            fine = gcf.read_cube(data_spec["fine"])
            full = dsc.windows_from_pair(coarse, fine, window)
            n = len(full)
            split = int(round(0.8 * n))
            train_set, test_set = full.subset(range(split)), full.subset(range(split, n))
        else:
            train_set, test_set = dsc.benchmark_sets()

    predictions = {}
    rows_log = []
    for kind in archs:
        with _StageTimer(manifest, f"train.{kind}"):
            cfg = desk_arch_config(kind, seed=seed)
            tcfg = desk_train_config(kind, "benchmark")
            if train_overrides:
                for key, value in train_overrides.items():
                    setattr(tcfg, key, value)
            ckpt = os.path.join(run_dir, f"{kind}.ckpt")
            log_path = os.path.join(run_dir, f"{kind}_train_log.csv")
            result = dsc.train(cfg, train_set, tcfg, ckpt_path=ckpt, log_path=log_path)
            if result.aborted:
                raise NumericFault(f"[train.{kind}] training aborted on non-finite loss")
            predictions[kind] = dsc.predict_dataset(result.model, test_set)
            rows_log.append((kind, log_path, ckpt))

    with _StageTimer(manifest, "evaluate"):
        mask = None
        rows = dsc.comparison_table(predictions, test_set, mask=mask, zones=(ZONE_OVERALL,), seasons=("ANNUAL",))
        # order: baseline last for readability
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
        field = GridField(mask.lat, mask.lon, raster, fill=-9999.0, units="model_index")
        cube = DataCube(
            lat=field.lat, lon=field.lon, time=((1, 1, 1),), calendar="standard",
            variable="best_model_index", data=field.data[None], fill=field.fill, units=field.units,
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
