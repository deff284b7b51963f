"""Pipeline orchestration: validated configs and staged runs.

Every stage hands its artifacts (`artifacts.csv_text` and `json_text`
tables, and the files the GCF and checkpoint encoders return) to
`artifacts.RunManifest.put`, which writes each one and lists its sha256
in the run's `manifest.json`; only the downscale train logs, which hold
wall times, are written unlisted. This module opens no file for writing.

The rank stage has one path at every scale: each cube source reads
fixed-size time blocks from its payloads, derives DTR and regrids per
block, and one `metrics.sweep` scores every (zone, season) context of
every model from them. It reads each reference block once per pass and
then each model's block in turn, so its memory is bounded by about one
reference block plus one model block.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
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
    DEFAULT_CRITERIA_NAMES,
    WeightNet,
    WeightNetConfig,
    assemble_matrix,
    heatmap_csv,
    order_by_cc,
    rank_all,
    train_weightnet,
)
from . import downscale as dsc
from .downscale.presets import desk_train_config
from .spec import ABSENT, Field, optional, parse, read_json
from .tensorcore import encode_checkpoint

ZONE_BY_NAME = {name: code for code, name in ZONE_NAMES.items()}
DEFAULT_ZONE_KEYS = tuple(ZONE_NAMES[z] for z in LAND_ZONES) + (ZONE_OVERALL,)


def _require(condition: bool, stage: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"[{stage}] {message}")


_PATH = "a path string"
_SOURCE_FIELDS = tuple(Field(key, (str,), ABSENT, what=_PATH) for key in ("path", "tasmax", "tasmin"))
RANK_FIELDS = (
    Field("schema_version", (int,), choices=(1,)),
    Field("models", (list,), size=(2, math.inf), fields=(Field("label", (str,)), *_SOURCE_FIELDS),
          what="a list of at least 2 models"),
    Field("reference", (dict,), fields=_SOURCE_FIELDS),
    Field("mask", (str,), what=_PATH),
    Field("seasons", (list,), tuple(SEASONS), size=(1, math.inf), choices=tuple(SEASONS)),
    Field("zones", (list,), DEFAULT_ZONE_KEYS, size=(1, math.inf), choices=(*ZONE_BY_NAME, ZONE_OVERALL)),
    Field("criteria", (list,), (), choices=METRIC_NAMES),  # empty: the default criteria
    Field("weights", (str, dict), "uniform", choices=("uniform", "train"),
          fields=(Field("checkpoint", (str,), what=_PATH),), what='"uniform", "train" or {"checkpoint": path}'),
    Field("seed", (int,), 0),
    Field("pdf_bins", (int,), 100, low=2, high=MAX_BINS),
    Field("weightnet", (dict,), ABSENT, fields=optional(f for f in WeightNetConfig.FIELDS if f.key != "seed")),
)


@dataclass
class PipelineConfig:
    """Validated rank-stage configuration."""

    seed: int
    reference: dict
    models: List[dict]
    mask: str
    seasons: Tuple[str, ...]
    zones: Tuple[str, ...]
    criteria: List[str]
    weights: object  # "uniform" | "train" | {"checkpoint": path}
    pdf_bins: int
    weightnet: WeightNetConfig
    raw: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        _require(os.path.isfile(path), "config", f"config file {path} does not exist")
        return cls.from_dict(read_json(path, "[config] config file"), f"config file {path}")

    @classmethod
    def from_dict(cls, raw: dict, where: str = "config") -> "PipelineConfig":
        """The config of the JSON object `raw`; `where` names it in every ValidationError."""
        cfg = parse(raw, RANK_FIELDS, f"[config] {where}")
        labels = [m["label"] for m in cfg["models"]]
        for i, label in enumerate(labels):
            # labels are CSV cells of ranking.csv and top5.csv, which are not quoted
            _require(label and not any(c in label for c in ",\n\r"), "config", f"{where}: models[{i}].label must "
                     f"be a non-empty string without ',' or a line break, got {label!r}")
        _require(len(set(labels)) == len(labels), "config", f"{where}: model labels must be unique")
        for name, source in [(f"model {m['label']}", m) for m in cfg["models"]] + [("reference", cfg["reference"])]:
            forms = sorted(set(source) - {"label"})
            _require(forms in (["path"], ["tasmax", "tasmin"]), "config",
                     f"{where}: {name} needs either 'path' or 'tasmax'+'tasmin', got {forms}")
            for key in forms:
                _require(os.path.isdir(source[key]), "config", f"{where}: {name}: missing path {source[key]}")
        _require(os.path.isdir(cfg["mask"]), "config", f"{where}: mask path {cfg['mask']} does not exist")
        checkpoint = cfg["weights"]["checkpoint"] if isinstance(cfg["weights"], dict) else None
        _require(checkpoint is None or os.path.isdir(checkpoint), "config",
                 f"{where}: weights checkpoint {checkpoint} missing")
        return cls(
            seed=cfg["seed"],
            reference=cfg["reference"],
            models=cfg["models"],
            mask=cfg["mask"],
            seasons=tuple(cfg["seasons"]),
            zones=tuple(cfg["zones"]),
            criteria=list(cfg["criteria"] or DEFAULT_CRITERIA_NAMES),
            weights=cfg["weights"],
            pdf_bins=cfg["pdf_bins"],
            weightnet=WeightNetConfig(**cfg.get("weightnet", {}), seed=cfg["seed"]),
            raw=raw,
        )


class _CubeSource:
    """One rank source, a cube {"path"} or a tasmax/tasmin pair, read by time block (`block`).

    Opening it validates every header once, and a model's times against the
    reference (`like`); sources opened with one `parsed_times` dict parse
    and check each distinct raw time list once (`gcf.read_header`). Each
    block holds BLOCK time steps: a pair is read in step and turned into
    DTR per block, and a model off the reference grid is regridded per
    block, with the bits of that slice of the whole-cube
    `regrid_bilinear(derive_dtr(...))`.
    """

    def __init__(self, spec: dict, name: str, like: "_CubeSource" = None, parsed_times: dict = None):
        keys = ("path",) if "path" in spec else ("tasmax", "tasmin")
        self.paths = tuple(spec[k] for k in keys)
        try:
            self.heads = [gcf.read_header(path, parsed_times) for path in self.paths]
            if len(self.heads) == 2:
                check_dtr_pair(*self.heads)
        except ValidationError as exc:
            raise ValidationError(f"[load] {name}: {exc}") from None
        head = self.heads[0]
        self.time, self.fill = head.time, head.fill
        self.lat, self.lon, self.corners = head.lat, head.lon, None
        if like is not None:
            _require(head.time == like.time, "load", f"{name} and the reference cover different times")
            self.lat, self.lon = like.lat, like.lon
            if not (head.lat == like.lat and head.lon == like.lon):
                self.corners = bilinear_weights(head.lat, head.lon, like.lat, like.lon)

    def block(self, t0: int) -> np.ndarray:
        """The BLOCK time steps from t0, as DTR for a pair and on the reference grid."""
        block = gcf.read_block(self.paths[0], self.heads[0], t0, BLOCK)
        if len(self.paths) == 2:
            low = gcf.read_block(self.paths[1], self.heads[1], t0, BLOCK)
            block = dtr_values(block, low, self.fill, self.heads[1].fill, where=lambda t, y, x: (
                f"time index {t0 + t} ({gcf.format_date(self.time[t0 + t])}) of {self.paths[1]}"))
        if self.corners is not None:
            block = bilinear_blend(block, self.corners, self.fill)
        return block


def run_rank(config: PipelineConfig, run_dir: str) -> RunManifest:
    """Full ranking stage: load, score every (zone, season) context, rank, export.

    No payload is loaded whole: every model is swept at once, block by
    block alongside the reference, and each payload is read once per sweep
    pass. Memory is bounded by about one reference block plus one model
    block at any cube size and model count.
    """
    manifest = RunManifest(run_dir, config_hash(config.raw))
    specs = {spec["label"]: spec for spec in config.models}

    with manifest.stage("load"):
        mask = gcf.read_mask(config.mask)
        parsed_times = {}  # a model whose raw time list is the reference's reuses its parsed axis
        obs = _CubeSource(config.reference, "reference", parsed_times=parsed_times)
        _require(mask.lat == obs.lat and mask.lon == obs.lon, "load", "zone mask must be on the reference grid")
        models = {label: _CubeSource(specs[label], f"model {label}", like=obs, parsed_times=parsed_times)
                  for label in sorted(specs)}

    with manifest.stage("metrics"):
        months = np.array([m for _, m, _ in obs.time])
        index = context_index(months, mask, {z: ZONE_BY_NAME.get(z, z) for z in config.zones}, config.seasons)
        per_model = sweep(models, obs, index, config.pdf_bins)
        reports = {ctx: [(label, per_model[label][ctx]) for label in models] for ctx, _, _ in index}

    with manifest.stage("weights"):
        # every context scores every configured criterion, so one net trains on and weighs them all
        matrices = [assemble_matrix(reports[ctx], config.criteria, context=ctx) for ctx in sorted(reports)]
        net = None
        if config.weights == "train":
            net, epoch_mse = train_weightnet(matrices, config.weightnet)
            for name, blob in encode_checkpoint(*net.checkpoint()).items():
                manifest.put(f"weightnet.ckpt/{name}", blob)
        elif isinstance(config.weights, dict):
            path = config.weights["checkpoint"]
            net = WeightNet.load(path)
            _require(list(net.criteria) == config.criteria, "weights", f"checkpoint {path} weighs criteria "
                     f"{list(net.criteria)}, but the config ranks {config.criteria}")

    with manifest.stage("rank"):
        results = rank_all(matrices, net)
        if config.weights == "train":
            fit = [np.mean((res.weights.w - dm.target.w) ** 2) for dm, res in zip(matrices, results)]
            history = {"epoch_mse": epoch_mse, "context_mse": float(np.mean(fit))}
            manifest.put("weightnet_history.json", json.dumps(history, indent=1) + "\n")
        _write_rank_outputs(manifest, config, reports, results)

    manifest.write()
    return manifest


RANKING_COLUMNS = ["context", "model", "cc", "d_plus", "d_minus", "rank", *METRIC_NAMES, "n"]
TOP5_COLUMNS = ["zone", "season", "rank", "model", "score", "bias", "rmse", "kge", "nse", "pdf_overlap"]


def _write_rank_outputs(manifest, config, reports, results) -> None:
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

    weights_obj = {
        "/".join(res.context): {"weights": [float(v) for v in res.weights.w], "source": res.source,
                                "criteria": config.criteria}
        for res in results
    }
    manifest.put("weights.json", json_text(weights_obj))
    manifest.put("top5.csv", csv_text(TOP5_COLUMNS, (
        [row[c] for c in TOP5_COLUMNS] for row in ranking if row["rank"] <= 5
    )))
    manifest.put("config.json", json_text(config.raw))


LOG_COLUMNS = ["epoch", "train_loss", "val_loss", "wall_ms"]


def run_downscale(
    run_dir: str,
    archs: Sequence[str] = dsc.ARCH_KINDS,
    data_path: Optional[str] = None,
    seed: int = 0,
    train_overrides: Optional[dict] = None,
) -> RunManifest:
    """Downscale stage: train each architecture, evaluate against baseline.

    Without a data spec the bundled synthetic benchmark is used; the JSON
    data spec at `data_path`, {"coarse": gcf_path, "fine": gcf_path,
    "window": t}, trains on the first 80% of its windows and evaluates on
    the held-out rest, the same split `downscale eval --data` scores
    (`dsc.spec_split`). `train_overrides` replace keys of each benchmark
    preset, and the result is checked as any `TrainConfig` is. Every
    architecture is checked against the data's grid (`check_fit`) before
    the first one trains, so a misfit writes no checkpoint or log.
    """
    tcfgs = {kind: desk_train_config(kind, "benchmark").replace(**(train_overrides or {})) for kind in archs}
    data_spec = read_json(data_path, "data spec") if data_path else "bundled"
    manifest = RunManifest(run_dir, config_hash({"archs": list(archs), "seed": seed, "data": data_spec}))

    with manifest.stage("data"):
        train_set, test_set = dsc.spec_split(data_spec, f"data spec {data_path}") if data_path else dsc.benchmark_sets()
        cfgs = {kind: dsc.ArchConfig(kind=kind, seed=seed, factor=train_set.factor) for kind in archs}
        for cfg in cfgs.values():
            dsc.check_fit(cfg, train_set.coarse_hw, train_set.factor)

    predictions = {}
    for kind in archs:
        with manifest.stage(f"train.{kind}"):
            result = dsc.train(cfgs[kind], train_set, tcfgs[kind])
            # the log holds wall times, so it stays out of the manifest; an
            # aborted run keeps its log and its last good parameters on disk
            log = ([row[c] for c in LOG_COLUMNS] for row in result.log)
            write_files(run_dir, {f"{kind}_train_log.csv": csv_text(LOG_COLUMNS, log).encode()})
            for name, blob in encode_checkpoint(*result.model.checkpoint()).items():
                manifest.put(f"{kind}.ckpt/{name}", blob)
            if result.aborted:
                raise NumericFault(f"[train.{kind}] training aborted in epoch {result.abort_epoch}: "
                                   f"{result.abort_reason}")
            predictions[kind] = dsc.predict_dataset(result.model, test_set)

    with manifest.stage("evaluate"):
        rows = dsc.comparison_table(predictions, test_set)
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
    raw_config = read_json(config_path, "[report] rank config")
    mask_path = parse(raw_config, RANK_FIELDS, f"[report] {config_path}")["mask"]
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
        mask = gcf.read_mask(mask_path)
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
