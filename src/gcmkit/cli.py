"""Command-line entry point.

Subcommands: ingest, regrid, metrics, rank, downscale train|eval, report,
selftest. Output locations default under the GCMKIT_OUT directory (or
./gcmkit_out). Exit codes: 0 ok, 2 validation error, 3 numeric fault,
4 I/O error.
"""

import argparse
import json
import os
import sys
import tempfile

from . import __version__, downscale as dsc, gcf, pipeline
from .artifacts import json_text, write_files
from .downscale.trainer import TRAIN_FIELDS
from .errors import NumericFault, ValidationError
from .fixtures import GOOD_MODEL, make_ranking_fixture
from .geogrid import SEASONS, regrid_bilinear
from .metrics import ZONE_OVERALL, full_report, report_rows_to_csv
from .ranking import order_by_cc
from .spec import ABSENT, Field, parse, read_json


def _out_root(args) -> str:
    return args.out or os.environ.get("GCMKIT_OUT") or "gcmkit_out"


def cmd_ingest(args) -> int:
    cube = gcf.read_csv_cube(
        args.csv, variable=args.variable, units=args.units, calendar=args.calendar, fill=args.fill
    )
    gcf.write_cube(cube, args.dest)
    print(f"ingested {len(cube.time)}x{len(cube.lat)}x{len(cube.lon)} cube -> {args.dest}")
    return 0


def cmd_regrid(args) -> int:
    cube = gcf.read_cube(args.cube)
    like = gcf.read_header(args.like)
    out = regrid_bilinear(cube, like.lat, like.lon)
    gcf.write_cube(out, args.dest)
    print(f"regridded {args.cube} onto {len(like.lat)}x{len(like.lon)} grid -> {args.dest}")
    return 0


def cmd_metrics(args) -> int:
    model = gcf.read_cube(args.model)
    obs = gcf.read_cube(args.obs)
    mask = gcf.read_mask(args.mask)
    zone = ZONE_OVERALL if args.zone == "overall" else pipeline.ZONE_BY_NAME[args.zone]
    rep = full_report(model, obs, mask, zone, args.season, bins=args.bins)
    row = {"model": args.model, "zone": args.zone, "season": args.season}
    row.update(rep.as_dict())
    if args.dest:
        text = json_text([row]) if args.dest.endswith(".json") else report_rows_to_csv([row])
        write_files(os.path.dirname(args.dest) or ".", {os.path.basename(args.dest): text.encode()})
        print(f"report -> {args.dest}")
    else:
        print(json.dumps(row, indent=1, sort_keys=True))
    return 0


def cmd_rank(args) -> int:
    config = pipeline.PipelineConfig.from_file(args.config)
    if args.seed is not None:
        config.raw["seed"] = args.seed
        config = pipeline.PipelineConfig.from_dict(config.raw, f"config file {args.config}")
    run_dir = os.path.join(_out_root(args), args.name)
    manifest = pipeline.run_rank(config, run_dir)
    print(f"rank run complete -> {run_dir} ({len(manifest.outputs)} outputs)")
    return 0


# a `downscale train --config` file
TRAIN_FILE_FIELDS = (Field("train", (dict,), ABSENT, fields=TRAIN_FIELDS),)


def cmd_downscale_train(args) -> int:
    run_dir = os.path.join(_out_root(args), args.name)
    overrides = {}
    if args.config:
        config = read_json(args.config, "config")
        overrides = parse(config, TRAIN_FILE_FIELDS, f"config {args.config}").get("train", {})
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    manifest = pipeline.run_downscale(
        run_dir,
        archs=tuple(args.arch or dsc.ARCH_KINDS),
        data_path=args.data,
        seed=args.seed if args.seed is not None else 0,
        train_overrides=overrides or None,
    )
    print(f"downscale run complete -> {run_dir} ({len(manifest.outputs)} outputs)")
    return 0


def cmd_downscale_eval(args) -> int:
    if args.data:
        _, test_set = dsc.spec_split(read_json(args.data, "data spec"), f"data spec {args.data}")
    else:
        _, test_set = dsc.benchmark_sets()
    model = dsc.load_model(args.ckpt, test_set.coarse_hw, test_set.factor)
    pred = dsc.predict_dataset(model, test_set)
    rows = dsc.comparison_table({model.cfg.kind: pred}, test_set)
    write_files(os.path.dirname(args.report) or ".", {os.path.basename(args.report): report_rows_to_csv(rows).encode()})
    print(f"evaluation -> {args.report}")
    return 0


def cmd_report(args) -> int:
    out_dir = os.path.join(_out_root(args), args.name)
    manifest = pipeline.run_report(args.run, out_dir, downscale_dir=args.downscale_run)
    print(f"report bundle -> {out_dir} ({len(manifest.outputs)} outputs)")
    return 0


def cmd_selftest(args) -> int:
    """End-to-end sanity run on the bundled synthetic fixture."""
    with tempfile.TemporaryDirectory(prefix="gcmkit_selftest_") as tmp:
        fixture_dir = os.path.join(tmp, "fixture")
        paths = make_ranking_fixture(fixture_dir, seed=args.seed if args.seed is not None else 4242)
        config = pipeline.PipelineConfig.from_file(paths["config"])
        run_dir = os.path.join(tmp, "run")
        pipeline.run_rank(config, run_dir)
        cc = pipeline.read_ranking(os.path.join(run_dir, "ranking.csv"))
        failures = [f"{z}/{s}" for (z, s), scores in sorted(cc.items()) if order_by_cc(scores)[0] != GOOD_MODEL]
        if failures:
            print(f"selftest FAILED: unbiased model not first in {failures}")
            return 1
        print("selftest ok: unbiased model ranks first in every context")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gcmkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"gcmkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a date,lat,lon,value CSV fixture to GCF")
    p.add_argument("csv")
    p.add_argument("dest")
    p.add_argument("--variable", default="value")
    p.add_argument("--units", default="degC")
    p.add_argument("--calendar", default="standard", choices=("standard", "noleap", "360_day"))
    p.add_argument("--fill", type=float, default=-9999.0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("regrid", help="bilinearly regrid a cube onto another cube's grid")
    p.add_argument("cube")
    p.add_argument("--like", required=True, help="GCF whose grid to match")
    p.add_argument("dest")
    p.set_defaults(func=cmd_regrid)

    p = sub.add_parser("metrics", help="metric report for one model/reference pair")
    p.add_argument("--model", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--zone", default=ZONE_OVERALL, choices=sorted(pipeline.ZONE_BY_NAME) + [ZONE_OVERALL])
    p.add_argument("--season", default="ANNUAL", choices=sorted(SEASONS))
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--dest", help="write CSV/JSON here instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("rank", help="run the full ranking pipeline from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--name", default="rank")
    p.add_argument("--out", help="output root (default $GCMKIT_OUT or ./gcmkit_out)")
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: models are swept one at a time")
    p.add_argument("--full-scale", action="store_true",
                   help="accepted and ignored: rank always streams in bounded memory")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("downscale", help="train or evaluate downscaling architectures")
    dsub = p.add_subparsers(dest="downscale_command", required=True)
    pt = dsub.add_parser("train", help="train architectures and evaluate against the baseline")
    pt.add_argument("--arch", action="append", choices=dsc.ARCH_KINDS, default=None,
                    help="repeatable; defaults to all four")
    pt.add_argument("--data", help="JSON file {'coarse': gcf, 'fine': gcf} (default: bundled benchmark)")
    pt.add_argument("--config", help="JSON file with a 'train' override block")
    pt.add_argument("--name", default="downscale")
    pt.add_argument("--out")
    pt.add_argument("--seed", type=int)
    pt.add_argument("--epochs", type=int, help="override the preset epoch count")
    pt.set_defaults(func=cmd_downscale_train)
    pe = dsub.add_parser("eval", help="evaluate a checkpoint on a held-out test split")
    pe.add_argument("--ckpt", required=True)
    pe.add_argument("--data", help="JSON pair spec, scored on the windows train holds out "
                    "(default: the bundled benchmark test split)")
    pe.add_argument("--report", required=True)
    pe.set_defaults(func=cmd_downscale_eval)

    p = sub.add_parser("report", help="plot-ready bundles from a finished rank run")
    p.add_argument("--run", required=True, help="rank run directory")
    p.add_argument("--downscale-run", help="downscale run directory (adds the comparison table)")
    p.add_argument("--name", default="report")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="end-to-end check on the bundled synthetic fixture")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
