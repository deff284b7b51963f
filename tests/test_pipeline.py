"""The rank stage sweeps each model once and fills every (zone, season) context.

These tests pin the properties of that sweep: how often each payload is
read, that its reports are exactly those of a sweep over one context at a
time and of the whole-cube API, and that every source is validated when
it is opened.
"""

import dataclasses
import json
import os
import shutil
import tempfile
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from gcmkit import gcf, metrics
from gcmkit.cli import main
from gcmkit.fixtures import BIASED_MODEL, make_ranking_fixture
from gcmkit.geogrid import LAND_ZONES, SEASONS, derive_dtr, regrid_bilinear
from gcmkit.metrics import ZONE_OVERALL, StreamingPool, full_report
from gcmkit.pipeline import ZONE_BY_NAME, PipelineConfig, run_rank
from specmutations import check_exit, mutate, mutations, run_cli
from test_metrics import add_counts


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    """The small ranking fixture with its models regridded onto the reference grid."""
    root = tmp_path_factory.mktemp("sweep")
    paths = make_ranking_fixture(str(root / "fixture"), seed=4242)
    config = json.load(open(paths["config"]))
    obs = gcf.read_cube(paths["obs"])
    for spec in config["models"]:
        dest = str(root / f"rg_{spec['label']}")
        gcf.write_cube(regrid_bilinear(gcf.read_cube(spec["path"]), obs.lat, obs.lon), dest)
        spec["path"] = dest
    config["weights"] = "uniform"
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path), config


@pytest.fixture(scope="module")
def setup_with_fill(tmp_path_factory, setup):
    """The regridded models of `setup` with fill in one cell for the whole
    record and in a second cell for its first 40 days."""
    root = tmp_path_factory.mktemp("sweep_fill")
    config = json.loads(json.dumps(setup[1]))
    for spec in config["models"]:
        cube = gcf.read_cube(spec["path"])
        data = cube.data.copy()
        data[:, 3, 4] = cube.fill
        data[:40, 7, 2] = cube.fill
        spec["path"] = str(root / f"fill_{spec['label']}")
        gcf.write_cube(dataclasses.replace(cube, data=data), spec["path"])
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path), config


@pytest.fixture(scope="module")
def pair_setup(tmp_path_factory):
    """The ranking fixture with its models on their own coarser grid, and the
    reference and the warm-bias model each given as a tasmax/tasmin pair."""
    root = tmp_path_factory.mktemp("pairs")
    paths = make_ranking_fixture(str(root / "fixture"), seed=4242)
    config = json.load(open(paths["config"]))
    biased = next(spec for spec in config["models"] if spec["label"] == BIASED_MODEL)
    for name, spec in (("obs", config["reference"]), ("biased", biased)):
        dtr = gcf.read_cube(spec.pop("path"))
        ramp = 2.0 * np.sin(np.arange(len(dtr.time)) * (2.0 * np.pi / 365.0))[:, None, None]
        tasmin = np.broadcast_to(5.0 + ramp, dtr.shape)
        for var, data in (("tasmin", tasmin), ("tasmax", tasmin + dtr.data)):
            spec[var] = str(root / f"{name}_{var}")
            gcf.write_cube(dataclasses.replace(dtr, variable=var, data=data), spec[var])
    config["weights"] = "uniform"
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return str(cfg_path), config


def _cube(spec, like=None):
    """The whole-cube reading of one source: DTR of a pair, regridded onto `like`'s grid."""
    if "path" in spec:
        cube = gcf.read_cube(spec["path"])
    else:
        cube = derive_dtr(gcf.read_cube(spec["tasmax"]), gcf.read_cube(spec["tasmin"]))
    return cube if like is None else regrid_bilinear(cube, like.lat, like.lon)


def _payloads(spec):
    return [spec[key] for key in ("path", "tasmax", "tasmin") if key in spec]


ARGV_FORMS = pytest.mark.parametrize("extra", [[], ["--full-scale"]], ids=["rank", "full-scale"])


def _run(tmp_path, cfg_path, *extra):
    assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", "run", *extra]) == 0
    with open(os.path.join(str(tmp_path), "run", "reports.json")) as fh:
        return {(row.pop("zone"), row.pop("season"), row.pop("model")): row for row in json.load(fh)}


def _contexts(config):
    mask = gcf.read_mask(config["mask"])
    for zone in config["zones"]:
        codes = LAND_ZONES if zone == ZONE_OVERALL else {ZONE_BY_NAME[zone]}
        for season in config["seasons"]:
            for spec in config["models"]:
                yield zone, season, spec, np.isin(mask.codes, list(codes))


class TestContextSweep:
    def test_full_scale_reads_each_payload_twice_per_model(self, tmp_path, setup, pair_setup, monkeypatch):
        """With or without --full-scale, on single cubes and on tasmax/tasmin
        pairs, every block of every payload is read once per sweep pass, the
        reference's as well as each model's, and no source is read whole;
        only the mask goes through read_cube."""
        opens, whole = Counter(), Counter()
        original_block, original_read = gcf.read_block, gcf.read_cube

        def counting(path, head, t0, n):
            opens[(path, t0)] += 1
            return original_block(path, head, t0, n)

        def counting_read(path):
            whole[path] += 1
            return original_read(path)

        monkeypatch.setattr(gcf, "read_block", counting)
        monkeypatch.setattr(gcf, "read_cube", counting_read)
        for cfg_path, config in (setup, pair_setup):
            models = [path for spec in config["models"] for path in _payloads(spec)]
            obs = _payloads(config["reference"])
            starts = range(0, len(gcf.read_header(obs[0]).time), metrics.BLOCK)
            for extra in ([], ["--full-scale"]):
                opens.clear()
                whole.clear()
                _run(tmp_path, cfg_path, *extra)
                assert opens == Counter({**{(p, t0): 2 for p in models + obs for t0 in starts}, (config["mask"], 0): 1})
                assert whole == Counter({config["mask"]: 1})

    def test_in_memory_reports_equal_full_report(self, tmp_path, setup):
        cfg_path, config = setup
        reports = _run(tmp_path, cfg_path)
        obs = gcf.read_cube(config["reference"]["path"])
        mask = gcf.read_mask(config["mask"])
        assert len(reports) == 6 * 5 * 3
        for zone, season, spec, _ in _contexts(config):
            code = ZONE_OVERALL if zone == ZONE_OVERALL else ZONE_BY_NAME[zone]
            cube = regrid_bilinear(gcf.read_cube(spec["path"]), obs.lat, obs.lon)
            expect = full_report(cube, obs, mask, code, season, bins=100)
            assert reports[(zone, season, spec["label"])] == expect.as_dict()

    def test_streaming_reports_equal_per_context_pools(self, tmp_path, setup):
        """Each report is the merge, in (season, zone code) order, of one pool
        per (meteorological season, zone code) atom hand-fed from the same
        blocks. The count, extremes, pdf_overlap, txx_err, tnn_err and flags
        also equal those of one pool fed the whole context."""
        cfg_path, config = setup
        reports = _run(tmp_path, cfg_path, "--full-scale")
        obs_path = config["reference"]["path"]
        times = json.load(open(os.path.join(obs_path, "header.json")))["time"]
        months = np.array([int(t.split("-")[1]) for t in times])
        codes = gcf.read_mask(config["mask"]).codes
        fill = gcf.canonical_fill(-9999.0)
        assert len(reports) == 6 * 5 * 3
        for zone, season, spec, cells in _contexts(config):

            def chunks(season_months, cells):
                data_m, data_o = gcf.read_cube(spec["path"]).data, gcf.read_cube(obs_path).data
                for t0 in range(0, len(times), 64):
                    block_m, block_o = data_m[t0 : t0 + 64], data_o[t0 : t0 + 64]
                    keep = np.isin(months[t0 : t0 + len(block_m)], sorted(season_months))
                    if keep.any():
                        m, o = block_m[keep][:, cells], block_o[keep][:, cells]
                        ok = (m != fill) & (o != fill)
                        yield m[ok], o[ok]

            def fed(season_months, cells):
                pool = StreamingPool(bins=100)
                for m, o in chunks(season_months, cells):
                    pool.update(m, o)
                return pool

            def finish(pool):
                pool.freeze()
                for m, o in chunks(SEASONS[season], cells):
                    add_counts(pool, m, o)
                return pool.report().as_dict()

            merged = StreamingPool(bins=100)
            for met in ("DJF", "MAM", "JJA", "SON"):
                if SEASONS[met] <= SEASONS[season]:
                    for code in LAND_ZONES:
                        if cells[codes == code].any():
                            merged.merge(fed(SEASONS[met], codes == code))
            whole = fed(SEASONS[season], cells)
            extremes = ("n", "_min_m", "_max_m", "_min_o", "_max_o")
            assert [getattr(merged, k) for k in extremes] == [getattr(whole, k) for k in extremes]
            got = reports[(zone, season, spec["label"])]
            assert got == finish(merged)
            old = finish(whole)
            for key in ("n", "pdf_overlap", "txx_err", "tnn_err", "flags"):
                assert got[key] == old[key], key

    def test_each_pass_gathers_each_atom_once_per_block(self, tmp_path, setup, monkeypatch):
        """Each pass gathers each (season, zone code) atom once per block that
        holds its rows from the reference, and then once from each model in
        turn, and nothing else: fewer gathers than one per (context, block),
        as a per-context pass 1 made."""
        cfg_path, config = setup
        obs_path = config["reference"]["path"]
        times = json.load(open(os.path.join(obs_path, "header.json")))["time"]
        months = np.array([int(t.split("-")[1]) for t in times])
        index = metrics.context_index(months, gcf.read_mask(config["mask"]),
                                      {z: ZONE_BY_NAME.get(z, z) for z in config["zones"]}, config["seasons"])
        blocks = [(t0, min(t0 + metrics.BLOCK, len(times))) for t0 in range(0, len(times), metrics.BLOCK)]
        per_block = [
            [(tuple(rows[(rows >= t0) & (rows < t1)] - t0), tuple(cells))
             for rows, cells, _ in metrics._plan(index) if ((rows >= t0) & (rows < t1)).any()]
            for t0, t1 in blocks
        ]
        per_pass = [atom for atoms in per_block for atom in atoms]
        per_context = sum(
            np.any([((r >= t0) & (r < t1)).any() for _, r in season_rows])
            for t0, t1 in blocks for _, season_rows, _ in index
        )
        calls = []
        original = metrics._gather

        def counting(block, rows, cells):
            calls.append((tuple(rows), tuple(cells)))
            return original(block, rows, cells)

        monkeypatch.setattr(metrics, "_gather", counting)
        _run(tmp_path, cfg_path)
        sources = 1 + len(config["models"])  # the reference, then each model
        assert calls == [atom for _ in range(2) for atoms in per_block for atom in atoms * sources]
        assert len(per_pass) < per_context <= 16 * len(blocks)

    def test_one_model_block_is_alive_at_a_time(self, tmp_path):
        """Six labels on one cube peak less than one model block above two
        labels (traced numpy and Python allocations of the whole run): the
        sweep holds one reference block's atoms and one model block at a
        time, whatever the model count."""
        nlat = nlon = 64
        paths = make_ranking_fixture(str(tmp_path / "fixture"), seed=4242, nlat=nlat, nlon=nlon)
        config = json.load(open(paths["config"]))
        obs = gcf.read_cube(paths["obs"])
        model = str(tmp_path / "model")
        gcf.write_cube(regrid_bilinear(gcf.read_cube(config["models"][0]["path"]), obs.lat, obs.lon), model)
        config["weights"] = "uniform"

        def peak(labels):
            config["models"] = [{"label": f"m{i}", "path": model} for i in range(labels)]
            parsed = PipelineConfig.from_dict(config)
            tracemalloc.start()
            try:
                run_rank(parsed, str(tmp_path / f"run{labels}"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # the first run also pays one-time allocations
        assert peak(6) - peak(2) < metrics.BLOCK * nlat * nlon * 8

    def test_in_memory_and_full_scale_write_identical_bytes(self, tmp_path, setup):
        cfg_path, _ = setup
        for name, extra in (("memory", []), ("full", ["--full-scale"])):
            assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", name, *extra]) == 0
        manifests = [open(os.path.join(str(tmp_path), name, "manifest.json")).read() for name in ("memory", "full")]
        assert manifests[0] == manifests[1]

    def test_in_memory_and_full_scale_agree_on_inputs_with_fill(self, tmp_path, setup_with_fill):
        cfg_path, _ = setup_with_fill
        for name, extra in (("memory", []), ("full", ["--full-scale"])):
            assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", name, *extra]) == 0
        manifests = [open(os.path.join(str(tmp_path), name, "manifest.json")).read() for name in ("memory", "full")]
        assert manifests[0] == manifests[1]


class TestPairsAndRegrid:
    """Sources that are tasmax/tasmin pairs or off the reference grid stream like the rest."""

    @ARGV_FORMS
    def test_reports_equal_whole_cube_api(self, tmp_path, pair_setup, extra):
        cfg_path, config = pair_setup
        reports = _run(tmp_path, cfg_path, *extra)
        obs = _cube(config["reference"])
        mask = gcf.read_mask(config["mask"])
        assert len(reports) == 6 * 5 * 3
        for zone, season, spec, _ in _contexts(config):
            code = ZONE_OVERALL if zone == ZONE_OVERALL else ZONE_BY_NAME[zone]
            expect = full_report(_cube(spec, like=obs), obs, mask, code, season, bins=100)
            assert reports[(zone, season, spec["label"])] == expect.as_dict()

    def test_full_scale_writes_the_same_manifest(self, tmp_path, pair_setup):
        cfg_path, _ = pair_setup
        for name, extra in (("default", []), ("full", ["--full-scale"])):
            assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", name, *extra]) == 0
        manifests = [open(os.path.join(str(tmp_path), name, "manifest.json")).read() for name in ("default", "full")]
        assert manifests[0] == manifests[1]

    @ARGV_FORMS
    def test_tasmin_above_tasmax_exits_2_naming_time_index(self, tmp_path, pair_setup, capsys, extra):
        _, config = pair_setup
        config = json.loads(json.dumps(config))
        spec = next(spec for spec in config["models"] if "tasmin" in spec)
        cube = gcf.read_cube(spec["tasmin"])
        data = cube.data.copy()
        data[100, 2, 3] = gcf.read_cube(spec["tasmax"]).data[100, 2, 3] + 1.0
        spec["tasmin"] = str(tmp_path / "tasmin")
        gcf.write_cube(dataclasses.replace(cube, data=data), spec["tasmin"])
        cfg_path = tmp_path / "inverted.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["rank", "--config", str(cfg_path), "--out", str(tmp_path), *extra]) == 2
        err = capsys.readouterr().err
        assert spec["tasmin"] in err and "time index 100 (1985-04-11)" in err


class TestSourceValidation:
    """Each source is validated once, when it is opened, on every argv form."""

    def _edit_headers(self, tmp_path, config, paths, edit):
        """Copy the named payload directories under tmp_path with `edit` applied to each header."""
        config = json.loads(json.dumps(config))
        for spec in [config["reference"]] + config["models"]:
            if spec["path"] in paths:
                dest = str(tmp_path / os.path.basename(spec["path"]))
                cube = gcf.read_cube(spec["path"])
                gcf.write_cube(cube, dest)
                header_path = os.path.join(dest, "header.json")
                header = json.load(open(header_path))
                edit(header)
                json.dump(header, open(header_path, "w"))
                spec["path"] = dest
        cfg_path = tmp_path / "edited.json"
        cfg_path.write_text(json.dumps(config))
        return str(cfg_path), config

    @ARGV_FORMS
    def test_malformed_reference_date_exits_2(self, tmp_path, setup, capsys, extra):
        _, config = setup

        def edit(header):
            header["time"][5] = "1985/01/06"

        cfg_path, edited = self._edit_headers(tmp_path, config, {config["reference"]["path"]}, edit)
        assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), *extra]) == 2
        err = capsys.readouterr().err
        assert edited["reference"]["path"] in err and "1985/01/06" in err

    @ARGV_FORMS
    def test_malformed_model_date_exits_2_naming_the_model(self, tmp_path, setup, capsys, extra):
        _, config = setup
        model = config["models"][1]["path"]

        def edit(header):
            header["time"][9] = "1985-13-10"

        cfg_path, edited = self._edit_headers(tmp_path, config, {model}, edit)
        assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), *extra]) == 2
        err = capsys.readouterr().err
        assert edited["models"][1]["path"] in err and "month out of range" in err

    @pytest.mark.parametrize(
        "key, value",
        [("fill_value", "x"), ("fill_value", True), ("time", None), ("time", 5), ("lat", None),
         ("lon", ["a"]), ("variable", 5), ("units", None), ("fill_value", 10**400), ("lat", [10**400])],
        ids=["fill-string", "fill-bool", "time-null", "time-number", "lat-null", "lon-strings", "variable-number",
             "units-null", "fill-huge", "lat-huge"],
    )
    @pytest.mark.parametrize("command", ["rank", "full-scale", "metrics"])
    def test_mistyped_header_field_exits_2_naming_file_and_key(self, tmp_path, setup, capsys, command, key, value):
        _, config = setup

        def edit(header):
            header[key] = [value] * len(header[key]) if isinstance(value, list) else value

        cfg_path, edited = self._edit_headers(tmp_path, config, {config["reference"]["path"]}, edit)
        if command == "metrics":
            argv = ["metrics", "--model", config["models"][0]["path"], "--obs", edited["reference"]["path"],
                    "--mask", config["mask"]]
        else:
            argv = ["rank", "--config", cfg_path, "--out", str(tmp_path)] + (["--full-scale"] if command != "rank" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert edited["reference"]["path"] in err and f"{key} must be" in err and "Traceback" not in err

    @ARGV_FORMS
    def test_repeated_date_in_every_header_exits_2(self, tmp_path, setup, capsys, extra):
        _, config = setup

        def edit(header):
            header["time"][6] = header["time"][5]

        every = {spec["path"] for spec in [config["reference"]] + config["models"]}
        cfg_path, edited = self._edit_headers(tmp_path, config, every, edit)
        assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), *extra]) == 2
        err = capsys.readouterr().err
        assert edited["reference"]["path"] in err and "strictly increasing" in err


@pytest.fixture(scope="module")
def header_source(setup):
    """(reference directory, its header, mask path): `metrics` of the reference against itself exits 0."""
    _, config = setup
    obs = config["reference"]["path"]
    return obs, json.load(open(os.path.join(obs, "header.json"))), config["mask"]


@settings(max_examples=100, deadline=None)
@given(mutation=mutations(gcf.HEADER_FIELDS))
def test_any_one_bad_header_field_exits_cleanly(tmp_path_factory, header_source, mutation):
    """One declared field of a valid GCF header given a wrong type or an
    out-of-range value, left out, or joined by an undeclared key exits 2,
    without a traceback, from `metrics`."""
    obs, header, mask = header_source
    path, f, kind, value = mutation
    edited = tempfile.mkdtemp(dir=str(tmp_path_factory.getbasetemp()))
    shutil.copyfile(os.path.join(obs, "data.bin"), os.path.join(edited, "data.bin"))
    with open(os.path.join(edited, "header.json"), "w") as fh:
        json.dump(mutate(header, path, kind, value), fh)
    code, err = run_cli(["metrics", "--model", obs, "--obs", edited, "--mask", mask])
    shutil.rmtree(edited)
    check_exit(code, err, f, kind)
