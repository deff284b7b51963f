"""The rank stage sweeps each model once and fills every (zone, season) context.

These tests pin the properties of that sweep: how often each payload is
read, that its reports are exactly those of a sweep over one context at a
time and of the whole-cube API, and that every source is validated when
it is opened.
"""

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from gcmkit import gcf, geogrid
from gcmkit.cli import main
from gcmkit.fixtures import BIASED_MODEL, make_ranking_fixture
from gcmkit.geogrid import LAND_ZONES, SEASONS, derive_dtr, regrid_bilinear
from gcmkit.metrics import ZONE_OVERALL, StreamingPool, full_report
from gcmkit.pipeline import ZONE_BY_NAME


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
                yield zone, season, spec, mask.cells_in(codes)


class TestContextSweep:
    def test_full_scale_reads_each_payload_twice_per_model(self, tmp_path, setup, pair_setup, monkeypatch):
        """With or without --full-scale, on single cubes and on tasmax/tasmin
        pairs, every payload streams once per sweep pass and no source is
        read whole; only the mask goes through read_cube."""
        opens, whole = Counter(), Counter()
        original_chunks, original_read = gcf.iter_time_chunks, gcf.read_cube

        def counting(path, chunk):
            opens[path] += 1
            return original_chunks(path, chunk)

        def counting_read(path):
            whole[path] += 1
            return original_read(path)

        monkeypatch.setattr(gcf, "iter_time_chunks", counting)
        monkeypatch.setattr(gcf, "read_cube", counting_read)
        for cfg_path, config in (setup, pair_setup):
            models = [path for spec in config["models"] for path in _payloads(spec)]
            obs = _payloads(config["reference"])
            for extra in ([], ["--full-scale"]):
                opens.clear()
                whole.clear()
                _run(tmp_path, cfg_path, *extra)
                assert opens == Counter({**{p: 2 for p in models}, **{p: 2 * len(config["models"]) for p in obs}})
                assert whole == Counter({config["mask"]: 1})

    def test_in_memory_reports_equal_full_report(self, tmp_path, setup, monkeypatch):
        cfg_path, config = setup
        seasons_selected = Counter()
        original = geogrid.select_season

        def counting(cube, season):
            seasons_selected[season.id] += 1
            return original(cube, season)

        monkeypatch.setattr(geogrid, "select_season", counting)
        reports = _run(tmp_path, cfg_path)
        assert not seasons_selected  # the sweep gathers each context by index, never through select_season

        obs = gcf.read_cube(config["reference"]["path"])
        mask = gcf.read_mask(config["mask"])
        assert len(reports) == 6 * 5 * 3
        for zone, season, spec, _ in _contexts(config):
            code = ZONE_OVERALL if zone == ZONE_OVERALL else ZONE_BY_NAME[zone]
            cube = regrid_bilinear(gcf.read_cube(spec["path"]), obs.lat, obs.lon)
            expect = full_report(cube, obs, mask, code, SEASONS[season], bins=100)
            assert reports[(zone, season, spec["label"])] == expect.as_dict()

    def test_streaming_reports_equal_per_context_pools(self, tmp_path, setup):
        cfg_path, config = setup
        reports = _run(tmp_path, cfg_path, "--full-scale")
        obs_path = config["reference"]["path"]
        times = json.load(open(os.path.join(obs_path, "header.json")))["time"]
        months = np.array([int(t.split("-")[1]) for t in times])
        fill = gcf.canonical_fill(-9999.0)
        assert len(reports) == 6 * 5 * 3
        for zone, season, spec, cells in _contexts(config):

            def chunks():
                blocks = zip(gcf.iter_time_chunks(spec["path"], 64), gcf.iter_time_chunks(obs_path, 64))
                for (t0, block_m), (_, block_o) in blocks:
                    keep = np.isin(months[t0 : t0 + len(block_m)], sorted(SEASONS[season].months))
                    if keep.any():
                        m, o = block_m[keep][:, cells], block_o[keep][:, cells]
                        ok = (m != fill) & (o != fill)
                        yield m[ok], o[ok]

            pool = StreamingPool(bins=100)
            for m, o in chunks():
                pool.update(m, o)
            pool.freeze()
            for m, o in chunks():
                pool.update_hist(m, o)
            assert reports[(zone, season, spec["label"])] == pool.report().as_dict()

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
            expect = full_report(_cube(spec, like=obs), obs, mask, code, SEASONS[season], bins=100)
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

    @pytest.mark.parametrize(
        "key, value",
        [("fill_value", "x"), ("fill_value", True), ("time", None), ("time", 5), ("lat", None),
         ("lon", ["a"]), ("variable", 5), ("units", None)],
        ids=["fill-string", "fill-bool", "time-null", "time-number", "lat-null", "lon-strings", "variable-number",
             "units-null"],
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
