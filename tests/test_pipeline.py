"""The rank stage sweeps each model once and fills every (zone, season) context.

These tests pin the properties of that sweep: how often each payload is
read, and that both metric paths give exactly the reports of a sweep over
one context at a time.
"""

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from gcmkit import gcf, geogrid
from gcmkit.cli import main
from gcmkit.fixtures import make_ranking_fixture
from gcmkit.geogrid import LAND_ZONES, SEASONS, regrid_bilinear
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
    def test_full_scale_reads_each_payload_twice_per_model(self, tmp_path, setup, monkeypatch):
        cfg_path, config = setup
        opens = Counter()
        original = gcf.iter_time_chunks

        def counting(path, chunk):
            opens[path] += 1
            return original(path, chunk)

        monkeypatch.setattr(gcf, "iter_time_chunks", counting)
        _run(tmp_path, cfg_path, "--full-scale")
        models = [spec["path"] for spec in config["models"]]
        assert opens == Counter({**{path: 2 for path in models}, config["reference"]["path"]: 2 * len(models)})

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

    def test_full_scale_model_parallel_sweep_keeps_artifacts(self, tmp_path, setup):
        cfg_path, _ = setup
        for name, jobs in (("serial", "1"), ("parallel", "3")):
            argv = ["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", name, "--jobs", jobs]
            assert main(argv + ["--full-scale"]) == 0
        manifests = [open(os.path.join(str(tmp_path), name, "manifest.json")).read() for name in ("serial", "parallel")]
        assert manifests[0] == manifests[1]

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
