import csv
import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

from gcmkit import gcf
from gcmkit.cli import main
from gcmkit.fixtures import GOOD_MODEL, make_csv_fixture, make_ranking_fixture


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    return make_ranking_fixture(str(root), seed=4242)


class TestIngest:
    def test_csv_to_gcf(self, tmp_path):
        csv_path = make_csv_fixture(str(tmp_path / "fx.csv"))
        dest = str(tmp_path / "cube")
        assert main(["ingest", csv_path, dest, "--variable", "dtr"]) == 0
        cube = gcf.read_cube(dest)
        assert cube.shape == (2, 2, 2)
        assert cube.variable == "dtr"

    def test_duplicate_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,lat,lon,value\n"
            "1985-01-01,40.0,10.0,1.0\n"
            "1985-01-01,40.0,10.0,2.0\n"
        )
        assert main(["ingest", str(path), str(tmp_path / "cube")]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_ragged_grid_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "date,lat,lon,value\n"
            "1985-01-01,40.0,10.0,1.0\n"
            "1985-01-01,40.0,11.0,1.0\n"
            "1985-01-01,41.0,10.0,1.0\n"
        )
        assert main(["ingest", str(path), str(tmp_path / "cube")]) == 2
        assert "missing" in capsys.readouterr().err


class TestRegridAndMetrics:
    def test_regrid_command(self, tmp_path, fixture_paths):
        dest = str(tmp_path / "regridded")
        code = main(["regrid", fixture_paths[GOOD_MODEL], "--like", fixture_paths["obs"], dest])
        assert code == 0
        out = gcf.read_cube(dest)
        obs = gcf.read_cube(fixture_paths["obs"])
        assert out.shape == obs.shape

    def test_metrics_command_writes_csv(self, tmp_path, fixture_paths):
        regridded = str(tmp_path / "rg")
        main(["regrid", fixture_paths[GOOD_MODEL], "--like", fixture_paths["obs"], regridded])
        dest = str(tmp_path / "report.csv")
        code = main([
            "metrics", "--model", regridded, "--obs", fixture_paths["obs"],
            "--mask", fixture_paths["mask"], "--zone", "temperate", "--season", "JJA",
            "--dest", dest,
        ])
        assert code == 0
        lines = open(dest).read().strip().split("\n")
        assert len(lines) == 2
        assert "rmse" in lines[0]

    def test_metrics_on_season_without_days_exits_2(self, tmp_path, capsys, year_cube, all_land_mask):
        winter = dataclasses.replace(year_cube, time=year_cube.time[:59], data=year_cube.data[:59])  # Jan + Feb
        gcf.write_cube(winter, str(tmp_path / "cube"))
        gcf.write_mask(all_land_mask, str(tmp_path / "mask"))
        argv = ["metrics", "--model", str(tmp_path / "cube"), "--obs", str(tmp_path / "cube"),
                "--mask", str(tmp_path / "mask"), "--season", "JJA"]
        assert main(argv) == 2
        assert "season JJA" in capsys.readouterr().err


class TestRank:
    def test_end_to_end_rank_and_determinism(self, tmp_path, fixture_paths):
        out_root = str(tmp_path)
        assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "r1"]) == 0
        assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "r2"]) == 0

        run1, run2 = os.path.join(out_root, "r1"), os.path.join(out_root, "r2")
        m1 = open(os.path.join(run1, "manifest.json")).read()
        m2 = open(os.path.join(run2, "manifest.json")).read()
        assert m1 == m2

        with open(os.path.join(run1, "ranking.csv")) as fh:
            next(fh)
            winners = {}
            for line in fh:
                parts = line.strip().split(",")
                ctx, model, cc, rank = parts[0], parts[1], parts[2], parts[5]
                assert 0.0 <= float(cc) <= 1.0
                if rank == "1":
                    winners[ctx] = model
        assert len(winners) == 30  # 6 zones x 5 seasons
        assert set(winners.values()) == {GOOD_MODEL}

        history = os.path.join(run1, "weightnet_history.json")
        outputs = json.loads(m1)["outputs"]
        assert outputs["weightnet_history.json"] == hashlib.sha256(open(history, "rb").read()).hexdigest()

        weights = json.load(open(os.path.join(run1, "weights.json")))
        for ctx, spec in weights.items():
            assert spec["source"] == "weightnet"
            assert sum(spec["weights"]) == pytest.approx(1.0, abs=1e-9)

        heat = open(os.path.join(run1, "heatmap.csv")).read().strip().split("\n")
        assert len(heat) == 4  # header + 3 models
        assert len(heat[0].split(",")) == 31  # model column + 30 contexts

    def test_missing_mask_is_preflight_validation_error(self, tmp_path, fixture_paths, capsys):
        config = json.load(open(fixture_paths["config"]))
        config["mask"] = str(tmp_path / "nope")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["rank", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "mask" in capsys.readouterr().err

    def test_single_model_config_rejected(self, tmp_path, fixture_paths, capsys):
        config = json.load(open(fixture_paths["config"]))
        config["models"] = config["models"][:1]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        assert main(["rank", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "2 models" in capsys.readouterr().err

    def test_full_scale_streaming_matches_in_memory(self, tmp_path, fixture_paths):
        # pre-regrid the models so the streaming path accepts them
        config = json.load(open(fixture_paths["config"]))
        for spec in config["models"]:
            dest = str(tmp_path / f"rg_{spec['label']}")
            assert main(["regrid", spec["path"], "--like", fixture_paths["obs"], dest]) == 0
            spec["path"] = dest
        config["weights"] = "uniform"
        cfg_path = tmp_path / "stream.json"
        cfg_path.write_text(json.dumps(config))

        out_root = str(tmp_path)
        assert main(["rank", "--config", str(cfg_path), "--out", out_root, "--name", "mem"]) == 0
        assert main(["rank", "--config", str(cfg_path), "--out", out_root, "--name", "str", "--full-scale"]) == 0

        def scores(run):
            out = {}
            with open(os.path.join(out_root, run, "ranking.csv")) as fh:
                next(fh)
                for line in fh:
                    parts = line.strip().split(",")
                    out[(parts[0], parts[1])] = float(parts[2])
            return out

        mem, stream = scores("mem"), scores("str")
        assert mem.keys() == stream.keys()
        for key in mem:
            assert stream[key] == pytest.approx(mem[key], rel=1e-7, abs=1e-9)


    def test_full_scale_names_non_finite_payload(self, tmp_path, fixture_paths, capsys):
        config = json.load(open(fixture_paths["config"]))
        for spec in config["models"]:
            dest = str(tmp_path / f"rg_{spec['label']}")
            assert main(["regrid", spec["path"], "--like", fixture_paths["obs"], dest]) == 0
            spec["path"] = dest
        bad = config["models"][-1]["path"]
        cube = gcf.read_cube(bad)
        data = cube.data.copy()
        data[100, 3, 4] = np.nan
        with open(os.path.join(bad, "data.bin"), "wb") as fh:
            fh.write(data.astype("<f4").tobytes())
        cfg_path = tmp_path / "nan.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["rank", "--config", str(cfg_path), "--out", str(tmp_path), "--full-scale"]) == 2
        err = capsys.readouterr().err
        assert bad in err and "time index 100" in err


class TestDownscaleCli:
    def test_train_then_eval_on_tiny_pair(self, tmp_path):
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(31, 4, 15, 32, 32, bias=0.5, noise_sd=0.1)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine"), "window": 4}))

        out_root = str(tmp_path)
        code = main([
            "downscale", "train", "--arch", "vit", "--data", str(spec),
            "--epochs", "2", "--name", "dsrun", "--out", out_root,
        ])
        assert code == 0
        run_dir = os.path.join(out_root, "dsrun")
        assert os.path.isdir(os.path.join(run_dir, "vit.ckpt"))
        log = open(os.path.join(run_dir, "vit_train_log.csv")).read().strip().split("\n")
        assert log[0] == "epoch,train_loss,val_loss,wall_ms"
        assert len(log) == 3
        table = open(os.path.join(run_dir, "downscale_report.csv")).read()
        assert "bilinear" in table and "vit" in table

        report = str(tmp_path / "eval.csv")
        code = main(["downscale", "eval", "--ckpt", os.path.join(run_dir, "vit.ckpt"),
                     "--data", str(spec), "--report", report])
        assert code == 0
        lines = open(report).read().strip().split("\n")
        assert len(lines) == 3  # header + vit + baseline

    def test_train_and_eval_score_the_same_held_out_windows(self, tmp_path):
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(31, 4, 30, 32, 32, bias=0.5, noise_sd=0.1)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine"), "window": 10}))
        held_out = 4  # 21 ten-frame windows: the first 17 train, the last 4 are held out

        out_root = str(tmp_path)
        argv = ["downscale", "train", "--arch", "vit", "--data", str(spec), "--epochs", "1", "--name", "ds", "--out", out_root]
        assert main(argv) == 0
        report = str(tmp_path / "eval.csv")
        assert main(["downscale", "eval", "--ckpt", os.path.join(out_root, "ds", "vit.ckpt"),
                     "--data", str(spec), "--report", report]) == 0
        for path in (os.path.join(out_root, "ds", "downscale_report.csv"), report):
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert [int(row["n"]) for row in rows] == [held_out * 32 * 32] * 2  # vit + baseline


    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("missing", ["coarse", "fine"])
    def test_spec_without_cube_key_exits_2(self, tmp_path, capsys, command, missing):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({k: str(tmp_path / k) for k in ("coarse", "fine") if k != missing}))
        argv = ["downscale", command, "--data", str(spec)]
        if command == "train":
            argv += ["--arch", "vit", "--out", str(tmp_path)]
        else:
            argv += ["--ckpt", str(tmp_path / "none.ckpt"), "--report", str(tmp_path / "eval.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"lacks key '{missing}'" in err and str(spec) in err


class TestJobs:
    def test_parallel_metrics_are_schedule_invariant(self, tmp_path, fixture_paths):
        out_root = str(tmp_path)
        assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "serial"]) == 0
        assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "parallel", "--jobs", "3"]) == 0
        a = open(os.path.join(out_root, "serial", "manifest.json")).read()
        b = open(os.path.join(out_root, "parallel", "manifest.json")).read()
        assert a == b


class TestReport:
    def test_report_bundle_shapes(self, tmp_path, fixture_paths):
        out_root = str(tmp_path)
        assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "run"]) == 0
        assert main(["report", "--run", os.path.join(out_root, "run"), "--out", out_root, "--name", "rep"]) == 0
        rep = os.path.join(out_root, "rep")

        fig4 = open(os.path.join(rep, "fig4_mean_scores.csv")).read().strip().split("\n")
        assert fig4[0] == "zone,season,mean_cc,mean_of_zone_means"
        rows = [line.split(",") for line in fig4[1:]]
        assert len(rows) == 30
        assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)

        labels = json.load(open(os.path.join(rep, "fig5_model_labels.json")))["index_to_model"]
        raster = gcf.read_cube(os.path.join(rep, "fig5_best_model"))
        values = raster.data[raster.data != raster.fill]
        assert set(np.unique(values)).issubset({float(i) for i in map(int, labels)})
        # every land cell is assigned, every ocean cell is fill
        mask = gcf.read_mask(json.load(open(os.path.join(out_root, "run", "config.json")))["mask"])
        assert np.all((raster.data[0] == raster.fill) == (mask.codes == 0))

    def test_empty_run_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--run", str(empty), "--out", str(tmp_path)]) == 2
        assert "ranking.csv" in capsys.readouterr().err


class TestExitCodes:
    def test_numeric_fault_exits_3(self, tmp_path, capsys):
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(31, 4, 15, 32, 32)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        pair = tmp_path / "pair.json"
        pair.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine")}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"learning_rate": 1e20, "optimizer": "sgd", "epochs": 6}}))
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "downscale", "train", "--arch", "vit", "--data", str(pair),
                "--config", str(cfg), "--name", "diverge", "--out", str(tmp_path),
            ])
        assert code == 3
        assert "numeric fault" in capsys.readouterr().err

    def test_non_finite_parameter_step_exits_3(self, tmp_path, capsys, monkeypatch):
        from gcmkit.tensorcore import Adam, load_checkpoint

        real_step = Adam.step

        def poisoned_step(opt):
            real_step(opt)
            opt.params[0].data[...] = np.nan

        monkeypatch.setattr(Adam, "step", poisoned_step)
        code = main(["downscale", "train", "--arch", "cnn_lstm", "--epochs", "1",
                     "--name", "poisoned", "--out", str(tmp_path)])
        assert code == 3
        assert "numeric fault" in capsys.readouterr().err
        arrays, _ = load_checkpoint(str(tmp_path / "poisoned" / "cnn_lstm.ckpt"))
        assert all(np.all(np.isfinite(arr)) for arr in arrays.values())

    def test_io_error_exits_4(self, tmp_path, capsys):
        csv_path = make_csv_fixture(str(tmp_path / "fx.csv"))
        blocker = tmp_path / "blocker"
        blocker.write_text("a plain file")
        dest = str(blocker / "cube")  # destination nested under a file
        assert main(["ingest", csv_path, dest]) == 4
        assert "i/o error" in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes(self):
        assert main(["selftest"]) == 0
