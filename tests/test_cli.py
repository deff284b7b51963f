import ast
import collections
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings

from gcmkit import cli, gcf, pipeline
from gcmkit import ranking as rk
from gcmkit import tensorcore as tc
from gcmkit.artifacts import RunManifest, write_files
from gcmkit.cli import main
from gcmkit.downscale.data import PAIR_FIELDS
from gcmkit.fixtures import GOOD_MODEL, make_csv_fixture, make_ranking_fixture
from gcmkit.geogrid import LAND_ZONES, ZONE_NAMES
from gcmkit.metrics import METRIC_NAMES, MetricReport
from gcmkit.ranking import DEFAULT_CRITERIA_NAMES
from specmutations import check_exit, field_paths, mutate, mutations, run_cli


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture")
    return make_ranking_fixture(str(root), seed=4242)


@pytest.fixture(scope="module")
def rank_run(tmp_path_factory, fixture_paths):
    """A finished rank run of the fixture config (weights: "train"); tests copy it before editing."""
    out_root = str(tmp_path_factory.mktemp("rank"))
    assert main(["rank", "--config", fixture_paths["config"], "--out", out_root, "--name", "run"]) == 0
    return os.path.join(out_root, "run")


@pytest.fixture(scope="module")
def vit_ckpt(tmp_path_factory):
    """The vit.ckpt directory of a one-epoch downscale run; tests copy it before editing."""
    out_root = str(tmp_path_factory.mktemp("ds"))
    assert main(["downscale", "train", "--arch", "vit", "--epochs", "1", "--out", out_root, "--name", "ds"]) == 0
    return os.path.join(out_root, "ds", "vit.ckpt")


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

    def test_regrid_reads_only_the_header_of_like(self, tmp_path, fixture_paths, monkeypatch):
        from gcmkit.geogrid import regrid_bilinear

        model, like = fixture_paths[GOOD_MODEL], fixture_paths["obs"]
        expected = str(tmp_path / "expected")
        obs = gcf.read_cube(like)
        gcf.write_cube(regrid_bilinear(gcf.read_cube(model), obs.lat, obs.lon), expected)
        payload_reads = []
        real_read = gcf.read_block

        def recording_read(path, head, t0, n):
            payload_reads.append(path)
            return real_read(path, head, t0, n)

        monkeypatch.setattr(gcf, "read_block", recording_read)
        dest = str(tmp_path / "regridded")
        assert main(["regrid", model, "--like", like, dest]) == 0
        assert payload_reads == [model]
        for name in sorted(os.listdir(expected)):
            with open(os.path.join(expected, name), "rb") as a, open(os.path.join(dest, name), "rb") as b:
                assert a.read() == b.read(), name

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


    def test_metrics_unknown_zone_exits_2(self, fixture_paths, capsys):
        argv = ["metrics", "--model", fixture_paths[GOOD_MODEL], "--obs", fixture_paths["obs"],
                "--mask", fixture_paths["mask"], "--zone", "boreal"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "'boreal'" in err
        assert all(name in err for name in ("arid", "continental", "overall", "polar", "temperate", "tropical"))

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

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda config: [config], "not a JSON object"),
            (lambda config: {**config, "models": config["models"][:1] + ["cold"]}, "models[1]"),
            (lambda config: {**config, "weightnet": [50]}, "weightnet"),
            (lambda config: {**config, "seed": "one"}, "seed"),
            (lambda config: {**config, "pdf_bins": "many"}, "pdf_bins"),
            (lambda config: {**config, "weightnet": {"epochs": "ten"}}, "weightnet.epochs"),
            (lambda config: {**config, "models": [{**config["models"][0], "label": 5}, *config["models"][1:]]},
             "models[0].label"),
            (lambda config: {**config, "models": [*config["models"][:2], {**config["models"][2], "label": "a,b"}]},
             "models[2].label"),
            (lambda config: {**config, "models": [{**config["models"][0], "label": "a\nb"}, *config["models"][1:]]},
             "models[0].label"),
            (lambda config: {**config, "models": [{**config["models"][0], "label": "a\rb"}, *config["models"][1:]]},
             "models[0].label"),
            (lambda config: {**config, "seasons": []}, "seasons"),
            (lambda config: {**config, "zones": []}, "zones"),
            (lambda config: {**config, "reference": 5}, "reference"),
            (lambda config: {**config, "weightnet": {"batch_size": 0}}, "weightnet.batch_size"),
            (lambda config: {**config, "weightnet": {"epochs": -1}}, "weightnet.epochs"),
            (lambda config: {**config, "pdf_bins": 10**12}, "pdf_bins"),
            (lambda config: {**config, "criteria": "bias"}, "criteria"),
            (lambda config: {**config, "weightnet": {"learning_rate": 10**400}}, "weightnet.learning_rate"),
            (lambda config: {**config, "weights": "train", "weightnet": {"epochs": 10**18}}, "weightnet.epochs"),
            (lambda config: {**config, "criteria": ["bias", "bias", "rmse"]}, "criteria"),
            (lambda config: {**config, "seasons": ["DJF", "JJA", "DJF"]}, "seasons"),
            (lambda config: {**config, "zones": ["arid", "arid"]}, "zones"),
            (lambda config: {**config, "wieghts": "train"}, "wieghts"),
            (lambda config: {**config, "weightnet": {"epoch": 3}}, "weightnet.epoch"),
        ],
        ids=["top-level-list", "model-entry", "weightnet-block", "seed", "pdf_bins", "weightnet-epochs",
             "non-string-label", "label-with-comma", "label-with-newline", "label-with-return",
             "no-seasons", "no-zones", "non-object-reference", "zero-batch-size", "negative-epochs",
             "huge-pdf-bins", "criteria-string", "learning-rate-beyond-float", "weightnet-epochs-huge",
             "duplicate-criterion", "duplicate-season", "duplicate-zone", "unknown-key", "unknown-weightnet-key"],
    )
    def test_config_type_error_exits_2_naming_key_and_file(self, tmp_path, fixture_paths, capsys, edit, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.load(open(fixture_paths["config"])))))
        assert main(["rank", "--config", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and str(bad) in err

    @pytest.mark.parametrize("source", ["model", "reference"])
    def test_source_with_both_forms_exits_2_naming_it(self, tmp_path, fixture_paths, capsys, source):
        config = json.load(open(fixture_paths["config"]))
        spec, name = (config["models"][1], f"model {config['models'][1]['label']}") if source == "model" \
            else (config["reference"], "reference")
        spec.update(tasmax=spec["path"], tasmin=spec["path"])
        bad = tmp_path / "both.json"
        bad.write_text(json.dumps(config))
        assert main(["rank", "--config", str(bad), "--out", str(tmp_path), "--name", "run"]) == 2
        err = capsys.readouterr().err
        assert f"{name} needs either 'path' or 'tasmax'+'tasmin'" in err and str(bad) in err
        assert not os.path.exists(tmp_path / "run")

    def test_readme_rank_config_declares_only_spec_keys(self):
        readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
        block = readme.split("## Rank config", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        declared = {tuple(k for k in path if isinstance(k, str)) for path, _ in field_paths(pipeline.RANK_FIELDS)}

        def keys(node, prefix=()):
            for key, value in node.items():
                yield prefix + (key,)
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, dict):
                        yield from keys(child, prefix + (key,))

        used = set(keys(json.loads(block)))
        assert used - declared == set()
        assert {"weightnet", "criteria"} <= {path[0] for path in used}  # the example shows the nested blocks

    @pytest.mark.parametrize("drop", ["criteria", "seed"])
    def test_weight_checkpoint_with_bad_meta_exits_2_naming_it(self, tmp_path, fixture_paths, rank_run, capsys, drop):
        ckpt = tmp_path / "weightnet.ckpt"
        shutil.copytree(os.path.join(rank_run, "weightnet.ckpt"), ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        del manifest["meta"][drop]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        config = {**json.load(open(fixture_paths["config"])), "weights": {"checkpoint": str(ckpt)}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["rank", "--config", str(cfg_path), "--out", str(tmp_path), "--name", "run"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and drop in err

    @pytest.mark.parametrize(
        "criteria",
        [list(DEFAULT_CRITERIA_NAMES), list(reversed(DEFAULT_CRITERIA_NAMES)),
         ["r2" if name == "bias" else name for name in DEFAULT_CRITERIA_NAMES]],
        ids=["same", "reversed", "r2-for-bias"],
    )
    def test_weight_checkpoint_applies_only_to_the_criteria_it_weighs(self, tmp_path, fixture_paths, rank_run,
                                                                      capsys, criteria):
        ckpt = os.path.join(rank_run, "weightnet.ckpt")
        config = {**json.load(open(fixture_paths["config"])), "criteria": criteria, "weights": {"checkpoint": ckpt}}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["rank", "--config", str(cfg_path), "--out", str(tmp_path), "--name", "run"])
        if criteria == list(DEFAULT_CRITERIA_NAMES):  # the net the run trained weighs every context as it did
            assert code == 0
            weights = (tmp_path / "run" / "weights.json").read_text()
            assert weights == open(os.path.join(rank_run, "weights.json")).read()
            return
        assert code == 2
        err = capsys.readouterr().err
        assert "[weights]" in err and ckpt in err and str(list(DEFAULT_CRITERIA_NAMES)) in err and str(criteria) in err

    @staticmethod
    def _run_reports(rank_run):
        """{(zone, season): [(model, report)]} of a rank run, rebuilt from its reports.json."""
        reports = collections.defaultdict(list)
        for row in json.load(open(os.path.join(rank_run, "reports.json"))):
            fields = {key: row[key] for key in (*METRIC_NAMES, "n", "flags")}
            reports[(row["zone"], row["season"])].append((row["model"], MetricReport(**fields)))
        return reports

    @classmethod
    def _run_matrices(cls, rank_run):
        """The decision matrix of every context of a rank run, rebuilt from its reports.json."""
        reports = cls._run_reports(rank_run)
        return [rk.assemble_matrix(reports[ctx], DEFAULT_CRITERIA_NAMES, ctx) for ctx in sorted(reports)]

    def test_learned_weights_order_contexts_as_their_entropy_targets_do(self, rank_run):
        """The net's weights give the entropy weights' TOPSIS order in at least 29 of the fixture's 30 contexts
        (uniform weights give it in 20), and no learned weight is more than 0.1 from its entropy target."""
        matrices = self._run_matrices(rank_run)
        learned = rk.rank_all(matrices, rk.WeightNet.load(os.path.join(rank_run, "weightnet.ckpt")))
        entropy = [rk.topsis(dm, dm.target).order for dm in matrices]
        assert len(learned) == 30 and {res.source for res in learned} == {"weightnet"}
        assert max(np.max(np.abs(res.weights.w - dm.target.w)) for dm, res in zip(matrices, learned)) < 0.1
        assert sum(res.order == order for res, order in zip(learned, entropy)) >= 29
        assert sum(res.order == order for res, order in zip(rk.rank_all(matrices), entropy)) < 29

    def test_weights_learned_on_four_zones_order_the_fifth_as_its_entropy_targets_do(self, rank_run):
        """A net trained on four land zones' contexts, with the run's own net config, gives the held-out zone's
        entropy order in at least 24 of the 25 held-out contexts (uniform weights give it in 19), within 0.1 of
        every target weight. `overall` is left out of training, since it pools the held-out zone's cells."""
        matrices = self._run_matrices(rank_run)
        config = pipeline.PipelineConfig.from_file(os.path.join(rank_run, "config.json")).weightnet
        scored = agree = uniform = 0
        worst = 0.0
        for zone in (ZONE_NAMES[code] for code in LAND_ZONES):
            held = [dm for dm in matrices if dm.context[0] == zone]
            net, _ = rk.train_weightnet([dm for dm in matrices if dm.context[0] not in (zone, "overall")], config)
            for dm, res, flat in zip(held, rk.rank_all(held, net), rk.rank_all(held)):
                order = rk.topsis(dm, dm.target).order
                scored += 1
                agree += res.order == order
                uniform += flat.order == order
                worst = max(worst, float(np.max(np.abs(res.weights.w - dm.target.w))))
        assert scored == 25
        assert agree >= 24 and uniform < 24
        assert worst < 0.1

    @staticmethod
    def _constant_fields_config(tmp_path, fixture_paths, weights):
        """The fixture config with a constant reference and constant models, written to tmp_path."""
        config = json.load(open(fixture_paths["config"]))
        obs = gcf.read_cube(fixture_paths["obs"])
        config["reference"]["path"] = str(tmp_path / "obs")
        gcf.write_cube(dataclasses.replace(obs, data=np.full(obs.shape, 280.0)), config["reference"]["path"])
        for spec, value in zip(config["models"], (280.0, 281.0, 279.0)):
            cube = gcf.read_cube(spec["path"])
            spec["path"] = str(tmp_path / spec["label"])
            gcf.write_cube(dataclasses.replace(cube, data=np.full(cube.shape, value)), spec["path"])
        config["weights"] = weights
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        return config, str(cfg_path)

    def test_constant_fields_score_a_perfect_pdf_overlap(self, tmp_path, fixture_paths):
        # bilinear regrid leaves a few ULPs of spread on a constant off-grid
        # model, too narrow a range for 100 strictly increasing bin edges
        config, cfg_path = self._constant_fields_config(tmp_path, fixture_paths, "uniform")
        assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", "run"]) == 0
        rows = json.load(open(tmp_path / "run" / "reports.json"))
        overlaps = {row["pdf_overlap"] for row in rows if row["model"] == config["models"][0]["label"]}
        assert overlaps == {1.0}

    @staticmethod
    def _constant_tropical_run(tmp_path, weights):
        """A rank of the seed-3 fixture whose reference is constant over the first land zone, where r, nse and
        kge then have no valid value; the run directory."""
        paths = make_ranking_fixture(str(tmp_path / "fx"), seed=3)
        config = json.load(open(paths["config"]))
        obs, mask = gcf.read_cube(paths["obs"]), gcf.read_mask(paths["mask"])
        data = obs.data.copy()
        data[:, mask.codes == LAND_ZONES[0]] = 280.0
        config["reference"]["path"] = str(tmp_path / "obs")
        gcf.write_cube(dataclasses.replace(obs, data=data), config["reference"]["path"])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({**config, "weights": weights}))
        assert main(["rank", "--config", str(cfg_path), "--out", str(tmp_path), "--name", "run"]) == 0
        return str(tmp_path / "run")

    def test_a_criterion_without_a_valid_value_ranks_as_if_dropped_under_uniform(self, tmp_path):
        """Its zero column is inert: each context's order and CCs are those of TOPSIS over the criteria that have a
        valid value, under the uniform weights renormalized over them."""
        run = self._constant_tropical_run(tmp_path, "uniform")
        reports = self._run_reports(run)
        rows = collections.defaultdict(list)
        for row in csv.DictReader(open(os.path.join(run, "ranking.csv"))):
            rows[row["context"]].append(row)
        weights = json.load(open(os.path.join(run, "weights.json")))
        dropped = {}
        for ctx in sorted(reports):
            key = "/".join(ctx)
            assert weights[key]["criteria"] == list(DEFAULT_CRITERIA_NAMES) and weights[key]["source"] == "uniform"
            kept = [name for name in DEFAULT_CRITERIA_NAMES
                    if any(rep.value(name) is not None for _, rep in reports[ctx])]
            dropped[key] = sorted(set(DEFAULT_CRITERIA_NAMES) - set(kept))
            uniform = rk.WeightVector(np.full(len(kept), 1 / len(kept)))
            want = rk.topsis(rk.assemble_matrix(reports[ctx], kept, ctx), uniform)
            assert [row["model"] for row in rows[key]] == want.order, key
            for row in rows[key]:
                assert abs(float(row["cc"]) - want.cc[want.models.index(row["model"])]) <= 1e-12, key
        assert dropped["tropical/SON"] == ["kge", "nse", "r"]
        assert sum(map(bool, dropped.values())) < len(dropped)

    def test_a_criterion_without_a_valid_value_is_weighed_by_the_net_under_train(self, tmp_path):
        run = self._constant_tropical_run(tmp_path, "train")
        weights = json.load(open(os.path.join(run, "weights.json")))
        assert len(weights) == 30 and "tropical/SON" in weights
        for ctx, spec in weights.items():
            assert spec["source"] == "weightnet" and spec["criteria"] == list(DEFAULT_CRITERIA_NAMES), ctx
        assert os.path.isfile(os.path.join(run, "weightnet_history.json"))

    def test_train_on_constant_fields_exits_0(self, tmp_path, fixture_paths):
        _, cfg_path = self._constant_fields_config(tmp_path, fixture_paths, "train")
        assert main(["rank", "--config", cfg_path, "--out", str(tmp_path), "--name", "run"]) == 0
        weights = json.load(open(tmp_path / "run" / "weights.json"))
        assert {spec["source"] for spec in weights.values()} == {"weightnet"}

    def test_train_rank_builds_each_context_table_once(self, tmp_path, fixture_paths, monkeypatch):
        """One matrix, one featurization, one entropy target and one prediction per context."""
        calls = {name: collections.Counter() for name in ("assemble", "featurize", "target", "predict")}

        def counted(name, fn, key=lambda *args, **kwargs: None):
            def wrapper(*args, **kwargs):
                calls[name][key(*args, **kwargs)] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "assemble_matrix",
                            counted("assemble", pipeline.assemble_matrix, lambda *a, context, **k: context))
        monkeypatch.setattr(rk, "featurize", counted("featurize", rk.featurize, lambda dm: dm.context))
        monkeypatch.setattr(rk, "entropy_target_weights", counted("target", rk.entropy_target_weights))
        monkeypatch.setattr(rk.WeightNet, "predict", counted("predict", rk.WeightNet.predict))
        assert main(["rank", "--config", fixture_paths["config"], "--out", str(tmp_path), "--name", "run"]) == 0
        contexts = set(calls["assemble"])
        assert len(contexts) == 30 and set(calls["featurize"]) == contexts
        assert set(calls["assemble"].values()) == set(calls["featurize"].values()) == {1}
        # every context is trained on, so each needs its own target and prediction
        assert calls["target"][None] == calls["predict"][None] == 30

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


    @pytest.mark.parametrize("command", ["rank", "full-scale", "metrics"])
    def test_full_scale_names_non_finite_payload(self, tmp_path, fixture_paths, capsys, command):
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
        argv = {
            "rank": ["rank", "--config", str(cfg_path), "--out", str(tmp_path)],
            "full-scale": ["rank", "--config", str(cfg_path), "--out", str(tmp_path), "--full-scale"],
            "metrics": ["metrics", "--model", bad, "--obs", fixture_paths["obs"], "--mask", fixture_paths["mask"]],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert bad in err and "time index 100" in err

    def test_model_without_payload_exits_2_naming_it(self, tmp_path, fixture_paths, capsys):
        config = json.load(open(fixture_paths["config"]))
        bad = str(tmp_path / "no_payload")
        shutil.copytree(config["models"][-1]["path"], bad)
        os.remove(os.path.join(bad, "data.bin"))
        config["models"][-1]["path"] = bad
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["rank", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"no data.bin under {bad}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_rank_config(tmp_path_factory):
    """A valid rank config on an 8x8 fixture, "uniform" weights and a two-epoch weight net when trained."""
    paths = make_ranking_fixture(str(tmp_path_factory.mktemp("small")), seed=5, nlat=8, nlon=8, nt=365)
    config = json.load(open(paths["config"]))
    return {**config, "weights": "uniform", "criteria": ["bias", "rmse", "kge"],
            "weightnet": {"epochs": 2, "batch_size": 8}}


@settings(max_examples=150, deadline=None)
@given(mutation=mutations(pipeline.RANK_FIELDS))
def test_any_one_bad_rank_config_key_exits_cleanly(tmp_path_factory, small_rank_config, mutation):
    """One declared key of a valid rank config given a wrong type or an
    out-of-range value, left out, or joined by an undeclared key never ends
    in a traceback, and exits 2 unless an optional key was left out."""
    path, f, kind, value = mutation
    work = tempfile.mkdtemp(dir=str(tmp_path_factory.getbasetemp()))
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(mutate(small_rank_config, path, kind, value), fh)
    code, err = run_cli(["rank", "--config", cfg_path, "--out", work, "--name", "run"])
    shutil.rmtree(work)
    check_exit(code, err, f, kind)


@pytest.fixture(scope="module")
def small_weight_checkpoint(tmp_path_factory, small_rank_config):
    """The checkpoint of an untrained weight net over small_rank_config's criteria."""
    path = str(tmp_path_factory.mktemp("wnet") / "weightnet.ckpt")
    write_files(path, tc.encode_checkpoint(*rk.WeightNet(small_rank_config["criteria"]).checkpoint()))
    return path


@settings(max_examples=60, deadline=None)
@given(mutation=mutations(rk.META_FIELDS))
def test_any_one_bad_weight_checkpoint_meta_key_exits_cleanly(tmp_path_factory, small_rank_config,
                                                              small_weight_checkpoint, mutation):
    """One declared key of a weight net's checkpoint meta given a wrong type
    or an out-of-range value, left out, or joined by an undeclared key exits
    2 at the weights stage, without a traceback."""
    path, f, kind, value = mutation
    work = tempfile.mkdtemp(dir=str(tmp_path_factory.getbasetemp()))
    ckpt = os.path.join(work, "weightnet.ckpt")
    shutil.copytree(small_weight_checkpoint, ckpt)
    with open(os.path.join(ckpt, "manifest.json")) as fh:
        manifest = json.load(fh)
    manifest["meta"] = mutate(manifest["meta"], path, kind, value)
    with open(os.path.join(ckpt, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w") as fh:
        json.dump({**small_rank_config, "weights": {"checkpoint": ckpt}}, fh)
    code, err = run_cli(["rank", "--config", cfg_path, "--out", work, "--name", "run"])
    shutil.rmtree(work)
    check_exit(code, err, f, kind)


@pytest.fixture(scope="module")
def tiny_pair(tmp_path_factory):
    """A valid data spec: 15 steps at 32x32 (coarse 8x8), windows of 4."""
    from gcmkit.geogrid import synth_pair

    root = tmp_path_factory.mktemp("pair")
    coarse, fine = synth_pair(31, 4, 15, 32, 32, bias=0.5, noise_sd=0.1)
    gcf.write_cube(coarse, str(root / "coarse"))
    gcf.write_cube(fine, str(root / "fine"))
    return {"coarse": str(root / "coarse"), "fine": str(root / "fine"), "window": 4}


def _downscale_train(tmp_path_factory, files, extra):
    """(exit code, stderr) of `downscale train --arch vit` plus `extra`. Each of `files`, {file name: JSON
    object}, is written to a scratch directory, and an `extra` entry naming one is replaced by its path."""
    work = tempfile.mkdtemp(dir=str(tmp_path_factory.getbasetemp()))
    for name, content in files.items():
        with open(os.path.join(work, name), "w") as fh:
            json.dump(content, fh)
    argv = ["downscale", "train", "--arch", "vit", "--out", work, "--name", "ds"]
    code, err = run_cli(argv + [os.path.join(work, a) if a in files else a for a in extra])
    shutil.rmtree(work)
    return code, err


@settings(max_examples=40, deadline=None)
@given(mutation=mutations(PAIR_FIELDS))
def test_any_one_bad_data_spec_key_exits_cleanly(tmp_path_factory, tiny_pair, mutation):
    """One declared key of a valid `--data` spec given a wrong type or an
    out-of-range value, left out, or joined by an undeclared key exits 2,
    without a traceback, unless an optional key was left out."""
    path, f, kind, value = mutation
    spec = mutate(tiny_pair, path, kind, value)
    code, err = _downscale_train(tmp_path_factory, {"pair.json": spec}, ["--data", "pair.json", "--epochs", "1"])
    check_exit(code, err, f, kind)


TRAIN_BLOCK = {"epochs": 1, "batch_size": 16, "learning_rate": 3e-3, "optimizer": "adam", "loss": "mse",
               "patience": 0, "val_fraction": 0.2}


@settings(max_examples=60, deadline=None)
@given(mutation=mutations(cli.TRAIN_FILE_FIELDS))
def test_any_one_bad_train_config_key_exits_cleanly(tmp_path_factory, tiny_pair, mutation):
    """One declared key of a valid `downscale train --config` file given a
    wrong type or an out-of-range value, left out, or joined by an undeclared
    key exits 2, without a traceback, unless an optional key was left out.
    `--epochs 1` keeps every run short, except where `epochs` is the key."""
    path, f, kind, value = mutation
    config = mutate({"train": TRAIN_BLOCK}, path, kind, value)
    extra = ["--data", "pair.json", "--config", "train.json"] + (["--epochs", "1"] if path[-1] != "epochs" else [])
    code, err = _downscale_train(tmp_path_factory, {"pair.json": tiny_pair, "train.json": config}, extra)
    check_exit(code, err, f, kind)


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


    def test_train_then_eval_on_a_factor_2_pair(self, tmp_path):
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(1, 2, 15, 32, 32)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine"), "window": 4}))
        argv = ["downscale", "train", "--arch", "cnn_lstm", "--data", str(spec), "--epochs", "1", "--name", "ds",
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(["downscale", "eval", "--ckpt", str(tmp_path / "ds" / "cnn_lstm.ckpt"), "--data", str(spec),
                     "--report", str(tmp_path / "eval.csv")]) == 0

    @pytest.mark.parametrize("factor, side, why", [
        (2, 16, "does not fit the data: dataset factor 2 does not match config factor 4"),
        (4, 18, "does not fit the data: vit: patch size 4 does not divide grid (18, 18)"),
        (4, 24, "does not fit coarse grid (24, 24): it implies entry 'pos' of shape (36, 64), the checkpoint holds (16, 64)"),
    ], ids=["factor-2", "grid-18x18", "grid-24x24"])
    def test_eval_on_data_the_checkpoint_does_not_fit_exits_2_before_predicting(
            self, tmp_path, capsys, vit_ckpt, monkeypatch, factor, side, why):
        """The bundled benchmark's vit upsamples by 4 from a 16x16 grid; a
        pair of another factor or on another coarse grid is refused up
        front as a misfit of the data, not as a bad config, naming the
        checkpoint and what differs."""
        from gcmkit import downscale as dsc
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(3, factor, 30, factor * side, factor * side)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine"), "window": 4}))

        def no_predict(*args, **kwargs):
            raise AssertionError("predicted before the fit check")

        monkeypatch.setattr(dsc, "predict_dataset", no_predict)
        argv = ["downscale", "eval", "--ckpt", vit_ckpt, "--data", str(spec), "--report", str(tmp_path / "eval.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {vit_ckpt} {why}" in err
        assert "bad architecture config" not in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "eval.csv")

    def test_arch_that_misfits_the_data_exits_2_before_any_training(self, tmp_path, capsys):
        """Without --arch every architecture is checked against the data
        first: vit's patch of 4 does not divide the 18x18 coarse grid, so the
        run exits 2 before cnn_lstm trains, and writes nothing."""
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(1, 2, 15, 36, 36)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine"), "window": 4}))
        argv = ["downscale", "train", "--data", str(spec), "--epochs", "1", "--name", "ds", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "vit: patch size 4 does not divide grid (18, 18)" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ds")

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

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key", ["coarse", "fine"])
    def test_spec_with_non_string_cube_exits_2(self, tmp_path, capsys, command, key):
        spec = tmp_path / "pair.json"
        spec.write_text(json.dumps({**{k: str(tmp_path / k) for k in ("coarse", "fine")}, key: 5}))
        argv = ["downscale", command, "--data", str(spec)]
        if command == "train":
            argv += ["--arch", "vit", "--out", str(tmp_path)]
        else:
            argv += ["--ckpt", str(tmp_path / "none.ckpt"), "--report", str(tmp_path / "eval.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a path string" in err and str(spec) in err and "Traceback" not in err


    @pytest.mark.parametrize("epochs", ["-1", "0", "1000000000000000000"])
    def test_out_of_range_epochs_exit_2(self, tmp_path, capsys, epochs):
        argv = ["downscale", "train", "--arch", "vit", "--epochs", epochs, "--out", str(tmp_path), "--name", "ds"]
        assert main(argv) == 2
        assert "epochs" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ds")

    @pytest.mark.parametrize(
        "block, key",
        [({"train": {"learnin_rate": 1e-3}}, "learnin_rate"), ({"train": {"batch_size": "16"}}, "batch_size"),
         ({"trian": {"epochs": 1}}, "trian")],
    )
    def test_bad_train_config_key_exits_2(self, tmp_path, capsys, block, key):
        config = tmp_path / "train.json"
        config.write_text(json.dumps(block))
        argv = ["downscale", "train", "--arch", "vit", "--config", str(config), "--out", str(tmp_path), "--name", "ds"]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ds")

    def test_malformed_train_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "train.json"
        config.write_text('{"train": {"epochs": 1,}}')
        argv = ["downscale", "train", "--arch", "vit", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and str(config) in err

    @pytest.mark.parametrize(
        "edit",
        [
            None,
            lambda manifest: manifest.pop("total"),
            lambda manifest: manifest["meta"].pop("config"),
            lambda manifest: manifest["meta"]["config"].update(colour="red"),
            lambda manifest: manifest["meta"]["config"].update(heads=0),
            lambda manifest: manifest["meta"]["config"].update(patch=0),
            lambda manifest: manifest["meta"]["config"].update(layers=1),
            lambda manifest: manifest["entries"].pop(),  # norm.out_sd, the last entry
            lambda manifest: manifest["meta"]["config"].update(embed_dim=10**12),
            lambda manifest: manifest["entries"][-1].update(offset=-2),  # would read norm.out_mean's value
            lambda manifest: manifest["meta"].update(colour="red"),
            lambda manifest: manifest["entries"][-1].update(offset=manifest["entries"][-2]["offset"]),
            lambda manifest: manifest["entries"][0].update(offset=False),
            lambda manifest: manifest["meta"]["config"].update(temporal_mode="recurrent"),  # older checkpoints hold it
        ],
        ids=["manifest-not-json", "manifest-without-total", "meta-without-config", "unknown-config-key",
             "zero-heads", "zero-patch", "config-short-of-entries", "missing-norm-entry", "huge-embed-dim",
             "negative-offset", "unknown-meta-key", "overlapping-entries", "bool-offset", "removed-temporal-mode"],
    )
    def test_malformed_checkpoint_exits_2_naming_it(self, tmp_path, capsys, vit_ckpt, edit):
        ckpt = tmp_path / "vit.ckpt"
        shutil.copytree(vit_ckpt, ckpt)
        text = (ckpt / "manifest.json").read_text()
        if edit is None:
            text = text[: len(text) // 2]
        else:
            manifest = json.loads(text)
            edit(manifest)
            text = json.dumps(manifest)
        (ckpt / "manifest.json").write_text(text)
        assert main(["downscale", "eval", "--ckpt", str(ckpt), "--report", str(tmp_path / "eval.csv")]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and "Traceback" not in err


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

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("config.json", lambda text: text[: len(text) // 2]),
            ("config.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "mask"})),
            ("config.json", lambda text: json.dumps({**json.loads(text), "mask": 5})),
            ("ranking.csv", lambda text: text.split("\n")[0] + "\n"),
            ("ranking.csv", lambda text: text.replace("context,model,cc,", "ctx,label,score,", 1)),
            ("ranking.csv", lambda text: text + "tropical/ANNUAL\n"),
            ("ranking.csv", lambda text: text.replace("\narid/ANNUAL,", "\nboreal/ANNUAL,")),
            ("ranking.csv", lambda text: text.replace("\narid/ANNUAL,", "\narid/YEAR,")),
            ("ranking.csv", lambda text: text[: text.rindex("\n", 0, -1) + 1]),
        ],
        ids=["malformed-config", "config-without-mask", "config-mask-not-a-path", "header-only-ranking",
             "ranking-without-columns", "short-ranking-row", "unknown-zone", "unknown-season", "context-missing-a-model"],
    )
    def test_broken_rank_dir_exits_2_naming_the_file(self, tmp_path, rank_run, capsys, name, edit):
        run = tmp_path / "run"
        shutil.copytree(rank_run, run)
        (run / name).write_text(edit((run / name).read_text()))
        assert main(["report", "--run", str(run), "--out", str(tmp_path), "--name", "rep"]) == 2
        assert str(run / name) in capsys.readouterr().err

    def test_tables_share_rows_with_ranking_csv(self, tmp_path, rank_run):
        """fig3_heatmap.csv is the rank run's heatmap.csv, and top5.csv is ranking.csv's rank <= 5 rows."""
        assert main(["report", "--run", rank_run, "--out", str(tmp_path), "--name", "rep"]) == 0
        with open(os.path.join(rank_run, "heatmap.csv"), "rb") as a, open(tmp_path / "rep" / "fig3_heatmap.csv", "rb") as b:
            assert a.read() == b.read()
        with open(os.path.join(rank_run, "ranking.csv")) as fh:
            ranking = [row for row in csv.DictReader(fh) if int(row["rank"]) <= 5]
        with open(os.path.join(rank_run, "top5.csv")) as fh:
            top5 = list(csv.DictReader(fh))
        headline = ("bias", "rmse", "kge", "nse", "pdf_overlap")
        assert [(row["context"], row["rank"], row["model"], row["cc"], *map(row.get, headline)) for row in ranking] == [
            (f"{row['zone']}/{row['season']}", row["rank"], row["model"], row["score"], *map(row.get, headline))
            for row in top5
        ]
        config = json.load(open(os.path.join(rank_run, "config.json")))
        assert all(row["model"] in {spec["label"] for spec in config["models"]} for row in top5)
        assert {row["zone"] for row in top5} == set(config["zones"])

    def test_empty_run_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["report", "--run", str(empty), "--out", str(tmp_path)]) == 2
        assert "ranking.csv" in capsys.readouterr().err


def _assert_manifest_covers(run_dir):
    """Every listed digest matches its file, and only files holding wall times are unlisted."""
    outputs = json.load(open(os.path.join(run_dir, "manifest.json")))["outputs"]
    on_disk = {
        os.path.relpath(os.path.join(root, name), run_dir).replace(os.sep, "/")
        for root, _, names in os.walk(run_dir)
        for name in names
    }
    for rel, digest in outputs.items():
        assert hashlib.sha256(open(os.path.join(run_dir, rel), "rb").read()).hexdigest() == digest, rel
    unlisted = on_disk - set(outputs)
    assert all(rel in ("manifest.json", "timing.json") or rel.endswith("_train_log.csv") for rel in unlisted), unlisted
    return outputs


class TestManifest:
    def test_manifest_lists_and_hashes_every_artifact(self, tmp_path, fixture_paths, rank_run):
        out = str(tmp_path)
        shutil.copytree(rank_run, os.path.join(out, "rank"))
        assert main(["downscale", "train", "--arch", "cnn_lstm", "--epochs", "1", "--out", out, "--name", "ds"]) == 0
        assert main(["report", "--run", os.path.join(out, "rank"), "--downscale-run", os.path.join(out, "ds"),
                     "--out", out, "--name", "rep"]) == 0
        outputs = {name: _assert_manifest_covers(os.path.join(out, name)) for name in ("rank", "ds", "rep")}
        assert "weightnet.ckpt/params.bin" in outputs["rank"]
        assert "cnn_lstm.ckpt/params.bin" in outputs["ds"]
        assert "fig6_downscale_comparison.csv" in outputs["rep"]

        config = json.load(open(fixture_paths["config"]))
        config["weights"] = "uniform"
        uniform = tmp_path / "uniform.json"
        uniform.write_text(json.dumps(config))
        assert main(["rank", "--config", str(uniform), "--out", out, "--name", "rank"]) == 0
        outputs = _assert_manifest_covers(os.path.join(out, "rank"))
        assert not [rel for rel in outputs if rel.startswith("weightnet")]

    def test_timing_records_wall_time_and_peak_rss_of_the_same_stages(self, rank_run):
        timing = json.load(open(os.path.join(rank_run, "timing.json")))
        assert sorted(timing) == ["stage_peak_rss_mb", "stage_wall_ms"]
        walls, peaks = timing["stage_wall_ms"], timing["stage_peak_rss_mb"]
        assert list(walls) == list(peaks) == ["load", "metrics", "rank", "weights"]  # json_text sorts keys
        ordered = [peaks[stage] for stage in ("load", "metrics", "weights", "rank")]
        assert 0 < ordered[0] and ordered == sorted(ordered)  # a process's peak never falls

    def test_rerun_removes_only_listed_files_inside_the_run_dir(self, tmp_path):
        run = tmp_path / "run"
        (run / "ckpt").mkdir(parents=True)
        for rel in ("ckpt/params.bin", "listed.csv", "unlisted.csv", "../outside.csv"):
            (run / rel).write_text(rel)
        listed = ["ckpt/params.bin", "listed.csv", "../outside.csv", str(tmp_path / "outside.csv"), "missing.csv"]
        (run / "manifest.json").write_text(json.dumps({"outputs": {rel: "0" * 64 for rel in listed + ["kept.csv"]}}))
        manifest = RunManifest(str(run), "hash")
        manifest.put("kept.csv", "new")
        assert sorted(os.listdir(run)) == ["ckpt", "kept.csv", "listed.csv", "manifest.json", "unlisted.csv"]
        manifest.write()
        assert sorted(os.listdir(run)) == ["kept.csv", "manifest.json", "timing.json", "unlisted.csv"]
        assert (run / "kept.csv").read_text() == "new"
        assert (tmp_path / "outside.csv").read_text() == "../outside.csv"

    def test_failed_rerun_keeps_the_previous_run(self, tmp_path, fixture_paths, rank_run, capsys):
        out = str(tmp_path)
        shutil.copytree(rank_run, os.path.join(out, "rank"))
        before = _assert_manifest_covers(os.path.join(out, "rank"))
        config = json.load(open(fixture_paths["config"]))
        bad = str(tmp_path / "no_payload")
        shutil.copytree(config["models"][-1]["path"], bad)
        os.remove(os.path.join(bad, "data.bin"))
        config["models"][-1]["path"] = bad
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["rank", "--config", str(cfg_path), "--out", out, "--name", "rank"]) == 2
        assert f"no data.bin under {bad}" in capsys.readouterr().err
        assert _assert_manifest_covers(os.path.join(out, "rank")) == before

    def test_report_into_the_run_it_reads_exits_2(self, tmp_path, rank_run, capsys):
        out = str(tmp_path)
        shutil.copytree(rank_run, os.path.join(out, "rank"))
        before = _assert_manifest_covers(os.path.join(out, "rank"))
        assert main(["report", "--run", os.path.join(out, "rank"), "--out", out, "--name", "rank"]) == 2
        assert "would replace the run it reads" in capsys.readouterr().err
        assert _assert_manifest_covers(os.path.join(out, "rank")) == before


def test_only_the_writer_modules_open_files_for_writing():
    """Every file reaches disk through `artifacts`, the --dest and --report files a user names
    and the fixtures too: no other module opens a file in a write mode."""
    package = os.path.dirname(gcf.__file__)
    writers = set()
    for root, _, names in os.walk(package):
        for name in (n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
                if getattr(call.func, "id", getattr(call.func, "attr", None)) != "open":
                    continue
                mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
                if mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")):
                    writers.add(os.path.relpath(path, package))
    assert writers <= {"artifacts.py"}, writers


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
