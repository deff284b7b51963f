"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its wall time (run with -s to watch them live).

Tolerances are pinned here and nowhere else; the slow criteria (downscaler
capacity and benchmark) dominate the runtime, everything else is seconds.
"""

import dataclasses
import os
import time
import zlib

import numpy as np
import pytest

from gcmkit import downscale as ds
from gcmkit import gcf
from gcmkit import metrics as mx
from gcmkit import pipeline
from gcmkit import ranking as rk
from gcmkit import tensorcore as tc
from gcmkit.artifacts import write_files
from gcmkit.downscale.presets import desk_train_config
from gcmkit.fixtures import GOOD_MODEL, make_ranking_fixture
from gcmkit.geogrid import DataCube, GridAxis, ZoneMask, date_range, regrid_bilinear
from gcmkit.rng import SplitMix64

from gradcases import OPS
from helpers import capacity_set
from test_metrics import (
    naive_bias,
    naive_kge,
    naive_nse,
    naive_pdf_overlap,
    naive_r,
    naive_rmse,
    naive_sd,
)


class _Criterion:
    def __init__(self, label, budget_s):
        self.label, self.budget = label, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.label} ({elapsed:.1f}s, budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded its {self.budget}s budget ({elapsed:.1f}s)"
        return False


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _engine_report(m, o):
    """The engine's report of paired series `m`, `o` (one value per day from
    1985-01-01): `full_report` on the ANNUAL context of an (n, 2, 2) cube
    pair whose one land cell holds them. A series longer than one
    meteorological season spans several atoms and blocks, so the report
    goes through the sweep's gather, the atom merge and `EdgeStack`."""
    n = len(m)
    lat, lon = GridAxis([0.0, 1.0], "lat"), GridAxis([0.0, 1.0], "lon")
    times = tuple(date_range("standard", (1985, 1, 1), n))
    cubes = []
    for values in (m, o):
        data = np.zeros((n, 2, 2))
        data[:, 0, 0] = values
        cubes.append(DataCube(lat, lon, times, "standard", "t", data))
    mask = ZoneMask(lat, lon, np.array([[3, 0], [0, 0]]))
    return mx.full_report(*cubes, mask, mx.ZONE_OVERALL, "ANNUAL")


def test_c1_metric_oracle_equivalence():
    with _Criterion("criterion 1: metric oracle equivalence", 10):
        rng = np.random.default_rng(20240101)
        for _ in range(1000):
            n = int(rng.integers(2, 257))
            m = list(12.0 + 4.0 * rng.normal(size=n))
            o = list(11.0 + 3.5 * rng.normal(size=n))
            rep = _engine_report(m, o)
            r_naive = naive_r(m, o)
            pairs = [
                (rep.bias, naive_bias(m, o)),
                (rep.rmse, naive_rmse(m, o)),
                (rep.r, r_naive),
                (rep.r2, r_naive ** 2),
                (rep.nse, naive_nse(m, o)),
                (rep.kge, naive_kge(m, o)),
                (rep.pdf_overlap, naive_pdf_overlap(m, o)),
                (rep.txx_err, abs(max(m) - max(o))),
                (rep.tnn_err, abs(min(m) - min(o))),
                (rep.sd_diff, abs(naive_sd(m) - naive_sd(o))),
            ]
            for got, want in pairs:
                assert rel_err(got, want) < 1e-9

        o = 10.0 + rng.normal(size=500)
        perfect = _engine_report(o, o)
        assert abs(perfect.bias) <= 1e-12
        assert perfect.rmse <= 1e-12
        assert abs(perfect.r - 1.0) <= 1e-12
        assert abs(perfect.nse - 1.0) <= 1e-12
        assert abs(perfect.kge - 1.0) <= 1e-12
        assert abs(perfect.pdf_overlap - 1.0) <= 1e-12


def test_c2_topsis_property_suite():
    with _Criterion("criterion 2: TOPSIS property suite", 5):
        rng = np.random.default_rng(512)
        crit9 = rk.DEFAULT_CRITERIA_NAMES

        # CC in [0, 1] over random matrices and weights
        for _ in range(200):
            m = int(rng.integers(2, 10))
            c = np.abs(rng.normal(size=(m, 9))) + 1e-3
            w = rng.uniform(0.05, 1.0, size=9)
            res = rk.topsis(rk.DecisionMatrix([f"m{i}" for i in range(m)], crit9, c), rk.WeightVector(w / w.sum()))
            assert np.all(res.cc >= 0.0) and np.all(res.cc <= 1.0)

        # dominance endpoints
        crit2 = ["kge", "nse"]
        dm = rk.DecisionMatrix(["top", "bottom"], crit2, np.array([[0.9, 0.8], [0.2, 0.1]]), ("z", "s"))
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert res.cc[0] == 1.0 and res.cc[1] == 0.0

        # identical rows score 0.5
        dm = rk.DecisionMatrix(["a", "b"], crit2, np.array([[0.4, 0.6], [0.4, 0.6]]), ("z", "s"))
        assert np.all(rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5]))).cc == 0.5)

        # criterion scaling: bit-exact CC under power-of-two column scaling,
        # identical ordering under arbitrary positive scaling
        c = np.abs(rng.normal(size=(6, 9))) + 0.05
        w = rk.WeightVector(np.full(9, 1.0 / 9.0))
        models = [f"m{i}" for i in range(6)]
        base = rk.topsis(rk.DecisionMatrix(models, crit9, c), w)
        for j, k in ((0, 2.0), (3, 8.0)):
            scaled = c.copy()
            scaled[:, j] *= k
            res = rk.topsis(rk.DecisionMatrix(models, crit9, scaled), w)
            assert np.array_equal(res.cc, base.cc)
            assert res.order == base.order
        for j, k in ((1, 3.7), (5, 0.013)):
            scaled = c.copy()
            scaled[:, j] *= k
            res = rk.topsis(rk.DecisionMatrix(models, crit9, scaled), w)
            assert res.order == base.order
            assert int(np.argmax(res.cc)) == int(np.argmax(base.cc))

        # row-permutation equivariance
        perm = [4, 0, 5, 2, 1, 3]
        res = rk.topsis(rk.DecisionMatrix([models[i] for i in perm], crit9, c[perm]), w)
        assert np.allclose(res.cc, base.cc[perm], atol=1e-15)

        # hand oracle
        dm = rk.DecisionMatrix(["A", "B", "C"], crit2, np.array([[1, 1], [0.5, 0.5], [0, 0.0]]), ("z", "s"))
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert np.allclose(res.cc, [1.0, 0.5, 0.0], atol=1e-12)
        assert res.order == ["A", "B", "C"]


def test_c3_gradient_correctness():
    with _Criterion("criterion 3: gradient correctness", 300):
        # every tensorcore op
        for name in sorted(OPS):
            rng = SplitMix64(zlib.crc32(name.encode()) & 0xFFFF)
            f, params = OPS[name](rng)
            err = tc.grad_check(f, params, epsilon=1e-5)
            assert err < 1e-4, f"op {name}: rel err {err}"

        # every architecture at the miniature config (h = w = 8, t = 2)
        mini = dict(
            factor=2, patch=4, embed_dim=16, heads=2, layers=1,
            conv_channels=(4, 4), lstm_hidden=8, convlstm_hidden=(4, 4), up_channels=8,
        )
        rng = SplitMix64(99)
        x = rng.normal((2, 2, 1, 8, 8))
        target = rng.normal((2, 16, 16))
        data = ds.make_dataset(5, 4, t=2, fine_hw=(16, 16), factor=2)
        coords = data.patch_coords(4)
        for kind in ds.ARCH_KINDS:
            model = ds.build_model(ds.ArchConfig(kind=kind, seed=17, **mini), (8, 8))
            cs = coords if kind in ("vit", "geostanet") else None
            f = lambda: tc.mse(model.forward(x, coords=cs, training=True), target)
            params = [t for _, t in model.params()]
            err = tc.grad_check(f, params, epsilon=1e-5, max_coords_per_param=60)
            assert err < 1e-4, f"architecture {kind}: rel err {err}"


def test_c4_weightnet_training():
    with _Criterion("criterion 4: weight-network training", 120):
        rng = np.random.default_rng(77)
        contexts = []
        for i in range(50):
            m = int(rng.integers(3, 12))
            contexts.append(
                rk.DecisionMatrix(
                    [f"m{j}" for j in range(m)],
                    rk.DEFAULT_CRITERIA_NAMES,
                    np.abs(rng.normal(size=(m, 9))) + 0.01,
                    ("ctx", str(i)),
                )
            )
        net, history = rk.train_weightnet(contexts, rk.WeightNetConfig(epochs=200, seed=7))
        assert history[-1] < 0.10 * history[0], f"MSE ratio {history[-1] / history[0]:.3f}"
        for dm in contexts:
            w = net.predict(rk.featurize(dm))
            assert np.all(w.w >= 0.0)
            assert abs(float(w.w.sum()) - 1.0) <= 1e-9

        single = contexts[0]
        net1, _ = rk.train_weightnet([single], rk.WeightNetConfig(epochs=500, seed=2))
        target = rk.entropy_target_weights(rk.normalize(single)).w
        pred = net1.predict(rk.featurize(single)).w
        assert np.max(np.abs(pred - target)) <= 0.05


@pytest.mark.slow
def test_c5_downscaler_capacity_and_benchmark():
    with _Criterion("criterion 5: downscaler capacity and benchmark", 1800):
        capacity = capacity_set()
        for kind in ds.ARCH_KINDS:
            cfg = ds.ArchConfig(kind=kind, seed=12)
            tcfg = desk_train_config(kind, "capacity")
            assert tcfg.epochs <= 500
            res = ds.train(cfg, capacity, tcfg)
            best = min(row["train_loss"] for row in res.log)
            assert best < 0.01, f"{kind} capacity best train MSE {best:.4f}"

        train_set, test_set = ds.benchmark_sets()
        predictions = {}
        for kind in ds.ARCH_KINDS:
            cfg = ds.ArchConfig(kind=kind, seed=101)
            res = ds.train(cfg, train_set, desk_train_config(kind, "benchmark"))
            predictions[kind] = ds.predict_dataset(res.model, test_set)
        # the table `downscale train` writes: one row per architecture, then the baseline's
        rmses = {row["arch"]: row["rmse"] for row in ds.comparison_table(predictions, test_set)}
        baseline = rmses.pop(ds.BASELINE_LABEL)
        results = {kind: rmses[kind] for kind in ds.ARCH_KINDS}
        for kind, rmse in results.items():
            assert rmse < baseline, f"{kind} test RMSE {rmse:.3f} vs baseline {baseline:.3f}"
        # desk-scale analog of the headline ordering: the geospatial
        # transformer should not lose to the convolutional recurrent net
        assert results["geostanet"] <= results["convlstm"]


def test_c6_synthetic_bias_correction():
    with _Criterion("criterion 6: synthetic bias correction", 300):
        data = ds.make_dataset(7117, 83, t=4, fine_hw=(64, 64), factor=4, bias=2.0, noise_sd=0.2)
        train_set = data.subset(list(range(60)))
        test_set = data.subset(list(range(60, 80)))
        cfg = ds.ArchConfig(kind="cnn_lstm", seed=5)
        tcfg = desk_train_config("cnn_lstm", "benchmark")
        tcfg.epochs = 15
        res = ds.train(cfg, train_set, tcfg)
        # the table `downscale train` writes, with the bilinear baseline row
        biases = {row["arch"]: row["bias"] for row in
                  ds.comparison_table({"cnn_lstm": ds.predict_dataset(res.model, test_set)}, test_set)}
        raw_bias = abs(biases[ds.BASELINE_LABEL])
        assert raw_bias > 1.5  # the uncorrected input carries the injected bias
        model_bias = abs(biases["cnn_lstm"])
        assert model_bias < 0.5, f"downscaled bias {model_bias:.3f}"
        assert raw_bias / model_bias >= 3.0, f"reduction factor {raw_bias / model_bias:.1f}"


def test_c7_end_to_end_ranking_fixture(tmp_path):
    with _Criterion("criterion 7: end-to-end ranking fixture", 60):
        paths = make_ranking_fixture(str(tmp_path / "fixture"), seed=4242)
        config = pipeline.PipelineConfig.from_file(paths["config"])
        manifests = []
        for name in ("run_a", "run_b"):
            run_dir = str(tmp_path / name)
            pipeline.run_rank(config, run_dir)
            manifests.append(open(os.path.join(run_dir, "manifest.json")).read())
            with open(os.path.join(run_dir, "ranking.csv")) as fh:
                next(fh)
                winners = {}
                for line in fh:
                    parts = line.strip().split(",")
                    ctx, model, rank = parts[0], parts[1], parts[5]
                    if rank == "1":
                        winners[ctx] = model
            assert len(winners) == 30
            assert set(winners.values()) == {GOOD_MODEL}
        assert manifests[0] == manifests[1], "manifests differ across reruns"


def test_c8_regrid_and_season_suite():
    with _Criterion("criterion 8: regrid and season suite", 60):
        rng = np.random.default_rng(3)
        lat = GridAxis(np.linspace(40.0, 47.0, 15), "lat")
        lon = GridAxis(np.linspace(5.0, 12.0, 15), "lon")
        times = tuple(date_range("standard", (1985, 1, 1), 10))
        cube = DataCube(lat, lon, times, "standard", "t", 10 + rng.normal(size=(10, 15, 15)))

        # identity
        assert np.array_equal(regrid_bilinear(cube, lat, lon).data, cube.data)

        # convexity bounds
        dst_lat = GridAxis(np.linspace(40.3, 46.7, 31), "lat")
        dst_lon = GridAxis(np.linspace(5.2, 11.8, 33), "lon")
        out = regrid_bilinear(cube, dst_lat, dst_lon)
        assert out.data.min() >= cube.data.min() - 1e-12
        assert out.data.max() <= cube.data.max() + 1e-12

        # linearity to 1e-12
        other = dataclasses.replace(cube, data=np.sin(cube.data))
        combo = dataclasses.replace(cube, data=1.5 * cube.data - 2.0 * other.data)
        lhs = regrid_bilinear(combo, dst_lat, dst_lon).data
        rhs = 1.5 * regrid_bilinear(cube, dst_lat, dst_lon).data - 2.0 * regrid_bilinear(other, dst_lat, dst_lon).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

        # hand bilinear point: unit-square corners 0,1,2,3 -> center 1.5
        square = DataCube(
            GridAxis([0.0, 1.0], "lat"), GridAxis([0.0, 1.0], "lon"), times[:1],
            "standard", "t", np.array([[[0.0, 1.0], [2.0, 3.0]]]),
        )
        center = regrid_bilinear(square, GridAxis([0.5, 1.0], "lat"), GridAxis([0.5, 1.0], "lon"))
        assert abs(center.data[0, 0, 0] - 1.5) < 1e-12

        # season partition exactness on all three calendars: the time rows
        # `context_index` pools for each season, as every report does
        mask = ZoneMask(GridAxis([0.0, 1.0], "lat"), GridAxis([0.0, 1.0], "lon"), np.ones((2, 2), dtype=np.int64))
        for calendar, days in (("standard", 365), ("noleap", 365), ("360_day", 360)):
            months = np.array([m for _, m, _ in date_range(calendar, (1985, 1, 1), days)])
            index = mx.context_index(months, mask, {"all": mx.ZONE_OVERALL}, ("DJF", "MAM", "JJA", "SON", "ANNUAL"))
            rows = {season: [int(t) for _, r in season_rows for t in r] for (_, season), season_rows, _ in index}
            collected = [t for season in ("DJF", "MAM", "JJA", "SON") for t in rows[season]]
            assert sorted(collected) == list(range(days))
            assert len(collected) == len(set(collected)) == days
            assert sorted(rows["ANNUAL"]) == list(range(days))


def test_c9_round_trip_bit_identity(tmp_path):
    with _Criterion("criterion 9: GCF and checkpoint round trips", 120):
        rng = np.random.default_rng(909)
        for i in range(100):
            nt = int(rng.integers(1, 5))
            nlat = int(rng.integers(2, 7))
            nlon = int(rng.integers(2, 7))
            # float32-representable payload, with fills sprinkled in
            data = rng.normal(size=(nt, nlat, nlon)).astype(np.float32).astype(np.float64)
            fill = -9999.0
            data[rng.uniform(size=data.shape) < 0.1] = fill
            calendar = ("standard", "noleap", "360_day")[i % 3]
            cube = DataCube(
                lat=GridAxis(np.sort(rng.uniform(-80, 80, size=nlat)), "lat"),
                lon=GridAxis(np.sort(rng.uniform(0, 350, size=nlon)), "lon"),
                time=tuple(date_range(calendar, (1985, 1, 1), nt)),
                calendar=calendar,
                variable="t",
                data=data,
                fill=fill,
            )
            path = str(tmp_path / f"cube{i}")
            gcf.write_cube(cube, path)
            back = gcf.read_cube(path)
            assert np.array_equal(back.data, cube.data), f"cube {i} payload differs"
            assert back.time == cube.time and back.calendar == cube.calendar

        mini = dict(
            factor=2, patch=4, embed_dim=16, heads=2, layers=1,
            conv_channels=(4, 4), lstm_hidden=8, convlstm_hidden=(4, 4), up_channels=8,
        )
        data = ds.make_dataset(5, 6, t=2, fine_hw=(16, 16), factor=2)
        for kind in ds.ARCH_KINDS:
            cfg = ds.ArchConfig(kind=kind, seed=31, **mini)
            res = ds.train(cfg, data, ds.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3))
            path = str(tmp_path / f"{kind}.ckpt")
            write_files(path, tc.encode_checkpoint(*res.model.checkpoint()))
            back = ds.load_model(path, data.coarse_hw, data.factor)
            for (name, a), (_, b) in zip(res.model.state_entries(), back.state_entries()):
                assert np.array_equal(a, b), f"{kind}: {name} differs after reload"
