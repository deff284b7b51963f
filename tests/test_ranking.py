import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import ranking as rk
from gcmkit import tensorcore as tc
from gcmkit.artifacts import write_files
from gcmkit.errors import ValidationError
from gcmkit.metrics import METRIC_NAMES, MetricReport


def report(**overrides):
    base = dict(
        bias=0.5, rmse=1.0, r=0.8, r2=0.64, nse=0.5, kge=0.6,
        pdf_overlap=0.9, txx_err=1.0, tnn_err=1.0, sd_diff=0.2,
        n=100, flags={m: True for m in METRIC_NAMES},
    )
    flags = overrides.pop("flags", None)
    base.update(overrides)
    if flags:
        base["flags"].update(flags)
    return MetricReport(**base)


def benefit_matrix(values, models=None):
    values = np.asarray(values, dtype=float)
    models = models or [f"m{i}" for i in range(values.shape[0])]
    crit = ["kge", "nse"][: values.shape[1]]
    return rk.DecisionMatrix(models, crit, values, ("z", "s"))


class TestCriteria:
    def test_orientations(self):
        assert {"kge", "r2"} <= rk.BENEFIT_METRICS
        assert not {"rmse", "sd_diff"} & rk.BENEFIT_METRICS
        with pytest.raises(ValidationError, match="nope"):
            rk.DecisionMatrix(["a", "b"], ["kge", "nope"], np.ones((2, 2)))

    def test_default_set_is_the_nine(self):
        names = rk.DEFAULT_CRITERIA_NAMES
        assert len(names) == 9 and "r2" not in names and "sd_diff" in names


class TestAssemble:
    def test_verbatim_with_abs_bias(self):
        reports = [("a", report(bias=-2.0)), ("b", report(bias=0.5))]
        dm = rk.assemble_matrix(reports, rk.DEFAULT_CRITERIA_NAMES, ("z", "s"))
        j = dm.criteria.index("bias")
        assert dm.values[0, j] == 2.0 and dm.values[1, j] == 0.5

    def test_invalid_entry_imputes_worst_valid(self):
        reports = [
            ("a", report(kge=0.8)),
            ("b", report(kge=None, flags={"kge": False})),
            ("c", report(kge=0.6)),
        ]
        dm = rk.assemble_matrix(reports, rk.DEFAULT_CRITERIA_NAMES, ("z", "s"))
        j = dm.criteria.index("kge")
        assert dm.values[1, j] == 0.6  # worst valid benefit value

    def test_all_invalid_column_is_kept_as_zeros(self):
        reports = [
            ("a", report(kge=None, flags={"kge": False})),
            ("b", report(kge=None, rmse=2.0, flags={"kge": False})),
        ]
        dm = rk.assemble_matrix(reports, rk.DEFAULT_CRITERIA_NAMES, ("z", "s"))
        assert dm.criteria == list(rk.DEFAULT_CRITERIA_NAMES)
        assert np.all(dm.values[:, dm.criteria.index("kge")] == 0.0)
        assert dm.target.w[dm.criteria.index("kge")] == 0.0

    def test_context_without_any_valid_value_rejected(self):
        invalid = {name: None for name in ("kge", "nse", "r")}
        reports = [(label, report(**invalid, flags={name: False for name in invalid})) for label in ("a", "b")]
        with pytest.raises(ValidationError, match="no usable criteria in context"):
            rk.assemble_matrix(reports, ["kge", "nse", "r"], ("z", "s"))

    def test_single_model_rejected(self):
        with pytest.raises(ValidationError):
            rk.assemble_matrix([("a", report())], rk.DEFAULT_CRITERIA_NAMES)


class TestNormalize:
    def test_hand_case(self):
        n = rk.normalize(np.array([[3.0], [4.0]]))
        assert np.allclose(n.ravel(), [0.6, 0.8])

    def test_power_of_two_scaling_is_bit_exact(self):
        rng = np.random.default_rng(2)
        c = np.abs(rng.normal(size=(5, 3))) + 0.1
        scaled = c.copy()
        scaled[:, 1] *= 4.0
        assert np.array_equal(rk.normalize(c), rk.normalize(scaled))

    def test_zero_column_stays_zero(self):
        n = rk.normalize(np.array([[0.0, 1.0], [0.0, 2.0]]))
        assert np.all(n[:, 0] == 0.0)
        assert np.all(np.isfinite(n))


class TestTopsis:
    def test_hand_oracle_3x2(self):
        dm = benefit_matrix([[1, 1], [0.5, 0.5], [0, 0]], models=["A", "B", "C"])
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert np.allclose(res.cc, [1.0, 0.5, 0.0], atol=1e-12)
        assert res.order == ["A", "B", "C"]

    def test_dominance_endpoints(self):
        dm = benefit_matrix([[1.0, 0.9], [0.3, 0.2]])
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert res.cc[0] == 1.0 and res.cc[1] == 0.0

    def test_identical_rows_score_half(self):
        dm = benefit_matrix([[0.4, 0.7], [0.4, 0.7]])
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert np.all(res.cc == 0.5)

    def test_cost_orientation_flips_preference(self):
        dm = rk.DecisionMatrix(["good", "bad"], ["rmse"], np.array([[0.5], [2.0]]), ("z", "s"))
        res = rk.topsis(dm, rk.WeightVector(np.array([1.0])))
        assert res.order == ["good", "bad"]
        assert res.cc[0] == 1.0

    def test_scale_invariance_of_ordering(self):
        rng = np.random.default_rng(7)
        c = np.abs(rng.normal(size=(6, 4))) + 0.05
        crit = ["kge", "rmse", "pdf_overlap", "bias"]
        models = [f"m{i}" for i in range(6)]
        w = rk.WeightVector(np.full(4, 0.25))
        base = rk.topsis(rk.DecisionMatrix(models, crit, c), w)
        for k in (4.0, 3.7, 0.001):
            scaled = c.copy()
            scaled[:, 2] *= k
            res = rk.topsis(rk.DecisionMatrix(models, crit, scaled), w)
            assert res.order == base.order
            assert np.allclose(res.cc, base.cc, rtol=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        c = np.abs(rng.normal(size=(5, 3))) + 0.1
        crit = ["kge", "nse", "rmse"]
        models = ["a", "b", "c", "d", "e"]
        w = rk.WeightVector(np.full(3, 1 / 3))
        base = rk.topsis(rk.DecisionMatrix(models, crit, c), w)
        perm = [3, 0, 4, 1, 2]
        res = rk.topsis(rk.DecisionMatrix([models[i] for i in perm], crit, c[perm]), w)
        assert np.allclose(res.cc, base.cc[perm], atol=1e-15)
        assert res.order == base.order

    @given(st.integers(2, 8), st.integers(1, 5), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_cc_always_in_unit_interval(self, m, n, seed):
        rng = np.random.default_rng(seed)
        c = np.abs(rng.normal(size=(m, n))) + 1e-3
        crit = rk.DEFAULT_CRITERIA_NAMES[:n]
        w = rng.uniform(0.1, 1.0, size=n)
        wv = rk.WeightVector(w / w.sum())
        res = rk.topsis(rk.DecisionMatrix([f"m{i}" for i in range(m)], crit, c), wv)
        assert np.all(res.cc >= 0.0) and np.all(res.cc <= 1.0)
        recompute = res.d_minus / np.where(res.d_plus + res.d_minus > 0, res.d_plus + res.d_minus, 1.0)
        mask = (res.d_plus + res.d_minus) > 0
        assert np.allclose(res.cc[mask], recompute[mask], atol=1e-15)

    def test_single_benefit_criterion_sorts_raw_values(self):
        rng = np.random.default_rng(11)
        vals = np.abs(rng.normal(size=(7, 1))) + 0.01
        models = [f"m{i}" for i in range(7)]
        res = rk.topsis(rk.DecisionMatrix(models, ["kge"], vals), rk.WeightVector(np.array([1.0])))
        expected = [models[i] for i in np.argsort(-vals[:, 0], kind="stable")]
        assert res.order == expected

    def test_zero_column_is_inert(self):
        """A zero column scores as its absence does, under the other weights renormalized."""
        rng = np.random.default_rng(12)
        c = np.abs(rng.normal(size=(6, 4))) + 0.05
        c[:, 1] = 0.0
        models = [f"m{i}" for i in range(6)]
        w = rng.uniform(0.1, 1.0, size=4)
        full = rk.topsis(rk.DecisionMatrix(models, ["kge", "nse", "rmse", "bias"], c), rk.WeightVector(w / w.sum()))
        kept = np.delete(w, 1)
        without = rk.topsis(rk.DecisionMatrix(models, ["kge", "rmse", "bias"], np.delete(c, 1, axis=1)),
                            rk.WeightVector(kept / kept.sum()))
        assert full.order == without.order
        assert np.allclose(full.cc, without.cc, rtol=0.0, atol=1e-12)

    def test_tie_break_is_lexicographic(self):
        dm = benefit_matrix([[0.4, 0.4], [0.4, 0.4], [0.1, 0.1]], models=["zeta", "alpha", "last"])
        res = rk.topsis(dm, rk.WeightVector(np.array([0.5, 0.5])))
        assert res.order[:2] == ["alpha", "zeta"]


class TestEntropyWeights:
    def test_informative_column_takes_all_weight(self):
        n = np.array([[0.1, 0.5], [0.9, 0.5], [0.4, 0.5]])
        w = rk.entropy_target_weights(n)
        assert w.w[0] == pytest.approx(1.0, abs=1e-12)
        assert w.w[1] == pytest.approx(0.0, abs=1e-12)

    def test_identical_columns_uniform(self):
        n = np.tile(np.array([[0.1], [0.9]]), (1, 3))
        assert np.allclose(rk.entropy_target_weights(n).w, 1 / 3)

    def test_always_a_valid_weight_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, 7))
            w = rk.entropy_target_weights(rng.uniform(size=(m, n)))
            assert np.all(w.w >= 0)
            assert float(np.sum(w.w)) == pytest.approx(1.0, abs=1e-9)


class TestFeaturize:
    def test_length_and_minmax_markers(self):
        rng = np.random.default_rng(3)
        dm = rk.DecisionMatrix(
            ["a", "b", "c"], rk.DEFAULT_CRITERIA_NAMES, np.abs(rng.normal(size=(3, 9))) + 0.01, ("z", "s")
        )
        f = rk.featurize(dm)
        assert f.shape == (5 * 9,)
        mins = f[2::5]
        maxs = f[3::5]
        assert np.all(mins == 0.0) and np.all(maxs == 1.0)

    def test_constant_column_features(self):
        dm = rk.DecisionMatrix(["a", "b"], ["kge", "rmse"], np.array([[0.5, 1.0], [0.5, 2.0]]), ("z", "s"))
        f = rk.featurize(dm)
        assert f[1] == 0.0  # sd of constant column
        assert f[4] == 1.0  # entropy of constant column


def _reference_minmax(col):
    lo, hi = float(np.min(col)), float(np.max(col))
    if hi == lo:
        return np.full_like(col, 0.5)
    return (col - lo) / (hi - lo)


def _reference_entropy(col):
    if float(np.min(col)) == float(np.max(col)):
        return 1.0
    scaled = _reference_minmax(col)
    total = float(np.sum(scaled))
    if total == 0.0:
        return 1.0
    p = scaled / total
    nz = p[p > 0]
    return float(-np.sum(nz * np.log(nz)) / np.log(col.size))


def _reference_featurize(values):
    """The per-column loop the vectorized features must match to the bit."""
    feats = []
    for j in range(values.shape[1]):
        scaled = _reference_minmax(values[:, j])
        feats.extend([float(np.mean(scaled)), float(np.std(scaled)), float(np.min(scaled)),
                      float(np.max(scaled)), _reference_entropy(values[:, j])])
    return np.array(feats)


def _reference_entropy_weights(n_matrix):
    d = np.maximum(np.array([1.0 - _reference_entropy(n_matrix[:, j]) for j in range(n_matrix.shape[1])]), 0.0)
    total = float(np.sum(d))
    return np.full(d.size, 1.0 / d.size) if total == 0.0 else d / total


def _flat_after_normalizing(m):
    """A column of two adjacent floats that vector normalization makes constant."""
    for k in range(1, 200):
        x = k / 7.0
        col = np.array([x, np.nextafter(x, 10.0)] * (m // 2) + [x] * (m % 2))
        if np.ptp(col) > 0 and np.ptp(rk.normalize(col[:, None])) == 0:
            return col
    raise AssertionError(f"no such column for {m} models")


class TestVectorizedColumnStats:
    @pytest.mark.parametrize("m", [2, 3, 8, 9, 32])
    def test_features_and_targets_match_the_per_column_loop_to_the_bit(self, m):
        rng = np.random.default_rng(m)
        for trial in range(40):
            kinds = rng.integers(0, 5, size=9)
            cols = []
            for kind in kinds:
                if kind == 0:
                    cols.append(rng.normal(scale=10.0 ** rng.integers(-3, 4), size=m))
                elif kind == 1:
                    cols.append(np.full(m, rng.normal()))  # constant
                elif kind == 2:
                    cols.append(rng.integers(0, 3, size=m).astype(float))  # tied extremes
                elif kind == 3:
                    cols.append(_flat_after_normalizing(m))
                else:
                    cols.append(np.abs(rng.normal(size=m)) + 0.01)
            values = np.stack(cols, axis=1)
            dm = rk.DecisionMatrix([f"m{i}" for i in range(m)], rk.DEFAULT_CRITERIA_NAMES, values, ("z", str(trial)))
            got, want = rk.featurize(dm), _reference_featurize(values)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            n_matrix = rk.normalize(dm)
            got = rk.entropy_target_weights(n_matrix).w
            assert np.array_equal(got.view(np.int64), _reference_entropy_weights(n_matrix).view(np.int64))


class TestWeightNet:
    def test_output_is_valid_weight_vector_for_any_input(self):
        net = rk.WeightNet(rk.DEFAULT_CRITERIA_NAMES, seed=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = net.predict(rng.normal(scale=50.0, size=45))
            assert np.all(w.w >= 0)
            assert float(w.w.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_training_reduces_loss_and_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(5)
        contexts = [
            rk.DecisionMatrix(
                ["a", "b", "c", "d"],
                rk.DEFAULT_CRITERIA_NAMES,
                np.abs(rng.normal(size=(4, 9))) + 0.01,
                ("z", str(i)),
            )
            for i in range(12)
        ]
        cfg = rk.WeightNetConfig(epochs=30, seed=9)
        net1, hist1 = rk.train_weightnet(contexts, cfg)
        net2, hist2 = rk.train_weightnet(contexts, cfg)
        assert hist1[-1] < hist1[0]
        assert hist1 == hist2
        for (n1, t1), (n2, t2) in zip(net1.params(), net2.params()):
            assert np.array_equal(t1.data, t2.data)
        path = str(tmp_path / "net.ckpt")
        write_files(path, tc.encode_checkpoint(*net1.checkpoint()))
        back = rk.WeightNet.load(path)
        for (_, a), (_, b) in zip(net1.params(), back.params()):
            assert np.array_equal(a.data, b.data)

    def test_single_context_overfit(self):
        rng = np.random.default_rng(6)
        dm = rk.DecisionMatrix(
            ["a", "b", "c"], rk.DEFAULT_CRITERIA_NAMES, np.abs(rng.normal(size=(3, 9))) + 0.01, ("z", "s")
        )
        net, _ = rk.train_weightnet([dm], rk.WeightNetConfig(epochs=500, seed=2))
        target = rk.entropy_target_weights(rk.normalize(dm)).w
        pred = net.predict(rk.featurize(dm)).w
        assert np.max(np.abs(pred - target)) <= 0.05


class TestRankAll:
    def _reports(self):
        out = {}
        for zone in ("tropical", "polar"):
            for season in ("DJF", "ANNUAL"):
                out[(zone, season)] = [
                    ("good", report(bias=0.1, rmse=0.5, kge=0.9, nse=0.8, r=0.95, pdf_overlap=0.95,
                                    txx_err=0.2, tnn_err=0.2, sd_diff=0.05)),
                    ("bad", report(bias=2.0, rmse=3.0, kge=0.1, nse=-0.5, r=0.4, pdf_overlap=0.5,
                                   txx_err=2.0, tnn_err=2.5, sd_diff=1.0)),
                ]
        return out

    def _matrices(self, reports=None):
        reports = reports or self._reports()
        return [rk.assemble_matrix(reports[ctx], rk.DEFAULT_CRITERIA_NAMES, ctx) for ctx in sorted(reports)]

    def test_dominant_model_wins_everywhere(self):
        results = rk.rank_all(self._matrices())
        assert len(results) == 4
        for res in results:
            assert res.order[0] == "good"
            assert res.cc[res.models.index("good")] == 1.0
            assert res.source == "uniform"
            assert float(res.weights.w.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_heatmap_shape_and_range(self):
        results = rk.rank_all(self._matrices())
        rows = [line.split(",") for line in rk.heatmap_csv({res.context: dict(zip(res.models, res.cc))
                                                            for res in results}).splitlines()[1:]]
        models = [row[0] for row in rows]
        matrix = np.array([[float(v) for v in row[1:]] for row in rows])
        assert matrix.shape == (2, 4)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)
        assert models == ["bad", "good"]

    def test_a_context_without_a_valid_kge_takes_the_nets_weights(self):
        reports = self._reports()
        reports[("polar", "DJF")] = [(label, dataclasses.replace(rep, kge=None, flags={**rep.flags, "kge": False}))
                                     for label, rep in reports[("polar", "DJF")]]
        results = rk.rank_all(self._matrices(reports), rk.WeightNet(rk.DEFAULT_CRITERIA_NAMES, seed=1))
        assert [res.source for res in results] == ["weightnet"] * 4
        assert all(len(res.weights) == 9 and res.order[0] == "good" for res in results)

    def test_weightnet_source(self):
        net = rk.WeightNet(rk.DEFAULT_CRITERIA_NAMES, seed=1)
        results = rk.rank_all(self._matrices(), net)
        for res in results:
            assert res.source == "weightnet"
            assert len(res.weights) == 9
            assert res.order[0] == "good"
