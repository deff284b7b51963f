import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import metrics as mx
from gcmkit.errors import ValidationError
from gcmkit.geogrid import ANNUAL, DJF, GridAxis, date_range
from gcmkit.metrics import (
    DegenerateSampleError,
    PooledSample,
    StreamingPool,
    compute_report,
    full_report,
)


def sample(m, o):
    return PooledSample(np.asarray(m, dtype=float), np.asarray(o, dtype=float))


# naive reference implementations, kept deliberately loop-based


def naive_bias(m, o):
    return sum(m) / len(m) - sum(o) / len(o)


def naive_rmse(m, o):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(m, o)) / len(m))


def naive_mean(v):
    return sum(v) / len(v)


def naive_sd(v):
    mu = naive_mean(v)
    return math.sqrt(sum((x - mu) ** 2 for x in v) / len(v))


def naive_r(m, o):
    mm, mo = naive_mean(m), naive_mean(o)
    num = sum((a - mm) * (b - mo) for a, b in zip(m, o))
    den = math.sqrt(sum((a - mm) ** 2 for a in m) * sum((b - mo) ** 2 for b in o))
    return num / den


def naive_nse(m, o):
    mo = naive_mean(o)
    return 1.0 - sum((b - a) ** 2 for a, b in zip(m, o)) / sum((b - mo) ** 2 for b in o)


def naive_kge(m, o):
    r = naive_r(m, o)
    beta = naive_mean(m) / naive_mean(o)
    gamma = (naive_sd(m) / naive_mean(m)) / (naive_sd(o) / naive_mean(o))
    return 1.0 - math.sqrt((r - 1) ** 2 + (beta - 1) ** 2 + (gamma - 1) ** 2)


def naive_pdf_overlap(m, o, bins=100):
    lo = min(min(m), min(o))
    hi = max(max(m), max(o))
    if lo == hi:
        return 1.0
    width = (hi - lo) / bins
    cm = [0] * bins
    co = [0] * bins
    for v in m:
        cm[min(int((v - lo) / width), bins - 1)] += 1
    for v in o:
        co[min(int((v - lo) / width), bins - 1)] += 1
    n = len(m)
    return sum(min(a, b) for a, b in zip(cm, co)) / n


class TestHandValues:
    def test_bias(self):
        assert mx.bias(sample([2, 2, 2], [1, 2, 4])) == pytest.approx(-1 / 3)
        assert mx.bias(sample([1, 2], [1, 2])) == 0.0
        o = np.array([3.0, 5.0, 9.0])
        assert mx.bias(sample(o + 2.0, o)) == pytest.approx(2.0)

    def test_rmse(self):
        assert mx.rmse(sample([1, 2], [1, 2])) == 0.0
        assert mx.rmse(sample([2, 2, 2], [1, 2, 4])) == pytest.approx(math.sqrt(5 / 3))
        o = np.array([3.0, 5.0, 9.0])
        assert mx.rmse(sample(o - 4.0, o)) == pytest.approx(4.0)

    def test_pearson(self):
        assert mx.pearson_r(sample([1, 2, 3], [1, 2, 3])) == pytest.approx(1.0)
        assert mx.pearson_r(sample([1, 2, 3], [-1, -2, -3])) == pytest.approx(-1.0)
        assert mx.pearson_r(sample([1, 2, 3], [1, 3, 2])) == pytest.approx(0.5)

    def test_nse(self):
        o = [1.0, 2.0, 4.0]
        assert mx.nse(sample(o, o)) == 1.0
        mean = sum(o) / 3
        assert mx.nse(sample([mean] * 3, o)) == pytest.approx(0.0, abs=1e-15)
        assert mx.nse(sample([2, 2, 2], o)) == pytest.approx(-1 / 14)

    def test_kge(self):
        o = np.array([1.0, 2.0, 4.0])
        assert mx.kge(sample(o, o)) == pytest.approx(1.0)
        assert mx.kge(sample(2 * o, o)) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(DegenerateSampleError):
            mx.kge(sample([1.0, 2.0], [-1.0, 1.0]))  # zero reference mean

    def test_pdf_overlap(self):
        o = np.array([1.0, 2.0, 4.0])
        assert mx.pdf_overlap(sample(o, o)) == pytest.approx(1.0)
        assert mx.pdf_overlap(sample([0.0, 0.5, 1.0], [10.0, 10.5, 11.0])) == 0.0
        m = [0.0] * 4 + [1.0] * 4
        assert mx.pdf_overlap(sample(m, [0.0] * 8), bins=2) == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            mx.pdf_overlap(sample(o, o), bins=1)

    def test_extremes(self):
        assert mx.extreme_errors(sample([1, 2], [1, 2])) == (0.0, 0.0)
        txx, _ = mx.extreme_errors(sample([10.0, 30.0], [12.0, 28.0]))
        assert txx == pytest.approx(2.0)
        _, tnn = mx.extreme_errors(sample([-25.0, 0.0], [-20.0, 1.0]))
        assert tnn == pytest.approx(5.0)

    def test_sd_diff(self):
        assert mx.sd_diff(sample([1, 2], [1, 2])) == 0.0
        assert mx.sd_diff(sample([-3.0, 3.0], [-1.0, 1.0])) == pytest.approx(2.0)
        o = np.array([3.0, 5.0, 9.0])
        assert mx.sd_diff(sample(o + 7.0, o)) == pytest.approx(0.0, abs=1e-12)


class TestOracleEquivalence:
    def test_random_samples_match_naive(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            m = 10.0 + 3.0 * rng.normal(size=n)
            o = 10.0 + 3.0 * rng.normal(size=n)
            s = sample(m, o)
            ml, ol = list(m), list(o)
            tol = dict(rel=1e-9, abs=1e-9)
            assert mx.bias(s) == pytest.approx(naive_bias(ml, ol), **tol)
            assert mx.rmse(s) == pytest.approx(naive_rmse(ml, ol), **tol)
            assert mx.pearson_r(s) == pytest.approx(naive_r(ml, ol), **tol)
            assert mx.nse(s) == pytest.approx(naive_nse(ml, ol), **tol)
            assert mx.kge(s) == pytest.approx(naive_kge(ml, ol), **tol)
            assert mx.pdf_overlap(s) == pytest.approx(naive_pdf_overlap(ml, ol), **tol)
            assert mx.sd_diff(s) == pytest.approx(abs(naive_sd(ml) - naive_sd(ol)), **tol)


class TestProperties:
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=64),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_bias_variance_decomposition(self, m, o):
        n = min(len(m), len(o))
        s = sample(m[:n], o[:n])
        assert mx.rmse(s) ** 2 >= mx.bias(s) ** 2 - 1e-10

    def test_pdf_overlap_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 256))
            m = rng.normal(size=n) * 4 + 12
            o = rng.normal(size=n) * 3 + 11
            s = sample(m, o)
            assert mx.pdf_overlap(s) == mx.pdf_overlap(sample(o, m))
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(-10, 10))
            assert mx.pdf_overlap(sample(a * m + b, a * o + b)) == pytest.approx(
                mx.pdf_overlap(s), abs=1e-12
            )

    @given(st.integers(2, 40), st.floats(0.1, 5.0), st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_pearson_affine_invariance_and_sign_flip(self, n, a, b):
        rng = np.random.default_rng(n)
        m = rng.normal(size=n)
        o = rng.normal(size=n)
        if np.std(m) == 0 or np.std(o) == 0:
            return
        base = mx.pearson_r(sample(m, o))
        assert mx.pearson_r(sample(a * m + b, o)) == pytest.approx(base, abs=1e-9)
        assert mx.pearson_r(sample(-m, o)) == pytest.approx(-base, abs=1e-12)

    def test_perfection_iff_identical(self):
        rng = np.random.default_rng(5)
        o = 10 + rng.normal(size=50)
        perfect = sample(o, o)
        assert mx.nse(perfect) == 1.0
        assert mx.kge(perfect) == pytest.approx(1.0, abs=1e-12)
        assert mx.pearson_r(perfect) == pytest.approx(1.0, abs=1e-12)
        m = o + rng.normal(size=50) * 0.1
        assert mx.nse(sample(m, o)) < 1.0
        assert mx.kge(sample(m, o)) < 1.0
        assert mx.pearson_r(sample(m, o)) < 1.0
        # affine-but-not-identical still cannot reach kge or nse 1
        assert mx.nse(sample(2 * o, o)) < 1.0
        assert mx.kge(sample(2 * o, o)) < 1.0


class TestReportsAndFlags:
    def test_degenerate_flags(self):
        s = sample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # constant model series
        rep = compute_report(s)
        assert not rep.valid("r") and rep.r is None
        assert not rep.valid("kge") and rep.kge is None
        assert rep.valid("nse") and rep.nse is not None
        assert rep.valid("bias") and rep.bias == pytest.approx(-1.0)

    def test_constant_obs_flags_nse(self):
        rep = compute_report(sample([1.0, 2.0], [3.0, 3.0]))
        assert not rep.valid("nse")
        assert not rep.valid("r")

    def test_r2_is_r_squared(self):
        rng = np.random.default_rng(0)
        s = sample(rng.normal(size=32), rng.normal(size=32))
        rep = compute_report(s)
        assert rep.r2 == pytest.approx(rep.r ** 2, abs=1e-12)

    def test_full_report_perfect_and_shift(self, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 3, ANNUAL)
        assert rep.bias == 0.0 and rep.rmse == 0.0
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        assert rep.nse == 1.0 and rep.kge == pytest.approx(1.0, abs=1e-12)
        assert rep.pdf_overlap == pytest.approx(1.0, abs=1e-12)

        shifted = dataclasses.replace(year_cube, data=year_cube.data + 2.0)
        rep = full_report(shifted, year_cube, all_land_mask, 3, ANNUAL)
        assert rep.bias == pytest.approx(2.0, abs=1e-12)
        assert rep.rmse == pytest.approx(2.0, abs=1e-12)
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        assert rep.sd_diff == pytest.approx(0.0, abs=1e-10)

    def test_empty_zone_errors(self, year_cube, all_land_mask):
        with pytest.raises(ValidationError, match="empty pooled"):
            full_report(year_cube, year_cube, all_land_mask, 4, ANNUAL)  # no zone-4 cells

    def test_pairwise_fill_exclusion(self, year_cube, all_land_mask):
        data = year_cube.data.copy()
        data[:, 0, 0] = year_cube.fill
        holey = dataclasses.replace(year_cube, data=data)
        rep = full_report(holey, year_cube, all_land_mask, 1, DJF)
        full = full_report(year_cube, year_cube, all_land_mask, 1, DJF)
        assert rep.n == full.n - 90  # one cell dropped across 90 DJF days

    def test_report_n_counts_season_zone_pool(self, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 5, DJF)
        assert rep.n == 90 * int(np.count_nonzero(all_land_mask.codes == 5))

    @pytest.mark.parametrize("mismatch", ["shape", "grid", "time", "mask"])
    def test_full_report_rejects_mismatched_inputs(self, year_cube, all_land_mask, mismatch):
        model, mask = year_cube, all_land_mask
        if mismatch == "shape":
            model = dataclasses.replace(year_cube, time=year_cube.time[:300], data=year_cube.data[:300])
        elif mismatch == "grid":
            model = dataclasses.replace(year_cube, lat=GridAxis(year_cube.lat.values + 0.5, "lat"))
        elif mismatch == "time":
            model = dataclasses.replace(year_cube, time=tuple(date_range("standard", (1986, 1, 1), 365)))
        else:
            mask = dataclasses.replace(all_land_mask, lon=GridAxis(all_land_mask.lon.values + 0.5, "lon"))
        message = {"shape": "shapes differ", "grid": "different grids", "time": "different times", "mask": "mask grid"}
        with pytest.raises(ValidationError, match=message[mismatch]):
            full_report(model, year_cube, mask, 1, ANNUAL)


class TestStreaming:
    @pytest.mark.parametrize(
        "m, o",
        [
            (15 + 2.5 * np.random.default_rng(4).normal(size=300), 15 + 2.0 * np.random.default_rng(5).normal(size=300)),
            ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # constant model: r, r2, kge flagged
            ([1.0, 2.0], [3.0, 3.0]),  # constant reference: r, r2, nse, kge flagged
            ([1.0, -1.0], [2.0, -2.0]),  # zero means: kge flagged
            ([2.0, 2.0], [2.0, 2.0]),  # one shared value: the histogram range collapses
        ],
    )
    def test_compute_report_is_one_hand_fed_pool(self, m, o):
        s = sample(m, o)
        pool = StreamingPool()
        pool.update(s.model, s.obs)
        pool.freeze()
        pool.update_hist(s.model, s.obs)
        assert compute_report(s).as_dict() == pool.report().as_dict()

    def test_streaming_matches_in_memory(self):
        rng = np.random.default_rng(3)
        m = 15 + 2.5 * rng.normal(size=5000)
        o = 15 + 2.0 * rng.normal(size=5000)
        direct = compute_report(sample(m, o))
        pool = StreamingPool()
        for lo in range(0, 5000, 700):
            pool.update(m[lo : lo + 700], o[lo : lo + 700])
        pool.freeze()
        for lo in range(0, 5000, 700):
            pool.update_hist(m[lo : lo + 700], o[lo : lo + 700])
        stream = pool.report()
        for name in mx.METRIC_NAMES:
            assert stream.value(name) == pytest.approx(direct.value(name), rel=1e-9, abs=1e-9), name
        assert stream.n == direct.n


class TestSerialization:
    def test_csv_and_json_round_shape(self, tmp_path, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 1, ANNUAL)
        row = {"model": "m", "zone": "tropical", "season": "ANNUAL"}
        row.update(rep.as_dict())
        csv_path = tmp_path / "rep.csv"
        mx.report_rows_to_csv([row], str(csv_path))
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "kge" in header and "kge_valid" in header and "n" in header
        mx.report_rows_to_json([row], str(tmp_path / "rep.json"))
