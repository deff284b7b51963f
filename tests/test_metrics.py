import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmkit import metrics as mx
from gcmkit.artifacts import json_text
from gcmkit.errors import ValidationError
from gcmkit.geogrid import SEASONS, GridAxis, date_range
from gcmkit.metrics import (
    ZONE_OVERALL,
    CubeBlocks,
    EdgeStack,
    StreamingPool,
    context_index,
    full_report,
    hist_edges,
    sweep,
)


def sorted_counts(values, edges):
    """Histogram counts of ascending `values` on `edges`, the reference `EdgeStack` is tested against.

    Bin i holds edges[i] <= v < edges[i + 1] and the last bin is closed,
    so the counts equal `np.histogram`'s on the same edges; values outside
    [edges[0], edges[-1]] are not counted.
    """
    idx = np.searchsorted(values, edges)
    idx[-1] = np.searchsorted(values, edges[-1], side="right")
    return idx[1:] - idx[:-1]


def add_counts(pool, m, o):
    """Pass 2 of one paired chunk, counted as a sweep counts it: sorted, against the pool's frozen edges."""
    if pool.edges is not None:
        stack = EdgeStack([pool.edges])
        (hist_m,), (hist_o,) = (stack.counts(np.sort(np.asarray(v, dtype=float).ravel())) for v in (m, o))
        pool.add_counts(hist_m, hist_o)


def finish(pool, m, o):
    """Freeze a pool fed `m`, `o` in pass 1, count them in pass 2 and report."""
    pool.freeze()
    add_counts(pool, m, o)
    return pool.report()


def report(m, o, bins=100):
    """The engine's report of one paired sample, fed to one pool."""
    m, o = np.asarray(m, dtype=float), np.asarray(o, dtype=float)
    pool = StreamingPool(bins=bins)
    pool.update(m, o)
    return finish(pool, m, o)


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
        assert report([2, 2, 2], [1, 2, 4]).bias == pytest.approx(-1 / 3)
        assert report([1, 2], [1, 2]).bias == 0.0
        o = np.array([3.0, 5.0, 9.0])
        assert report(o + 2.0, o).bias == pytest.approx(2.0)

    def test_rmse(self):
        assert report([1, 2], [1, 2]).rmse == 0.0
        assert report([2, 2, 2], [1, 2, 4]).rmse == pytest.approx(math.sqrt(5 / 3))
        o = np.array([3.0, 5.0, 9.0])
        assert report(o - 4.0, o).rmse == pytest.approx(4.0)

    def test_pearson(self):
        assert report([1, 2, 3], [1, 2, 3]).r == pytest.approx(1.0)
        assert report([1, 2, 3], [-1, -2, -3]).r == pytest.approx(-1.0)
        assert report([1, 2, 3], [1, 3, 2]).r == pytest.approx(0.5)

    def test_nse(self):
        o = [1.0, 2.0, 4.0]
        assert report(o, o).nse == 1.0
        mean = sum(o) / 3
        assert report([mean] * 3, o).nse == pytest.approx(0.0, abs=1e-15)
        assert report([2, 2, 2], o).nse == pytest.approx(-1 / 14)

    def test_kge(self):
        o = np.array([1.0, 2.0, 4.0])
        assert report(o, o).kge == pytest.approx(1.0)
        assert report(2 * o, o).kge == pytest.approx(0.0, abs=1e-12)
        rep = report([1.0, 2.0], [-1.0, 1.0])  # zero reference mean
        assert rep.kge is None and not rep.valid("kge")

    def test_pdf_overlap(self):
        o = np.array([1.0, 2.0, 4.0])
        assert report(o, o).pdf_overlap == pytest.approx(1.0)
        assert report([0.0, 0.5, 1.0], [10.0, 10.5, 11.0]).pdf_overlap == 0.0
        m = [0.0] * 4 + [1.0] * 4
        assert report(m, [0.0] * 8, bins=2).pdf_overlap == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            report(o, o, bins=1)

    def test_pdf_overlap_on_a_range_too_narrow_for_the_bins(self):
        # a spread of one ULP cannot hold 100 strictly increasing edges
        rep = report([280.0, np.nextafter(280.0, 300.0), 280.0], [280.0] * 3)
        assert hist_edges(280.0, float(np.nextafter(280.0, 300.0)), 100) is None
        assert rep.pdf_overlap == 1.0 and rep.valid("pdf_overlap")

    def test_extremes(self):
        rep = report([1, 2], [1, 2])
        assert (rep.txx_err, rep.tnn_err) == (0.0, 0.0)
        assert report([10.0, 30.0], [12.0, 28.0]).txx_err == pytest.approx(2.0)
        assert report([-25.0, 0.0], [-20.0, 1.0]).tnn_err == pytest.approx(5.0)

    def test_sd_diff(self):
        assert report([1, 2], [1, 2]).sd_diff == 0.0
        assert report([-3.0, 3.0], [-1.0, 1.0]).sd_diff == pytest.approx(2.0)
        o = np.array([3.0, 5.0, 9.0])
        assert report(o + 7.0, o).sd_diff == pytest.approx(0.0, abs=1e-12)


class TestOracleEquivalence:
    def test_random_samples_match_naive(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 64))
            m = 10.0 + 3.0 * rng.normal(size=n)
            o = 10.0 + 3.0 * rng.normal(size=n)
            rep = report(m, o)
            ml, ol = list(m), list(o)
            tol = dict(rel=1e-9, abs=1e-9)
            assert rep.bias == pytest.approx(naive_bias(ml, ol), **tol)
            assert rep.rmse == pytest.approx(naive_rmse(ml, ol), **tol)
            assert rep.r == pytest.approx(naive_r(ml, ol), **tol)
            assert rep.nse == pytest.approx(naive_nse(ml, ol), **tol)
            assert rep.kge == pytest.approx(naive_kge(ml, ol), **tol)
            assert rep.pdf_overlap == pytest.approx(naive_pdf_overlap(ml, ol), **tol)
            assert rep.sd_diff == pytest.approx(abs(naive_sd(ml) - naive_sd(ol)), **tol)


class TestProperties:
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=64),
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_bias_variance_decomposition(self, m, o):
        n = min(len(m), len(o))
        rep = report(m[:n], o[:n])
        assert rep.rmse ** 2 >= rep.bias ** 2 - 1e-10

    def test_pdf_overlap_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 256))
            m = rng.normal(size=n) * 4 + 12
            o = rng.normal(size=n) * 3 + 11
            overlap = report(m, o).pdf_overlap
            assert overlap == report(o, m).pdf_overlap
            a = float(rng.uniform(0.5, 2.0))
            b = float(rng.uniform(-10, 10))
            assert report(a * m + b, a * o + b).pdf_overlap == pytest.approx(overlap, abs=1e-12)

    @given(st.integers(2, 40), st.floats(0.1, 5.0), st.floats(-20, 20))
    @settings(max_examples=40, deadline=None)
    def test_pearson_affine_invariance_and_sign_flip(self, n, a, b):
        rng = np.random.default_rng(n)
        m = rng.normal(size=n)
        o = rng.normal(size=n)
        if np.std(m) == 0 or np.std(o) == 0:
            return
        base = report(m, o).r
        assert report(a * m + b, o).r == pytest.approx(base, abs=1e-9)
        assert report(-m, o).r == pytest.approx(-base, abs=1e-12)

    def test_perfection_iff_identical(self):
        rng = np.random.default_rng(5)
        o = 10 + rng.normal(size=50)
        perfect = report(o, o)
        assert perfect.nse == 1.0
        assert perfect.kge == pytest.approx(1.0, abs=1e-12)
        assert perfect.r == pytest.approx(1.0, abs=1e-12)
        m = o + rng.normal(size=50) * 0.1
        assert report(m, o).nse < 1.0
        assert report(m, o).kge < 1.0
        assert report(m, o).r < 1.0
        # affine-but-not-identical still cannot reach kge or nse 1
        assert report(2 * o, o).nse < 1.0
        assert report(2 * o, o).kge < 1.0


class TestReportsAndFlags:
    def test_degenerate_flags(self):
        rep = report([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # constant model series
        assert not rep.valid("r") and rep.r is None
        assert not rep.valid("kge") and rep.kge is None
        assert rep.valid("nse") and rep.nse is not None
        assert rep.valid("bias") and rep.bias == pytest.approx(-1.0)

    def test_constant_obs_flags_nse(self):
        rep = report([1.0, 2.0], [3.0, 3.0])
        assert not rep.valid("nse")
        assert not rep.valid("r")

    def test_r2_is_r_squared(self):
        rng = np.random.default_rng(0)
        rep = report(rng.normal(size=32), rng.normal(size=32))
        assert rep.r2 == pytest.approx(rep.r ** 2, abs=1e-12)

    def test_full_report_perfect_and_shift(self, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 3, "ANNUAL")
        assert rep.bias == 0.0 and rep.rmse == 0.0
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        assert rep.nse == 1.0 and rep.kge == pytest.approx(1.0, abs=1e-12)
        assert rep.pdf_overlap == pytest.approx(1.0, abs=1e-12)

        shifted = dataclasses.replace(year_cube, data=year_cube.data + 2.0)
        rep = full_report(shifted, year_cube, all_land_mask, 3, "ANNUAL")
        assert rep.bias == pytest.approx(2.0, abs=1e-12)
        assert rep.rmse == pytest.approx(2.0, abs=1e-12)
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        assert rep.sd_diff == pytest.approx(0.0, abs=1e-10)

    def test_empty_zone_errors(self, year_cube, all_land_mask):
        with pytest.raises(ValidationError, match="empty pooled"):
            full_report(year_cube, year_cube, all_land_mask, 4, "ANNUAL")  # no zone-4 cells

    def test_pairwise_fill_exclusion(self, year_cube, all_land_mask):
        data = year_cube.data.copy()
        data[:, 0, 0] = year_cube.fill
        holey = dataclasses.replace(year_cube, data=data)
        rep = full_report(holey, year_cube, all_land_mask, 1, "DJF")
        full = full_report(year_cube, year_cube, all_land_mask, 1, "DJF")
        assert rep.n == full.n - 90  # one cell dropped across 90 DJF days

    def test_pairwise_fill_exclusion_matches_the_oracle(self, year_cube, all_land_mask):
        """Fill on either side drops the pair, and every metric of every
        context equals the naive oracle on the non-fill pairs. The model's
        fill includes the first value of the (DJF, zone 1) atom's first
        block and the reference's that of the (DJF, zone 2) atom, so the
        pivots of those pools move to the next kept pair."""
        rng = np.random.default_rng(21)
        fill = year_cube.fill
        m_data = year_cube.data + 0.4 + 0.5 * rng.normal(size=year_cube.shape)
        o_data = year_cube.data.copy()
        m_data[rng.uniform(size=m_data.shape) < 0.1] = fill
        o_data[rng.uniform(size=o_data.shape) < 0.1] = fill
        m_data[0, 0, 0] = fill  # row 0 of the grid is zone 1, row 1 zone 2
        o_data[0, 1, 0] = fill
        model = dataclasses.replace(year_cube, data=m_data)
        obs = dataclasses.replace(year_cube, data=o_data)
        months = year_cube.months()
        tol = dict(rel=1e-9, abs=1e-9)
        for zone in (1, 2, 3, 5, ZONE_OVERALL):
            cells = all_land_mask.codes > 0 if zone == ZONE_OVERALL else all_land_mask.codes == zone
            for season in ("DJF", "MAM", "JJA", "SON", "ANNUAL"):
                rows = np.isin(months, sorted(SEASONS[season]))
                m, o = m_data[rows][:, cells], o_data[rows][:, cells]
                ok = (m != fill) & (o != fill)
                m, o = list(m[ok]), list(o[ok])
                rep = full_report(model, obs, all_land_mask, zone, season)
                assert rep.n == len(m) < int(rows.sum() * cells.sum())
                assert rep.bias == pytest.approx(naive_bias(m, o), **tol)
                assert rep.rmse == pytest.approx(naive_rmse(m, o), **tol)
                assert rep.r == pytest.approx(naive_r(m, o), **tol)
                assert rep.r2 == pytest.approx(naive_r(m, o) ** 2, **tol)
                assert rep.nse == pytest.approx(naive_nse(m, o), **tol)
                assert rep.kge == pytest.approx(naive_kge(m, o), **tol)
                assert rep.pdf_overlap == pytest.approx(naive_pdf_overlap(m, o), **tol)
                assert rep.txx_err == pytest.approx(abs(max(m) - max(o)), **tol)
                assert rep.tnn_err == pytest.approx(abs(min(m) - min(o)), **tol)
                assert rep.sd_diff == pytest.approx(abs(naive_sd(m) - naive_sd(o)), **tol)

    def test_report_n_counts_season_zone_pool(self, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 5, "DJF")
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
            full_report(model, year_cube, mask, 1, "ANNUAL")


# (unit position in [0, 1], how to derive the value): an edge or one of its
# float neighbours, a uniform value, or a uniform value rounded to float32
_HIST_PICKS = st.tuples(st.floats(0.0, 1.0), st.sampled_from(["edge", "below", "above", "uniform", "float32"]))


class TestSortedCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        offset=st.sampled_from([0.0, 1.0, -40.0, 280.0, 1e6, -3e8, 1e12]) | st.floats(-1e9, 1e9),
        span=st.sampled_from([1e-9, 1e-6, 1.0, 37.5]) | st.floats(1e-13, 1e4),
        bins=st.integers(1, 120),
        picks=st.lists(_HIST_PICKS, min_size=1, max_size=60),
        repeat=st.integers(0, 5),
    )
    def test_equals_np_histogram(self, offset, span, bins, picks, repeat):
        lo, hi = offset, offset + span
        edges = hist_edges(lo, hi, bins)
        try:
            _, numpy_edges = np.histogram(np.zeros(0), bins=bins, range=(lo, hi))
        except ValueError:  # numpy refuses the range exactly when the edges collapse
            assert edges is None
            return
        if lo == hi:  # numpy widens a collapsed range; the engine calls it a perfect overlap
            assert edges is None
            return
        assert np.array_equal(edges, numpy_edges)
        values = []
        for u, how in picks:
            if how == "uniform" or how == "float32":
                v = lo + u * (hi - lo)
                values.append(float(np.float32(v)) if how == "float32" else v)
            else:
                e = edges[int(round(u * bins))]
                values.append(e if how == "edge" else float(np.nextafter(e, -np.inf if how == "below" else np.inf)))
        values = np.array(values + values[:repeat])  # duplicates
        expect, _ = np.histogram(values, bins=bins, range=(lo, hi))
        assert np.array_equal(sorted_counts(np.sort(values), edges), expect)

    @settings(max_examples=200, deadline=None)
    @given(
        ranges=st.lists(st.tuples(st.sampled_from([0.0, -40.0, 280.0, 1e6]) | st.floats(-1e6, 1e6),
                                  st.sampled_from([0.0, 1e-13, 1.0, 37.5]) | st.floats(0.0, 1e3)),
                        min_size=1, max_size=5),
        bins=st.integers(2, 60),
        picks=st.lists(st.tuples(st.integers(0, 4), st.floats(0.0, 1.0),
                                 st.sampled_from(["edge", "below", "above", "uniform"])), max_size=60),
    )
    def test_edge_stack_counts_equal_sorted_counts(self, ranges, bins, picks):
        """One searchsorted over the stacked edges of several contexts counts
        every context as `sorted_counts` does on its own edges; contexts whose
        range holds no edges take no row."""
        edges = [hist_edges(lo, lo + span, bins) for lo, span in ranges]
        stack = EdgeStack(edges)
        assert stack.rows == [i for i, e in enumerate(edges) if e is not None]
        values = []
        for k, u, how in picks:
            lo, span = ranges[k % len(ranges)]
            e = edges[k % len(edges)]
            if how == "uniform" or e is None:
                values.append(lo + u * span)
            else:
                v = e[int(round(u * bins))]
                values.append(v if how == "edge" else float(np.nextafter(v, -np.inf if how == "below" else np.inf)))
        values = np.sort(np.array(values, dtype=np.float64))
        if stack.rows:
            counts = stack.counts(values)
            assert counts.shape == (len(stack.rows), bins)
            for row, i in zip(counts, stack.rows):
                assert np.array_equal(row, sorted_counts(values, edges[i]))


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
    def test_one_pool_counts_as_np_histogram(self, m, o):
        """One pool counted as a sweep counts (sorted, `EdgeStack`) reports
        what the same pool reports with `np.histogram`'s counts on its edges."""
        m, o = np.asarray(m, dtype=float), np.asarray(o, dtype=float)
        pool = StreamingPool()
        pool.update(m, o)
        pool.freeze()
        if pool.edges is not None:
            pool.add_counts(*(np.histogram(v, bins=pool.edges)[0] for v in (m, o)))
        assert report(m, o).as_dict() == pool.report().as_dict()

    def test_streaming_matches_in_memory(self):
        rng = np.random.default_rng(3)
        m = 15 + 2.5 * rng.normal(size=5000)
        o = 15 + 2.0 * rng.normal(size=5000)
        direct = report(m, o)
        pool = StreamingPool()
        for lo in range(0, 5000, 700):
            pool.update(m[lo : lo + 700], o[lo : lo + 700])
        pool.freeze()
        for lo in range(0, 5000, 700):
            add_counts(pool, m[lo : lo + 700], o[lo : lo + 700])
        stream = pool.report()
        for name in mx.METRIC_NAMES:
            assert stream.value(name) == pytest.approx(direct.value(name), rel=1e-9, abs=1e-9), name
        assert stream.n == direct.n


PASS1_EXACT = ("n", "_min_m", "_max_m", "_min_o", "_max_o")
MOMENT_METRICS = ("bias", "rmse", "r", "r2", "nse", "kge", "sd_diff")


def _fed(m, o):
    pool = StreamingPool()
    pool.update(m, o)
    return pool


class TestMerge:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 300),
        st.lists(st.integers(0, 300), max_size=5),
        st.sampled_from(["normal", "constant-model", "small-integers"]),
        st.integers(0, 2**32 - 1),
    )
    def test_merged_chunk_pools_equal_one_pool(self, n, cuts, kind, seed):
        """Pools fed 1-6 chunks and merged equal one pool fed the whole
        sample: exactly in count, extremes, histogram and flags, and to 1e-12
        in every moment-based metric."""
        rng = np.random.default_rng(seed)
        if kind == "small-integers":  # ties, and constant chunks
            m, o = rng.integers(0, 3, size=n).astype(float), rng.integers(1, 4, size=n).astype(float)
        else:
            m = np.full(n, 15.0) if kind == "constant-model" else 15 + 2.5 * rng.normal(size=n)
            o = 12 + 0.8 * m + rng.normal(size=n)
        bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
        merged = StreamingPool()
        for lo, hi in zip(bounds, bounds[1:]):
            merged.merge(_fed(m[lo:hi], o[lo:hi]))
        whole = _fed(m, o)
        for name in PASS1_EXACT:
            assert getattr(merged, name) == getattr(whole, name), name
        got, want = finish(merged, m, o), finish(whole, m, o)
        assert np.array_equal(merged._hist_m, whole._hist_m) and np.array_equal(merged._hist_o, whole._hist_o)
        assert got.flags == want.flags
        for name in ("pdf_overlap", "txx_err", "tnn_err"):
            assert got.value(name) == want.value(name), name
        for name in MOMENT_METRICS:
            if want.valid(name):
                assert got.value(name) == pytest.approx(want.value(name), rel=1e-12, abs=1e-12), name

    def test_merge_into_an_empty_pool_copies_the_source(self):
        rng = np.random.default_rng(8)
        m, o = 15 + 2.5 * rng.normal(size=200), 15 + 2.0 * rng.normal(size=200)
        copy = StreamingPool()
        copy.merge(_fed(m, o))
        assert finish(copy, m, o).as_dict() == finish(_fed(m, o), m, o).as_dict()

    def test_merging_an_empty_pool_is_a_no_op(self):
        rng = np.random.default_rng(9)
        m, o = 15 + 2.5 * rng.normal(size=200), 15 + 2.0 * rng.normal(size=200)
        pool = _fed(m, o)
        before = dict(vars(pool))
        pool.merge(StreamingPool())
        assert vars(pool) == before
        assert finish(pool, m, o).as_dict() == finish(_fed(m, o), m, o).as_dict()
        with pytest.raises(ValidationError, match="before freeze"):
            pool.merge(_fed(m, o))


class TestContextPartition:
    @pytest.mark.parametrize("product", [True, False])
    def test_sweep_equals_one_context_sweeps(self, year_cube, all_land_mask, monkeypatch, product):
        """Any index, not only the default zones x seasons, gives each context
        the report of a sweep over that context alone, fill included; and no
        pass calls np.histogram."""
        rng = np.random.default_rng(11)
        data = year_cube.data + 0.5 + 0.3 * rng.normal(size=year_cube.shape)
        data[:, 2, 1] = year_cube.fill
        data[150:200, 0, 3] = year_cube.fill
        model = dataclasses.replace(year_cube, data=data)
        index = context_index(year_cube.months(), all_land_mask, {"temperate": 3, "all": ZONE_OVERALL}, ("JJA", "ANNUAL"))
        if not product:  # two contexts sharing neither rows nor cells exactly
            index = [index[0], index[3]]

        def reports(idx):
            return sweep({"model": CubeBlocks(model)}, CubeBlocks(year_cube), idx)["model"]

        def no_histogram(*args, **kwargs):
            raise AssertionError("np.histogram called")

        monkeypatch.setattr(np, "histogram", no_histogram)
        together = reports(index)
        assert list(together) == [ctx for ctx, _, _ in index]
        for entry in index:
            assert together[entry[0]].as_dict() == reports([entry])[entry[0]].as_dict()


    def test_sweep_of_every_model_equals_each_model_alone(self, year_cube, all_land_mask):
        """Models swept together share the reference's pass-1 terms and sort
        wherever neither side of an atom holds fill; each model's reports
        equal those of a sweep over that model alone. One model has no fill.
        Another has fill the reference lacks, including the first value of
        the (DJF, zone 1) atom's first block, so its reference pivot there
        differs from the others'. The reference has fill no model has."""
        rng = np.random.default_rng(12)
        fill = year_cube.fill
        obs_data = year_cube.data.copy()
        obs_data[200:230, 1, 1] = fill
        obs = dataclasses.replace(year_cube, data=obs_data)
        holed = year_cube.data - 0.2 + 0.4 * rng.normal(size=year_cube.shape)
        holed[0, 0, 0] = fill
        holed[70:90, 2, 3] = fill
        data = {
            "clean": year_cube.data + 0.5 + 0.3 * rng.normal(size=year_cube.shape),
            "holed": holed,
            "also_clean": year_cube.data + 1.5 * rng.normal(size=year_cube.shape),
        }
        models = {label: CubeBlocks(dataclasses.replace(year_cube, data=d)) for label, d in data.items()}
        zones = {"tropical": 1, "arid": 2, "temperate": 3, "polar": 5, "overall": ZONE_OVERALL}
        index = context_index(year_cube.months(), all_land_mask, zones, ("DJF", "MAM", "JJA", "SON", "ANNUAL"))
        together = sweep(models, CubeBlocks(obs), index)
        assert list(together) == list(models)
        for label, d in data.items():  # every cell is land, so the full year pools every non-fill pair
            ok = (d != fill) & (obs_data != fill)
            whole = together[label][("overall", "ANNUAL")]
            assert whole.n == np.count_nonzero(ok)
            assert whole.txx_err == abs(d[ok].max() - obs_data[ok].max())
            assert whole.tnn_err == abs(d[ok].min() - obs_data[ok].min())
        for label, source in models.items():
            alone = sweep({label: source}, CubeBlocks(obs), index)[label]
            assert list(together[label]) == list(alone) == [ctx for ctx, _, _ in index]
            assert {ctx: r.as_dict() for ctx, r in together[label].items()} == {
                ctx: r.as_dict() for ctx, r in alone.items()}


class TestSerialization:
    def test_csv_and_json_round_shape(self, tmp_path, year_cube, all_land_mask):
        rep = full_report(year_cube, year_cube, all_land_mask, 1, "ANNUAL")
        row = {"model": "m", "zone": "tropical", "season": "ANNUAL"}
        row.update(rep.as_dict())
        csv_path = tmp_path / "rep.csv"
        csv_path.write_text(mx.report_rows_to_csv([row]))
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "kge" in header and "kge_valid" in header and "n" in header
        (tmp_path / "rep.json").write_text(json_text([row]))
