"""Skill metrics over pooled model/reference sample pairs.

Every report comes from one engine, `StreamingPool`, a two-pass
accumulator of shifted moments, extremes and shared-range histograms.
`sweep` drives it over paired time blocks of `BLOCK` steps and fills every
(zone, season) context of one model at once. Its histogram pass splits the
contexts into disjoint (row group, cell group) atoms, sorts each atom's
values once per block and counts them against the frozen bin edges of
every context that contains the atom (`sorted_counts`, the one histogram
implementation, with `np.histogram`'s counts); `full_report` runs that sweep
on one context of two in-memory cubes, and `compute_report` feeds one
materialised `PooledSample` to it. The engine flags the metrics a
degenerate sample (constant series, zero means) cannot support instead of
reporting them, because a silent NaN or a fake zero would poison the
downstream ranking.

The bare metric functions (`bias`, `rmse`, `pearson_r`, ...) take a
`PooledSample` and are the reference implementations the engine is tested
against; on a degenerate sample they raise `DegenerateSampleError`.

Standard deviations use the population (1/n) convention throughout, so
the variability ratio inside KGE and the plain deviation difference stay
consistent with each other.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .artifacts import csv_text
from .errors import ValidationError
from .geogrid import DataCube, LAND_ZONES, SEASONS, SeasonSelector, ZoneMask

# Pseudo-zone meaning "union of all land zones".
ZONE_OVERALL = "overall"

# The most histogram bins a PDF overlap may use. Every (zone, season)
# context holds two count arrays of this length, so the bound keeps a
# run's memory small whatever bin count a config or --bins asks for.
MAX_BINS = 10_000

# Time steps per block of a sweep. It is fixed so that every caller feeds
# each context's pool the same update sequence and writes the same bytes.
BLOCK = 64

METRIC_NAMES = (
    "bias",
    "rmse",
    "r",
    "r2",
    "nse",
    "kge",
    "pdf_overlap",
    "txx_err",
    "tnn_err",
    "sd_diff",
)


class DegenerateSampleError(ValidationError):
    """The sample cannot support this metric (constant series, zero mean)."""


@dataclass(frozen=True, eq=False)
class PooledSample:
    """Paired model/reference values pooled over one (zone, season) context."""

    model: np.ndarray
    obs: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.model, dtype=np.float64).ravel()
        o = np.asarray(self.obs, dtype=np.float64).ravel()
        if m.size != o.size:
            raise ValidationError(f"paired series differ in length: {m.size} vs {o.size}")
        if m.size < 2:
            raise ValidationError("pooled sample needs at least 2 pairs")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(o))):
            raise ValidationError("pooled sample contains non-finite values")
        m.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "model", m)
        object.__setattr__(self, "obs", o)

    @property
    def n(self) -> int:
        return self.model.size


def bias(s: PooledSample) -> float:
    """Mean model value minus mean reference value (systematic error)."""
    return float(np.mean(s.model) - np.mean(s.obs))


def rmse(s: PooledSample) -> float:
    """Root mean square of the paired differences."""
    return float(np.sqrt(np.mean((s.model - s.obs) ** 2)))


def pearson_r(s: PooledSample) -> float:
    """Product-moment correlation; requires variance in both series."""
    dm = s.model - np.mean(s.model)
    do = s.obs - np.mean(s.obs)
    den = np.sqrt(np.sum(dm * dm) * np.sum(do * do))
    if den == 0.0:
        raise DegenerateSampleError("correlation undefined: a series is constant")
    return float(np.sum(dm * do) / den)


def nse(s: PooledSample) -> float:
    """Nash-Sutcliffe efficiency: 1 is perfect, 0 matches the mean baseline."""
    num = np.sum((s.obs - s.model) ** 2)
    den = np.sum((s.obs - np.mean(s.obs)) ** 2)
    if den == 0.0:
        raise DegenerateSampleError("NSE undefined: reference series is constant")
    return float(1.0 - num / den)


def kge(s: PooledSample) -> float:
    """Kling-Gupta efficiency with the coefficient-of-variation variability ratio.

    beta = mean(M)/mean(O), gamma = (sd(M)/mean(M)) / (sd(O)/mean(O)),
    kge = 1 - sqrt((r-1)^2 + (beta-1)^2 + (gamma-1)^2).
    """
    mu_m = float(np.mean(s.model))
    mu_o = float(np.mean(s.obs))
    if mu_o == 0.0 or mu_m == 0.0:
        raise DegenerateSampleError("KGE undefined: zero mean")
    sd_m = float(np.std(s.model))
    sd_o = float(np.std(s.obs))
    if sd_o == 0.0 or sd_m == 0.0:
        raise DegenerateSampleError("KGE undefined: constant series")
    r = pearson_r(s)
    beta = mu_m / mu_o
    gamma = (sd_m / mu_m) / (sd_o / mu_o)
    return float(1.0 - math.sqrt((r - 1.0) ** 2 + (beta - 1.0) ** 2 + (gamma - 1.0) ** 2))


def pdf_overlap(s: PooledSample, bins: int = 100) -> float:
    """Overlap of the two empirical distributions, in [0, 1].

    Both series are histogrammed on `bins` shared equal-width bins spanning
    the union range; the overlap is the sum of per-bin minima of the two
    count fractions. Samples whose union range cannot hold strictly
    increasing bin edges (identical constants, or a spread of a few ULPs)
    overlap perfectly.
    """
    if not 2 <= bins <= MAX_BINS:
        raise ValidationError(f"pdf_overlap needs between 2 and {MAX_BINS} bins, got {bins}")
    lo = min(float(np.min(s.model)), float(np.min(s.obs)))
    hi = max(float(np.max(s.model)), float(np.max(s.obs)))
    edges = hist_edges(lo, hi, bins)
    if edges is None:
        return 1.0
    pm = sorted_counts(np.sort(s.model), edges)
    po = sorted_counts(np.sort(s.obs), edges)
    return float(np.sum(np.minimum(pm / s.n, po / s.n)))


def hist_edges(lo: float, hi: float, bins: int) -> Optional[np.ndarray]:
    """The bin edges `np.histogram(v, bins, range=(lo, hi))` builds, or None.

    None means the range cannot hold `bins` strictly increasing edges
    (lo == hi, or a span of a few ULPs): the samples then agree to within
    rounding, and the caller reports a perfect overlap.
    """
    edges = np.linspace(lo, hi, bins + 1)
    return edges if np.all(edges[:-1] < edges[1:]) else None


def sorted_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Histogram counts of ascending `values` on `edges`.

    Bin i holds edges[i] <= v < edges[i + 1] and the last bin is closed,
    so the counts equal `np.histogram`'s on the same edges; values outside
    [edges[0], edges[-1]] are not counted.
    """
    idx = np.searchsorted(values, edges)
    idx[-1] = np.searchsorted(values, edges[-1], side="right")
    return idx[1:] - idx[:-1]


def extreme_errors(s: PooledSample) -> Tuple[float, float]:
    """Absolute errors of the sample extremes.

    Returns (high-extreme error, low-extreme error): |max(M) - max(O)| and
    |min(M) - min(O)|. The raw extreme indices become absolute errors so
    the ranking can treat them as cost criteria.
    """
    txx_err = abs(float(np.max(s.model)) - float(np.max(s.obs)))
    tnn_err = abs(float(np.min(s.model)) - float(np.min(s.obs)))
    return txx_err, tnn_err


def sd_diff(s: PooledSample) -> float:
    """Absolute difference of the population standard deviations."""
    return abs(float(np.std(s.model)) - float(np.std(s.obs)))


@dataclass
class MetricReport:
    """All metrics for one (model, zone, season) context.

    Metrics that could not be computed hold None and carry flags[name] ==
    False; everything else is a finite float. `n` is the pooled pair count.
    """

    bias: float
    rmse: float
    r: Optional[float]
    r2: Optional[float]
    nse: Optional[float]
    kge: Optional[float]
    pdf_overlap: float
    txx_err: float
    tnn_err: float
    sd_diff: float
    n: int
    flags: Dict[str, bool] = field(default_factory=dict)

    def value(self, name: str) -> Optional[float]:
        if name not in METRIC_NAMES:
            raise ValidationError(f"unknown metric {name!r}")
        return getattr(self, name)

    def valid(self, name: str) -> bool:
        return self.flags.get(name, True)

    def as_dict(self) -> dict:
        out = {name: self.value(name) for name in METRIC_NAMES}
        out["n"] = self.n
        out["flags"] = dict(self.flags)
        return out


def compute_report(s: PooledSample, bins: int = 100) -> MetricReport:
    """Run every metric on one pooled sample, fed once to each engine pass."""
    pool = StreamingPool(bins=bins)
    pool.update(s.model, s.obs)
    pool.freeze()
    pool.update_hist(s.model, s.obs)
    return pool.report()


def _zone_cells(mask: ZoneMask, zone) -> np.ndarray:
    """Flat cell indices of a land zone code; ZONE_OVERALL is the union of all land zones."""
    if zone == ZONE_OVERALL:
        return np.flatnonzero(mask.cells_in(LAND_ZONES))
    if zone not in LAND_ZONES:
        raise ValidationError(f"zone must be one of {LAND_ZONES} or {ZONE_OVERALL!r}, got {zone!r}")
    return np.flatnonzero(mask.cells_in({zone}))


def context_index(months: np.ndarray, mask: ZoneMask, zones: Mapping, seasons: Sequence[str]):
    """[((zone key, season id), time rows, flat cell indices)] for every context, zone-major.

    `zones` maps each zone key to a land zone code or ZONE_OVERALL; the rows
    of each season and the cells of each zone are computed once.
    """
    rows = {}
    for season_id in seasons:
        rows[season_id] = np.flatnonzero(np.isin(months, sorted(SEASONS[season_id].months)))
        if rows[season_id].size == 0:
            raise ValidationError(f"no time steps fall in season {season_id}")
    cells = {key: _zone_cells(mask, zone) for key, zone in zones.items()}
    return [((key, season_id), rows[season_id], cells[key]) for key in zones for season_id in seasons]


def time_blocks(data: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """An in-memory (time x lat x lon) array as (t0, block) views of BLOCK steps."""
    return [(t0, data[t0 : t0 + BLOCK]) for t0 in range(0, len(data), BLOCK)]


def _pairs(block_m: np.ndarray, block_o: np.ndarray, rows, cells, fill_m: float, fill_o: float):
    """Paired non-fill values of one context inside a (time x lat x lon) block.

    The values come out in the order of `block[np.ix_(rows, cells)]`; a
    contiguous run of rows is sliced, not copied, before the cell gather.
    """
    if rows[-1] - rows[0] == len(rows) - 1:
        rows = slice(rows[0], rows[-1] + 1)
    m = block_m.reshape(len(block_m), -1)[rows].take(cells, axis=1)
    o = block_o.reshape(len(block_o), -1)[rows].take(cells, axis=1)
    ok = (m != fill_m) & (o != fill_o)
    return (m.ravel(), o.ravel()) if ok.all() else (m[ok], o[ok])


def _partition(sets: Sequence[np.ndarray]) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split the union of index arrays into groups of equal membership.

    Returns [(indices, members)]: the ascending indices of one group and
    the positions in `sets` of the arrays that hold every one of them.
    Indices in no array do not appear.
    """
    universe = np.unique(np.concatenate(sets))
    member = np.stack([np.isin(universe, s) for s in sets])
    group = np.zeros(universe.size, dtype=np.int64)
    for inside in member:  # refine by one set at a time, renumbering densely
        _, group = np.unique(2 * group + inside, return_inverse=True)
    _, first = np.unique(group, return_index=True)
    return [(universe[group == g], np.flatnonzero(member[:, i])) for g, i in enumerate(first)]


def _atoms(index) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """[(rows, cells, contexts)]: the disjoint blocks of (time row, cell) pairs of `index`.

    Each context's rows x cells is the union of the atoms that list its
    position in `contexts`, so every pair of a context is in exactly one atom.
    """
    row_groups = _partition([rows for _, rows, _ in index])
    cell_groups = _partition([cells for _, _, cells in index])
    atoms = []
    for rows, row_ctx in row_groups:
        for cells, cell_ctx in cell_groups:
            contexts = np.intersect1d(row_ctx, cell_ctx)
            if contexts.size:
                atoms.append((rows, cells, contexts))
    return atoms


def sweep(model_blocks: Iterable, obs_blocks: Iterable, index, fill_m: float, fill_o: float,
          bins: int = 100, label: str = "model") -> Dict[Tuple, MetricReport]:
    """Reports of every context in `index` from two passes over paired time blocks.

    `model_blocks` and `obs_blocks` are re-iterable sources of aligned
    (t0, block) pairs of BLOCK time steps on the grid the index was built
    for; each is iterated once per pass. Pass 1 dispatches every block to
    the `StreamingPool` of every context, so a pool sees the same update
    sequence as a sweep over its context alone. Pass 2 gathers and sorts
    each atom of the index once per block and adds its counts to every
    context that contains it; the counts are integers, so they equal a
    per-context histogram pass exactly.
    """
    pools = [StreamingPool(bins=bins) for _ in index]

    def blocks():
        for (t0, block_m), (_, block_o) in zip(model_blocks, obs_blocks):
            yield t0, t0 + len(block_m), block_m, block_o

    for t0, t1, block_m, block_o in blocks():
        for pool, (_, rows, cells) in zip(pools, index):
            lo, hi = np.searchsorted(rows, (t0, t1))
            if hi > lo:
                pool.update(*_pairs(block_m, block_o, rows[lo:hi] - t0, cells, fill_m, fill_o))
    for pool, ((zone, season_id), _, _) in zip(pools, index):
        if pool.n < 2:
            raise ValidationError(f"empty pooled sample for {label} in zone={zone!r} season={season_id}")
        pool.freeze()
    atoms = _atoms(index)
    for t0, t1, block_m, block_o in blocks():
        for rows, cells, contexts in atoms:
            lo, hi = np.searchsorted(rows, (t0, t1))
            if hi > lo:
                m, o = _pairs(block_m, block_o, rows[lo:hi] - t0, cells, fill_m, fill_o)
                m.sort()  # the gather made fresh arrays, so they sort in place
                o.sort()
                for k in contexts:
                    pools[k].count_sorted(m, o)
    return {ctx: pool.report() for pool, (ctx, _, _) in zip(pools, index)}


def full_report(
    model: DataCube,
    obs: DataCube,
    mask: ZoneMask,
    zone,
    season: SeasonSelector,
    bins: int = 100,
) -> MetricReport:
    """Every metric of one (zone, season) context of two in-memory cubes.

    The cubes must share axes with each other and with the mask; pairs where
    either side is fill are excluded.
    """
    if model.shape != obs.shape:
        raise ValidationError(f"cube shapes differ: {model.shape} vs {obs.shape}")
    if not (np.array_equal(model.lat.values, obs.lat.values) and np.array_equal(model.lon.values, obs.lon.values)):
        raise ValidationError("model and reference cubes are on different grids")
    if model.time != obs.time:
        raise ValidationError("model and reference cubes cover different times")
    if not (np.array_equal(model.lat.values, mask.lat.values) and np.array_equal(model.lon.values, mask.lon.values)):
        raise ValidationError("mask grid does not match the cubes")
    index = context_index(obs.months(), mask, {zone: zone}, (season.id,))
    (report,) = sweep(time_blocks(model.data), time_blocks(obs.data), index, model.fill, obs.fill, bins).values()
    return report


class StreamingPool:
    """The one metric accumulator: every report is read from one of these.

    It takes the paired chunks of one context in two passes, so memory is
    bounded by the chunk, not the pooled sample. Pass 1 (`update`)
    accumulates shifted moments, extremes and the count; `freeze` then
    fixes the shared bin edges from the extremes, and pass 2 counts sorted
    values against them with `sorted_counts` (`count_sorted`, or
    `update_hist` for unsorted chunks). Moments are accumulated around the
    first value seen, which keeps the centered statistics well-conditioned
    for large pooled counts. `report` flags the metrics a degenerate sample cannot support;
    the values match the bare reference functions up to rounding.
    """

    def __init__(self, bins: int = 100):
        if not 2 <= bins <= MAX_BINS:
            raise ValidationError(f"pdf_overlap needs between 2 and {MAX_BINS} bins, got {bins}")
        self.bins = bins
        self.n = 0
        self._pivot_m = 0.0
        self._pivot_o = 0.0
        self._sm = self._so = 0.0
        self._smm = self._soo = self._smo = 0.0
        self._sdd = 0.0
        self._min_m = math.inf
        self._max_m = -math.inf
        self._min_o = math.inf
        self._max_o = -math.inf
        self._hist_m = None
        self._hist_o = None
        self._edges = None

    def update(self, m: np.ndarray, o: np.ndarray) -> None:
        m = np.asarray(m, dtype=np.float64).ravel()
        o = np.asarray(o, dtype=np.float64).ravel()
        if m.size != o.size:
            raise ValidationError("paired chunks differ in length")
        if m.size == 0:
            return
        if self.n == 0:
            self._pivot_m = float(m[0])
            self._pivot_o = float(o[0])
        dm = m - self._pivot_m
        do = o - self._pivot_o
        self.n += m.size
        self._sm += float(np.sum(dm))
        self._so += float(np.sum(do))
        self._smm += float(np.sum(dm * dm))
        self._soo += float(np.sum(do * do))
        self._smo += float(np.sum(dm * do))
        self._sdd += float(np.sum((m - o) ** 2))
        self._min_m = min(self._min_m, float(np.min(m)))
        self._max_m = max(self._max_m, float(np.max(m)))
        self._min_o = min(self._min_o, float(np.min(o)))
        self._max_o = max(self._max_o, float(np.max(o)))

    def freeze(self) -> None:
        """Fix histogram edges from pass-1 extremes; call before update_hist."""
        if self.n < 2:
            raise ValidationError("empty pooled sample")
        lo = min(self._min_m, self._min_o)
        hi = max(self._max_m, self._max_o)
        self._edges = hist_edges(lo, hi, self.bins)
        self._hist_m = np.zeros(self.bins, dtype=np.int64)
        self._hist_o = np.zeros(self.bins, dtype=np.int64)

    def update_hist(self, m: np.ndarray, o: np.ndarray) -> None:
        """Count one paired chunk of pass 2, in any order."""
        self.count_sorted(np.sort(np.asarray(m, dtype=np.float64).ravel()),
                          np.sort(np.asarray(o, dtype=np.float64).ravel()))

    def count_sorted(self, m: np.ndarray, o: np.ndarray) -> None:
        """Count ascending model and reference values of pass 2 against the frozen edges."""
        if self._hist_m is None:
            raise ValidationError("freeze() must run before the histogram pass")
        if self._edges is None:
            return
        self._hist_m += sorted_counts(m, self._edges)
        self._hist_o += sorted_counts(o, self._edges)

    def report(self) -> MetricReport:
        if self._hist_m is None:
            raise ValidationError("freeze() and the histogram pass must run before report()")
        n = self.n
        mu_m = self._pivot_m + self._sm / n
        mu_o = self._pivot_o + self._so / n
        var_m = max(self._smm / n - (self._sm / n) ** 2, 0.0)
        var_o = max(self._soo / n - (self._so / n) ** 2, 0.0)
        cov = self._smo / n - (self._sm / n) * (self._so / n)
        sd_m, sd_o = math.sqrt(var_m), math.sqrt(var_o)

        flags = {name: True for name in METRIC_NAMES}
        values: Dict[str, Optional[float]] = {
            "bias": mu_m - mu_o,
            "rmse": math.sqrt(self._sdd / n),
            "txx_err": abs(self._max_m - self._max_o),
            "tnn_err": abs(self._min_m - self._min_o),
            "sd_diff": abs(sd_m - sd_o),
        }
        if sd_m == 0.0 or sd_o == 0.0:
            values["r"] = values["r2"] = None
            flags["r"] = flags["r2"] = False
        else:
            r = cov / (sd_m * sd_o)
            values["r"] = r
            values["r2"] = r * r
        if sd_o == 0.0:
            values["nse"] = None
            flags["nse"] = False
        else:
            values["nse"] = 1.0 - (self._sdd / n) / var_o
        if mu_o == 0.0 or mu_m == 0.0 or sd_o == 0.0 or sd_m == 0.0:
            values["kge"] = None
            flags["kge"] = False
        else:
            beta = mu_m / mu_o
            gamma = (sd_m / mu_m) / (sd_o / mu_o)
            values["kge"] = 1.0 - math.sqrt((values["r"] - 1.0) ** 2 + (beta - 1.0) ** 2 + (gamma - 1.0) ** 2)
        if self._edges is None:
            values["pdf_overlap"] = 1.0
        else:
            values["pdf_overlap"] = float(np.sum(np.minimum(self._hist_m / n, self._hist_o / n)))
        return MetricReport(n=n, flags=flags, **values)


def report_rows_to_csv(rows: List[dict]) -> str:
    """Report dict rows (label columns + metric columns) as CSV text."""
    if not rows:
        raise ValidationError("no report rows to write")
    label_keys = [k for k in rows[0] if k not in METRIC_NAMES and k != "n" and k != "flags"]
    header = label_keys + list(METRIC_NAMES) + ["n"] + [f"{m}_valid" for m in METRIC_NAMES]
    return csv_text(header, (
        [row[k] for k in label_keys] + [row.get(m) for m in METRIC_NAMES] + [row["n"]]
        + [bool(row.get("flags", {}).get(m, True)) for m in METRIC_NAMES]
        for row in rows
    ))
