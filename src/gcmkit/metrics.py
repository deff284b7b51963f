"""Skill metrics over pooled model/reference sample pairs.

Every report comes from one engine, `StreamingPool`, a two-pass
accumulator of shifted moments, extremes and shared-range histograms.
`sweep` drives it over the time blocks of `BLOCK` steps of one reference
and any number of models, and fills every (zone, season) context of
every model at once. `context_index` splits each context into atoms, one
per (meteorological season, zone code). Each pass reads every block of
the reference once and gathers each of its atoms once; then each model's
block is read, gathered and fed in turn. Pass 1 feeds one pool per model
and atom and then merges every atom pool into its contexts
(`StreamingPool.merge`, the pairwise update of Chan, Golub & LeVeque); a
zone x DJF/MAM/JJA/SON context is one atom and takes its pool bit for
bit. Pass 2 sorts each atom's values once per block and counts them with
one `searchsorted` per side against the stacked frozen bin edges of every
context that contains the atom (`EdgeStack`, with `np.histogram`'s
counts). Where neither side of an atom holds fill, every model shares the
reference's pass-1 terms and its sort, so a report has the same bits
whichever models are swept with it. `full_report` runs that sweep on one
context of two in-memory cubes. The engine flags the metrics a
degenerate sample (constant series, zero means) cannot support instead
of reporting them, because a silent NaN or a fake zero would poison the
downstream ranking.

A season is a set of months (`geogrid.SEASONS`), and `context_index` is
the one place that turns it into time rows. The engine is the only
implementation of each metric: the naive loop-based oracles it is tested
against live in `tests/test_metrics.py`, and acceptance criterion C1
checks the engine's reports against them.

Standard deviations use the population (1/n) convention throughout, so
the variability ratio inside KGE and the plain deviation difference stay
consistent with each other.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .artifacts import csv_text
from .errors import ValidationError
from .geogrid import DataCube, LAND_ZONES, SEASONS, ZoneMask

# Pseudo-zone meaning "union of all land zones".
ZONE_OVERALL = "overall"

# The most histogram bins a PDF overlap may use. Every (zone, season)
# context holds two count arrays of this length, so the bound keeps a
# run's memory small whatever bin count a config or --bins asks for.
MAX_BINS = 10_000

# The meteorological seasons that tile the year; every season is a union
# of some of them.
MET_SEASONS = ("DJF", "MAM", "JJA", "SON")

# Time steps per block of a sweep. It is fixed so that every caller feeds
# each atom's pool the same update sequence and writes the same bytes.
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


def hist_edges(lo: float, hi: float, bins: int) -> Optional[np.ndarray]:
    """The bin edges `np.histogram(v, bins, range=(lo, hi))` builds, or None.

    None means the range cannot hold `bins` strictly increasing edges
    (lo == hi, or a span of a few ULPs): the samples then agree to within
    rounding, and the caller reports a perfect overlap.
    """
    edges = np.linspace(lo, hi, bins + 1)
    return edges if np.all(edges[:-1] < edges[1:]) else None


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


def context_index(months: np.ndarray, mask: ZoneMask, zones: Mapping, seasons: Sequence[str]):
    """[((zone key, season id), [(season, time rows)], [(code, flat cells)])] per context, zone-major.

    `zones` maps each zone key to a land zone code or ZONE_OVERALL. A
    context is every (rows, cells) atom of its meteorological seasons and
    zone codes. The atoms depend only on `months` and `mask.codes`, so a
    context has the same atoms whichever contexts are indexed with it.
    """
    met_rows = {s: np.flatnonzero(np.isin(months, sorted(SEASONS[s]))) for s in MET_SEASONS}
    rows = {}
    for season_id in seasons:
        rows[season_id] = [(s, r) for s, r in met_rows.items() if r.size and SEASONS[s] <= SEASONS[season_id]]
        if not rows[season_id]:
            raise ValidationError(f"no time steps fall in season {season_id}")
    code_cells = {code: np.flatnonzero(mask.codes.ravel() == code) for code in LAND_ZONES}
    cells = {}
    for key, zone in zones.items():
        if zone != ZONE_OVERALL and zone not in LAND_ZONES:
            raise ValidationError(f"zone must be one of {LAND_ZONES} or {ZONE_OVERALL!r}, got {zone!r}")
        codes = LAND_ZONES if zone == ZONE_OVERALL else (zone,)  # ZONE_OVERALL is the union of all land zones
        cells[key] = [(c, code_cells[c]) for c in codes if code_cells[c].size]
    return [((key, season_id), rows[season_id], cells[key]) for key in zones for season_id in seasons]


def _plan(index) -> List[Tuple[np.ndarray, np.ndarray, List[int]]]:
    """[(rows, cells, contexts)]: each atom of `index` once, with the positions of its contexts.

    Atoms come in (meteorological season, zone code) order whatever the
    index holds, so every context meets its own atoms in the same order.
    """
    atoms = {}
    for k, (_, season_rows, zone_cells) in enumerate(index):
        for season, rows in season_rows:
            for code, cells in zone_cells:
                atoms.setdefault((MET_SEASONS.index(season), code), (rows, cells, []))[2].append(k)
    return [atoms[key] for key in sorted(atoms)]


class CubeBlocks:
    """An in-memory cube as a `sweep` source: its time axis, its fill and its BLOCK-step slabs by start step."""

    def __init__(self, cube: DataCube):
        self.time, self.fill, self._data = cube.time, cube.fill, cube.data

    def block(self, t0: int) -> np.ndarray:
        return self._data[t0 : t0 + BLOCK]


def _spans(plan, t0: int) -> List[Tuple[int, np.ndarray, np.ndarray]]:
    """[(atom position, its rows inside the block at t0, its cells)] for every atom of `plan` with rows there."""
    out = []
    for a, (rows, cells, _) in enumerate(plan):
        lo, hi = np.searchsorted(rows, (t0, t0 + BLOCK))
        if hi > lo:
            out.append((a, rows[lo:hi] - t0, cells))
    return out


def _gather(block: np.ndarray, rows: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """One atom of a (time x lat x lon) block as a fresh (rows x cells) array.

    The values come out in the order of `block[np.ix_(rows, cells)]`; a
    contiguous run of rows is sliced, not copied, before the cell gather.
    """
    if rows[-1] - rows[0] == len(rows) - 1:
        rows = slice(rows[0], rows[-1] + 1)
    return block.reshape(len(block), -1)[rows].take(cells, axis=1)


class _ObsAtom:
    """One gathered reference atom of a block, and the work every model that pairs with all of it shares.

    Where neither the model atom nor the reference atom holds fill, the
    reference values and their order are the same for every model. Their
    pass-1 terms at a pivot (`side`) and their ascending order (`ordered`)
    are then computed once and reused, so each model gets the bits a sweep
    of that model alone computes. Any other atom pairs per model.
    """

    def __init__(self, o: np.ndarray, fill: float):
        self.o, self.fill = o, fill
        self.clean = not (o == fill).any()
        self._sides = {}
        self._ordered = None

    def pair(self, m: np.ndarray, fill_m: float):
        """(model values, reference values, shared): the non-fill pairs of a gathered model atom.

        `shared` is this atom when every pair is kept: the reference values
        are then its own, not to be changed in place. Otherwise it is None
        and both value arrays are fresh.
        """
        if self.clean and not (m == fill_m).any():
            return m.ravel(), self.o.ravel(), self
        ok = (m != fill_m) & (self.o != self.fill)
        return m[ok], self.o[ok], None

    def side(self, pivot: float):
        """`_side` of every reference value at `pivot`, once per pivot (by its bits, so -0.0 is not 0.0)."""
        key = pivot.hex()
        if key not in self._sides:
            self._sides[key] = _side(self.o.ravel(), pivot)
        return self._sides[key]

    def ordered(self) -> np.ndarray:
        """Every reference value, ascending."""
        if self._ordered is None:
            self._ordered = np.sort(self.o.ravel())
        return self._ordered


def _sweep_pass(plan, models: Mapping, reference, feed) -> None:
    """One pass over the reference's blocks: feed(label, atom, *`_ObsAtom.pair`) per model and atom.

    Each reference block is read once and each of its atoms gathered once;
    then each model's block is read and its atoms gathered and fed in
    turn. A model block is dropped before the next one is read, and the
    reference atoms before the next block, so one model block and one
    reference block's atoms are alive at a time.
    """
    for t0 in range(0, len(reference.time), BLOCK):
        atoms = _spans(plan, t0)
        block = reference.block(t0)
        obs = [_ObsAtom(_gather(block, rows, cells), reference.fill) for _, rows, cells in atoms]
        del block
        for label, source in models.items():
            block = source.block(t0)
            for (a, rows, cells), ref in zip(atoms, obs):
                feed(label, a, *ref.pair(_gather(block, rows, cells), source.fill))
            del block
        del obs


def sweep(models: Mapping, reference, index, bins: int = 100) -> Dict[str, Dict[Tuple, MetricReport]]:
    """{label: {context: report}} for every model of `models` and every context of `index`.

    A source has `time`, `fill` and `block(t0)`, the BLOCK time steps from
    t0 on the grid the index was built for (`CubeBlocks` wraps an in-memory
    cube). There are two passes over the reference's blocks; in each, every
    block of every source is read once and every atom of the index gathered
    once per block and source (`_sweep_pass`).

    Pass 1 feeds each model's atom its own `StreamingPool`, then merges
    every atom pool into the pools of its contexts in atom order; a
    context of one atom copies that atom's pool. Pass 2 sorts each
    gathered atom and counts it against the stacked frozen edges of all
    its contexts (`EdgeStack`), one `searchsorted` per side. Where neither
    side of an atom holds fill, the reference's pass-1 terms and its sort
    are shared by every model (`_ObsAtom`). A context's report depends
    only on its own atoms and its own model, so it is the same whichever
    contexts and models are swept with it.
    """
    plan = _plan(index)
    atom_pools = {label: [StreamingPool(bins=bins) for _ in plan] for label in models}

    def update(label, a, m, o, shared):
        atom_pools[label][a].update(m, o, shared.side if shared else None)

    _sweep_pass(plan, models, reference, update)
    pools = {}
    for label in models:
        pools[label] = [StreamingPool(bins=bins) for _ in index]
        for atom, (_, _, contexts) in zip(atom_pools[label], plan):
            for k in contexts:
                pools[label][k].merge(atom)
        for pool, ((zone, season_id), _, _) in zip(pools[label], index):
            if pool.n < 2:
                raise ValidationError(f"empty pooled sample for {label} in zone={zone!r} season={season_id}")
            pool.freeze()
    stacks = {label: [(EdgeStack([pools[label][k].edges for k in contexts]), [pools[label][k] for k in contexts])
                      for _, _, contexts in plan] for label in models}

    def count(label, a, m, o, shared):
        stack, targets = stacks[label][a]
        if stack.rows:
            m.sort()  # pair() made it fresh, so it sorts in place
            if shared:
                o = shared.ordered()
            else:
                o.sort()
            for r, hist_m, hist_o in zip(stack.rows, stack.counts(m), stack.counts(o)):
                targets[r].add_counts(hist_m, hist_o)

    _sweep_pass(plan, models, reference, count)
    return {label: {ctx: pool.report() for pool, (ctx, _, _) in zip(pools[label], index)} for label in models}


def full_report(
    model: DataCube,
    obs: DataCube,
    mask: ZoneMask,
    zone,
    season: str,
    bins: int = 100,
) -> MetricReport:
    """Every metric of one (zone, season id) context of two in-memory cubes.

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
    index = context_index(obs.months(), mask, {zone: zone}, (season,))
    (report,) = sweep({"model": CubeBlocks(model)}, CubeBlocks(obs), index, bins)["model"].values()
    return report


class EdgeStack:
    """The frozen bin edges of several contexts, stacked so one `searchsorted` counts a sorted chunk for all.

    `rows` lists the positions of the contexts that have edges; a context
    whose range holds none (`hist_edges` gave None) takes no counts. Each
    row of `counts` equals `np.histogram`'s counts on that context's edges:
    with the last edge raised to the next float, v <= e becomes v < e', so
    every count is a difference of left insertion points.
    """

    def __init__(self, edges: Sequence[Optional[np.ndarray]]):
        self.rows = [i for i, e in enumerate(edges) if e is not None]
        queries = [np.append(edges[i][:-1], np.nextafter(edges[i][-1], np.inf)) for i in self.rows]
        self._queries = np.concatenate(queries) if queries else np.zeros(0)

    def counts(self, values: np.ndarray) -> np.ndarray:
        """(len(rows) x bins) counts of ascending `values`; values outside a context's edges are not counted."""
        idx = np.searchsorted(values, self._queries).reshape(len(self.rows), -1)
        return idx[:, 1:] - idx[:, :-1]


def _side(v: np.ndarray, pivot: float):
    """The pass-1 terms of one side of a paired chunk: (v - pivot, its sum, its sum of squares, min v, max v)."""
    d = v - pivot
    return d, float(np.sum(d)), float(np.sum(d * d)), float(np.min(v)), float(np.max(v))


# The pass-1 state of a StreamingPool: what `update` accumulates and `merge` folds.
_PASS1_STATE = ("n", "_pivot_m", "_pivot_o", "_sm", "_so", "_smm", "_soo", "_smo", "_sdd",
                "_min_m", "_max_m", "_min_o", "_max_o")


class StreamingPool:
    """The one metric accumulator: every report is read from one of these.

    It takes the paired chunks of one context in two passes, so memory is
    bounded by the chunk, not the pooled sample. Pass 1 (`update`)
    accumulates shifted moments, extremes and the count, and `merge` adds
    the pass-1 state of a pool fed a disjoint part; `freeze` then fixes the
    shared bin `edges` from the extremes, and pass 2 adds the counts an
    `EdgeStack` made of sorted values against them (`add_counts`). Moments
    are accumulated around the first value seen, which keeps the centered
    statistics well-conditioned for large pooled counts. `report` flags the
    metrics a degenerate sample cannot support.
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
        self.edges = None

    def update(self, m: np.ndarray, o: np.ndarray, obs_side=None) -> None:
        """Add one paired chunk to pass 1.

        `obs_side(pivot)`, when given, returns `_side(o, pivot)`: a caller
        that feeds the same reference chunk to several pools computes those
        terms once per pivot.
        """
        m = np.asarray(m, dtype=np.float64).ravel()
        o = np.asarray(o, dtype=np.float64).ravel()
        if m.size != o.size:
            raise ValidationError("paired chunks differ in length")
        if m.size == 0:
            return
        if self.n == 0:
            self._pivot_m = float(m[0])
            self._pivot_o = float(o[0])
        dm, sm, smm, min_m, max_m = _side(m, self._pivot_m)
        do, so, soo, min_o, max_o = obs_side(self._pivot_o) if obs_side else _side(o, self._pivot_o)
        self.n += m.size
        self._sm += sm
        self._so += so
        self._smm += smm
        self._soo += soo
        self._smo += float(np.sum(dm * do))
        self._sdd += float(np.sum((m - o) ** 2))
        self._min_m = min(self._min_m, min_m)
        self._max_m = max(self._max_m, max_m)
        self._min_o = min(self._min_o, min_o)
        self._max_o = max(self._max_o, max_o)

    def merge(self, other: "StreamingPool") -> None:
        """Fold another pool's pass-1 state into this one, before `freeze`.

        Count and extremes merge exactly. The other pool's shifted sums move
        to this pool's pivot by the pairwise update of Chan, Golub & LeVeque
        (1979), with Pebay (2008) for the cross term: with d = p' - p and
        k = other.n, S += S' + k d, S2 += S2' + 2 d S' + k d^2. Merging into
        an empty pool copies the other's state bit for bit.
        """
        if self._hist_m is not None:
            raise ValidationError("merge() must run before freeze()")
        if other.n == 0:
            return
        if self.n == 0:
            for name in _PASS1_STATE:
                setattr(self, name, getattr(other, name))
            return
        k = other.n
        dm = other._pivot_m - self._pivot_m
        do = other._pivot_o - self._pivot_o
        self._smm += other._smm + 2.0 * dm * other._sm + k * dm * dm
        self._soo += other._soo + 2.0 * do * other._so + k * do * do
        self._smo += other._smo + dm * other._so + do * other._sm + k * dm * do
        self._sm += other._sm + k * dm
        self._so += other._so + k * do
        self._sdd += other._sdd
        self.n += k
        self._min_m = min(self._min_m, other._min_m)
        self._max_m = max(self._max_m, other._max_m)
        self._min_o = min(self._min_o, other._min_o)
        self._max_o = max(self._max_o, other._max_o)

    def freeze(self) -> None:
        """Fix histogram edges from pass-1 extremes; call before the histogram pass."""
        if self.n < 2:
            raise ValidationError("empty pooled sample")
        lo = min(self._min_m, self._min_o)
        hi = max(self._max_m, self._max_o)
        self.edges = hist_edges(lo, hi, self.bins)
        self._hist_m = np.zeros(self.bins, dtype=np.int64)
        self._hist_o = np.zeros(self.bins, dtype=np.int64)

    def add_counts(self, hist_m: np.ndarray, hist_o: np.ndarray) -> None:
        """Add pass-2 bin counts of model and reference values, counted against this pool's frozen `edges`."""
        self._hist_m += hist_m
        self._hist_o += hist_o

    def report(self) -> MetricReport:
        """Every metric of the pooled pairs (M model, O reference, n pairs).

        bias = mean(M) - mean(O); rmse = sqrt(mean((M - O)^2)); r is the
        product-moment correlation and r2 its square; nse = 1 - sum((O -
        M)^2) / sum((O - mean(O))^2); kge = 1 - sqrt((r - 1)^2 + (beta -
        1)^2 + (gamma - 1)^2) with beta = mean(M) / mean(O) and the
        coefficient-of-variation ratio gamma = (sd(M) / mean(M)) / (sd(O) /
        mean(O)) (Kling, Fuchs & Paulin 2012); pdf_overlap is the sum of
        per-bin minima of the two count fractions on the shared bins, and 1
        when the range holds no bins; txx_err = |max(M) - max(O)|, tnn_err
        = |min(M) - min(O)|; sd_diff = |sd(M) - sd(O)|. r and r2 need both
        series to vary, nse a varying reference, and kge both besides
        non-zero means; a metric that lacks its condition is None and
        flagged.
        """
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
        if self.edges is None:
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
