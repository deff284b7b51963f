"""Gridded-data model: axes, cubes, zone masks, seasons and regridding.

A season is the set of months it pools (`SEASONS`); `metrics.context_index`
turns it into time rows, the one season partition every report uses. All
containers are immutable after construction (their numpy payloads are
marked read-only), so they are safe to share across threads. Operations
return new objects and never interpolate through missing values: a fill
cell stays fill, and any output that touches a fill neighbor becomes fill.
"""

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from .errors import ValidationError
from .rng import SplitMix64

CALENDARS = ("standard", "noleap", "360_day")

_DAYS_STD = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# Zone codes used by ZoneMask rasters; 0 is ocean.
ZONE_TROPICAL = 1
ZONE_ARID = 2
ZONE_TEMPERATE = 3
ZONE_CONTINENTAL = 4
ZONE_POLAR = 5
LAND_ZONES = (ZONE_TROPICAL, ZONE_ARID, ZONE_TEMPERATE, ZONE_CONTINENTAL, ZONE_POLAR)
ZONE_NAMES = {
    ZONE_TROPICAL: "tropical",
    ZONE_ARID: "arid",
    ZONE_TEMPERATE: "temperate",
    ZONE_CONTINENTAL: "continental",
    ZONE_POLAR: "polar",
}

Date = Tuple[int, int, int]


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def days_in_month(calendar: str, year: int, month: int) -> int:
    if calendar == "360_day":
        return 30
    days = _DAYS_STD[month - 1]
    if month == 2 and calendar == "standard" and _is_leap(year):
        days = 29
    return days


def validate_date(calendar: str, date: Date) -> None:
    year, month, day = date
    if calendar not in CALENDARS:
        raise ValidationError(f"unknown calendar {calendar!r}")
    if not 1 <= month <= 12:
        raise ValidationError(f"month out of range in date {date}")
    if not 1 <= day <= days_in_month(calendar, year, month):
        raise ValidationError(f"day {day} invalid for {year}-{month:02d} under {calendar} calendar")


def validate_times(calendar: str, time) -> Tuple[Date, ...]:
    """A time axis as a tuple of int dates: non-empty, valid under `calendar`, strictly increasing."""
    if calendar not in CALENDARS:
        raise ValidationError(f"unknown calendar {calendar!r}")
    times = tuple(tuple(int(v) for v in t) for t in time)
    if len(times) == 0:
        raise ValidationError("empty cube rejected: at least one time step required")
    for t in times:
        validate_date(calendar, t)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("time axis must be strictly increasing")
    return times


def next_date(calendar: str, date: Date) -> Date:
    """The day after `date` under the given calendar."""
    year, month, day = date
    if day < days_in_month(calendar, year, month):
        return (year, month, day + 1)
    if month < 12:
        return (year, month + 1, 1)
    return (year + 1, 1, 1)


def date_range(calendar: str, start: Date, n: int) -> List[Date]:
    """n consecutive days starting at `start`."""
    validate_date(calendar, start)
    out = [start]
    for _ in range(n - 1):
        out.append(next_date(calendar, out[-1]))
    return out


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GridAxis:
    """Strictly increasing coordinate vector (degrees)."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 2:
            raise ValidationError(f"axis {self.name!r} needs at least 2 values on one dimension")
        if not np.all(np.diff(vals) > 0):
            raise ValidationError(f"axis {self.name!r} must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValidationError(f"axis {self.name!r} contains non-finite values")
        if self.name == "lat" and (vals[0] < -90.0 or vals[-1] > 90.0):
            raise ValidationError("latitudes must lie within [-90, 90]")
        if self.name == "lon" and (vals[0] < -180.0 or vals[-1] >= 360.0):
            raise ValidationError("longitudes must lie within [-180, 360)")
        object.__setattr__(self, "values", _readonly(vals))

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        return (
            isinstance(other, GridAxis)
            and self.name == other.name
            and self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
        )


@dataclass(frozen=True, eq=False)
class DataCube:
    """3-D (time x lat x lon) gridded variable under a declared calendar."""

    lat: GridAxis
    lon: GridAxis
    time: Tuple[Date, ...]
    calendar: str
    variable: str
    data: np.ndarray
    fill: float = -9999.0
    units: str = "degC"

    def __post_init__(self):
        times = validate_times(self.calendar, self.time)
        data = np.asarray(self.data, dtype=np.float64)
        expect = (len(times), len(self.lat), len(self.lon))
        if data.shape != expect:
            raise ValidationError(f"cube shape {data.shape} does not match axes {expect}")
        if not np.all(np.isfinite(data[data != self.fill])):
            raise ValidationError("cube contains non-finite values outside the fill sentinel")
        object.__setattr__(self, "time", times)
        object.__setattr__(self, "data", _readonly(data))

    @property
    def shape(self):
        return self.data.shape

    def months(self) -> np.ndarray:
        return np.array([m for (_, m, _) in self.time], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class ZoneMask:
    """Integer zone-code raster; 0 is ocean/undefined, 1..5 the land zones."""

    lat: GridAxis
    lon: GridAxis
    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if not np.issubdtype(codes.dtype, np.integer):
            if not np.all(codes == np.round(codes)):
                raise ValidationError("zone codes must be integer-valued")
            codes = codes.astype(np.int64)
        else:
            codes = codes.astype(np.int64)
        if codes.shape != (len(self.lat), len(self.lon)):
            raise ValidationError(
                f"mask shape {codes.shape} does not match axes ({len(self.lat)}, {len(self.lon)})"
            )
        bad = set(np.unique(codes)) - {0, 1, 2, 3, 4, 5}
        if bad:
            raise ValidationError(f"zone codes outside 0..5: {sorted(bad)}")
        codes = np.ascontiguousarray(codes)
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)


# Each season is the set of months it pools: the four meteorological
# seasons, which tile the year, and the full year.
SEASONS = {
    "DJF": frozenset({12, 1, 2}),
    "MAM": frozenset({3, 4, 5}),
    "JJA": frozenset({6, 7, 8}),
    "SON": frozenset({9, 10, 11}),
    "ANNUAL": frozenset(range(1, 13)),
}


def _bracket(src: np.ndarray, dst: np.ndarray):
    """Lower neighbor index and fractional position for each dst coordinate.

    Targets outside the source span clamp to the nearest edge, which makes
    the weight collapse onto the boundary node.
    """
    x = np.clip(dst, src[0], src[-1])
    i0 = np.searchsorted(src, x, side="right") - 1
    i0 = np.clip(i0, 0, src.size - 2)
    t = (x - src[i0]) / (src[i0 + 1] - src[i0])
    return i0, t


def bilinear_weights(src_lat: GridAxis, src_lon: GridAxis, dst_lat: GridAxis, dst_lon: GridAxis):
    """The four bracketing corners of every target cell, as (flat source index, weight) pairs.

    They depend only on the axes, so a source regridded block by block
    computes them once; `bilinear_blend` applies them.
    """
    if len(src_lat) < 2 or len(src_lon) < 2:
        raise ValidationError("regridding needs at least 2 source nodes per axis")
    i0, ty = _bracket(src_lat.values, dst_lat.values)
    j0, tx = _bracket(src_lon.values, dst_lon.values)
    ty, tx = ty[:, None], tx[None, :]
    corners = ((0, 0, (1.0 - ty) * (1.0 - tx)), (0, 1, (1.0 - ty) * tx), (1, 0, ty * (1.0 - tx)), (1, 1, ty * tx))
    return tuple((((i0[:, None] + di) * len(src_lon) + j0[None, :] + dj).ravel(), w) for di, dj, w in corners)


def bilinear_blend(data: np.ndarray, corners, fill: float) -> np.ndarray:
    """The kernel of `regrid_bilinear`: blend each (lat x lon) slice of `data`.

    Returns a new C-contiguous (time x lat x lon) array on the target grid.
    Each corner is weighted in its own gather buffer and added into the
    first one, so the blend is w0*c0 + w1*c1 + w2*c2 + w3*c3 summed left to
    right, without a temporary per product or partial sum.
    """
    flat = data.reshape(len(data), -1)

    def corner(index, w):
        return flat.take(index, axis=1).reshape(len(data), *w.shape)

    def weighted(index, w):
        c = corner(index, w)
        c *= w
        return c

    first, *rest = corners
    out = weighted(*first)
    for index, w in rest:
        out += weighted(index, w)
    if (flat == fill).any():  # only a block that holds fill can need the fill rule
        for index, w in corners:
            out[(corner(index, w) == fill) & (w != 0.0)] = fill
    return out


def regrid_bilinear(src: DataCube, dst_lat: GridAxis, dst_lon: GridAxis) -> DataCube:
    """Bilinear interpolation of every time slice onto a new lat/lon grid.

    Each output value blends the 4 surrounding source nodes; if a node with
    a non-zero weight is fill, the output is fill. Interpolating onto the
    source axes is an exact identity, fill cells included.
    """
    out = bilinear_blend(src.data, bilinear_weights(src.lat, src.lon, dst_lat, dst_lon), src.fill)
    return DataCube(dst_lat, dst_lon, src.time, src.calendar, src.variable, out, src.fill, src.units)


def check_dtr_pair(tasmax, tasmin) -> None:
    """tasmax and tasmin (cubes or headers) must share axes, times, calendar and units."""
    if (tasmax.lat, tasmax.lon, tasmax.time, tasmax.calendar) != (tasmin.lat, tasmin.lon, tasmin.time, tasmin.calendar):
        raise ValidationError("tasmax and tasmin cubes must share axes, times and calendar")
    if tasmax.units != tasmin.units:
        raise ValidationError(f"unit mismatch: {tasmax.units!r} vs {tasmin.units!r}")


def dtr_values(hi: np.ndarray, lo: np.ndarray, fill_hi: float, fill_lo: float, where) -> np.ndarray:
    """The kernel of `derive_dtr`: hi - lo, fill where either side is fill.

    A non-fill cell with lo > hi fails; `where(t, y, x)` names the first one.
    """
    missing = (hi == fill_hi) | (lo == fill_lo)
    inverted = (~missing) & (lo > hi)
    if np.any(inverted):
        t, y, x = np.argwhere(inverted)[0]
        raise ValidationError(
            f"tasmin exceeds tasmax at {int(np.count_nonzero(inverted))} cells, first at {where(t, y, x)}"
        )
    return np.where(missing, fill_hi, hi - lo)


def derive_dtr(tasmax: DataCube, tasmin: DataCube) -> DataCube:
    """Diurnal temperature range: elementwise tasmax minus tasmin."""
    check_dtr_pair(tasmax, tasmin)
    lat, lon = tasmax.lat.values, tasmax.lon.values
    out = dtr_values(tasmax.data, tasmin.data, tasmax.fill, tasmin.fill,
                     where=lambda t, y, x: f"(t={t}, lat={lat[y]}, lon={lon[x]})")
    return replace(tasmax, data=out, variable="dtr")


def block_mean(data: np.ndarray, factor: int) -> np.ndarray:
    """Mean-pool the trailing two axes by an integer factor."""
    *lead, h, w = data.shape
    if h % factor or w % factor:
        raise ValidationError(f"factor {factor} does not divide spatial dims ({h}, {w})")
    shaped = data.reshape(*lead, h // factor, factor, w // factor, factor)
    return shaped.mean(axis=(-3, -1))


def _block_centers(vals: np.ndarray, factor: int) -> np.ndarray:
    return vals.reshape(-1, factor).mean(axis=1)


def synth_pair(
    seed: int,
    coarse_factor: int,
    nt: int,
    nlat: int,
    nlon: int,
    bias: float = 0.0,
    noise_sd: float = 0.0,
) -> Tuple[DataCube, DataCube]:
    """Deterministic synthetic (coarse, fine) cube pair for desk-scale runs.

    The fine field is a fixed-count mixture of random sinusoids (smooth, so
    a downscaler has learnable sub-grid structure); the coarse field is the
    block-mean of the fine field plus `bias` and Gaussian noise. nlat/nlon
    are the fine-grid dimensions and must be divisible by `coarse_factor`.

    Wave k is amp_k * sin(A_k + B_k) with a spatial phase
    A_k = 2 pi (f_lat y + f_lon x) + phase and a temporal one
    B_k = 2 pi f_t t / 100. It is evaluated separably, as
    sin A_k cos B_k + cos A_k sin B_k, so the whole field is one
    (nt x 12) @ (12 x cells) product instead of six sines over the cube.
    The values match the direct per-wave formula to rounding (about 1e-14),
    not bit for bit.
    """
    if coarse_factor < 2:
        raise ValidationError("coarse_factor must be >= 2")
    if nlat % coarse_factor or nlon % coarse_factor:
        raise ValidationError(f"coarse_factor {coarse_factor} must divide nlat={nlat} and nlon={nlon}")
    root = SplitMix64(seed)
    r_field = root.split()
    r_noise = root.split()

    lat = GridAxis(40.05 + 0.1 * np.arange(nlat), "lat")
    lon = GridAxis(0.05 + 0.1 * np.arange(nlon), "lon")
    times = tuple(date_range("standard", (1985, 1, 1), nt))

    yy = np.linspace(0.0, 1.0, nlat)[:, None]
    xx = np.linspace(0.0, 1.0, nlon)[None, :]
    tt = np.arange(nt, dtype=np.float64)

    n_waves = 6
    temporal = np.empty((nt, 2 * n_waves))  # amp cos B_k | amp sin B_k
    spatial = np.empty((2 * n_waves, nlat * nlon))  # sin A_k | cos A_k
    for k in range(n_waves):
        amp = 2.4 / (k + 1)
        f_lat = r_field.uniform(low=0.5, high=3.5)
        f_lon = r_field.uniform(low=0.5, high=3.5)
        f_t = r_field.uniform(low=0.5, high=2.0)
        phase = r_field.uniform(low=0.0, high=2.0 * np.pi)
        a = (2.0 * np.pi * (f_lat * yy + f_lon * xx) + phase).reshape(-1)
        b = 2.0 * np.pi * f_t * tt / 100.0
        temporal[:, 2 * k] = amp * np.cos(b)
        temporal[:, 2 * k + 1] = amp * np.sin(b)
        spatial[2 * k] = np.sin(a)
        spatial[2 * k + 1] = np.cos(a)
    fine = (temporal @ spatial).reshape(nt, nlat, nlon)
    fine += 15.0

    coarse = block_mean(fine, coarse_factor) + bias
    if noise_sd > 0.0:
        coarse = coarse + noise_sd * r_noise.normal(coarse.shape)

    clat = GridAxis(_block_centers(lat.values, coarse_factor), "lat")
    clon = GridAxis(_block_centers(lon.values, coarse_factor), "lon")
    fine_cube = DataCube(lat, lon, times, "standard", "synthetic", fine)
    coarse_cube = DataCube(clat, clon, times, "standard", "synthetic", coarse)
    return coarse_cube, fine_cube
