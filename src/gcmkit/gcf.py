"""Gridded Climate Format (GCF) codec and CSV ingestion.

A GCF dataset is a directory holding two files:

  header.json   variable, units, calendar, fill_value,
                dims = [nt, nlat, nlon], lat[], lon[],
                time[] as ISO "YYYY-MM-DD" strings
  data.bin      little-endian 32-bit floats, row-major in
                (time, lat, lon) order, exactly nt*nlat*nlon values

Zone masks use the same layout with nt = 1 and integer-valued floats.
Values compare against the fill sentinel after the float32 round trip, so
the sentinel must be exactly representable in float32 (the default
-9999.0 is). In-memory cubes hold float64; storage is float32 by
definition, so a write-read round trip is bit-identical exactly when the
payload is float32-representable.

For tiny fixtures a CSV path (columns: date, lat, lon, value) is accepted
and converted to a cube; the rows must tile a complete date x lat x lon
grid with no duplicates.
"""

import csv
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .artifacts import write_files
from .errors import ValidationError
from .geogrid import CALENDARS, DataCube, Date, GridAxis, ZoneMask, validate_times

_HEADER = "header.json"
_PAYLOAD = "data.bin"
_REQUIRED_KEYS = ("variable", "units", "calendar", "fill_value", "dims", "lat", "lon", "time")


def _format_date(date) -> str:
    y, m, d = date
    return f"{y:04d}-{m:02d}-{d:02d}"


def _parse_date(text: str) -> Tuple[int, int, int]:
    parts = text.split("-")
    if len(parts) != 3:
        raise ValidationError(f"bad ISO date {text!r}")
    try:
        y, m, d = (int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"bad ISO date {text!r}") from None
    return (y, m, d)


def canonical_fill(fill: float) -> float:
    """The fill sentinel as it survives the float32 storage round trip."""
    return float(np.float32(fill))


def encode_cube(cube: DataCube) -> Dict[str, bytes]:
    """The GCF files of a cube as {file name: bytes}."""
    if len(cube.time) == 0:
        raise ValidationError("empty cube rejected")
    header = {
        "variable": cube.variable,
        "units": cube.units,
        "calendar": cube.calendar,
        "fill_value": float(cube.fill),
        "dims": [len(cube.time), len(cube.lat), len(cube.lon)],
        "lat": [float(v) for v in cube.lat.values],
        "lon": [float(v) for v in cube.lon.values],
        "time": [_format_date(t) for t in cube.time],
    }
    payload = np.ascontiguousarray(cube.data, dtype="<f4").tobytes()
    return {_HEADER: json.dumps(header, sort_keys=True, separators=(",", ":")).encode(), _PAYLOAD: payload}


def write_cube(cube: DataCube, path: str) -> None:
    """Write a cube as a GCF directory (created if missing)."""
    write_files(path, encode_cube(cube))


def _load_header(path: str) -> dict:
    header_path = os.path.join(path, _HEADER)
    if not os.path.isfile(header_path):
        raise ValidationError(f"no {_HEADER} under {path}")
    try:
        with open(header_path) as fh:
            header = json.load(fh)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ValidationError(f"malformed header in {path}: {exc}") from None
    if not isinstance(header, dict):
        raise ValidationError(f"header in {path} is not a JSON object")
    missing = [k for k in _REQUIRED_KEYS if k not in header]
    if missing:
        raise ValidationError(f"header in {path} missing keys: {missing}")

    def all_of(types, values):
        return all(type(v) in types for v in values)  # exact types: a bool is no number here

    checks = [
        ("variable", type(header["variable"]) is str, "a string"),
        ("units", type(header["units"]) is str, "a string"),
        ("fill_value", type(header["fill_value"]) in (int, float), "a number"),
        ("lat", type(header["lat"]) is list and all_of((int, float), header["lat"]), "a list of numbers"),
        ("lon", type(header["lon"]) is list and all_of((int, float), header["lon"]), "a list of numbers"),
        ("time", type(header["time"]) is list and all_of((str,), header["time"]), "a list of date strings"),
    ]
    for key, ok, what in checks:
        if not ok:
            raise ValidationError(f"header in {path}: {key} must be {what}, got {type(header[key]).__name__}")
    dims = header["dims"]
    if not (isinstance(dims, list) and len(dims) == 3 and all(isinstance(v, int) and v > 0 for v in dims)):
        raise ValidationError(f"header in {path}: dims must be three positive integers, got {dims!r}")
    if header["calendar"] not in CALENDARS:
        raise ValidationError(f"header in {path} declares unknown calendar {header['calendar']!r}")
    if len(header["lat"]) != dims[1] or len(header["lon"]) != dims[2] or len(header["time"]) != dims[0]:
        raise ValidationError(f"header axis lengths disagree with dims in {path}")
    return header


@dataclass(frozen=True, eq=False)
class CubeHeader:
    """The validated header of a GCF directory: a cube's axes and metadata without its payload."""

    lat: GridAxis
    lon: GridAxis
    time: Tuple[Date, ...]
    calendar: str
    variable: str
    units: str
    fill: float  # canonical, see `canonical_fill`


def read_header(path: str) -> CubeHeader:
    """Read and validate a GCF header: keys, dims, both axes and every date."""
    return _parse_header(path, _load_header(path))


def _parse_header(path: str, header: dict) -> CubeHeader:
    try:
        lat = GridAxis(np.asarray(header["lat"], dtype=np.float64), "lat")
        lon = GridAxis(np.asarray(header["lon"], dtype=np.float64), "lon")
        time = validate_times(header["calendar"], [_parse_date(t) for t in header["time"]])
    except ValidationError as exc:
        raise ValidationError(f"header in {path}: {exc}") from None
    return CubeHeader(lat, lon, time, header["calendar"], header["variable"], header["units"],
                      canonical_fill(header["fill_value"]))


def read_cube(path: str) -> DataCube:
    """Read and validate a GCF directory into a DataCube."""
    header = _load_header(path)
    head = _parse_header(path, header)
    ((_, values),) = _chunks(path, header, len(head.time))
    return DataCube(head.lat, head.lon, head.time, head.calendar, head.variable, values, head.fill, head.units)


def iter_time_chunks(path: str, chunk: int):
    """Yield (t0, block) pairs of float64 time slabs without loading the cube.

    The one payload reader: every `run_rank` source streams through it in
    chunks of `chunk` time steps, and `read_cube` takes the whole payload
    as one chunk. Only the header keys and dims are checked here; validate
    the axes and dates once with `read_header`. A non-finite value fails
    with the path, its time index and its date.
    """
    yield from _chunks(path, _load_header(path), chunk)


def _chunks(path: str, header: dict, chunk: int):
    nt, nlat, nlon = header["dims"]
    slab = nlat * nlon
    payload_path = os.path.join(path, _PAYLOAD)
    if not os.path.isfile(payload_path):
        raise ValidationError(f"no {_PAYLOAD} under {path}")
    if os.path.getsize(payload_path) != 4 * nt * slab:
        raise ValidationError(f"payload size disagrees with header dims in {path}")
    with open(payload_path, "rb") as fh:
        for t0 in range(0, nt, chunk):
            n = min(chunk, nt - t0)
            raw = np.frombuffer(fh.read(4 * n * slab), dtype="<f4")
            finite = np.isfinite(raw)
            if not finite.all():
                t = t0 + int(np.argmin(finite)) // slab
                raise ValidationError(f"payload in {path} is non-finite at time index {t} ({header['time'][t]})")
            yield t0, raw.astype(np.float64).reshape(n, nlat, nlon)


def write_mask(mask: ZoneMask, path: str) -> None:
    """Write a zone mask as a single-time GCF cube of integer-valued floats."""
    cube = DataCube(
        lat=mask.lat,
        lon=mask.lon,
        time=((1, 1, 1),),
        calendar="standard",
        variable="zone_mask",
        data=mask.codes[None, :, :].astype(np.float64),
        fill=-9999.0,
        units="code",
    )
    write_cube(cube, path)


def read_mask(path: str) -> ZoneMask:
    cube = read_cube(path)
    if len(cube.time) != 1:
        raise ValidationError(f"zone mask must have exactly one time step, got {len(cube.time)}")
    codes = cube.data[0]
    if np.any(codes != np.round(codes)):
        raise ValidationError("zone mask payload is not integer-valued")
    return ZoneMask(cube.lat, cube.lon, codes.astype(np.int64))


def read_csv_cube(
    path: str,
    variable: str = "value",
    units: str = "degC",
    calendar: str = "standard",
    fill: float = -9999.0,
) -> DataCube:
    """Build a cube from a (date, lat, lon, value) CSV fixture."""
    rows: List[Tuple[str, float, float, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header] != ["date", "lat", "lon", "value"]:
            raise ValidationError(f"{path}: expected header 'date,lat,lon,value', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            try:
                rows.append((row[0].strip(), float(row[1]), float(row[2]), float(row[3])))
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: non-numeric coordinate or value") from None
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    dates = sorted({r[0] for r in rows})
    lats = np.array(sorted({r[1] for r in rows}))
    lons = np.array(sorted({r[2] for r in rows}))
    index = {}
    for date, lat, lon, value in rows:
        key = (date, lat, lon)
        if key in index:
            raise ValidationError(f"{path}: duplicate row for {key}")
        index[key] = value
    gaps = [
        (d, la, lo)
        for d in dates
        for la in lats
        for lo in lons
        if (d, la, lo) not in index
    ]
    if gaps:
        shown = ", ".join(f"({d}, {la}, {lo})" for d, la, lo in gaps[:5])
        raise ValidationError(f"{path}: ragged grid, {len(gaps)} missing combinations, first: {shown}")

    data = np.array(
        [[[index[(d, la, lo)] for lo in lons] for la in lats] for d in dates]
    )
    return DataCube(
        lat=GridAxis(lats, "lat"),
        lon=GridAxis(lons, "lon"),
        time=tuple(_parse_date(d) for d in dates),
        calendar=calendar,
        variable=variable,
        data=data,
        fill=fill,
        units=units,
    )
