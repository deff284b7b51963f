"""Bundled synthetic end-to-end fixtures.

The ranking fixture builds one fine-grid reference cube, three coarse
candidate cubes with known defects (essentially unbiased, +2 degC warm
bias, heavy noise), a banded five-zone mask with scattered ocean cells,
and a ready-to-run pipeline config. The unbiased candidate dominates on
every criterion by construction, which gives the end-to-end tests a known
correct ranking in every (zone, season) context.
"""

import os
from typing import Dict

import numpy as np

from . import gcf
from .artifacts import json_text, write_files
from .geogrid import DataCube, GridAxis, LAND_ZONES, ZoneMask, synth_pair
from .rng import SplitMix64

GOOD_MODEL = "acc-good"
BIASED_MODEL = "warm-bias"
NOISY_MODEL = "noisy"


def banded_zone_mask(lat: GridAxis, lon: GridAxis, seed: int = 7, ocean_frac: float = 0.1) -> ZoneMask:
    """Latitude-banded zones (tropical south through polar north) with a
    deterministic sprinkle of ocean cells."""
    nlat, nlon = len(lat), len(lon)
    codes = np.zeros((nlat, nlon), dtype=np.int64)
    edges = np.linspace(0, nlat, len(LAND_ZONES) + 1).astype(int)
    for zone, (lo, hi) in zip(LAND_ZONES, zip(edges[:-1], edges[1:])):
        codes[lo:hi, :] = zone
    rng = SplitMix64(seed)
    n_ocean = int(round(ocean_frac * nlat * nlon))
    flat = rng.permutation(nlat * nlon)[:n_ocean]
    codes.reshape(-1)[flat] = 0
    return ZoneMask(lat, lon, codes)


def make_ranking_fixture(out_dir: str, seed: int = 4242, nlat: int = 20, nlon: int = 20, nt: int = 365) -> Dict[str, str]:
    """Write the three-model ranking fixture and its config; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    factor = 2
    coarse_truth, obs = synth_pair(seed, factor, nt, nlat, nlon, bias=0.0, noise_sd=0.0)

    rng = SplitMix64(seed).split()
    shape = coarse_truth.shape
    base = coarse_truth.data

    def coarse_cube(data):
        return DataCube(
            lat=coarse_truth.lat,
            lon=coarse_truth.lon,
            time=coarse_truth.time,
            calendar=coarse_truth.calendar,
            variable="dtr",
            data=data,
        )

    models = {
        GOOD_MODEL: coarse_cube(base + 0.1 * rng.normal(shape)),
        BIASED_MODEL: coarse_cube(base + 2.0 + 0.1 * rng.normal(shape)),
        NOISY_MODEL: coarse_cube(base + 3.0 * rng.normal(shape)),
    }

    paths = {"obs": os.path.join(out_dir, "obs"), "mask": os.path.join(out_dir, "mask")}
    gcf.write_cube(obs.with_variable("dtr"), paths["obs"])
    mask = banded_zone_mask(obs.lat, obs.lon, seed=seed)
    gcf.write_mask(mask, paths["mask"])
    model_entries = []
    for label, cube in models.items():
        path = os.path.join(out_dir, f"model_{label}")
        gcf.write_cube(cube, path)
        paths[label] = path
        model_entries.append({"label": label, "path": path})

    config = {
        "schema_version": 1,
        "seed": seed,
        "reference": {"path": paths["obs"]},
        "models": model_entries,
        "mask": paths["mask"],
        "seasons": ["DJF", "MAM", "JJA", "SON", "ANNUAL"],
        "zones": ["tropical", "arid", "temperate", "continental", "polar", "overall"],
        "weights": "train",
        "pdf_bins": 100,
    }
    paths["config"] = os.path.join(out_dir, "config.json")
    write_files(out_dir, {"config.json": json_text(config).encode()})
    return paths


def make_csv_fixture(path: str) -> str:
    """An 8-row CSV covering a 2x2x2 (date, lat, lon) grid."""
    rows = ["date,lat,lon,value"]
    value = 1.0
    for date in ("1985-01-01", "1985-01-02"):
        for lat in ("40.0", "41.0"):
            for lon in ("10.0", "11.0"):
                rows.append(f"{date},{lat},{lon},{value}")
                value += 0.5
    write_files(os.path.dirname(path) or ".", {os.path.basename(path): ("\n".join(rows) + "\n").encode()})
    return path
