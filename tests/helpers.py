"""Test-only data builders: the capacity overfit set and a tiny ingest CSV."""

import os

from gcmkit.artifacts import write_files
from gcmkit.downscale import DownscaleDataset, make_dataset


def capacity_set(seed: int = 90210) -> DownscaleDataset:
    """The fixed 8-sample overfit set: clean pairing, no bias, no noise.

    Windows sit 40 days apart so the samples are decorrelated; consecutive
    windows would be near-duplicates and turn a capacity check into a
    near-duplicate discrimination problem.
    """
    spacing = 40
    full = make_dataset(seed, 8 * spacing + 1, t=4, fine_hw=(64, 64), factor=4, bias=0.0, noise_sd=0.0)
    return full.subset(list(range(0, 8 * spacing, spacing)))


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
