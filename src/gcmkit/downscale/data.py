"""Window datasets for downscaler training and the bundled synthetic sets.

A dataset slices a (coarse, fine) cube pair into overlapping length-t
windows: the input is t consecutive coarse frames, the target the fine
field at the window's last frame. Sample order follows the time axis, so
subsets taken with sorted indices can be reassembled into valid cubes.
"""

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .. import gcf
from ..errors import ValidationError
from ..geogrid import DataCube, GridAxis, synth_pair
from ..rng import SplitMix64
from ..spec import Field, parse

# the keys of a `--data` pair spec
PAIR_FIELDS = (
    Field("coarse", (str,), what="a path string"),
    Field("fine", (str,), what="a path string"),
    Field("window", (int,), 4, low=1),
)


@dataclass(eq=False)
class DownscaleDataset:
    inputs: np.ndarray  # (n, t, 1, h_c, w_c)
    targets: np.ndarray  # (n, h_f, w_f)
    times: Tuple  # target-frame date per sample
    calendar: str
    coarse_lat: GridAxis
    coarse_lon: GridAxis
    fine_lat: GridAxis
    fine_lon: GridAxis

    def __post_init__(self):
        n, t, c, hc, wc = self.inputs.shape
        nf, hf, wf = self.targets.shape
        if nf != n or len(self.times) != n:
            raise ValidationError("dataset arrays disagree on sample count")
        if hf % hc or wf % wc or hf // hc != wf // wc:
            raise ValidationError(f"fine grid {(hf, wf)} is not an integer multiple of coarse {(hc, wc)}")

    def __len__(self):
        return self.inputs.shape[0]

    @property
    def factor(self) -> int:
        return self.targets.shape[1] // self.inputs.shape[3]

    @property
    def coarse_hw(self) -> Tuple[int, int]:
        return self.inputs.shape[3], self.inputs.shape[4]

    def subset(self, idx: Sequence[int]) -> "DownscaleDataset":
        idx = list(idx)
        if sorted(idx) != idx:
            raise ValidationError("subset indices must be sorted to keep the time axis valid")
        return replace(
            self,
            inputs=self.inputs[idx],
            targets=self.targets[idx],
            times=tuple(self.times[i] for i in idx),
        )

    def patch_coords(self, patch: int) -> np.ndarray:
        """Patch-center (lat, lon) per token, min-max normalized to [-1, 1]; `patch` divides the grid (`check_fit`)."""
        lat_c = self.coarse_lat.values.reshape(-1, patch).mean(axis=1)
        lon_c = self.coarse_lon.values.reshape(-1, patch).mean(axis=1)

        def norm(v, lo, hi):
            if hi == lo:
                return np.zeros_like(v)
            return 2.0 * (v - lo) / (hi - lo) - 1.0

        lat_n = norm(lat_c, self.coarse_lat.values[0], self.coarse_lat.values[-1])
        lon_n = norm(lon_c, self.coarse_lon.values[0], self.coarse_lon.values[-1])
        grid_lat, grid_lon = np.meshgrid(lat_n, lon_n, indexing="ij")
        return np.stack([grid_lat.ravel(), grid_lon.ravel()], axis=-1)

    def target_cube(self, values: Optional[np.ndarray] = None) -> DataCube:
        """The targets (or same-shaped predictions) as a fine-grid cube."""
        data = self.targets if values is None else np.asarray(values, dtype=np.float64)
        return DataCube(
            lat=self.fine_lat,
            lon=self.fine_lon,
            time=self.times,
            calendar=self.calendar,
            variable="synthetic",
            data=data,
        )


def windows_from_pair(coarse: DataCube, fine: DataCube, t: int) -> DownscaleDataset:
    """Slice a cube pair into overlapping t-frame training windows."""
    if coarse.time != fine.time:
        raise ValidationError("coarse and fine cubes must share the time axis")
    nt = len(coarse.time)
    if nt < t:
        raise ValidationError(f"need at least {t} time steps, cube has {nt}")
    n = nt - t + 1
    inputs = np.stack([coarse.data[i : i + t] for i in range(n)])[:, :, None, :, :]
    targets = np.stack([fine.data[i + t - 1] for i in range(n)])
    times = tuple(fine.time[i + t - 1] for i in range(n))
    return DownscaleDataset(
        inputs=inputs,
        targets=targets,
        times=times,
        calendar=fine.calendar,
        coarse_lat=coarse.lat,
        coarse_lon=coarse.lon,
        fine_lat=fine.lat,
        fine_lon=fine.lon,
    )


def spec_split(spec: dict, where: str = "data spec") -> Tuple[DownscaleDataset, DownscaleDataset]:
    """(train, test) windows of a data spec {"coarse": gcf, "fine": gcf, "window": t}.

    Windows are `window` frames long and the last 20% of them are held out,
    so `downscale train` and `downscale eval` share one split. `where`
    names the spec in a ValidationError.
    """
    spec = parse(spec, PAIR_FIELDS, where)
    window = spec["window"]
    full = windows_from_pair(gcf.read_cube(spec["coarse"]), gcf.read_cube(spec["fine"]), window)
    n = len(full)
    split = int(round(0.8 * n))
    if not 0 < split < n:
        raise ValidationError(f"{n} windows of {window} frames are too few for an 80/20 train/test split")
    return full.subset(range(split)), full.subset(range(split, n))


def make_dataset(
    seed: int,
    n_samples: int,
    t: int = 4,
    fine_hw: Tuple[int, int] = (64, 64),
    factor: int = 4,
    bias: float = 0.0,
    noise_sd: float = 0.0,
) -> DownscaleDataset:
    """Synthetic window dataset drawn from one generated cube pair."""
    nt = n_samples + t - 1
    coarse, fine = synth_pair(seed, factor, nt, fine_hw[0], fine_hw[1], bias=bias, noise_sd=noise_sd)
    return windows_from_pair(coarse, fine, t)


def capacity_set(seed: int = 90210) -> DownscaleDataset:
    """The fixed 8-sample overfit set: clean pairing, no bias, no noise.

    Windows sit 40 days apart so the samples are decorrelated; consecutive
    windows would be near-duplicates and turn a capacity check into a
    near-duplicate discrimination problem.
    """
    spacing = 40
    full = make_dataset(seed, 8 * spacing + 1, t=4, fine_hw=(64, 64), factor=4, bias=0.0, noise_sd=0.0)
    return full.subset(list(range(0, 8 * spacing, spacing)))


def benchmark_sets(seed: int = 424242) -> Tuple[DownscaleDataset, DownscaleDataset]:
    """The bundled 200-sample benchmark: 160 train / 40 test windows.

    Windows come from one full synthetic year (so every season appears),
    with a +1.5 degC coarse bias and observation noise; 200 window indices
    are chosen and split deterministically from the seed.
    """
    t = 4
    nt = 368  # one year of daily steps plus window warm-up
    coarse, fine = synth_pair(seed, 4, nt, 64, 64, bias=1.5, noise_sd=0.3)
    full = windows_from_pair(coarse, fine, t)
    rng = SplitMix64(seed).split()
    chosen = rng.permutation(len(full))[:200]
    split = rng.permutation(200)
    train_idx = sorted(int(chosen[i]) for i in split[:160])
    test_idx = sorted(int(chosen[i]) for i in split[160:])
    return full.subset(train_idx), full.subset(test_idx)
