"""Scoring of downscaled fields against fine-grid targets.

Predictions are reassembled into fine-grid cubes and scored by one
`metrics.sweep` over the whole fine grid, as one all-land zone, and the
whole year. Every comparison table carries a `bilinear` baseline row: the
last coarse input frame interpolated onto the fine grid, which is what the
downscalers have to beat.
"""

from typing import Dict, List

import numpy as np

from ..errors import ValidationError
from ..geogrid import DataCube, ZoneMask, bilinear_blend, bilinear_weights
from ..metrics import ZONE_OVERALL, CubeBlocks, context_index, sweep
from .archs import DownscaleModel
from .data import DownscaleDataset

BASELINE_LABEL = "bilinear"


def predict_dataset(model: DownscaleModel, data: DownscaleDataset) -> np.ndarray:
    return model.predict(data.inputs, coords=model.coords(data))


def baseline_bilinear(data: DownscaleDataset) -> np.ndarray:
    """Bilinear upsampling of each sample's last coarse frame."""
    corners = bilinear_weights(data.coarse_lat, data.coarse_lon, data.fine_lat, data.fine_lon)
    return bilinear_blend(data.inputs[:, -1, 0], corners, DataCube.fill)


def comparison_table(predictions: Dict[str, np.ndarray], data: DownscaleDataset) -> List[dict]:
    """One metric row per architecture label, then the baseline's, over the whole grid and year.

    `predictions` maps architecture labels to (n, h_f, w_f) arrays aligned
    with the dataset samples.
    """
    if BASELINE_LABEL in predictions:
        raise ValidationError(f"prediction label {BASELINE_LABEL!r} is reserved for the baseline")
    named = {**predictions, BASELINE_LABEL: baseline_bilinear(data)}
    target = data.target_cube()
    mask = ZoneMask(data.fine_lat, data.fine_lon, np.full(target.shape[1:], 3, dtype=np.int64))
    index = context_index(target.months(), mask, {ZONE_OVERALL: ZONE_OVERALL}, ("ANNUAL",))
    models = {label: CubeBlocks(data.target_cube(values=pred)) for label, pred in named.items()}
    reports = sweep(models, CubeBlocks(target), index)
    return [{"arch": label, "zone": ZONE_OVERALL, "season": "ANNUAL", **rep.as_dict()}
            for label, by_context in reports.items() for rep in by_context.values()]
