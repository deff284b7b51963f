"""Spatiotemporal neural downscaling: architectures, trainer, benchmarks."""

from .archs import (
    ARCH_KINDS,
    ArchConfig,
    CnnLstm,
    ConvLstmNet,
    DownscaleModel,
    GeoSTANet,
    ViTNet,
    build_model,
    check_fit,
    imbalance_weighted_mse,
    load_model,
)
from .data import (
    DownscaleDataset,
    benchmark_sets,
    capacity_set,
    make_dataset,
    spec_split,
    windows_from_pair,
)
from .evaluate import (
    BASELINE_LABEL,
    baseline_bilinear,
    comparison_table,
    predict_dataset,
)
from .presets import desk_train_config
from .trainer import TrainConfig, TrainResult, train

__all__ = [
    "ARCH_KINDS",
    "ArchConfig",
    "BASELINE_LABEL",
    "CnnLstm",
    "ConvLstmNet",
    "DownscaleDataset",
    "DownscaleModel",
    "GeoSTANet",
    "TrainConfig",
    "TrainResult",
    "ViTNet",
    "baseline_bilinear",
    "benchmark_sets",
    "build_model",
    "capacity_set",
    "check_fit",
    "comparison_table",
    "desk_train_config",
    "imbalance_weighted_mse",
    "load_model",
    "make_dataset",
    "predict_dataset",
    "spec_split",
    "train",
    "windows_from_pair",
]
