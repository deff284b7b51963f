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
    bias_to_target,
    comparison_table,
    predict_dataset,
    rmse_to_target,
)
from .presets import desk_arch_config, desk_train_config
from .trainer import TrainConfig, TrainResult, train, write_log_csv

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
    "bias_to_target",
    "build_model",
    "capacity_set",
    "comparison_table",
    "desk_arch_config",
    "desk_train_config",
    "imbalance_weighted_mse",
    "load_model",
    "make_dataset",
    "predict_dataset",
    "rmse_to_target",
    "spec_split",
    "train",
    "windows_from_pair",
    "write_log_csv",
]
