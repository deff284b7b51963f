"""Desk-scale training configurations per architecture.

The desk setup downscales 16x16 coarse frames to a 64x64 fine grid
(factor 4) from 4-frame windows, sized so a full train-and-evaluate pass
of all four architectures stays in CPU-minutes territory. Learning rates
differ per architecture: the CNN-LSTM's large flattened LSTM input makes
it prone to dead-activation collapse above 1e-3, while the others tolerate
more aggressive steps.

Two training phases are preconfigured: "capacity" (small-batch overfit of
the fixed 8-sample set) and "benchmark" (mini-batch training on the
bundled 160-window training split). The architectures' desk sizes are
`ArchConfig`'s defaults.
"""

from .trainer import TrainConfig

_LR = {"cnn_lstm": 1e-3, "convlstm": 5e-3, "vit": 3e-3, "geostanet": 3e-3}
# (epochs, batch size) per phase and architecture
_SIZES = {
    "capacity": {"cnn_lstm": (300, 2), "convlstm": (150, 4), "vit": (250, 2), "geostanet": (150, 4)},
    "benchmark": {"cnn_lstm": (30, 16), "convlstm": (25, 16), "vit": (40, 16), "geostanet": (40, 16)},
}


def desk_train_config(kind: str, phase: str = "benchmark") -> TrainConfig:
    """The preset of `kind` for `phase`: the benchmark holds out a fifth for
    validation and trains geostanet on the imbalance-weighted loss."""
    if phase not in _SIZES:
        raise ValueError(f"unknown phase {phase!r}")
    epochs, batch_size = _SIZES[phase][kind]
    benchmark = phase == "benchmark"
    return TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=_LR[kind],
                       loss="imbalance_weighted_mse" if benchmark and kind == "geostanet" else "mse",
                       val_fraction=0.2 if benchmark else 0.0)
