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
_CAPACITY = {
    "cnn_lstm": dict(epochs=300, batch_size=2),
    "convlstm": dict(epochs=150, batch_size=4),
    "vit": dict(epochs=250, batch_size=2),
    "geostanet": dict(epochs=150, batch_size=4),
}
_BENCHMARK = {
    "cnn_lstm": dict(epochs=30, batch_size=16),
    "convlstm": dict(epochs=25, batch_size=16),
    "vit": dict(epochs=40, batch_size=16),
    "geostanet": dict(epochs=40, batch_size=16),
}


def desk_train_config(kind: str, phase: str = "benchmark") -> TrainConfig:
    if phase == "capacity":
        spec = _CAPACITY[kind]
        return TrainConfig(
            epochs=spec["epochs"],
            batch_size=spec["batch_size"],
            learning_rate=_LR[kind],
            loss="mse",
            val_fraction=0.0,
        )
    if phase == "benchmark":
        spec = _BENCHMARK[kind]
        return TrainConfig(
            epochs=spec["epochs"],
            batch_size=spec["batch_size"],
            learning_rate=_LR[kind],
            loss="imbalance_weighted_mse" if kind == "geostanet" else "mse",
            val_fraction=0.2,
        )
    raise ValueError(f"unknown phase {phase!r}")
