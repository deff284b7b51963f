"""Mini-batch trainer shared by all four downscaling architectures.

Training runs on standardized inputs/targets (statistics fitted on the
training split and stored with the model), with seeded shuffling, per-epoch
train/validation logging, best-validation checkpointing and an abort path
that keeps the last good parameters when a step (`Optimizer.minimize`)
raises `NumericFault`. Logged losses are converted back to squared data
units so they are comparable across configurations.
"""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import NumericFault, ValidationError
from ..rng import SplitMix64
from ..spec import FLOAT_MAX, MAX_EPOCHS, POSITIVE, Config, Field
from .. import tensorcore as tc
from ..tensorcore.optim import OPTIMIZERS
from .archs import ArchConfig, DownscaleModel, build_model, check_fit, imbalance_weighted_mse
from .data import DownscaleDataset

LOSS_KINDS = ("mse", "imbalance_weighted_mse")


class TrainConfig(Config):
    """How `train` fits a model; the train block of a `downscale train --config` file overrides it."""

    FIELDS = (
        Field("epochs", (int,), 60, low=1, high=MAX_EPOCHS),
        Field("batch_size", (int,), 16, low=1),
        Field("learning_rate", (int, float), 2e-3, low=POSITIVE, high=FLOAT_MAX),
        Field("optimizer", (str,), "adam", choices=tuple(OPTIMIZERS)),
        Field("loss", (str,), "mse", choices=LOSS_KINDS),
        Field("patience", (int,), 0, low=0),  # 0 disables early stopping
        Field("val_fraction", (int, float), 0.2, low=0, high=math.nextafter(1.0, 0.0)),
    )


@dataclass
class TrainResult:
    model: DownscaleModel
    log: List[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val: float = math.inf
    abort_epoch: int = 0  # the epoch a NumericFault ended, 0 when training finished
    abort_reason: str = ""  # that NumericFault's message

    @property
    def aborted(self) -> bool:
        return self.abort_epoch > 0


def _snapshot(model: DownscaleModel):
    return {name: arr.copy() for name, arr in model.state_entries()}


def _refresh(snapshot, model: DownscaleModel):
    for name, arr in model.state_entries():
        np.copyto(snapshot[name], arr)


def _restore(model: DownscaleModel, snapshot):
    tc.load_state(model.state_entries(), snapshot, "training snapshot")


@tc.one_blas_thread()
def train(
    cfg: ArchConfig,
    data: DownscaleDataset,
    tcfg: TrainConfig,
    model: Optional[DownscaleModel] = None,
) -> TrainResult:
    """Train one architecture on a window dataset.

    The validation split is carved from the sample list with a seeded
    permutation; with val_fraction 0 the training loss doubles as the
    validation signal. Identical configs and seeds reproduce identical
    logs (wall_ms aside) and identical checkpoints, under any BLAS thread
    count where the OpenBLAS pin applies (`tc.one_blas_thread`).

    A step (`opt.minimize`) holds its graph, the optimizer state and two
    state sets made once per call and refreshed in place: the best epoch's,
    restored at the end, and the last good step's, restored on a NumericFault.
    Batches are standardized as they are used, from the dataset.
    """
    check_fit(cfg, data.coarse_hw, data.factor)
    if model is None:
        model = build_model(cfg, data.coarse_hw)
    n = len(data)
    split_rng = SplitMix64(cfg.seed ^ 0x5EED5EED)
    perm = split_rng.permutation(n)
    n_val = int(round(tcfg.val_fraction * n))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    if train_idx.size == 0:
        raise ValidationError("validation split leaves no training samples")

    norm = model.norm
    norm.fit(data.inputs[train_idx], data.targets[train_idx])
    raw_scale = float(norm.out_sd) ** 2

    coords = model.coords(data)
    opt = tc.make_optimizer(tcfg.optimizer, [t for _, t in model.params()], tcfg.learning_rate)
    shuffle_rng = SplitMix64(cfg.seed ^ 0xBA7C4E5)

    def standardized(sel):
        """The inputs and targets of samples `sel`, standardized."""
        x = data.inputs[sel] - norm.in_mean
        x /= norm.in_sd
        y = data.targets[sel] - norm.out_mean
        y /= norm.out_sd
        return x, y

    def batch_loss(pred, target):
        if tcfg.loss == "imbalance_weighted_mse":
            return imbalance_weighted_mse(pred, target, cfg.alpha)
        return tc.mse(pred, target)

    def eval_loss(idx) -> float:
        if idx.size == 0:
            return math.nan
        total = 0.0
        with tc.no_grad():
            for lo in range(0, idx.size, tcfg.batch_size):
                x, y = standardized(idx[lo : lo + tcfg.batch_size])
                diff = model.forward(x, coords=coords, training=False).data - y
                total += float(np.sum(diff * diff))
        return total / (idx.size * data.targets.shape[1] * data.targets.shape[2]) * raw_scale

    result = TrainResult(model=model)
    best, last_good = _snapshot(model), _snapshot(model)
    since_best = 0

    for epoch in range(1, tcfg.epochs + 1):
        t0 = time.perf_counter()
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        epoch_losses = []
        for lo in range(0, order.size, tcfg.batch_size):
            x, y = standardized(order[lo : lo + tcfg.batch_size])
            try:
                epoch_losses.append(opt.minimize(lambda: batch_loss(model.forward(x, coords=coords, training=True), y)))
            except NumericFault as exc:
                result.abort_epoch, result.abort_reason = epoch, str(exc)
                break
            _refresh(last_good, model)
        if result.aborted:
            _restore(model, last_good)
            break
        train_loss = float(np.mean(epoch_losses)) * raw_scale
        val_loss = eval_loss(val_idx) if val_idx.size else train_loss
        wall_ms = int(round((time.perf_counter() - t0) * 1000))
        result.log.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss, "wall_ms": wall_ms}
        )
        model.step_count = opt.step_count
        if val_loss < result.best_val:
            result.best_val = val_loss
            result.best_epoch = epoch
            _refresh(best, model)
            since_best = 0
        else:
            since_best += 1
            if tcfg.patience and since_best >= tcfg.patience:
                break

    if not result.aborted:
        _restore(model, best)
    return result
