"""Mini-batch trainer shared by all four downscaling architectures.

Training runs on standardized inputs/targets (statistics fitted on the
training split and stored with the model), with seeded shuffling, per-epoch
train/validation logging, best-validation checkpointing and an abort path
that keeps the last good parameters when the loss or a parameter goes
non-finite. Logged losses are converted back to squared data units so they
are comparable across configurations.
"""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import NumericFault, ValidationError
from ..rng import SplitMix64
from ..spec import ABSENT, FLOAT_MAX, POSITIVE, Field, parse
from .. import tensorcore as tc
from ..tensorcore.optim import OPTIMIZER_KINDS
from .archs import ArchConfig, DownscaleModel, build_model, check_fit, imbalance_weighted_mse
from .data import DownscaleDataset

LOSS_KINDS = ("mse", "imbalance_weighted_mse")
# the most epochs any training loop may be configured for, so a mistyped count
# fails validation instead of training for ever
MAX_EPOCHS = 10_000
# the keys of a TrainConfig, and of a `downscale train --config` file's train block
TRAIN_FIELDS = (
    Field("epochs", (int,), ABSENT, low=1, high=MAX_EPOCHS),
    Field("batch_size", (int,), ABSENT, low=1),
    Field("learning_rate", (int, float), ABSENT, low=POSITIVE, high=FLOAT_MAX),
    Field("optimizer", (str,), ABSENT, choices=OPTIMIZER_KINDS),
    Field("loss", (str,), ABSENT, choices=LOSS_KINDS),
    Field("patience", (int,), ABSENT, low=0),
    Field("val_fraction", (int, float), ABSENT, low=0, high=math.nextafter(1.0, 0.0)),
)


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 16
    learning_rate: float = 2e-3
    optimizer: str = "adam"
    loss: str = "mse"
    patience: int = 0  # 0 disables early stopping
    val_fraction: float = 0.2

    def __post_init__(self):
        parse(vars(self), TRAIN_FIELDS, "train config")


@dataclass
class TrainResult:
    model: DownscaleModel
    log: List[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_val: float = math.inf
    aborted: bool = False


def _snapshot(model: DownscaleModel):
    return {name: arr.copy() for name, arr in model.state_entries()}


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

    x_train = data.inputs[train_idx]
    y_train = data.targets[train_idx]
    model.norm.fit(x_train, y_train)
    xs = (data.inputs - model.norm.in_mean) / model.norm.in_sd
    ys = (data.targets - model.norm.out_mean) / model.norm.out_sd
    raw_scale = float(model.norm.out_sd) ** 2

    coords = model.coords(data)
    params = [t for _, t in model.params()]
    opt = tc.make_optimizer(tcfg.optimizer, params, tcfg.learning_rate)
    shuffle_rng = SplitMix64(cfg.seed ^ 0xBA7C4E5)

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
                sel = idx[lo : lo + tcfg.batch_size]
                pred = model.forward(xs[sel], coords=coords, training=False)
                diff = pred.data - ys[sel]
                total += float(np.sum(diff * diff))
        return total / (idx.size * ys.shape[1] * ys.shape[2]) * raw_scale

    result = TrainResult(model=model)
    best = _snapshot(model)
    last_good = best
    since_best = 0

    for epoch in range(1, tcfg.epochs + 1):
        t0 = time.perf_counter()
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        epoch_losses = []
        bad = False
        for lo in range(0, order.size, tcfg.batch_size):
            sel = order[lo : lo + tcfg.batch_size]
            opt.zero_grad()
            try:
                pred = model.forward(xs[sel], coords=coords, training=True)
                loss = batch_loss(pred, ys[sel])
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericFault("non-finite training loss")
                loss.backward()
                opt.step()
                if not all(np.all(np.isfinite(p.data)) for p in params):
                    raise NumericFault("non-finite parameters after an optimizer step")
            except NumericFault:
                bad = True
                break
            epoch_losses.append(value)
            last_good = _snapshot(model)
        if bad:
            _restore(model, last_good)
            result.aborted = True
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
            best = _snapshot(model)
            since_best = 0
        else:
            since_best += 1
            if tcfg.patience and since_best >= tcfg.patience:
                break

    if not result.aborted:
        _restore(model, best)
    return result
