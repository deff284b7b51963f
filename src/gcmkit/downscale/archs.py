"""The four coarse-to-fine downscaling architectures.

Every model maps a coarse input sequence (n, t, c, h, w) to a fine field
(n, factor*h, factor*w):

  cnn_lstm    per-frame conv stack -> flatten -> LSTM over time -> dense head
  convlstm    two stacked ConvLSTM layers with batch norm on the gate
              pre-activations -> transposed-conv upsampling of the last
              hidden state
  vit         per-frame patch embedding + positions -> frame-mean pooling ->
              transformer encoder stack -> per-token regression head
  geostanet   patch embedding + positions + learned lat/lon encoding ->
              recurrent temporal encoder (one application per frame,
              each frame's tokens added to the running state first;
              full-sequence temporal attention available via config) ->
              transposed-conv upsampling

Models standardize nothing themselves: `forward` is raw-in/raw-out, and
`predict` applies the stored input/output normalization that the trainer
fits. Initialization draws from per-model SplitMix64 streams, so identical
seeds rebuild identical parameters. Every model is a `tc.Module`: its
state is found by one walk over its attributes, so attribute order is the
checkpoint contract. `state_entries()` lists the live arrays (parameters,
then buffers, then the norm); checkpoints, the trainer's snapshots and
`load_model` all go through it, and a malformed checkpoint raises
ValidationError naming it.
"""

from dataclasses import asdict, dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..rng import SplitMix64
from .. import tensorcore as tc
from ..tensorcore.tensor import Tensor

ARCH_KINDS = ("cnn_lstm", "convlstm", "vit", "geostanet")


@dataclass
class ArchConfig:
    kind: str
    factor: int = 4
    in_channels: int = 1
    kernel_radius: int = 1
    conv_channels: Tuple[int, ...] = (16, 16)
    lstm_hidden: int = 48
    convlstm_hidden: Tuple[int, ...] = (16, 16)
    patch: int = 4
    embed_dim: int = 64
    heads: int = 4
    layers: int = 2
    mlp_ratio: int = 2
    up_channels: int = 32
    alpha: float = 0.5
    temporal_mode: str = "recurrent"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ValidationError(f"unknown architecture {self.kind!r}")
        if self.factor < 1:
            raise ValidationError("upsample factor must be >= 1")
        if self.temporal_mode not in ("recurrent", "full_attention"):
            raise ValidationError("temporal_mode must be recurrent or full_attention")

    @property
    def kernel(self) -> int:
        return 2 * self.kernel_radius + 1


def _stride_plan(total: int) -> List[int]:
    """Greedy decomposition of an upsample factor into transposed-conv strides."""
    plan = []
    while total > 1:
        if total % 4 == 0:
            s = 4
        elif total % 2 == 0:
            s = 2
        else:
            s = total
        plan.append(s)
        total //= s
    return plan


class _UpsampleHead(tc.Module):
    """Chain of stride-fold transposed convolutions ending in one channel."""

    def __init__(self, rng, c_in: int, total_factor: int, mid_channels: int, name: str):
        self.stages = []
        plan = _stride_plan(total_factor)
        if not plan:  # factor 1: plain 1x1 conv projection
            self.stages.append(tc.Conv2d(rng.split(), c_in, 1, 1, name=f"{name}.proj"))
            return
        c = c_in
        for i, s in enumerate(plan):
            c_out = 1 if i == len(plan) - 1 else mid_channels
            self.stages.append(tc.ConvTranspose2d(rng.split(), c, c_out, k=s, stride=s, name=f"{name}.up{i}"))
            c = c_out

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.stages):
            x = layer(x)
            if i < len(self.stages) - 1:
                x = x.relu()
        return x


class _NormState:
    """Input/output standardization fitted by the trainer, as 0-d arrays set in place."""

    def __init__(self):
        self.in_mean = np.array(0.0)
        self.in_sd = np.array(1.0)
        self.out_mean = np.array(0.0)
        self.out_sd = np.array(1.0)

    def fit(self, inputs: np.ndarray, targets: np.ndarray):
        self.in_mean[...] = np.mean(inputs)
        self.in_sd[...] = np.std(inputs) or 1.0
        self.out_mean[...] = np.mean(targets)
        self.out_sd[...] = np.std(targets) or 1.0


class DownscaleModel(tc.Module):
    """Shared surface: predict, the live state list and the checkpoint (entries, meta)."""

    def __init__(self, cfg: ArchConfig):
        self.cfg = cfg
        self.norm = _NormState()
        self.step_count = 0

    def state_entries(self):
        """The live state arrays as (name, array): parameters, then buffers, then the norm."""
        norm = [(f"norm.{key}", arr) for key, arr in vars(self.norm).items()]
        return super().state_entries() + norm

    def predict(self, x: np.ndarray, coords: Optional[np.ndarray] = None, batch: int = 64) -> np.ndarray:
        """Raw-unit inference in eval mode without a graph, batched to bound memory."""
        outs = []
        with tc.no_grad():
            for lo in range(0, x.shape[0], batch):
                xb = (x[lo : lo + batch] - self.norm.in_mean) / self.norm.in_sd
                y = self.forward(xb, coords=coords, training=False)
                outs.append(y.data * self.norm.out_sd + self.norm.out_mean)
        return np.concatenate(outs, axis=0)

    def checkpoint(self):
        """(entries, meta) for `tc.encode_checkpoint`."""
        meta = {
            "kind": self.cfg.kind,
            "config": asdict(self.cfg),
            "seed": self.cfg.seed,
            "step": self.step_count,
        }
        return self.state_entries(), meta


class CnnLstm(DownscaleModel):
    """Conv stack per frame, flatten, LSTM over time, dense head to the fine grid."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg)
        self.h, self.w = coarse_hw
        rng = SplitMix64(cfg.seed)
        self.convs = []
        c = cfg.in_channels
        for i, ch in enumerate(cfg.conv_channels):
            self.convs.append(tc.Conv2d(rng.split(), c, ch, cfg.kernel, name=f"conv{i}"))
            c = ch
        flat = c * self.h * self.w
        self.cell = tc.LSTMCell(rng.split(), flat, cfg.lstm_hidden, name="lstm")
        self.head = tc.Dense(rng.split(), cfg.lstm_hidden, (self.h * cfg.factor) * (self.w * cfg.factor), name="head")

    def forward(self, x: np.ndarray, coords=None, training: bool = False) -> Tensor:
        n, t, c, h, w = x.shape
        if (h, w) != (self.h, self.w):
            raise ValidationError(f"expected coarse grid {(self.h, self.w)}, got {(h, w)}")
        frames = Tensor(x.reshape(n * t, c, h, w))
        for conv in self.convs:
            frames = conv(frames).relu()
        flat = frames.reshape(n, t, -1)
        h_t = c_t = None
        for step in range(t):
            h_t, c_t = self.cell.step(flat[:, step, :], h_t, c_t)
        out = self.head(h_t)
        return out.reshape(n, self.h * self.cfg.factor, self.w * self.cfg.factor)


class ConvLstmNet(DownscaleModel):
    """Stacked ConvLSTM layers with batch-normalized gates, then upsampling."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg)
        self.h, self.w = coarse_hw
        rng = SplitMix64(cfg.seed)
        self.cells = []
        c = cfg.in_channels
        for i, ch in enumerate(cfg.convlstm_hidden):
            bn = tc.BatchNorm2d(4 * ch, name=f"bn{i}")
            self.cells.append(tc.ConvLSTMCell(rng.split(), c, ch, cfg.kernel, name=f"cell{i}", bn=bn))
            c = ch
        self.head = _UpsampleHead(rng.split(), c, cfg.factor, cfg.up_channels, "head")

    def forward(self, x: np.ndarray, coords=None, training: bool = False) -> Tensor:
        n, t, c, h, w = x.shape
        if (h, w) != (self.h, self.w):
            raise ValidationError(f"expected coarse grid {(self.h, self.w)}, got {(h, w)}")
        seq = [Tensor(x[:, step]) for step in range(t)]
        for cell in self.cells:
            h_t = c_t = None
            outputs = []
            for frame in seq:
                h_t, c_t = cell.step(frame, h_t, c_t, training=training)
                outputs.append(h_t)
            seq = outputs
        return self.head(seq[-1])[:, 0]


def _patchify(frames: np.ndarray, patch: int) -> Tensor:
    """(m, c, h, w) -> (m * N, patch*patch*c) token rows, N per frame in lat-major raster order.

    The raw input needs no gradient, so the tokens are cut in numpy and
    enter the graph as one leaf.
    """
    m, c, h, w = frames.shape
    if h % patch or w % patch:
        raise ValidationError(f"patch size {patch} does not divide grid ({h}, {w})")
    gh, gw = h // patch, w // patch
    x = frames.reshape(m, c, gh, patch, gw, patch).transpose((0, 2, 4, 3, 5, 1))
    return Tensor(x.reshape(m * gh * gw, patch * patch * c))


class ViTNet(DownscaleModel):
    """Patch-embedding transformer; frames embed independently and are
    mean-pooled before the encoder, so attention is purely spatial."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg)
        self.h, self.w = coarse_hw
        if self.h % cfg.patch or self.w % cfg.patch:
            raise ValidationError(f"patch size {cfg.patch} does not divide grid {coarse_hw}")
        self.gh, self.gw = self.h // cfg.patch, self.w // cfg.patch
        self.n_tokens = self.gh * self.gw
        rng = SplitMix64(cfg.seed)
        pc = cfg.patch * cfg.patch * cfg.in_channels
        self.embed = tc.Dense(rng.split(), pc, cfg.embed_dim, name="embed")
        self.pos = Tensor(rng.split().uniform((self.n_tokens, cfg.embed_dim), low=-0.1, high=0.1), requires_grad=True)
        self.blocks = [
            tc.TransformerBlock(rng.split(), cfg.embed_dim, cfg.heads, cfg.mlp_ratio, name=f"blk{i}")
            for i in range(cfg.layers)
        ]
        self.ln = tc.LayerNorm(cfg.embed_dim, name="ln_out")
        self.cell_out = cfg.patch * cfg.factor
        self.head = tc.Dense(rng.split(), cfg.embed_dim, self.cell_out * self.cell_out, name="head")

    def _embed_frames(self, x: np.ndarray) -> Tensor:
        n, t, c, h, w = x.shape
        tokens = _patchify(x.reshape(n * t, c, h, w), self.cfg.patch)
        return self.embed(tokens).reshape(n, t, self.n_tokens, self.cfg.embed_dim)

    def _tokens_to_field(self, tokens: Tensor, n: int) -> Tensor:
        out = self.head(self.ln(tokens).reshape(n * self.n_tokens, self.cfg.embed_dim))
        out = out.reshape(n, self.gh, self.gw, self.cell_out, self.cell_out)
        out = out.transpose((0, 1, 3, 2, 4))
        return out.reshape(n, self.gh * self.cell_out, self.gw * self.cell_out)

    def forward(self, x: np.ndarray, coords=None, training: bool = False) -> Tensor:
        n = x.shape[0]
        tokens = self._embed_frames(x).mean(axis=1) + self.pos
        for blk in self.blocks:
            tokens = blk(tokens)
        return self._tokens_to_field(tokens, n)


class GeoSTANet(DownscaleModel):
    """Patch transformer with learned geospatial encodings and a temporal
    encoder applied recurrently, one application per input frame: the
    first frame's enriched tokens are encoded, and every later frame's
    tokens are added to the encoded state before the next application."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg)
        self.h, self.w = coarse_hw
        if self.h % cfg.patch or self.w % cfg.patch:
            raise ValidationError(f"patch size {cfg.patch} does not divide grid {coarse_hw}")
        self.gh, self.gw = self.h // cfg.patch, self.w // cfg.patch
        self.n_tokens = self.gh * self.gw
        rng = SplitMix64(cfg.seed)
        pc = cfg.patch * cfg.patch * cfg.in_channels
        self.embed = tc.Dense(rng.split(), pc, cfg.embed_dim, name="embed")
        self.pos = Tensor(rng.split().uniform((self.n_tokens, cfg.embed_dim), low=-0.1, high=0.1), requires_grad=True)
        self.w_geo = Tensor(tc.he_uniform(rng.split(), (2, cfg.embed_dim), 2), requires_grad=True)
        self.blocks = [
            tc.TransformerBlock(rng.split(), cfg.embed_dim, cfg.heads, cfg.mlp_ratio, name=f"blk{i}")
            for i in range(cfg.layers)
        ]
        self.ln = tc.LayerNorm(cfg.embed_dim, name="ln_out")
        self.head = _UpsampleHead(rng.split(), cfg.embed_dim, cfg.patch * cfg.factor, cfg.up_channels, "head")

    def _encode(self, tokens: Tensor) -> Tensor:
        for blk in self.blocks:
            tokens = blk(tokens)
        return tokens

    def forward(self, x: np.ndarray, coords: Optional[np.ndarray] = None, training: bool = False) -> Tensor:
        n, t, c, h, w = x.shape
        if (h, w) != (self.h, self.w):
            raise ValidationError(f"expected coarse grid {(self.h, self.w)}, got {(h, w)}")
        emb = self.embed(_patchify(x.reshape(n * t, c, h, w), self.cfg.patch))
        emb = emb.reshape(n, t, self.n_tokens, self.cfg.embed_dim) + self.pos
        if coords is not None:
            if coords.shape != (self.n_tokens, 2):
                raise ValidationError(f"expected patch coords of shape ({self.n_tokens}, 2)")
            emb = emb + Tensor(coords) @ self.w_geo

        if self.cfg.temporal_mode == "recurrent":
            state = self._encode(emb[:, 0])
            for k in range(1, t):
                state = self._encode(state + emb[:, k])
        else:
            # full-sequence temporal attention: tokens attend across frames
            seq = emb.transpose((0, 2, 1, 3)).reshape(n * self.n_tokens, t, self.cfg.embed_dim)
            seq = self._encode(seq)
            state = seq[:, t - 1, :].reshape(n, self.n_tokens, self.cfg.embed_dim)

        grid = self.ln(state).transpose((0, 2, 1)).reshape(n, self.cfg.embed_dim, self.gh, self.gw)
        return self.head(grid)[:, 0]


def build_model(cfg: ArchConfig, coarse_hw: Tuple[int, int]) -> DownscaleModel:
    """The architecture `cfg.kind` names; `ArchConfig` has already checked that it is one of ARCH_KINDS."""
    return {"cnn_lstm": CnnLstm, "convlstm": ConvLstmNet, "vit": ViTNet, "geostanet": GeoSTANet}[cfg.kind](cfg, coarse_hw)


def load_model(path: str, coarse_hw: Tuple[int, int]) -> DownscaleModel:
    """The model saved at `path`; a malformed checkpoint raises ValidationError naming it."""
    arrays, meta = tc.load_checkpoint(path)
    if not isinstance(meta.get("config"), dict):
        raise ValidationError(f"checkpoint {path} has no architecture config")
    try:
        cfg = ArchConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()})
        model = build_model(cfg, coarse_hw)
        model.step_count = int(meta.get("step", 0))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"checkpoint {path} holds a bad architecture config: {exc}") from None
    tc.load_state(model.state_entries(), arrays, path)
    return model


def imbalance_weighted_mse(pred: Tensor, target: np.ndarray, alpha: float) -> Tensor:
    """MSE with extra weight on batch-rare extreme targets.

    Targets are standardized per batch; cells whose |z| exceeds 1 get
    weight 1 + alpha * (|z| - 1), so alpha = 0 recovers plain MSE exactly
    and a constant batch (undefined z) degrades to plain MSE too. Weights
    depend only on the target, so the loss stays differentiable in pred.
    """
    target = np.asarray(target, dtype=np.float64)
    sd = float(np.std(target))
    if alpha == 0.0 or sd == 0.0:
        weights = np.ones_like(target)
    else:
        z = (target - float(np.mean(target))) / sd
        weights = 1.0 + alpha * np.maximum(0.0, np.abs(z) - 1.0)
    diff = pred - Tensor(target)
    return (Tensor(weights) * diff * diff).mean()
