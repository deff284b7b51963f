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
              each frame's tokens added to the running state first) ->
              transposed-conv upsampling

vit and geostanet share one patch encoder (`_PatchModel`), and every
forward checks its input against the coarse grid the model was built for.

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
from ..spec import Field, parse
from .. import tensorcore as tc
from ..tensorcore.tensor import Tensor

ARCH_KINDS = ("cnn_lstm", "convlstm", "vit", "geostanet")
# the keys of a downscaler checkpoint's meta; `config` holds the ArchConfig fields
META_FIELDS = (
    Field("kind", (str,), choices=ARCH_KINDS),
    Field("config", (dict,)),
    Field("seed", (int,)),
    Field("step", (int,), low=0),
)


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
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ValidationError(f"unknown architecture {self.kind!r}")
        if self.factor < 1:
            raise ValidationError("upsample factor must be >= 1")
        if self.patch < 1:
            raise ValidationError("patch size must be >= 1")

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
            self.stages.append(tc.ConvTranspose2d(rng.split(), c, c_out, s, name=f"{name}.up{i}"))
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
    """Shared surface: the coarse grid, predict, the live state list and the checkpoint (entries, meta)."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        self.cfg = cfg
        self.h, self.w = coarse_hw
        self.norm = _NormState()
        self.step_count = 0

    def _check_grid(self, x: np.ndarray) -> None:
        """Fail unless `x` holds (n, t, c, h, w) frames on the coarse grid the model was built for."""
        if x.shape[3:] != (self.h, self.w):
            raise ValidationError(f"expected coarse grid {(self.h, self.w)}, got {x.shape[3:]}")

    def coords(self, data) -> Optional[np.ndarray]:
        """The `coords` argument of `forward` for samples of `data`: none, unless the model reads positions."""
        return None

    def state_entries(self):
        """The live state arrays as (name, array): parameters, then buffers, then the norm."""
        norm = [(f"norm.{key}", arr) for key, arr in vars(self.norm).items()]
        return super().state_entries() + norm

    @tc.one_blas_thread()
    def predict(self, x: np.ndarray, coords: Optional[np.ndarray] = None, batch: int = 64) -> np.ndarray:
        """Raw-unit inference in eval mode without a graph, batched to bound memory, on one BLAS thread."""
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
    """Conv stack per frame, flatten, LSTM over time, dense head to the fine grid.

    The LSTM's input projection runs for every frame in one product before
    the recurrence (Appleyard et al. 2016, arXiv:1604.01946); each step then
    adds only the recurrent product.
    """

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg, coarse_hw)
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
        self._check_grid(x)
        n, t, c, h, w = x.shape
        frames = Tensor(x.reshape(n * t, c, h, w))
        for conv in self.convs:
            frames = conv(frames).relu()
        zx = (frames.reshape(n * t, -1) @ self.cell.wx).reshape(n, t, -1)
        h_t = c_t = None
        for step in range(t):
            h_t, c_t = self.cell.step_projected(zx[:, step], h_t, c_t)
        out = self.head(h_t)
        return out.reshape(n, self.h * self.cfg.factor, self.w * self.cfg.factor)


class ConvLstmNet(DownscaleModel):
    """Stacked ConvLSTM layers with batch-normalized gates, then upsampling."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        super().__init__(cfg, coarse_hw)
        rng = SplitMix64(cfg.seed)
        self.cells = []
        c = cfg.in_channels
        for i, ch in enumerate(cfg.convlstm_hidden):
            bn = tc.BatchNorm2d(4 * ch, name=f"bn{i}")
            self.cells.append(tc.ConvLSTMCell(rng.split(), c, ch, cfg.kernel, name=f"cell{i}", bn=bn))
            c = ch
        self.head = _UpsampleHead(rng.split(), c, cfg.factor, cfg.up_channels, "head")

    def forward(self, x: np.ndarray, coords=None, training: bool = False) -> Tensor:
        self._check_grid(x)
        seq = [Tensor(x[:, step]) for step in range(x.shape[1])]
        for cell in self.cells:
            h_t = c_t = None
            outputs = []
            for frame in seq:
                h_t, c_t = cell.step(frame, h_t, c_t, training=training)
                outputs.append(h_t)
            seq = outputs
        return self.head(seq[-1])[:, 0]


def check_fit(cfg: ArchConfig, coarse_hw: Tuple[int, int], factor: int) -> None:
    """Fail unless a `cfg` model can run on data of upsample `factor` on a coarse grid of `coarse_hw`.

    The factor must be the config's, and the patch models (vit, geostanet)
    need a patch that divides both sides of the grid. `trainer.train` and
    `load_model` check it before any work, and `pipeline.run_downscale`
    checks every requested architecture before it trains the first. The
    patch models' constructors, which know only the grid, check it with
    the config's own factor.
    """
    if factor != cfg.factor:
        raise ValidationError(f"dataset factor {factor} does not match config factor {cfg.factor}")
    if cfg.kind in ("vit", "geostanet") and (coarse_hw[0] % cfg.patch or coarse_hw[1] % cfg.patch):
        raise ValidationError(f"{cfg.kind}: patch size {cfg.patch} does not divide grid {tuple(coarse_hw)}")


class _PatchModel(DownscaleModel):
    """The patch encoder vit and geostanet share: patch embedding, positions,
    geostanet's lat/lon encoding, the transformer blocks and the output norm.

    `rng` is the model's stream; the subclass draws its head from it next.
    """

    geo = False  # whether the model has a learned lat/lon encoding `w_geo`

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int], rng: SplitMix64):
        super().__init__(cfg, coarse_hw)
        check_fit(cfg, coarse_hw, cfg.factor)
        self.gh, self.gw = self.h // cfg.patch, self.w // cfg.patch
        self.n_tokens = self.gh * self.gw
        pc = cfg.patch * cfg.patch * cfg.in_channels
        self.embed = tc.Dense(rng.split(), pc, cfg.embed_dim, name="embed")
        self.pos = Tensor(rng.split().uniform((self.n_tokens, cfg.embed_dim), low=-0.1, high=0.1), requires_grad=True)
        if self.geo:
            self.w_geo = Tensor(tc.he_uniform(rng.split(), (2, cfg.embed_dim), 2), requires_grad=True)
        self.blocks = [
            tc.TransformerBlock(rng.split(), cfg.embed_dim, cfg.heads, cfg.mlp_ratio, name=f"blk{i}")
            for i in range(cfg.layers)
        ]
        self.ln = tc.LayerNorm(cfg.embed_dim, name="ln_out")

    def coords(self, data) -> np.ndarray:
        return data.patch_coords(self.cfg.patch)

    def _embed_frames(self, x: np.ndarray) -> Tensor:
        """(n, t, c, h, w) -> (n, t, N, embed_dim): each frame's N patches in lat-major raster order, embedded.

        The raw input needs no gradient, so the patches are cut in numpy
        and enter the graph as one leaf.
        """
        n, t, c = x.shape[:3]
        p = self.cfg.patch
        patches = x.reshape(n * t, c, self.gh, p, self.gw, p).transpose((0, 2, 4, 3, 5, 1))
        tokens = self.embed(Tensor(patches.reshape(n * t * self.n_tokens, p * p * c)))
        return tokens.reshape(n, t, self.n_tokens, self.cfg.embed_dim)

    def _encode(self, tokens: Tensor) -> Tensor:
        for blk in self.blocks:
            tokens = blk(tokens)
        return tokens


class ViTNet(_PatchModel):
    """Patch-embedding transformer; frames embed independently and are
    mean-pooled before the encoder, so attention is purely spatial."""

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        rng = SplitMix64(cfg.seed)
        super().__init__(cfg, coarse_hw, rng)
        self.cell_out = cfg.patch * cfg.factor
        self.head = tc.Dense(rng.split(), cfg.embed_dim, self.cell_out * self.cell_out, name="head")

    def _tokens_to_field(self, tokens: Tensor, n: int) -> Tensor:
        out = self.head(self.ln(tokens).reshape(n * self.n_tokens, self.cfg.embed_dim))
        out = out.reshape(n, self.gh, self.gw, self.cell_out, self.cell_out)
        out = out.transpose((0, 1, 3, 2, 4))
        return out.reshape(n, self.gh * self.cell_out, self.gw * self.cell_out)

    def forward(self, x: np.ndarray, coords=None, training: bool = False) -> Tensor:
        self._check_grid(x)
        tokens = self._encode(self._embed_frames(x).mean(axis=1) + self.pos)
        return self._tokens_to_field(tokens, x.shape[0])


class GeoSTANet(_PatchModel):
    """Patch transformer with learned geospatial encodings and a temporal
    encoder applied recurrently, one application per input frame: the
    first frame's enriched tokens are encoded, and every later frame's
    tokens are added to the encoded state before the next application."""

    geo = True

    def __init__(self, cfg: ArchConfig, coarse_hw: Tuple[int, int]):
        rng = SplitMix64(cfg.seed)
        super().__init__(cfg, coarse_hw, rng)
        self.head = _UpsampleHead(rng.split(), cfg.embed_dim, cfg.patch * cfg.factor, cfg.up_channels, "head")

    def forward(self, x: np.ndarray, coords: Optional[np.ndarray] = None, training: bool = False) -> Tensor:
        self._check_grid(x)
        n, t = x.shape[:2]
        emb = self._embed_frames(x) + self.pos
        if coords is not None:
            if coords.shape != (self.n_tokens, 2):
                raise ValidationError(f"expected patch coords of shape ({self.n_tokens}, 2)")
            emb = emb + Tensor(coords) @ self.w_geo
        state = self._encode(emb[:, 0])
        for k in range(1, t):
            state = self._encode(state + emb[:, k])
        grid = self.ln(state).transpose((0, 2, 1)).reshape(n, self.cfg.embed_dim, self.gh, self.gw)
        return self.head(grid)[:, 0]


def build_model(cfg: ArchConfig, coarse_hw: Tuple[int, int]) -> DownscaleModel:
    """The architecture `cfg.kind` names; `ArchConfig` has already checked that it is one of ARCH_KINDS."""
    return {"cnn_lstm": CnnLstm, "convlstm": ConvLstmNet, "vit": ViTNet, "geostanet": GeoSTANet}[cfg.kind](cfg, coarse_hw)


def _size_carriers(cfg: ArchConfig, coarse_hw: Tuple[int, int]):
    """(entry name, shape) of the state entries that carry each size of `cfg`, found without building.

    Every size a model allocates from appears in one of these shapes, so a
    size edited in the meta fails on a shape mismatch before anything is
    allocated.
    """
    h, w = coarse_hw
    c, k = cfg.in_channels, cfg.kernel
    if cfg.kind == "cnn_lstm":
        for i, ch in enumerate(cfg.conv_channels):
            yield f"conv{i}.w", (ch, c, k, k)
            c = ch
        yield "lstm.wx", (c * h * w, 4 * cfg.lstm_hidden)
        yield "head.b", (h * cfg.factor * w * cfg.factor,)
        return
    if cfg.kind == "convlstm":
        for i, ch in enumerate(cfg.convlstm_hidden):
            yield f"cell{i}.wx", (4 * ch, c, k, k)
            c = ch
        factor = cfg.factor
    else:
        d = cfg.embed_dim
        yield "embed.w", (cfg.patch * cfg.patch * c, d)
        yield "pos", ((h // cfg.patch) * (w // cfg.patch), d)
        for i in range(cfg.layers):  # lazy: a huge count stops at the first block the checkpoint lacks
            yield f"blk{i}.fc1.w", (d, cfg.mlp_ratio * d)
        if cfg.kind == "vit":
            yield "head.w", (d, (cfg.patch * cfg.factor) ** 2)
            return
        c, factor = d, cfg.patch * cfg.factor
    plan = _stride_plan(factor)
    if not plan:
        yield "head.proj.w", (1, c, 1, 1)
    for i, s in enumerate(plan):
        c_out = 1 if i == len(plan) - 1 else cfg.up_channels
        yield f"head.up{i}.w", (c, c_out, s, s)
        c = c_out


def load_model(path: str, coarse_hw: Tuple[int, int], factor: int) -> DownscaleModel:
    """The model saved at `path`, for data of upsample `factor` on a coarse grid of `coarse_hw`.

    A malformed checkpoint, or one that does not fit the data, raises
    ValidationError naming it before any state is loaded. The data is
    checked first (`check_fit`), then the config's sizes against the
    checkpoint's entry shapes, before the model is built, so an edited size
    cannot exhaust memory. A shape that differs names the data's coarse
    grid, since a checkpoint trained on another grid fails there too.
    """
    arrays, meta = tc.load_checkpoint(path)
    meta = parse(meta, META_FIELDS, f"checkpoint {path} meta")
    bad_config = f"checkpoint {path} holds a bad architecture config"
    try:
        cfg = ArchConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()})
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{bad_config}: {exc}") from None
    try:
        check_fit(cfg, coarse_hw, factor)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint {path} does not fit the data: {exc}") from None
    try:
        misfit = next(((name, shape) for name, shape in _size_carriers(cfg, coarse_hw)
                       if name not in arrays or arrays[name].shape != shape), None)
        model = None if misfit else build_model(cfg, coarse_hw)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{bad_config}: {exc}") from None
    if misfit:
        name, shape = misfit
        found = arrays[name].shape if name in arrays else "no such entry"
        raise ValidationError(f"checkpoint {path} does not fit coarse grid {tuple(coarse_hw)}: "
                              f"it implies entry {name!r} of shape {shape}, the checkpoint holds {found}")
    model.step_count = meta["step"]
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
