"""Neural-net building blocks on top of the autodiff core.

Layers draw their parameters from a SplitMix64 stream (He-uniform for
dense/conv weights, zero biases) and expose `params()` as an ordered
(name, Tensor) list. Non-trained state, the batch-norm running statistics,
is `buffers()`: a (name, array) list of arrays that the layer updates in
place. A network's `state_entries()` lists the live arrays of both, and
its order is the checkpoint contract.
"""

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..rng import SplitMix64
from .tensor import Tensor, batch_norm, conv2d, conv2d_transpose, layer_norm, lstm_gates, softmax


def he_uniform(rng: SplitMix64, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(shape, low=-limit, high=limit)


def dense(x: Tensor, weight: Tensor, bias_t: Tensor) -> Tensor:
    """Affine map x @ W + b for x (n, d_in), W (d_in, d_out), b (d_out)."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ValidationError(
            f"dense: input dim {x.data.shape[-1]} does not match weight dim {weight.data.shape[0]}"
        )
    return x @ weight + bias_t


def lstm_cell(
    x: Tensor,
    h_prev: Optional[Tensor],
    c_prev: Optional[Tensor],
    params: "LSTMCell",
) -> Tuple[Tensor, Tensor]:
    """One LSTM step: three sigmoid gates, a tanh candidate, gated state update.

    Gate order in the stacked weights is (input, forget, output, candidate).
    `None` states are zero states: the recurrent product and the forget
    term are skipped.
    """
    z = x @ params.wx
    if h_prev is not None:
        z = z + h_prev @ params.wh
    return lstm_gates(z + params.b, c_prev)


def convlstm_cell(
    x: Tensor,
    h_prev: Optional[Tensor],
    c_prev: Optional[Tensor],
    params: "ConvLSTMCell",
    norm=None,
) -> Tuple[Tensor, Tensor]:
    """LSTM gate algebra with every matrix product replaced by a same-padded
    2-D convolution; hidden and cell states are spatial fields.

    `norm`, when given, is applied to the stacked gate pre-activations
    (the output of the gate convolution block) before the nonlinearities.
    `None` states are zero states, as in `lstm_cell`. With a state, the
    x- and h-convolutions are one convolution over [x, h_prev] (Shi et al.
    2015), stacked inside `conv2d` from the separate `wx` and `wh`.
    """
    if h_prev is None:
        z = conv2d(x, params.wx, params.b, padding="same")
    else:
        z = conv2d((x, h_prev), (params.wx, params.wh), params.b, padding="same")
    if norm is not None:
        z = norm(z)
    return lstm_gates(z, c_prev)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(Q K^T / sqrt(d_k)) V.

    Q (..., Lq, d_k), K (..., Lk, d_k), V (..., Lk, d_v); the softmax runs
    over the key axis, so every attention row sums to 1.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ValidationError("query and key dims disagree")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ValidationError("key and value sequence lengths disagree")
    d_k = q.data.shape[-1]
    scores = (q @ k.transpose(_swap_last(k.data.ndim))) * (1.0 / math.sqrt(d_k))
    return softmax(scores, axis=-1) @ v


def _swap_last(ndim: int):
    axes = list(range(ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return axes


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


class Dense:
    def __init__(self, rng: SplitMix64, d_in: int, d_out: int, name: str = "dense"):
        self.name = name
        self.w = Tensor(he_uniform(rng, (d_in, d_out), d_in), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.w, self.b)

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class Conv2d:
    def __init__(self, rng, c_in, c_out, k, stride=1, padding="same", name="conv"):
        if k % 2 == 0:
            raise ValidationError("conv kernels use an odd size (radius-based)")
        self.name, self.stride, self.padding = name, stride, padding
        self.w = Tensor(he_uniform(rng, (c_out, c_in, k, k), c_in * k * k), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class ConvTranspose2d:
    """Stride-fold upsampler; kernel layout follows conv2d, so the layer's
    input channels sit on kernel axis 0."""

    def __init__(self, rng, c_in, c_out, k, stride, name="convT"):
        self.name, self.stride = name, stride
        self.w = Tensor(he_uniform(rng, (c_in, c_out, k, k), c_in * k * k), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(x, self.w, stride=self.stride, bias=self.b)

    def params(self):
        return [(f"{self.name}.w", self.w), (f"{self.name}.b", self.b)]


class LSTMCell:
    def __init__(self, rng, d_in, d_h, name="lstm"):
        self.name, self.hidden = name, d_h
        self.wx = Tensor(he_uniform(rng, (d_in, 4 * d_h), d_in), requires_grad=True)
        self.wh = Tensor(he_uniform(rng, (d_h, 4 * d_h), d_h), requires_grad=True)
        self.b = Tensor(np.zeros(4 * d_h), requires_grad=True)

    def step(self, x, h_prev=None, c_prev=None):
        return lstm_cell(x, h_prev, c_prev, self)

    def params(self):
        return [(f"{self.name}.wx", self.wx), (f"{self.name}.wh", self.wh), (f"{self.name}.b", self.b)]


class ConvLSTMCell:
    def __init__(self, rng, c_in, c_h, k, name="convlstm"):
        if k % 2 == 0:
            raise ValidationError("convlstm kernels use an odd size")
        self.name, self.hidden = name, c_h
        self.wx = Tensor(he_uniform(rng, (4 * c_h, c_in, k, k), c_in * k * k), requires_grad=True)
        self.wh = Tensor(he_uniform(rng, (4 * c_h, c_h, k, k), c_h * k * k), requires_grad=True)
        self.b = Tensor(np.zeros(4 * c_h), requires_grad=True)

    def step(self, x, h_prev=None, c_prev=None, norm=None):
        return convlstm_cell(x, h_prev, c_prev, self, norm=norm)

    def params(self):
        return [(f"{self.name}.wx", self.wx), (f"{self.name}.wh", self.wh), (f"{self.name}.b", self.b)]


class LayerNorm:
    def __init__(self, d, eps=1e-5, name="ln"):
        self.name, self.eps = name, eps
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]


class BatchNorm2d:
    """Per-channel batch normalization with running statistics.

    Training mode normalizes with batch statistics and updates the running
    mean/var in place (momentum 0.9), so `buffers()` stays the live state;
    eval mode normalizes with the stored running statistics, so inference
    is batch-independent.
    """

    def __init__(self, channels, momentum=0.9, eps=1e-5, name="bn"):
        self.name, self.momentum, self.eps = name, momentum, eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def __call__(self, x: Tensor, training: bool = True) -> Tensor:
        stats = None if training else (self.running_mean, self.running_var)
        out, mu, var = batch_norm(x, self.gamma, self.beta, self.eps, stats)
        if training:
            self.running_mean[...] = self.momentum * self.running_mean + (1 - self.momentum) * mu
            self.running_var[...] = self.momentum * self.running_var + (1 - self.momentum) * var
        return out

    def params(self):
        return [(f"{self.name}.gamma", self.gamma), (f"{self.name}.beta", self.beta)]

    def buffers(self):
        return [(f"{self.name}.running_mean", self.running_mean), (f"{self.name}.running_var", self.running_var)]


class MultiHeadAttention:
    """Multi-head self-attention over token sequences (n, L, d)."""

    def __init__(self, rng, d, heads, name="mha"):
        if d % heads:
            raise ValidationError(f"embed dim {d} not divisible by {heads} heads")
        self.name, self.d, self.heads = name, d, heads
        self.wq = Tensor(he_uniform(rng, (d, d), d), requires_grad=True)
        self.wk = Tensor(he_uniform(rng, (d, d), d), requires_grad=True)
        self.wv = Tensor(he_uniform(rng, (d, d), d), requires_grad=True)
        self.wo = Tensor(he_uniform(rng, (d, d), d), requires_grad=True)

    def _split(self, t: Tensor, n: int, length: int) -> Tensor:
        hd = self.d // self.heads
        return t.reshape(n, length, self.heads, hd).transpose((0, 2, 1, 3))

    def __call__(self, x: Tensor) -> Tensor:
        n, length, _ = x.data.shape
        q = self._split(x @ self.wq, n, length)
        k = self._split(x @ self.wk, n, length)
        v = self._split(x @ self.wv, n, length)
        mixed = attention(q, k, v)
        merged = mixed.transpose((0, 2, 1, 3)).reshape(n, length, self.d)
        return merged @ self.wo

    def params(self):
        return [
            (f"{self.name}.wq", self.wq),
            (f"{self.name}.wk", self.wk),
            (f"{self.name}.wv", self.wv),
            (f"{self.name}.wo", self.wo),
        ]


class TransformerBlock:
    """Pre-norm encoder block: attention and a 2-layer MLP, each residual."""

    def __init__(self, rng, d, heads, mlp_ratio=2, name="blk"):
        self.name = name
        self.ln1 = LayerNorm(d, name=f"{name}.ln1")
        self.attn = MultiHeadAttention(rng, d, heads, name=f"{name}.attn")
        self.ln2 = LayerNorm(d, name=f"{name}.ln2")
        self.fc1 = Dense(rng, d, d * mlp_ratio, name=f"{name}.fc1")
        self.fc2 = Dense(rng, d * mlp_ratio, d, name=f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        n, length, d = x.data.shape
        x = x + self.attn(self.ln1(x))
        h = self.ln2(x).reshape(n * length, d)
        h = self.fc2(self.fc1(h).relu()).reshape(n, length, d)
        return x + h

    def params(self):
        out = []
        for part in (self.ln1, self.attn, self.ln2, self.fc1, self.fc2):
            out.extend(part.params())
        return out
