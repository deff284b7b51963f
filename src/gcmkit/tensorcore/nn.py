"""Neural-net building blocks on top of the autodiff core.

Layers draw their parameters from a SplitMix64 stream (He-uniform for
dense/conv weights, zero biases). Every layer and network is a `Module`,
and its state is found by one walk over its attributes in assignment
order: a `Tensor` is a parameter, an ndarray a buffer (the batch-norm
running statistics, updated in place), and a child Module, or a list of
them, contributes its own. Attribute order is therefore the checkpoint
contract: `state_entries()` lists the live arrays in walk order,
parameters first, then buffers.

The convolutions are `Conv2d` (stride 1, "same" padding, odd kernel) and
`ConvTranspose2d`, the stride-fold upsampler whose kernel size is its fold.
"""

import math
from typing import Iterator, Optional, Tuple

import numpy as np

from ..errors import ValidationError
from ..rng import SplitMix64
from .tensor import Tensor, conv2d, conv2d_transpose, layer_norm, lstm_gates, softmax


def he_uniform(rng: SplitMix64, shape, fan_in: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(shape, low=-limit, high=limit)


def dense(x: Tensor, weight: Tensor, bias_t: Tensor) -> Tensor:
    """Affine map x @ W + b for x (n, d_in), W (d_in, d_out), b (d_out)."""
    return x @ weight + bias_t


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention softmax(Q K^T / sqrt(d_k)) V.

    Q (..., Lq, d_k), K (..., Lk, d_k), V (..., Lk, d_v); the softmax runs
    over the key axis, so every attention row sums to 1.
    """
    d_k, nd = q.data.shape[-1], k.data.ndim
    scores = (q @ k.transpose((*range(nd - 2), nd - 1, nd - 2))) * (1.0 / math.sqrt(d_k))
    return softmax(scores, axis=-1) @ v


def mse(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


class Module:
    """A layer or network whose state is found by walking its attributes.

    In assignment order, a `Tensor` attribute is a parameter named
    `<name>.<attr>` (just `<attr>` when the module has no name), an ndarray
    is a buffer, and a child Module, or a list of them, lists its own state
    under its own name. Any other attribute is configuration.
    """

    name = ""

    def _walk(self) -> Iterator[Tuple[str, object]]:
        for attr, value in vars(self).items():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Module):
                    yield from item._walk()
                elif isinstance(item, (Tensor, np.ndarray)):
                    yield (f"{self.name}.{attr}" if self.name else attr), item

    def params(self):
        """The trained (name, Tensor) list, in walk order."""
        return [(name, v) for name, v in self._walk() if isinstance(v, Tensor)]

    def buffers(self):
        """The non-trained (name, array) list, in walk order; layers update these arrays in place."""
        return [(name, v) for name, v in self._walk() if isinstance(v, np.ndarray)]

    def state_entries(self):
        """The live state arrays as (name, array): parameters, then buffers."""
        return [(name, t.data) for name, t in self.params()] + self.buffers()


class Dense(Module):
    def __init__(self, rng: SplitMix64, d_in: int, d_out: int, name: str = "dense"):
        self.name = name
        self.w = Tensor(he_uniform(rng, (d_in, d_out), d_in), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.w, self.b)


class Conv2d(Module):
    """Stride-1, same-padded convolution with an odd k x k kernel."""

    def __init__(self, rng, c_in, c_out, k, name="conv"):
        self.name = name
        self.w = Tensor(he_uniform(rng, (c_out, c_in, k, k), c_in * k * k), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.w, self.b)


class ConvTranspose2d(Module):
    """Stride-fold upsampler by `factor`: a factor x factor kernel whose
    layout follows conv2d, so the layer's input channels sit on kernel axis 0."""

    def __init__(self, rng, c_in, c_out, factor, name="convT"):
        self.name = name
        self.w = Tensor(he_uniform(rng, (c_in, c_out, factor, factor), c_in * factor * factor), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d_transpose(x, self.w, self.b)


class LSTMCell(Module):
    def __init__(self, rng, d_in, d_h, name="lstm"):
        self.name, self.hidden = name, d_h
        self.wx = Tensor(he_uniform(rng, (d_in, 4 * d_h), d_in), requires_grad=True)
        self.wh = Tensor(he_uniform(rng, (d_h, 4 * d_h), d_h), requires_grad=True)
        self.b = Tensor(np.zeros(4 * d_h), requires_grad=True)

    def step(self, x: Tensor, h_prev: Optional[Tensor] = None, c_prev: Optional[Tensor] = None):
        """One LSTM step: three sigmoid gates, a tanh candidate, gated state update.

        Gate order in the stacked weights is (input, forget, output, candidate).
        `None` states are zero states: the recurrent product and the forget
        term are skipped.
        """
        return self.step_projected(x @ self.wx, h_prev, c_prev)

    def step_projected(self, zx: Tensor, h_prev: Optional[Tensor] = None, c_prev: Optional[Tensor] = None):
        """`step` from the input's projection zx = x @ wx, which a sequence can take for all steps in one product."""
        z = zx if h_prev is None else zx + h_prev @ self.wh
        return lstm_gates(z + self.b, c_prev)


class ConvLSTMCell(Module):
    def __init__(self, rng, c_in, c_h, k, name="convlstm", bn: Optional["BatchNorm2d"] = None):
        self.name, self.hidden = name, c_h
        self.wx = Tensor(he_uniform(rng, (4 * c_h, c_in, k, k), c_in * k * k), requires_grad=True)
        self.wh = Tensor(he_uniform(rng, (4 * c_h, c_h, k, k), c_h * k * k), requires_grad=True)
        self.b = Tensor(np.zeros(4 * c_h), requires_grad=True)
        self.bn = bn

    def step(self, x: Tensor, h_prev: Optional[Tensor] = None, c_prev: Optional[Tensor] = None,
             training: bool = True):
        """LSTM gate algebra with every matrix product replaced by a same-padded
        2-D convolution; hidden and cell states are spatial fields.

        The cell's batch norm, when it has one, normalizes the stacked gate
        pre-activations inside the gate op, so no node holds them normalized:
        with batch statistics, which update its running ones, in training,
        and with the running ones in eval. `None` states are zero states, as
        in `LSTMCell.step`. With a state, the x- and h-convolutions are one
        convolution over [x, h_prev] (Shi et al. 2015), stacked inside
        `conv2d` from the separate `wx` and `wh`.
        """
        if h_prev is None:
            z = conv2d(x, self.wx, self.b)
        else:
            z = conv2d((x, h_prev), (self.wx, self.wh), self.b)
        bn = self.bn
        if bn is None:
            return lstm_gates(z, c_prev)
        stats = None if training else (bn.running_mean, bn.running_var)
        h, c, mu, var = lstm_gates(z, c_prev, norm=(bn.gamma, bn.beta, bn.eps, stats))
        if training:
            bn.running_mean[...] = bn.momentum * bn.running_mean + (1 - bn.momentum) * mu
            bn.running_var[...] = bn.momentum * bn.running_var + (1 - bn.momentum) * var
        return h, c


class LayerNorm(Module):
    def __init__(self, d, eps=1e-5, name="ln"):
        self.name, self.eps = name, eps
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class BatchNorm2d(Module):
    """Per-channel batch-normalization state, which `ConvLSTMCell.step` applies inside the gate op.

    Training mode normalizes with batch statistics and updates the running
    mean/var in place (momentum 0.9), so the buffers stay the live state;
    eval mode normalizes with the stored running statistics, so inference
    is batch-independent.
    """

    def __init__(self, channels, momentum=0.9, eps=1e-5, name="bn"):
        self.name, self.momentum, self.eps = name, momentum, eps
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)


class MultiHeadAttention(Module):
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


class TransformerBlock(Module):
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
