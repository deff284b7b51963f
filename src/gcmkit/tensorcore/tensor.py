"""Reverse-mode autodiff over numpy arrays.

An op whose output requires a gradient records a node: its parents and a
backward closure. `backward()` on a scalar output walks that graph once in
reverse topological order. Parents are kept as ordered tuples and the
traversal is iterative, so gradient accumulation order is fixed and runs
are bit-reproducible. As soon as a non-leaf node's backward has run, the
node drops its gradient, its parents and its closure, so the graph is
freed while backward consumes it; a second `backward()` through a consumed
graph raises. Leaves keep their accumulated `.grad`.

Under `no_grad()` ops record nothing: outputs have no parents, keep no
closure and do not require a gradient, so inference holds only the arrays
that are still referenced. Ops on inputs that need no gradient record
nothing either.

The op set is what the networks run and no more: add, mul (with neg and
sub built from them), matmul, reshape, transpose, basic-index slicing,
sum/mean, relu and softmax, plus the fused nodes below. Each has a
gradient check in the test suite.

Hot composites are single fused nodes with hand-written backwards: the
LSTM gate step (`lstm_gates`, two nodes: cell state and hidden state),
`batch_norm` and `layer_norm`. Their backwards evaluate the same
expressions, in the same order, as the composite graphs they replace,
except that the normalizations use the closed-form input gradient.
There is one convolution form and one transposed form. `conv2d` is
stride 1 with "same" padding; it takes one input and kernel or matching
sequences of them: a sum of convolutions is one node over the
channel-stacked inputs, with one im2col and one product per sample, so it
sums in a different order than separate convolutions plus an add and
agrees with them to rounding. It never holds the im2col columns of a
whole batch: its backward builds each sample's columns again, so the node
keeps no more than its parents. `conv2d_transpose` is the stride-fold
upsampler whose stride equals its kernel size, so its windows never
overlap.

All math is float64. Every op output, with or without a graph, is checked
for NaN/Inf and a `NumericFault` is raised at the op that produced it.
"""

import contextlib
import threading

import numpy as np

from ..errors import NumericFault, ValidationError


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Run ops without recording a graph (per thread); values are unchanged."""
    previous, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _consumed(g):
    raise ValidationError("backward() through a graph that an earlier backward() already consumed")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|)."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    y = np.divide(1.0, d)
    np.divide(e, d, out=y, where=x < 0)
    return y


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to `shape` after numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_back", "op", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericFault(f"non-finite values produced by op {_op!r}")
        self.requires_grad = bool(requires_grad) or (
            _grad_mode.enabled and any(p.requires_grad for p in _parents)
        )
        self._parents = _parents if self.requires_grad else ()
        self.grad = np.zeros_like(self.data) if (self.requires_grad and not self._parents) else None
        self._back = None
        self.op = _op

    @property
    def _backward(self):
        return self._back

    @_backward.setter
    def _backward(self, fn):
        # a node that needs no gradient keeps no closure: closures hold parents
        if self.requires_grad:
            self._back = fn

    # -- graph ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValidationError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

    def _accum(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add `g` into the gradient.

        The first contribution is adopted when `fresh` says no one else holds
        the buffer and its layout is the data's; otherwise it is copied into
        a buffer laid out like the data, so BLAS sees the same strides.
        """
        if self.grad is not None:
            self.grad += g
        elif fresh and g.flags.c_contiguous and self.data.flags.c_contiguous:
            self.grad = g
        else:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))

    def _accum_at(self, key, g: np.ndarray) -> None:
        """Add `g` into the gradient entries a basic index `key` selects."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad[key] += g

    def backward(self, grad=None) -> None:
        if not self.requires_grad:
            raise ValidationError(f"backward() on a tensor (op {self.op!r}) that recorded no graph")
        if grad is None:
            if self.data.size != 1:
                raise ValidationError("backward() without a cotangent needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ValidationError("cotangent shape mismatch")

        # iterative topological sort, deterministic via ordered parents
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._back is _consumed:
                _consumed(None)  # raises before any gradient is touched
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self._accum(grad)
        for node in reversed(order):
            if node._back is not None:
                node._back(node.grad)
                node.grad = None
                node._parents = ()
                node._back = _consumed

    # -- arithmetic -----------------------------------------------------

    def _lift(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, _parents=(self, other), _op="add")

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        out._backward = back
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, _parents=(self, other), _op="mul")

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape), fresh=True)

        out._backward = back
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValidationError("matmul needs tensors with ndim >= 2")
        if a.shape[-1] != b.shape[-2]:
            raise ValidationError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
        out = Tensor(a @ b, _parents=(self, other), _op="matmul")

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape), fresh=True)
            if other.requires_grad:
                other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape), fresh=True)

        out._backward = back
        return out

    # -- shape ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), _parents=(self,), _op="reshape")

        def back(g):
            if self.requires_grad:
                self._accum(g.reshape(self.data.shape))

        out._backward = back
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))
        out = Tensor(self.data.transpose(axes), _parents=(self,), _op="transpose")

        def back(g):
            if self.requires_grad:
                self._accum(g.transpose(inverse))

        out._backward = back
        return out

    def __getitem__(self, key):
        """Basic indexing only (ints, slices, None, Ellipsis): the gradient
        scatters back with one in-place add, which a repeated fancy index
        would get wrong, so a fancy key is refused here."""
        for k in key if isinstance(key, tuple) else (key,):
            if not (k is None or k is Ellipsis or isinstance(k, slice)
                    or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))):
                raise ValidationError(f"Tensor indexing takes ints, slices, None and Ellipsis, got {k!r}")
        out = Tensor(self.data[key], _parents=(self,), _op="slice")

        def back(g):
            if self.requires_grad:
                self._accum_at(key, g)

        out._backward = back
        return out

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _op="sum")
        shape = self.data.shape

        def back(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accum(np.broadcast_to(g, shape).copy() if np.ndim(g) else np.full(shape, g), fresh=True)
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                gg = g
                if not keepdims:
                    for ax in sorted(a % len(shape) for a in axes):
                        gg = np.expand_dims(gg, ax)
                self._accum(np.broadcast_to(gg, shape).copy(), fresh=True)

        out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinear -------------------------------------------

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), _parents=(self,), _op="relu")

        def back(g):
            if self.requires_grad:
                self._accum(g * (self.data > 0.0), fresh=True)

        out._backward = back
        return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis; slices sum to 1."""
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y, _parents=(x,), _op="softmax")

    def back(g):
        if x.requires_grad:
            dot = np.sum(g * y, axis=axis, keepdims=True)
            x._accum(y * (g - dot), fresh=True)

    out._backward = back
    return out


def lstm_gates(z: Tensor, c_prev: Tensor = None):
    """LSTM state update from stacked gate pre-activations.

    z holds the gates on axis 1 in the order input, forget, output,
    candidate; c_prev is the previous cell state, `None` for a zero state
    (the forget term then drops out). Returns (h_t, c_t) with
    c_t = f * c_prev + i * g and h_t = o * tanh(c_t) as two nodes: c_t
    writes the i, f and g bands of the gate gradient, h_t the o band.
    """
    d = z.data.shape[1] // 4
    bands = [(slice(None), slice(k * d, (k + 1) * d)) for k in range(4)]
    i, f, o = (_sigmoid(z.data[band]) for band in bands[:3])
    g = np.tanh(z.data[bands[3]])
    c = i * g if c_prev is None else f * c_prev.data + i * g
    tanh_c = np.tanh(c)
    c_t = Tensor(c, _parents=(z,) if c_prev is None else (z, c_prev), _op="lstm_cell_state")
    h_t = Tensor(o * tanh_c, _parents=(z, c_t), _op="lstm_hidden")

    def back_c(gc):
        if z.requires_grad:
            z._accum_at(bands[0], gc * g * i * (1.0 - i))
            if c_prev is not None:
                z._accum_at(bands[1], gc * c_prev.data * f * (1.0 - f))
            z._accum_at(bands[3], gc * i * (1.0 - g * g))
        if c_prev is not None and c_prev.requires_grad:
            c_prev._accum(gc * f, fresh=True)

    def back_h(gh):
        if z.requires_grad:
            z._accum_at(bands[2], gh * tanh_c * o * (1.0 - o))
        if c_t.requires_grad:
            c_t._accum(gh * o * (1.0 - tanh_c * tanh_c), fresh=True)

    c_t._backward = back_c
    h_t._backward = back_h
    return h_t, c_t


def _normalize(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float, stat_axes, channel_axis: int, op: str, stats=None
):
    """(x - mean) / sqrt(var + eps) * gamma + beta with gamma and beta along
    `channel_axis`; the statistics run over `stat_axes` unless `stats` fixes
    them. Returns the output node and the (broadcastable) mean and var."""
    nd = x.data.ndim
    bshape = [1] * nd
    bshape[channel_axis] = -1
    param_axes = tuple(a for a in range(nd) if a != channel_axis % nd)
    scale = gamma.data.reshape(bshape)
    if stats is None:
        count = int(np.prod([x.data.shape[a] for a in stat_axes]))
        mu = x.data.sum(axis=stat_axes, keepdims=True) * (1.0 / count)
        centered = x.data - mu
        var = (centered * centered).sum(axis=stat_axes, keepdims=True) * (1.0 / count)
    else:
        mu, var = (np.reshape(s, bshape) for s in stats)
        centered = x.data - mu
    std = np.sqrt(var + eps)
    xhat = np.divide(centered, std, out=centered)
    y = xhat * scale
    y += beta.data.reshape(bshape)
    out = Tensor(y, _parents=(x, gamma, beta), _op=op)

    def back(g):
        if x.requires_grad:
            dxhat = g * scale
            if stats is None:  # the batch statistics depend on x too
                mean_dxhat = dxhat.mean(axis=stat_axes, keepdims=True)
                projection = (dxhat * xhat).mean(axis=stat_axes, keepdims=True)
                dxhat -= mean_dxhat
                dxhat -= xhat * projection
            dxhat /= std
            x._accum(dxhat, fresh=True)
        if gamma.requires_grad:
            gamma._accum((g * xhat).sum(axis=param_axes).reshape(gamma.data.shape), fresh=True)
        if beta.requires_grad:
            beta._accum(g.sum(axis=param_axes).reshape(beta.data.shape), fresh=True)

    out._backward = back
    return out, mu, var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float, stats=None):
    """Per-channel normalization of x (n, c, h, w) over (n, h, w).

    With `stats` None (training) the batch mean and biased variance are
    used; a (mean, var) pair of per-channel arrays (eval) is used instead.
    Returns (output, mean, var), the statistics as per-channel arrays.
    """
    out, mu, var = _normalize(x, gamma, beta, eps, (0, 2, 3), 1, "batch_norm", stats)
    return out, mu.reshape(-1), var.reshape(-1)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalization over the last axis, scaled and shifted per feature."""
    return _normalize(x, gamma, beta, eps, (-1,), -1, "layer_norm")[0]


# -- convolution ----------------------------------------------------------


def _im2col(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Stride-1 columns (c*kh*kw, oh*ow) of one sample (c, hp, wp) that already holds its padding."""
    c, hp, wp = xp.shape
    oh, ow = hp - kh + 1, wp - kw + 1
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(xp, (c, kh, kw, oh, ow), (s0, s1, s2, s1, s2))
    return np.ascontiguousarray(view).reshape(c * kh * kw, oh * ow)


def _sample_columns(xs, bounds, kh: int, kw: int):
    """Yield each sample's columns of the channel-stacked inputs `xs` from one reused zero-bordered buffer."""
    n, _, h, w = xs[0].data.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((bounds[-1], h + 2 * ph, w + 2 * pw))
    for s in range(n):
        for xi, lo, hi in zip(xs, bounds[:-1], bounds[1:]):
            xp[lo:hi, ph : ph + h, pw : pw + w] = xi.data[s]
        yield _im2col(xp, kh, kw)


def _col2im(cols: np.ndarray, c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Adjoint of `_im2col` on one same-padded (c, h, w) sample: sums each window back."""
    ph, pw = kh // 2, kw // 2
    out = np.zeros((c, h + 2 * ph, w + 2 * pw))
    blocks = cols.reshape(c, kh, kw, h, w)
    for i in range(kh):
        for j in range(kw):
            out[:, i : i + h, j : j + w] += blocks[:, i, j]
    return out[:, ph : h + ph, pw : w + pw]


def conv2d(x, kernel, bias: Tensor = None) -> Tensor:
    """Stride-1, "same"-padded 2-D cross-correlation: x (n,c_in,h,w) with an
    odd-sized kernel (c_out,c_in,kh,kw) gives (n,c_out,h,w).

    x and kernel may also be matching sequences of inputs (same n, h, w)
    and kernels (same c_out, kh, kw). The result is then
    sum_i conv(x_i, kernel_i) + bias, computed as one node: each sample's
    inputs are padded into one channel-stacked buffer, so each sample takes
    one im2col and one product with the kernels stacked along c_in, and the
    gradients are split back per input and per kernel. A single input is
    the 1-tuple case.

    No batch's worth of columns is ever held: the forward builds one
    sample's columns at a time, and the backward builds them again for the
    kernel gradient and sums the input gradient's windows back one sample
    at a time, so the node keeps nothing beyond its parents (Chen et al.
    2016, arXiv:1604.06174). The per-sample kernel products are summed over
    the batch in one reduction, the order a batched product would use, so
    the bits are those of one batched im2col.
    """
    xs = tuple(x) if isinstance(x, (tuple, list)) else (x,)
    ks = tuple(kernel) if isinstance(kernel, (tuple, list)) else (kernel,)
    if not xs or len(xs) != len(ks):
        raise ValidationError(f"conv2d needs one kernel per input, got {len(xs)} inputs and {len(ks)} kernels")
    n, _, h, w = xs[0].data.shape
    c_out, _, kh, kw = ks[0].data.shape
    for xi, ki in zip(xs, ks):
        (ni, c_in, hi, wi), (ci_out, c_k, khi, kwi) = xi.data.shape, ki.data.shape
        if (ni, hi, wi) != (n, h, w) or (ci_out, khi, kwi) != (c_out, kh, kw):
            raise ValidationError(f"conv2d pairs disagree: input {xi.data.shape} with kernel {ki.data.shape}")
        if c_k != c_in:
            raise ValidationError(f"kernel expects {c_k} input channels, input has {c_in}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValidationError(f"conv2d pads to 'same' size, which needs odd kernel sizes, got {kh}x{kw}")
    bounds = np.cumsum([0] + [xi.data.shape[1] for xi in xs])
    k2s = [ki.data.reshape(c_out, -1) for ki in ks]
    k2 = k2s[0] if len(k2s) == 1 else np.concatenate(k2s, axis=1)
    y = np.empty((n, c_out, h * w))
    for s, cols in enumerate(_sample_columns(xs, bounds, kh, kw)):
        np.matmul(k2, cols, out=y[s])
    y = y.reshape(n, c_out, h, w)
    if bias is not None:
        y += bias.data.reshape(1, c_out, 1, 1)
    parents = xs + ks + (() if bias is None else (bias,))
    out = Tensor(y, _parents=parents, _op="conv2d")

    def back(g):
        g2 = g.reshape(n, c_out, h * w)
        if any(ki.requires_grad for ki in ks):
            dks = np.empty((n, c_out, bounds[-1] * kh * kw))
            for s, cols in enumerate(_sample_columns(xs, bounds, kh, kw)):
                np.matmul(g2[s], cols.T, out=dks[s])
            dk = dks.sum(axis=0)
            for ki, lo, hi in zip(ks, bounds[:-1] * (kh * kw), bounds[1:] * (kh * kw)):
                if ki.requires_grad:
                    ki._accum(dk[:, lo:hi].reshape(ki.data.shape), fresh=True)
        for xi, k2i in zip(xs, k2s):
            if xi.requires_grad:
                dx = np.empty(xi.data.shape)
                for s in range(n):
                    dx[s] = _col2im(k2i.T @ g2[s], xi.data.shape[1], h, w, kh, kw)
                xi._accum(dx, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 2, 3)), fresh=True)

    out._backward = back
    return out


def conv2d_transpose(x: Tensor, kernel: Tensor, bias: Tensor = None) -> Tensor:
    """Stride-fold upsampling: each input pixel becomes one k x k output block.

    x is (n, c_out, h, w) and the kernel keeps the conv2d layout
    (c_out, c_in, k, k); the result is (n, c_in, h*k, w*k) with
    y[n, ci, i*k+a, j*k+b] = sum_co x[n, co, i, j] * K[co, ci, a, b] + b[ci].
    That is the transpose of a k x k, stride-k, unpadded conv2d, whose
    windows do not overlap (Dumoulin & Visin 2016, arXiv:1603.07285), so
    forward and backward are one product each plus a block reshuffle.
    """
    n, c_out, h, w = x.data.shape
    ck_out, c_in, k, kw = kernel.data.shape
    if ck_out != c_out:
        raise ValidationError(f"kernel expects {ck_out} input channels, input has {c_out}")
    if kw != k:
        raise ValidationError(f"conv2d_transpose folds by a square kernel, got {k}x{kw}")
    k2 = kernel.data.reshape(c_out, c_in * k * k)
    x2 = x.data.reshape(n, c_out, h * w)
    blocks = np.matmul(k2.T, x2).reshape(n, c_in, k, k, h, w)
    y = blocks.transpose(0, 1, 4, 2, 5, 3).reshape(n, c_in, h * k, w * k)
    if bias is not None:
        y += bias.data.reshape(1, c_in, 1, 1)
    parents = (x, kernel) if bias is None else (x, kernel, bias)
    out = Tensor(y, _parents=parents, _op="conv2d_transpose")

    def back(g):
        gblocks = g.reshape(n, c_in, h, k, w, k).transpose(0, 1, 3, 5, 2, 4)
        gcols = np.ascontiguousarray(gblocks).reshape(n, c_in * k * k, h * w)
        if x.requires_grad:
            x._accum(np.matmul(k2, gcols).reshape(n, c_out, h, w), fresh=True)
        if kernel.requires_grad:
            dk = np.matmul(x2, gcols.transpose(0, 2, 1)).sum(axis=0)
            kernel._accum(dk.reshape(kernel.data.shape), fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 2, 3)), fresh=True)

    out._backward = back
    return out
