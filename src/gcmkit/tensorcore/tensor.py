"""Reverse-mode autodiff over numpy arrays.

Each op builds its output node in one call, `Tensor(value, _parents=...,
_op=..., _back=closure)`. The node keeps its parents and its backward
closure only when it requires a gradient, that is when some parent does
and grad mode is on; so a closure runs only for a node whose parents need
a gradient. `backward()` on a scalar output walks that graph once in
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
except that the normalizations use the closed-form input gradient; they
rebuild the normalized input from their parent in backward rather than
hold it.
There is one convolution form and one transposed form. `conv2d` is
stride 1 with "same" padding; it takes one input and kernel or matching
sequences of them: a sum of convolutions is one node over the
channel-stacked inputs, with one im2col and one product per sample, so it
sums in a different order than separate convolutions plus an add and
agrees with them to rounding. It builds im2col columns a chunk of
samples at a time and its backward builds them again, so the node keeps
no more than its parents. `conv2d_transpose` is the stride-fold
upsampler whose stride equals its kernel size, so its windows never
overlap.

`conv2d`, `batch_norm` and `lstm_gates` fan their work out over one
worker per usable CPU (`os.sched_getaffinity`, so `taskset` limits it):
conv2d over chunks of samples, batch norm over bands of channels and the
gate step over samples. The calling thread takes a share, and a pool of
the other workers starts on the first fan-out that has more than one
range. Workers only read arrays and write disjoint slices of outputs
allocated beforehand; they build no node and touch no gradient, and every
sum across slices runs on the calling thread after they finish. Each
slice's arithmetic is the whole array's, so the bits are the same at any
worker count. A range covers at most `_RANGE_BYTES` of an elementwise
op's input (at least one sample, or two channels). conv2d's chunks
together hold at most `_COLUMN_BYTES` of im2col columns (one sample's at
least, else half a batch's at most), whatever the worker count: when one
sample's columns leave no room for a chunk per worker, fewer workers run.
Work that fits in one range runs inline. Products are pinned to one
OpenBLAS thread by `one_blas_thread`, which the trainers and `predict`
wrap themselves in.

All math is float64. Every op output, with or without a graph, is checked
for NaN/Inf and a `NumericFault` is raised at the op that produced it.
"""

import contextlib
import functools
import os
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


# -- fan-out ----------------------------------------------------------------

# The most bytes of an elementwise op's input a fan-out range covers (batch
# norm's bands, the gate step's samples): a range holds as many items as
# fit, and never fewer than one sample or two channels. Each range is a few
# short numpy calls that hand the GIL between threads, so ranges are large:
# at 256 KB a convlstm training call on a 2-CPU x86 VM switched threads
# twice as often and ran about 10% slower.
_RANGE_BYTES = 1 << 20
# The most bytes of im2col columns a conv2d call holds at once, over all
# its workers: at least one sample's, else half a batch's at most, so a
# small batch is not held whole either. The columns are transient, kh*kw
# times the input; the budget is shared out as chunks, and fewer workers
# run when one sample's columns leave no room for a chunk each. Two
# workers take one 590 KB sample each at the ConvLSTM's widest layer.
_COLUMN_BYTES = 1 << 21


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_WORKERS = _usable_cpus()
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """A forked child has none of its parent's threads, so it starts its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(n: int, item_bytes: int, budget: int, least: int = 1, workers: int = None):
    """Contiguous (lo, hi) ranges over n items of `item_bytes` each.

    A range holds no more items than fit `budget` bytes, unless that is
    fewer than `least`: it then holds `least` to 2*least - 1 (or all n).
    Several ranges come as a multiple of `workers` (the worker count by
    default) where n allows, with sizes that differ by at most one, so
    every worker gets an even share.
    """
    workers = workers or _WORKERS
    most = max(1, n // least)
    count = max(1, min(most, -(-n // max(1, budget // max(item_bytes, 1)))))
    if count > 1:
        count = min(most, -(-count // workers) * workers)
    return [(k * n // count, (k + 1) * n // count) for k in range(count)]


def _fan_out(fn, ranges, most: int = None) -> None:
    """Run fn(lo, hi) for every range, over up to `_WORKERS` threads, and
    no more than `most` of them if given.

    The calling thread and the pool threads each take the next range not
    yet taken until none is left, so a worker that gets no CPU delays no
    one. A thread stops at its first error; the caller waits for every
    thread and re-raises the error of the lowest range that failed. One
    worker, or one range, runs inline and starts no thread. `fn` only
    reads arrays and writes disjoint slices of preallocated outputs, so
    the bits do not depend on which thread runs which range.
    """
    global _pool
    workers = min(_WORKERS, len(ranges), most or _WORKERS)
    if workers <= 1:
        for lo, hi in ranges:
            fn(lo, hi)
        return
    todo, taking, errors = iter(ranges), threading.Lock(), []

    def share():
        while True:
            with taking:
                lo_hi = next(todo, None)
            if lo_hi is None:
                return
            try:
                fn(*lo_hi)
            except BaseException as exc:  # re-raised on the calling thread once every thread is done
                errors.append((lo_hi[0], exc))
                return

    with _pool_lock:
        if _pool is None:
            # imported here, not at module load: a process that never fans out (rank, one CPU) skips its cost
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=_WORKERS - 1, thread_name_prefix="tensorcore")
        pool = _pool
    futures = [pool.submit(share) for _ in range(workers - 1)]
    share()
    for future in futures:
        future.result()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]


@functools.lru_cache(maxsize=1)
def _openblas_threads():
    """(set, get) of the thread count of the OpenBLAS that numpy has loaded, or None if none is found."""
    import ctypes
    import glob

    if not hasattr(os, "RTLD_NOLOAD"):  # no way to find a loaded library without loading one
        return None
    here = os.path.dirname(np.__file__)
    libs = (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
            + glob.glob(os.path.join(here, ".dylibs", "*openblas*")) + ["libopenblas.so.0"])
    for path in libs:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)  # only a library that is already loaded
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            try:
                set_, get = getattr(lib, name.format("set")), getattr(lib, name.format("get"))
            except AttributeError:
                continue
            set_.argtypes, set_.restype = [ctypes.c_int], None
            get.argtypes, get.restype = [], ctypes.c_int
            return set_, get
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block, or the function it decorates, with OpenBLAS on one thread.

    A BLAS product split over several threads may sum in another order,
    so the pin keeps the bytes of a run independent of
    OPENBLAS_NUM_THREADS, and the tensorcore workers do not each start
    BLAS threads on the same CPUs. The previous count is restored on
    exit. Where numpy's BLAS is not an OpenBLAS found here (MKL,
    Accelerate) it does nothing.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    set_, get = blas
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _sigmoid(x: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|)."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    d = 1.0 + e
    num = np.maximum(e, x >= 0, out=out)
    return np.divide(num, d, out=num)


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

    def __init__(self, data, requires_grad=False, _parents=(), _op="leaf", _back=None):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericFault(f"non-finite values produced by op {_op!r}")
        self.requires_grad = bool(requires_grad) or (
            _grad_mode.enabled and any(p.requires_grad for p in _parents)
        )
        # a node that needs no gradient keeps no parents and no closure: closures hold parents
        self._parents = _parents if self.requires_grad else ()
        self._back = _back if self.requires_grad else None
        self.grad = np.zeros_like(self.data) if (self.requires_grad and not self._parents) else None
        self.op = _op

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

    def _grad_buffer(self) -> np.ndarray:
        """The gradient, zeros until the first contribution, to add slices into."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

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

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accum(_unbroadcast(g, other.data.shape))

        return Tensor(self.data + other.data, _parents=(self, other), _op="add", _back=back)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._lift(other)

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g * other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accum(_unbroadcast(g * self.data, other.data.shape), fresh=True)

        return Tensor(self.data * other.data, _parents=(self, other), _op="mul", _back=back)

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

        def back(g):
            if self.requires_grad:
                self._accum(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape), fresh=True)
            if other.requires_grad:
                other._accum(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape), fresh=True)

        return Tensor(a @ b, _parents=(self, other), _op="matmul", _back=back)

    # -- shape ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def back(g):
            self._accum(g.reshape(self.data.shape))

        return Tensor(self.data.reshape(shape), _parents=(self,), _op="reshape", _back=back)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def back(g):
            self._accum(g.transpose(inverse))

        return Tensor(self.data.transpose(axes), _parents=(self,), _op="transpose", _back=back)

    def __getitem__(self, key):
        """Basic indexing only (ints, slices, None, Ellipsis): the gradient
        scatters back with one in-place add, which a repeated fancy index
        would get wrong, so a fancy key is refused here."""
        for k in key if isinstance(key, tuple) else (key,):
            if not (k is None or k is Ellipsis or isinstance(k, slice)
                    or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))):
                raise ValidationError(f"Tensor indexing takes ints, slices, None and Ellipsis, got {k!r}")

        def back(g):
            self._grad_buffer()[key] += g

        return Tensor(self.data[key], _parents=(self,), _op="slice", _back=back)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        shape = self.data.shape

        def back(g):
            if axis is None:
                self._accum(np.broadcast_to(g, shape).copy() if np.ndim(g) else np.full(shape, g), fresh=True)
            else:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                gg = g
                if not keepdims:
                    for ax in sorted(a % len(shape) for a in axes):
                        gg = np.expand_dims(gg, ax)
                self._accum(np.broadcast_to(gg, shape).copy(), fresh=True)

        return Tensor(self.data.sum(axis=axis, keepdims=keepdims), _parents=(self,), _op="sum", _back=back)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- elementwise nonlinear -------------------------------------------

    def relu(self):
        def back(g):
            self._accum(g * (self.data > 0.0), fresh=True)

        return Tensor(np.maximum(self.data, 0.0), _parents=(self,), _op="relu", _back=back)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis; slices sum to 1."""
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def back(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        x._accum(y * (g - dot), fresh=True)

    return Tensor(y, _parents=(x,), _op="softmax", _back=back)


def lstm_gates(z: Tensor, c_prev: Tensor = None):
    """LSTM state update from stacked gate pre-activations.

    z holds the gates on axis 1 in the order input, forget, output,
    candidate; c_prev is the previous cell state, `None` for a zero state
    (the forget term then drops out). Returns (h_t, c_t) with
    c_t = f * c_prev + i * g and h_t = o * tanh(c_t) as two nodes: c_t
    writes the i, f and g bands of the gate gradient, h_t the o band.
    Forward and backward run elementwise over sample ranges.
    """
    n, d = z.data.shape[0], z.data.shape[1] // 4
    gi, gf, go, gg = (slice(k * d, (k + 1) * d) for k in range(4))
    forget = c_prev is not None
    i, o, g, c, tanh_c, h = (np.empty((n, d) + z.data.shape[2:]) for _ in range(6))
    f = np.empty(c.shape) if forget else None
    ranges = _split(n, z.data[:1].nbytes, _RANGE_BYTES)

    def forward(lo, hi):
        s, zs = slice(lo, hi), z.data[lo:hi]
        _sigmoid(zs[:, gi], out=i[s])
        _sigmoid(zs[:, go], out=o[s])
        np.tanh(zs[:, gg], out=g[s])
        if forget:
            _sigmoid(zs[:, gf], out=f[s])
            np.add(f[s] * c_prev.data[s], i[s] * g[s], out=c[s])
        else:
            np.multiply(i[s], g[s], out=c[s])
        np.tanh(c[s], out=tanh_c[s])
        np.multiply(o[s], tanh_c[s], out=h[s])

    _fan_out(forward, ranges)

    def back_c(gc):
        dz = z._grad_buffer() if z.requires_grad else None
        dc = np.empty(c.shape) if forget and c_prev.requires_grad else None

        def backward(lo, hi):
            s = slice(lo, hi)
            if dz is not None:
                dz[s, gi] += gc[s] * g[s] * i[s] * (1.0 - i[s])
                if forget:
                    dz[s, gf] += gc[s] * c_prev.data[s] * f[s] * (1.0 - f[s])
                dz[s, gg] += gc[s] * i[s] * (1.0 - g[s] * g[s])
            if dc is not None:
                np.multiply(gc[s], f[s], out=dc[s])

        _fan_out(backward, ranges)
        if dc is not None:
            c_prev._accum(dc, fresh=True)

    c_t = Tensor(c, _parents=(z, c_prev) if forget else (z,), _op="lstm_cell_state", _back=back_c)

    def back_h(gh):
        dz = z._grad_buffer() if z.requires_grad else None
        dc = np.empty(c.shape) if c_t.requires_grad else None

        def backward(lo, hi):
            s = slice(lo, hi)
            if dz is not None:
                dz[s, go] += gh[s] * tanh_c[s] * o[s] * (1.0 - o[s])
            if dc is not None:
                np.multiply(gh[s] * o[s], 1.0 - tanh_c[s] * tanh_c[s], out=dc[s])

        _fan_out(backward, ranges)
        if dc is not None:
            c_t._accum(dc, fresh=True)

    return Tensor(h, _parents=(z, c_t), _op="lstm_hidden", _back=back_h), c_t


def _normalize(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float, stat_axes, channel_axis: int, op: str, stats=None
):
    """(x - mean) / sqrt(var + eps) * gamma + beta with gamma and beta along
    `channel_axis`; the statistics run over `stat_axes` unless `stats` fixes
    them. Returns the output node and the (broadcastable) mean and var.

    When the statistics do not reduce over the channel axis (batch norm),
    forward and backward run over bands of channels: a band's reductions
    give the bits of the whole array's, channel by channel. Otherwise
    (layer norm) they run inline on the whole array, whose arrays become
    the node's with no copy.
    """
    nd = x.data.ndim
    channels = x.data.shape[channel_axis]
    bshape = [1] * nd
    bshape[channel_axis] = -1
    param_axes = tuple(a for a in range(nd) if a != channel_axis % nd)
    scale, shift = gamma.data.reshape(bshape), beta.data.reshape(bshape)
    reduced = {a % nd for a in stat_axes}
    banded = channel_axis % nd not in reduced

    def band(lo, hi):
        return (slice(None),) * channel_axis + (slice(lo, hi),)

    if stats is None:
        count = int(np.prod([x.data.shape[a] for a in stat_axes]))
    else:
        mu, var = (np.reshape(s, bshape) for s in stats)

    def normalized(k, out=None):
        """(mu, var, std, y) of band k, y written into `out` if given."""
        if stats is None:
            mu_k = x.data[k].sum(axis=stat_axes, keepdims=True) * (1.0 / count)
            centered = x.data[k] - mu_k
            var_k = (centered * centered).sum(axis=stat_axes, keepdims=True) * (1.0 / count)
        else:
            mu_k, var_k = mu[k], var[k]
            centered = x.data[k] - mu_k
        std_k = np.sqrt(var_k + eps)
        y_k = np.multiply(np.divide(centered, std_k, out=centered), scale[k], out=out)
        y_k += shift[k]
        return mu_k, var_k, std_k, y_k

    if banded:
        # a one-channel band would reduce as one whole array, in another order, so bands hold two or more
        ranges = _split(channels, x.data.nbytes // max(channels, 1), _RANGE_BYTES, least=2)
        stat_shape = tuple(1 if a in reduced else m for a, m in enumerate(x.data.shape))
        if stats is None:
            mu, var = np.empty(stat_shape), np.empty(stat_shape)
        std, y = np.empty(stat_shape), np.empty(x.data.shape)

        def forward(lo, hi):
            k = band(lo, hi)
            mu_k, var_k, std[k], _ = normalized(k, out=y[k])
            if stats is None:
                mu[k], var[k] = mu_k, var_k

        _fan_out(forward, ranges)
    else:  # one band: its arrays are the node's, with no copy
        mu, var, std, y = normalized(Ellipsis)

    def grads(k, g, dx):
        """Band k's input gradient, written into `dx` unless it is None, and its gamma and beta gradients."""
        xhat = np.divide(x.data[k] - mu[k], std[k])  # rebuilt, not held: the same bits as the forward's
        if dx is not None:
            np.multiply(g, scale[k], out=dx)
            if stats is None:  # the batch statistics depend on x too
                mean_dxhat = dx.mean(axis=stat_axes, keepdims=True)
                projection = (dx * xhat).mean(axis=stat_axes, keepdims=True)
                dx -= mean_dxhat
                dx -= xhat * projection
            dx /= std[k]
        return ((g * xhat).sum(axis=param_axes).reshape(-1) if gamma.requires_grad else None,
                g.sum(axis=param_axes).reshape(-1) if beta.requires_grad else None)

    def back(g):
        dx = np.empty(x.data.shape) if x.requires_grad else None
        if banded:
            dgamma = np.empty(channels) if gamma.requires_grad else None
            dbeta = np.empty(channels) if beta.requires_grad else None

            def backward(lo, hi):
                k = band(lo, hi)
                dgamma_k, dbeta_k = grads(k, g[k], None if dx is None else dx[k])
                if dgamma is not None:
                    dgamma[lo:hi] = dgamma_k
                if dbeta is not None:
                    dbeta[lo:hi] = dbeta_k

            _fan_out(backward, ranges)
        else:
            dgamma, dbeta = grads(Ellipsis, g, dx)
        if dx is not None:
            x._accum(dx, fresh=True)
        if dgamma is not None:
            gamma._accum(dgamma.reshape(gamma.data.shape), fresh=True)
        if dbeta is not None:
            beta._accum(dbeta.reshape(beta.data.shape), fresh=True)

    return Tensor(y, _parents=(x, gamma, beta), _op=op, _back=back), mu, var


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


def _columns(xs, bounds, lo: int, hi: int, kh: int, kw: int) -> np.ndarray:
    """Stride-1 columns (m, c*kh*kw, h*w) of samples lo:hi of the channel-stacked inputs `xs`, "same"-padded,
    built at once from one zero-bordered buffer; each sample's columns are laid out as a lone sample's."""
    _, _, h, w = xs[0].data.shape
    ph, pw = kh // 2, kw // 2
    xp = np.zeros((hi - lo, bounds[-1], h + 2 * ph, w + 2 * pw))
    for xi, a, b in zip(xs, bounds[:-1], bounds[1:]):
        xp[:, a:b, ph : ph + h, pw : pw + w] = xi.data[lo:hi]
    m, c = xp.shape[:2]
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(xp, (m, c, kh, kw, h, w), (s0, s1, s2, s3, s2, s3))
    return np.ascontiguousarray(view).reshape(m, c * kh * kw, h * w)


def _col2im(cols: np.ndarray, c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Adjoint of `_columns` on same-padded (m, c, h, w) samples: sums each window back."""
    ph, pw = kh // 2, kw // 2
    m = cols.shape[0]
    out = np.zeros((m, c, h + 2 * ph, w + 2 * pw))
    blocks = cols.reshape(m, c, kh, kw, h, w)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + h, j : j + w] += blocks[:, :, i, j]
    return out[:, :, ph : h + ph, pw : w + pw]


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

    Forward and backward run over contiguous chunks of samples, on as
    many workers at once as `_COLUMN_BYTES` of columns hold (one sample's
    at least, else half the batch's at most), so no batch's worth of
    columns is ever held: the backward builds each chunk's columns again
    for the kernel gradient and sums the input gradient's windows back
    chunk by chunk, so the node keeps nothing beyond its parents (Chen et
    al. 2016, arXiv:1604.06174). A chunk's products are one stacked
    product, one BLAS call per sample, and the per-sample kernel products
    are summed over the batch in one reduction, the order a batched
    product would use, so the bits are those of one batched im2col.
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
    sample = max(1, bounds[-1] * kh * kw * h * w * 8)
    budget = max(sample, min(_COLUMN_BYTES, n * sample // 2))
    workers = max(1, min(_WORKERS, budget // sample))
    chunks = _split(n, sample, budget // workers, workers=workers)
    y = np.empty((n, c_out, h * w))

    def forward(lo, hi):
        np.matmul(k2, _columns(xs, bounds, lo, hi, kh, kw), out=y[lo:hi])

    _fan_out(forward, chunks, workers)
    y = y.reshape(n, c_out, h, w)
    if bias is not None:
        y += bias.data.reshape(1, c_out, 1, 1)

    def back(g):
        g2 = g.reshape(n, c_out, h * w)
        dks = np.empty((n, c_out, bounds[-1] * kh * kw)) if any(ki.requires_grad for ki in ks) else None
        dxs = [np.empty(xi.data.shape) if xi.requires_grad else None for xi in xs]

        def backward(lo, hi):
            if dks is not None:
                np.matmul(g2[lo:hi], _columns(xs, bounds, lo, hi, kh, kw).transpose(0, 2, 1), out=dks[lo:hi])
            for dx, k2i in zip(dxs, k2s):
                if dx is not None:
                    dx[lo:hi] = _col2im(np.matmul(k2i.T, g2[lo:hi]), dx.shape[1], h, w, kh, kw)

        _fan_out(backward, chunks, workers)
        if dks is not None:
            dk = dks.sum(axis=0)
            for ki, lo, hi in zip(ks, bounds[:-1] * (kh * kw), bounds[1:] * (kh * kw)):
                if ki.requires_grad:
                    ki._accum(dk[:, lo:hi].reshape(ki.data.shape), fresh=True)
        for xi, dx in zip(xs, dxs):
            if dx is not None:
                xi._accum(dx, fresh=True)
        if bias is not None and bias.requires_grad:
            bias._accum(g.sum(axis=(0, 2, 3)), fresh=True)

    return Tensor(y, _parents=xs + ks + (() if bias is None else (bias,)), _op="conv2d", _back=back)


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

    return Tensor(y, _parents=(x, kernel) + (() if bias is None else (bias,)), _op="conv2d_transpose", _back=back)
