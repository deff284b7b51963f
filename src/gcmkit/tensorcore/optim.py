"""SGD and Adam updates, deterministic given parameters and gradients, and the one training step `minimize`.

Both update a parameter a flat slice of at most `_RANGE_BYTES` at a time, so no temporary spans a large
weight; each element takes the whole-array update's operations, so the slicing does not change the bits.
"""

from typing import Callable, List

import numpy as np

from ..errors import NumericFault, ValidationError
from . import tensor
from .tensor import Tensor


def _slices(*arrays):
    """Aligned flat slices of at most `_RANGE_BYTES` of equally shaped arrays, or the arrays whole
    when one of them is not laid out contiguously."""
    if not all(a.flags.c_contiguous for a in arrays):
        yield arrays
        return
    flat = [a.reshape(-1) for a in arrays]
    step = max(1, tensor._RANGE_BYTES // flat[0].itemsize)
    for lo in range(0, flat[0].size, step):
        yield tuple(a[lo : lo + step] for a in flat)


class Optimizer:
    """The parameters, learning rate and step count of an optimizer, and its training step."""

    def __init__(self, params: List[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.step_count = 0

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def minimize(self, loss_of: Callable[[], Tensor]) -> float:
        """Zero, backpropagate the scalar `loss_of()`, update, and return the loss; NumericFault on a
        non-finite parameter after the update (an op that makes NaN or Inf raises it in the forward)."""
        self.zero_grad()
        loss = loss_of()
        loss.backward()
        self.step()
        if not all(np.all(np.isfinite(p.data)) for p in self.params):
            raise NumericFault("non-finite parameters after an optimizer step")
        return loss.item()


class SGD(Optimizer):
    def step(self):
        self.step_count += 1
        for p in self.params:
            if p.grad is not None:
                for data, grad in _slices(p.data, p.grad):
                    data -= self.lr * grad


class Adam(Optimizer):
    """Adam with bias-corrected first and second moments."""

    def __init__(self, params: List[Tensor], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for p, m_all, v_all in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            for data, grad, m, v in _slices(p.data, p.grad, m_all, v_all):
                # in place, but the same operations in the same order as
                # p -= lr * m_hat / (sqrt(v_hat) + eps)
                m *= self.beta1
                m += (1 - self.beta1) * grad
                v *= self.beta2
                v += (1 - self.beta2) * (grad * grad)
                update = m / (1 - self.beta1 ** t)
                update *= self.lr
                denom = v / (1 - self.beta2 ** t)
                np.sqrt(denom, out=denom)
                denom += self.eps
                update /= denom
                data -= update


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(kind: str, params: List[Tensor], lr: float) -> Optimizer:
    if kind not in OPTIMIZERS:
        raise ValidationError(f"unknown optimizer kind {kind!r}")
    return OPTIMIZERS[kind](params, lr)
