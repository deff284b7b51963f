"""Minimal deterministic reverse-mode autodiff engine."""

from .checkpoint import encode_checkpoint, load_checkpoint, load_state
from .gradcheck import grad_check
from .nn import (
    BatchNorm2d,
    Conv2d,
    ConvLSTMCell,
    ConvTranspose2d,
    Dense,
    LayerNorm,
    LSTMCell,
    Module,
    MultiHeadAttention,
    TransformerBlock,
    attention,
    dense,
    he_uniform,
    mse,
)
from .optim import SGD, Adam, make_optimizer
from .tensor import Tensor, batch_norm, concat, conv2d, conv2d_transpose, layer_norm, lstm_gates, no_grad, softmax

__all__ = [
    "Adam",
    "BatchNorm2d",
    "Conv2d",
    "ConvLSTMCell",
    "ConvTranspose2d",
    "Dense",
    "LSTMCell",
    "LayerNorm",
    "Module",
    "MultiHeadAttention",
    "SGD",
    "Tensor",
    "TransformerBlock",
    "attention",
    "batch_norm",
    "concat",
    "conv2d",
    "conv2d_transpose",
    "dense",
    "encode_checkpoint",
    "grad_check",
    "he_uniform",
    "layer_norm",
    "load_checkpoint",
    "load_state",
    "lstm_gates",
    "make_optimizer",
    "mse",
    "no_grad",
    "softmax",
]
