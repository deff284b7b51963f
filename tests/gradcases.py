"""Gradient-check cases shared by the unit and acceptance suites.

Each case builds a scalar loss closure plus the parameter list to verify;
inputs that would sit on a ReLU kink are nudged away from it because
central differences assume local smoothness.
"""

import numpy as np

from gcmkit import tensorcore as tc
from gcmkit.tensorcore.tensor import Tensor


def rand(rng, shape):
    return rng.normal(shape)


OPS = {}


def op_case(name):
    def deco(fn):
        OPS[name] = fn
        return fn

    return deco


@op_case("dense")
def _case_dense(rng):
    w = Tensor(rand(rng, (4, 3)), requires_grad=True)
    b = Tensor(rand(rng, (3,)), requires_grad=True)
    x = Tensor(rand(rng, (5, 4)), requires_grad=True)
    t = rand(rng, (5, 3))
    return lambda: tc.mse(tc.dense(x, w, b), t), [x, w, b]


@op_case("relu")
def _case_relu(rng):
    base = rand(rng, (6, 6))
    base = np.where(np.abs(base) < 0.05, base + 0.2, base)  # stay off the kink
    x = Tensor(base, requires_grad=True)
    t = rand(rng, (6, 6))
    return lambda: tc.mse(x.relu(), t), [x]


@op_case("softmax")
def _case_softmax(rng):
    x = Tensor(rand(rng, (5, 6)), requires_grad=True)
    t = rand(rng, (5, 6))
    return lambda: tc.mse(tc.softmax(x, axis=-1), t), [x]


@op_case("matmul_batched")
def _case_matmul(rng):
    a = Tensor(rand(rng, (3, 4, 5)), requires_grad=True)
    b = Tensor(rand(rng, (3, 5, 2)), requires_grad=True)
    t = rand(rng, (3, 4, 2))
    return lambda: tc.mse(a @ b, t), [a, b]


@op_case("conv2d_same")
def _case_conv_same(rng):
    x = Tensor(rand(rng, (2, 2, 6, 6)), requires_grad=True)
    k = Tensor(rand(rng, (3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rand(rng, (3,)), requires_grad=True)
    t = rand(rng, (2, 3, 6, 6))
    return lambda: tc.mse(tc.conv2d(x, k, b), t), [x, k, b]


@op_case("conv2d_stacked_pair")
def _case_conv_stacked(rng):
    # one node over two (input, kernel) pairs, as a ConvLSTM gate step uses it
    x = Tensor(rand(rng, (2, 1, 5, 5)), requires_grad=True)
    h = Tensor(rand(rng, (2, 2, 5, 5)), requires_grad=True)
    wx = Tensor(rand(rng, (3, 1, 3, 3)), requires_grad=True)
    wh = Tensor(rand(rng, (3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rand(rng, (3,)), requires_grad=True)
    t = rand(rng, (2, 3, 5, 5))
    return lambda: tc.mse(tc.conv2d((x, h), (wx, wh), b), t), [x, h, wx, wh, b]


@op_case("conv2d_transpose")
def _case_convt(rng):
    x = Tensor(rand(rng, (2, 3, 4, 4)), requires_grad=True)
    k = Tensor(rand(rng, (3, 2, 2, 2)), requires_grad=True)
    b = Tensor(rand(rng, (2,)), requires_grad=True)
    t = rand(rng, (2, 2, 8, 8))
    return lambda: tc.mse(tc.conv2d_transpose(x, k, b), t), [x, k, b]


@op_case("lstm_cell")
def _case_lstm(rng):
    cell = tc.LSTMCell(rng.split(), 3, 4)
    x = Tensor(rand(rng, (2, 3)), requires_grad=True)
    h0 = Tensor(rand(rng, (2, 4)))
    c0 = Tensor(rand(rng, (2, 4)))
    t = rand(rng, (2, 4))

    def f():
        h1, c1 = cell.step(x, h0, c0)
        return tc.mse(h1 * c1, t)

    return f, [x, cell.wx, cell.wh, cell.b]


@op_case("convlstm_cell")
def _case_convlstm(rng):
    cell = tc.ConvLSTMCell(rng.split(), 1, 2, 3)
    x = Tensor(rand(rng, (2, 1, 5, 5)), requires_grad=True)
    h0 = Tensor(rand(rng, (2, 2, 5, 5)))
    c0 = Tensor(rand(rng, (2, 2, 5, 5)))
    t = rand(rng, (2, 2, 5, 5))

    def f():
        h1, _ = cell.step(x, h0, c0)
        return tc.mse(h1, t)

    return f, [x, cell.wx, cell.wh, cell.b]


@op_case("lstm_cell_zero_state")
def _case_lstm_zero_state(rng):
    cell = tc.LSTMCell(rng.split(), 3, 4)
    x = Tensor(rand(rng, (2, 3)), requires_grad=True)
    t = rand(rng, (2, 4))

    def f():
        h1, c1 = cell.step(x, None, None)
        return tc.mse(h1 * c1, t)

    return f, [x, cell.wx, cell.b]


@op_case("convlstm_cell_zero_state")
def _case_convlstm_zero_state(rng):
    cell = tc.ConvLSTMCell(rng.split(), 1, 2, 3)
    x = Tensor(rand(rng, (2, 1, 5, 5)), requires_grad=True)
    t = rand(rng, (2, 2, 5, 5))

    def f():
        h1, c1 = cell.step(x, None, None)
        return tc.mse(h1 + c1, t)

    return f, [x, cell.wx, cell.b]


@op_case("lstm_two_steps")
def _case_lstm_two_steps(rng):
    # the second step's state gradients flow back through the first step
    cell = tc.LSTMCell(rng.split(), 3, 4)
    x = Tensor(rand(rng, (2, 2, 3)), requires_grad=True)
    t = rand(rng, (2, 4))

    def f():
        h, c = cell.step(x[:, 0], None, None)
        h, c = cell.step(x[:, 1], h, c)
        return tc.mse(h * c, t)

    return f, [x, cell.wx, cell.wh, cell.b]


@op_case("attention")
def _case_attention(rng):
    q = Tensor(rand(rng, (2, 3, 4)), requires_grad=True)
    k = Tensor(rand(rng, (2, 5, 4)), requires_grad=True)
    v = Tensor(rand(rng, (2, 5, 4)), requires_grad=True)
    t = rand(rng, (2, 3, 4))
    return lambda: tc.mse(tc.attention(q, k, v), t), [q, k, v]


@op_case("multi_head_attention")
def _case_mha(rng):
    mha = tc.MultiHeadAttention(rng.split(), 8, 2)
    x = Tensor(rand(rng, (2, 5, 8)), requires_grad=True)
    t = rand(rng, (2, 5, 8))
    return lambda: tc.mse(mha(x), t), [x] + [p for _, p in mha.params()]


@op_case("layer_norm")
def _case_ln(rng):
    ln = tc.LayerNorm(6)
    x = Tensor(rand(rng, (4, 6)), requires_grad=True)
    t = rand(rng, (4, 6))
    return lambda: tc.mse(ln(x), t), [x, ln.gamma, ln.beta]


def _bn_gates(rng, training, with_state):
    # the gate step on batch-normalized pre-activations, as a ConvLSTM cell with batch norm runs it
    z = Tensor(rand(rng, (3, 8, 4, 4)), requires_grad=True)
    gamma = Tensor(rand(rng, (8,)), requires_grad=True)
    beta = Tensor(rand(rng, (8,)), requires_grad=True)
    c0 = Tensor(rand(rng, (3, 2, 4, 4)), requires_grad=True) if with_state else None
    stats = None if training else (rand(rng, (8,)), np.abs(rand(rng, (8,))) + 0.5)
    t = rand(rng, (3, 2, 4, 4))

    def f():
        h1, c1, _, _ = tc.lstm_gates(z, c0, norm=(gamma, beta, 1e-5, stats))
        return tc.mse(h1 * c1, t)

    return f, [z, gamma, beta] + ([c0] if with_state else [])


@op_case("bn_lstm_gates_train")
def _case_bn_gates_train(rng):
    return _bn_gates(rng, training=True, with_state=True)


@op_case("bn_lstm_gates_train_zero_state")
def _case_bn_gates_train_zero_state(rng):
    return _bn_gates(rng, training=True, with_state=False)


@op_case("bn_lstm_gates_eval")
def _case_bn_gates_eval(rng):
    return _bn_gates(rng, training=False, with_state=True)


@op_case("reductions_and_shapes")
def _case_shapes(rng):
    x = Tensor(rand(rng, (3, 4, 5)), requires_grad=True)

    def f():
        y = x.transpose((1, 0, 2)).reshape(4, 15)
        return (y[:, 3:9] * y[:, 3:9]).mean() + y.sum() * 1e-3

    return f, [x]


@op_case("arithmetic_mix")
def _case_arith(rng):
    a = Tensor(rand(rng, (4, 4)) + 3.0, requires_grad=True)
    b = Tensor(rand(rng, (4,)) + 2.0, requires_grad=True)

    def f():
        y = (a + 1.0) * b - a - b * b
        return (y * y).mean()

    return f, [a, b]


@op_case("composed_mlp")
def _case_composed(rng):
    d1 = tc.Dense(rng.split(), 5, 8, "d1")
    d2 = tc.Dense(rng.split(), 8, 4, "d2")
    x = rand(rng, (6, 5))
    t = rand(rng, (6, 4))

    def f():
        h = d1(Tensor(x)).relu()
        return tc.mse(tc.softmax(d2(h), axis=-1), t)

    return f, [p for _, p in d1.params() + d2.params()]
