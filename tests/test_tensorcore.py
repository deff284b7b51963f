import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest

from gcmkit import downscale as ds
from gcmkit import tensorcore as tc
from gcmkit.artifacts import write_files
from gcmkit.errors import NumericFault, ValidationError
from gcmkit.rng import SplitMix64
from gcmkit.tensorcore import tensor as tensor_mod
from gcmkit.tensorcore.tensor import Tensor

from gradcases import OPS


def rand(rng, shape):
    return rng.normal(shape)


class TestRng:
    def test_determinism_and_split_independence(self):
        a, b = SplitMix64(5), SplitMix64(5)
        assert np.array_equal(a.uniform((10,)), b.uniform((10,)))
        parent = SplitMix64(5)
        child1, child2 = parent.split(), parent.split()
        assert not np.array_equal(child1.uniform((10,)), child2.uniform((10,)))

    def test_uniform_range_and_normal_moments(self):
        rng = SplitMix64(1)
        u = rng.uniform((20000,))
        assert u.min() >= 0.0 and u.max() < 1.0
        z = rng.normal((20000,))
        assert abs(z.mean()) < 0.03 and abs(z.std() - 1.0) < 0.03

    def test_permutation_is_a_permutation(self):
        rng = SplitMix64(3)
        p = rng.permutation(50)
        assert sorted(p.tolist()) == list(range(50))


class TestForwardSemantics:
    def test_dense_identity_and_scalar(self):
        x = Tensor([[1.0, 2.0]])
        w = Tensor(np.eye(2))
        b = Tensor(np.zeros(2))
        assert np.array_equal(tc.dense(x, w, b).data, x.data)
        y = tc.dense(Tensor([[3.0]], requires_grad=True), Tensor([[2.0]]), Tensor([1.0]))
        assert y.data[0, 0] == 7.0

    def test_dense_shape_mismatch(self):
        with pytest.raises(ValidationError):
            tc.dense(Tensor(np.ones((1, 3))), Tensor(np.ones((2, 4))), Tensor(np.zeros(4)))

    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.array_equal(x.relu().data, [0.0, 0.0, 2.0])

    def test_indexing_is_basic_only(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[1, ::2].sum().backward()
        assert np.array_equal(x.grad, [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        for key in ([0, 0], (slice(None), np.array([2, 2])), np.array([True, False]), True):
            with pytest.raises(ValidationError, match="Tensor indexing"):
                x[key]

    def test_softmax_normalizes(self):
        rng = SplitMix64(2)
        x = Tensor(rng.normal((5, 7)))
        y = tc.softmax(x, axis=-1)
        assert np.all(y.data > 0)
        assert np.allclose(y.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_conv2d_identity_kernel(self):
        rng = SplitMix64(4)
        x = Tensor(rng.normal((2, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(tc.conv2d(x, k).data, x.data)

    def test_conv2d_averaging_kernel_on_constant(self):
        x = Tensor(np.full((1, 1, 6, 6), 3.0))
        k = Tensor(np.full((1, 1, 3, 3), 1.0 / 9.0))
        out = tc.conv2d(x, k)
        assert np.allclose(out.data[0, 0, 1:-1, 1:-1], 3.0, atol=1e-12)

    def test_conv2d_rejects_even_kernels(self):
        with pytest.raises(ValidationError, match="odd kernel"):
            tc.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 2))))

    @pytest.mark.parametrize("x_needs_grad", [True, False])
    def test_conv2d_stacked_pairs_equal_summed_convs(self, x_needs_grad):
        rng = SplitMix64(12)
        x_data, h_data = rand(rng, (3, 2, 6, 5)), rand(rng, (3, 4, 6, 5))
        wx_data, wh_data = rand(rng, (8, 2, 3, 3)), rand(rng, (8, 4, 3, 3))
        b_data, g = rand(rng, (8,)), rand(rng, (3, 8, 6, 5))

        def run(stacked):
            x = Tensor(x_data, requires_grad=x_needs_grad)
            h = Tensor(h_data, requires_grad=True)
            wx, wh, b = (Tensor(d, requires_grad=True) for d in (wx_data, wh_data, b_data))
            if stacked:
                out = tc.conv2d((x, h), (wx, wh), b)
            else:
                out = tc.conv2d(x, wx, b) + tc.conv2d(h, wh)
            out.backward(g)
            return out.data, [t.grad for t in (x, h, wx, wh, b)]

        (y1, grads1), (y2, grads2) = run(True), run(False)
        assert np.allclose(y1, y2, rtol=0, atol=1e-12)
        for g1, g2 in zip(grads1, grads2):
            if g2 is None:
                assert g1 is None
            else:
                assert np.allclose(g1, g2, rtol=0, atol=1e-12)
        assert (grads1[0] is None) != x_needs_grad

    def test_conv2d_stacked_pairs_must_agree(self):
        x, h = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 2, 4, 5)))
        wx, wh = Tensor(np.ones((3, 1, 3, 3))), Tensor(np.ones((3, 2, 3, 3)))
        with pytest.raises(ValidationError):
            tc.conv2d((x, h), (wx, wh))  # spatial sizes differ
        with pytest.raises(ValidationError):
            tc.conv2d((x, x), (wx,))  # one kernel for two inputs

    def test_conv_transpose_identity_and_expansion(self):
        x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
        unit = Tensor(np.ones((1, 1, 1, 1)))
        assert np.array_equal(tc.conv2d_transpose(x, unit).data, x.data)
        ones = Tensor(np.ones((1, 1, 2, 2)))
        out = tc.conv2d_transpose(x, ones)
        expect = np.kron(x.data[0, 0], np.ones((2, 2)))
        assert np.array_equal(out.data[0, 0], expect)

    def test_conv_transpose_matches_per_block_reference(self):
        # y[n, ci, i*k+a, j*k+b] = sum_co x[n, co, i, j] * K[co, ci, a, b] + b[ci]
        rng = SplitMix64(8)
        x, kern, bias = rand(rng, (2, 3, 4, 5)), rand(rng, (3, 2, 3, 3)), rand(rng, (2,))
        out = tc.conv2d_transpose(Tensor(x), Tensor(kern), Tensor(bias)).data
        assert out.shape == (2, 2, 12, 15)
        for i in range(4):
            for j in range(5):
                block = np.einsum("nc,cdab->ndab", x[:, :, i, j], kern) + bias.reshape(1, 2, 1, 1)
                assert np.allclose(out[:, :, 3 * i : 3 * i + 3, 3 * j : 3 * j + 3], block, rtol=0, atol=1e-12)
        with pytest.raises(ValidationError, match="square kernel"):
            tc.conv2d_transpose(Tensor(x), Tensor(kern[:, :, :, :2]))

    def test_attention_single_key_copies_value(self):
        rng = SplitMix64(10)
        q = Tensor(rand(rng, (1, 1, 4)))
        k = Tensor(rand(rng, (1, 1, 4)))
        v = Tensor(rand(rng, (1, 1, 6)))
        assert np.allclose(tc.attention(q, k, v).data, v.data, atol=1e-15)

    def test_attention_identical_keys_average_values(self):
        rng = SplitMix64(11)
        key = rand(rng, (1, 1, 4))
        k = Tensor(np.concatenate([key, key], axis=1))
        v = Tensor(rand(rng, (1, 2, 3)))
        q = Tensor(rand(rng, (1, 1, 4)))
        out = tc.attention(q, k, v)
        assert np.allclose(out.data[0, 0], v.data[0].mean(axis=0), atol=1e-12)

    def test_attention_rows_sum_to_one(self):
        rng = SplitMix64(12)
        q = Tensor(rand(rng, (2, 5, 8)))
        k = Tensor(rand(rng, (2, 7, 8)))
        scores = tc.softmax((q @ Tensor(np.swapaxes(k.data, -1, -2))) * (1 / np.sqrt(8)), axis=-1)
        assert np.allclose(scores.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_attention_dim_mismatch(self):
        with pytest.raises(ValidationError):
            tc.attention(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 4))), Tensor(np.ones((1, 2, 3))))

    def test_finite_guard_trips(self):
        with pytest.raises(NumericFault):
            Tensor([1.0, np.inf])
        x = Tensor([1e200], requires_grad=True)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericFault):
                (x * 2.0) * x  # overflow to inf inside the graph


class TestLstmOracles:
    def _cell(self, d_in=3, d_h=4, zero=True, f_bias=0.0):
        cell = tc.LSTMCell(SplitMix64(7).split(), d_in, d_h)
        if zero:
            cell.wx.data[:] = 0.0
            cell.wh.data[:] = 0.0
            cell.b.data[:] = 0.0
        cell.b.data[d_h : 2 * d_h] += f_bias
        return cell

    def test_zero_weights_closed_form(self):
        rng = SplitMix64(13)
        cell = self._cell()
        x = Tensor(rand(rng, (2, 3)))
        c0 = Tensor(rand(rng, (2, 4)))
        h1, c1 = cell.step(x, Tensor(np.zeros((2, 4))), c0)
        assert np.allclose(c1.data, 0.5 * c0.data, atol=1e-15)
        assert np.allclose(h1.data, 0.5 * np.tanh(0.5 * c0.data), atol=1e-15)

    def test_saturated_forget_gate_carries_memory(self):
        rng = SplitMix64(14)
        cell = tc.LSTMCell(rng.split(), 3, 4)
        cell.wx.data *= 0.1
        cell.wh.data *= 0.1
        cell.b.data[:] = 0.0
        cell.b.data[4:8] = 10.0  # forget-gate bias
        x = Tensor(0.5 * rand(rng, (2, 3)))
        h0 = Tensor(np.zeros((2, 4)))
        c0 = Tensor(0.8 * rand(rng, (2, 4)))
        h1, c1 = cell.step(x, h0, c0)
        z = x.data @ cell.wx.data + h0.data @ cell.wh.data + cell.b.data
        i = 1 / (1 + np.exp(-z[:, 0:4]))
        g = np.tanh(z[:, 12:16])
        assert np.allclose(c1.data, c0.data + i * g, atol=1e-3)

    def test_convlstm_1x1_kernels_match_per_pixel_lstm(self):
        rng = SplitMix64(15)
        c_in, ch, h, w, n = 2, 3, 4, 5, 2
        conv_cell = tc.ConvLSTMCell(rng.split(), c_in, ch, 1)
        dense_cell = tc.LSTMCell(rng.split(), c_in, ch)
        # align weights: conv kernel (4ch, c_in, 1, 1) corresponds to Wx (c_in, 4ch)
        dense_cell.wx.data[...] = conv_cell.wx.data[:, :, 0, 0].T
        dense_cell.wh.data[...] = conv_cell.wh.data[:, :, 0, 0].T
        dense_cell.b.data[...] = conv_cell.b.data

        x = rand(rng, (n, c_in, h, w))
        h0 = rand(rng, (n, ch, h, w))
        c0 = rand(rng, (n, ch, h, w))
        hc, cc = conv_cell.step(Tensor(x), Tensor(h0), Tensor(c0))
        for i in range(h):
            for j in range(w):
                hd, cd = dense_cell.step(
                    Tensor(x[:, :, i, j]), Tensor(h0[:, :, i, j]), Tensor(c0[:, :, i, j])
                )
                assert np.allclose(hc.data[:, :, i, j], hd.data, atol=1e-12)
                assert np.allclose(cc.data[:, :, i, j], cd.data, atol=1e-12)

    def test_convlstm_constant_field_stays_constant(self):
        rng = SplitMix64(16)
        cell = tc.ConvLSTMCell(rng.split(), 1, 2, 3)
        x = Tensor(np.full((1, 1, 6, 6), 0.7))
        h0 = Tensor(np.zeros((1, 2, 6, 6)))
        c0 = Tensor(np.zeros((1, 2, 6, 6)))
        h1, _ = cell.step(x, h0, c0)
        interior = h1.data[:, :, 1:-1, 1:-1]
        assert np.allclose(interior, interior[:, :, :1, :1], atol=1e-12)


class TestFusedNodes:
    @staticmethod
    def _oracle(z, c_prev, gh, gc):
        """Forward and backward of the gate step, composed in plain numpy."""
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        zi, zf, zo, zg = np.split(z, 4, axis=1)
        i, f, o, g = sig(zi), sig(zf), sig(zo), np.tanh(zg)
        c = f * c_prev + i * g
        h = o * np.tanh(c)
        dc = gc + gh * o * (1.0 - np.tanh(c) ** 2)
        dz = np.concatenate(
            [
                dc * g * i * (1 - i),
                dc * c_prev * f * (1 - f),
                gh * np.tanh(c) * o * (1 - o),
                dc * i * (1 - g * g),
            ],
            axis=1,
        )
        return h, c, dz, dc * f

    @pytest.mark.parametrize("shape", [(3, 5), (2, 3, 4, 4)])
    @pytest.mark.parametrize("zero_state", [False, True])
    def test_lstm_gates_match_numpy_composition(self, shape, zero_state):
        rng = SplitMix64(40)
        gate_shape = (shape[0], 4 * shape[1]) + shape[2:]
        z = Tensor(rand(rng, gate_shape), requires_grad=True)
        c_prev = None if zero_state else Tensor(rand(rng, shape), requires_grad=True)
        gh, gc = rand(rng, shape), rand(rng, shape)
        h, c = tc.lstm_gates(z, c_prev)
        ((h * Tensor(gh)).sum() + (c * Tensor(gc)).sum()).backward()

        h_ref, c_ref, dz_ref, dc_prev_ref = self._oracle(
            z.data, np.zeros(shape) if zero_state else c_prev.data, gh, gc
        )
        for got, want in ((h.data, h_ref), (c.data, c_ref), (z.grad, dz_ref)):
            assert np.max(np.abs(got - want)) <= 1e-12
        if not zero_state:
            assert np.max(np.abs(c_prev.grad - dc_prev_ref)) <= 1e-12

    def test_normalized_gates_return_the_statistics_they_used(self):
        rng = SplitMix64(41)
        z = Tensor(rand(rng, (4, 12, 5, 5)) * 2.0 + 1.0)
        gamma, beta = Tensor(np.ones(12)), Tensor(np.zeros(12))
        h, c, mu, var = tc.lstm_gates(z, None, norm=(gamma, beta, 1e-5, None))
        assert np.allclose(mu, z.data.mean(axis=(0, 2, 3)), atol=1e-12)
        assert np.allclose(var, z.data.var(axis=(0, 2, 3)), atol=1e-12)
        # the gates read zero-mean, unit-variance pre-activations
        zhat = (z.data - z.data.mean(axis=(0, 2, 3), keepdims=True)) / np.sqrt(z.data.var(axis=(0, 2, 3), keepdims=True) + 1e-5)
        assert np.allclose(zhat.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)
        for got, want in zip((h, c), tc.lstm_gates(Tensor(zhat))):
            assert np.allclose(got.data, want.data, atol=1e-12)
        stats = (np.linspace(-1.0, 2.0, 12), np.linspace(0.25, 4.0, 12))
        h, c, mu, var = tc.lstm_gates(z, None, norm=(gamma, beta, 0.0, stats))
        assert np.array_equal(mu, stats[0]) and np.array_equal(var, stats[1])
        expected = (z.data - stats[0].reshape(1, -1, 1, 1)) / np.sqrt(stats[1]).reshape(1, -1, 1, 1)
        for got, want in zip((h, c), tc.lstm_gates(Tensor(expected))):
            assert np.allclose(got.data, want.data, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("with_state", [True, False], ids=["state", "zero-state"])
    def test_normalized_gates_equal_batch_norm_then_gates_bit_for_bit(self, monkeypatch, training, with_state):
        # outputs, statistics and every gradient, at any fan-out of either side
        reference = fanned(monkeypatch, 1, 1 << 40, normalized_gates(training, with_state, fused=False))
        for workers, range_bytes in FAN_OUTS:
            got = fanned(monkeypatch, workers, range_bytes, normalized_gates(training, with_state))
            assert len(got) == len(reference)
            for a, b in zip(got, reference):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (workers, range_bytes)

    def test_normalized_gate_step_holds_no_normalized_gates(self):
        # the unfused graph held the batch-norm output, one (n, 4*hidden, h, w) array, as a node's data;
        # the shapes are the convlstm benchmark layer's, whose gates span two 1 MB sample ranges
        n, hidden, hw = 16, 16, 16
        gates_bytes = n * 4 * hidden * hw * hw * 8
        rng = SplitMix64(44)
        cell = tc.ConvLSTMCell(rng.split(), 1, hidden, 3, bn=tc.BatchNorm2d(4 * hidden))
        bn = cell.bn
        x, h0, c0 = (Tensor(rand(rng, (n, ch, hw, hw))) for ch in (1, hidden, hidden))

        def held(step):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = step()
                assert out[0].requires_grad
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        cell.step(x, h0, c0, training=True)  # a pool's threads start untraced
        fused = held(lambda: cell.step(x, h0, c0, training=True))
        unfused = held(lambda: tc.lstm_gates(
            batch_norm_node(tc.conv2d((x, h0), (cell.wx, cell.wh), cell.b), bn.gamma, bn.beta, bn.eps)[0], c0))
        assert fused <= unfused - gates_bytes, f"the fused step holds {fused} bytes, the unfused graph {unfused}"

    def test_normalized_gate_step_holds_no_normalized_gates_on_three_workers(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_WORKERS", 3)
        monkeypatch.setattr(tensor_mod, "_pool", None)
        try:
            self.test_normalized_gate_step_holds_no_normalized_gates()
        finally:
            if tensor_mod._pool is not None:
                tensor_mod._pool.shutdown()


class TestGraphModes:
    def test_second_backward_through_a_consumed_graph_raises(self):
        rng = SplitMix64(41)
        w = Tensor(rand(rng, (3, 3)), requires_grad=True)
        x = Tensor(rand(rng, (2, 3)))
        shared = (x @ w).relu()
        loss = shared.sum()
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(ValidationError, match="already consumed"):
            loss.backward()
        with pytest.raises(ValidationError, match="already consumed"):
            (shared * shared).sum().backward()
        assert np.array_equal(w.grad, first)

    def test_no_grad_outputs_refuse_backward(self):
        w = Tensor(np.array([0.5, -1.5]), requires_grad=True)
        with tc.no_grad():
            loss = (w * w).sum()
        assert not loss.requires_grad and loss._parents == ()
        with pytest.raises(ValidationError, match="recorded no graph"):
            loss.backward()
        assert np.array_equal(w.grad, np.zeros(2))

    def test_no_grad_restores_the_mode_and_keeps_the_finite_check(self):
        w = Tensor(np.array([1e200, 0.0]), requires_grad=True)
        with pytest.raises(NumericFault), np.errstate(over="ignore"):
            with tc.no_grad():
                w * w
        assert (w * 2.0).requires_grad

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_ops_on_inputs_without_gradients_keep_no_node(self, name, monkeypatch):
        f, params = OPS[name](SplitMix64(zlib.crc32(name.encode()) & 0xFFFF))
        for p in params:
            p.requires_grad = False
        built = []
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        f()
        assert built and all(t._parents == () and t._back is None and not t.requires_grad for t in built)

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_one_parameter_alone_gets_the_same_gradient_bits(self, name):
        # with the other parameters off, every closure still runs only for the
        # parents that need it, and sums in the same order
        f, params = OPS[name](SplitMix64(zlib.crc32(name.encode()) & 0xFFFF))
        f().backward()
        want = [p.grad.copy() for p in params]
        for p, w in zip(params, want):
            for q in params:
                q.requires_grad = q is p
            p.zero_grad()
            f().backward()
            assert np.array_equal(p.grad, w)

    def test_conv2d_holds_no_batch_of_columns(self):
        # im2col columns of the whole batch would take n*c*9*h*w float64s
        n, c, h, w = 8, 4, 16, 16
        columns = n * c * 9 * h * w * 8
        rng = SplitMix64(43)
        x = Tensor(rand(rng, (n, c, h, w)))
        k = Tensor(rand(rng, (c, c, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            y = tc.conv2d(x, k)
            held = tracemalloc.get_traced_memory()[0] - before
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with tc.no_grad():
                z = tc.conv2d(x, k)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert y.requires_grad and not z.requires_grad
        assert held < columns, f"the graph holds {held} bytes after the forward"
        assert peak < columns, f"a no_grad forward peaked at {peak} bytes"

    @pytest.mark.parametrize("workers", [3, 4, 8])
    def test_conv2d_holds_no_batch_of_columns_at_any_worker_count(self, workers, monkeypatch):
        # every worker holds a chunk at once, so the bound must cover them together;
        # a fresh pool has a thread for each worker
        monkeypatch.setattr(tensor_mod, "_WORKERS", workers)
        monkeypatch.setattr(tensor_mod, "_pool", None)
        try:
            self.test_conv2d_holds_no_batch_of_columns()
        finally:
            if tensor_mod._pool is not None:
                tensor_mod._pool.shutdown()


class TestGradChecks:
    @pytest.mark.parametrize("name", sorted(OPS))
    def test_op_gradients(self, name):
        rng = SplitMix64(zlib.crc32(name.encode()) & 0xFFFF)
        f, params = OPS[name](rng)
        err = tc.grad_check(f, params, epsilon=1e-5)
        assert err < 1e-4, f"{name}: rel err {err}"

    def test_linear_function_is_exact(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        err = tc.grad_check(lambda: (x * 4.0).sum(), [x])
        assert err < 1e-10

    def test_wrong_backward_is_detected(self):
        x = Tensor(np.array([0.7, -0.3]), requires_grad=True)

        def broken_square(v):
            def back(g):
                v._accum(g * 3.0 * v.data)  # wrong: true rule is 2x

            return Tensor(v.data ** 2, _parents=(v,), _op="broken", _back=back)

        err = tc.grad_check(lambda: broken_square(x).sum(), [x])
        assert err > 1e-2

    def test_gradient_linearity_of_sums(self):
        rng = SplitMix64(77)
        w = Tensor(rand(rng, (4, 4)), requires_grad=True)
        x = rand(rng, (4, 4))

        def grad_of(fn):
            w.zero_grad()
            fn().backward()
            return w.grad.copy()

        f = lambda: ((Tensor(x) @ w).relu()).sum()
        g = lambda: ((Tensor(x) @ w) * (Tensor(x) @ w)).mean()
        both = lambda: f() + g()
        assert np.allclose(grad_of(both), grad_of(f) + grad_of(g), atol=1e-12)


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        before = w.data.copy()
        for opt in (tc.SGD([w], lr=0.5), tc.Adam([w], lr=0.5)):
            opt.zero_grad()
            opt.step()
            assert np.array_equal(w.data, before)

    def test_sgd_hand_step_on_quadratic(self):
        w = Tensor(np.array([1.0]), requires_grad=True)
        opt = tc.SGD([w], lr=0.1)
        (w * w).sum().backward()
        opt.step()
        assert w.data[0] == pytest.approx(0.8, abs=1e-15)

    def test_adam_first_step_is_signed_lr(self):
        w = Tensor(np.array([5.0, -5.0]), requires_grad=True)
        opt = tc.Adam([w], lr=0.01)
        w.grad = np.array([2.0, -0.5])
        opt.step()
        assert np.allclose(w.data, [5.0 - 0.01, -5.0 + 0.01], atol=1e-6)

    def test_adam_is_deterministic(self):
        def run():
            rng = SplitMix64(21)
            w = Tensor(rand(rng, (8, 8)), requires_grad=True)
            opt = tc.Adam([w], lr=1e-2)
            for _ in range(25):
                opt.zero_grad()
                tc.softmax(w @ w, axis=-1)[:, 0].sum().backward()
                opt.step()
            return w.data.copy()

        assert np.array_equal(run(), run())


    @staticmethod
    def _whole_array_step(kind, p, g, m, v, t, lr):
        """One SGD or Adam update of the whole arrays at once, the expressions each slice runs."""
        if kind == "sgd":
            p -= lr * g
            return
        m *= 0.9
        m += (1 - 0.9) * g
        v *= 0.999
        v += (1 - 0.999) * (g * g)
        update = m / (1 - 0.9 ** t)
        update *= lr
        denom = v / (1 - 0.999 ** t)
        np.sqrt(denom, out=denom)
        denom += 1e-8
        update /= denom
        p -= update

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_sliced_steps_equal_whole_array_steps_and_hold_few_slices(self, kind):
        # a parameter of four and a half slices: a whole-array temporary would pass the bound
        slice_bytes = tensor_mod._RANGE_BYTES
        rng = SplitMix64(45)
        w = Tensor(rand(rng, (9 * slice_bytes // (2 * 7 * 8), 7)), requires_grad=True)
        p, m, v = w.data.copy(), np.zeros_like(w.data), np.zeros_like(w.data)
        opt = tc.make_optimizer(kind, [w], 1e-2)
        for t in (1, 2, 3):
            w.grad = rand(rng, w.data.shape)
            self._whole_array_step(kind, p, w.grad, m, v, t, 1e-2)
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert w.data.tobytes() == p.tobytes(), t
            assert peak < 4 * slice_bytes, f"{kind} step {t} peaked at {peak} bytes"
        if kind == "adam":
            assert opt.m[0].tobytes() == m.tobytes() and opt.v[0].tobytes() == v.tobytes()

    def test_zero_grad_zeroes_in_place(self):
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (w * w).sum().backward()
        grad = w.grad
        tc.SGD([w], lr=0.1).zero_grad()
        assert w.grad is grad and np.array_equal(grad, np.zeros(2))

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_minimize_equals_the_explicit_step(self, kind):
        def explicit(opt, loss_of):
            opt.zero_grad()
            loss = loss_of()
            loss.backward()
            opt.step()
            return loss.item()

        def run(step):
            rng = SplitMix64(46)
            w = Tensor(rand(rng, (6, 6)), requires_grad=True)
            target = rand(rng, (6, 6))
            opt = tc.make_optimizer(kind, [w], 1e-2)
            losses = [step(opt, lambda: tc.mse(tc.softmax(w @ w, axis=-1), target)) for _ in range(3)]
            moments = [a.tobytes() for a in getattr(opt, "m", []) + getattr(opt, "v", [])]
            return w.data.tobytes(), moments, losses, opt.step_count

        assert run(lambda opt, loss_of: opt.minimize(loss_of)) == run(explicit)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_minimize_raises_when_a_step_writes_nan(self, kind, monkeypatch):
        cls = tc.optim.OPTIMIZERS[kind]
        real_step = cls.step

        def poisoned_step(opt):
            real_step(opt)
            opt.params[0].data[1] = np.nan

        monkeypatch.setattr(cls, "step", poisoned_step)
        w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = tc.make_optimizer(kind, [w], 0.1)
        with pytest.raises(NumericFault, match="non-finite parameters after an optimizer step"):
            opt.minimize(lambda: (w * w).sum())

    def test_optimizer_table_keeps_each_step_and_rejects_unknown_kinds(self):
        # perfbench's tracer wraps each class's own `step`
        assert all("step" in vars(cls) for cls in tc.optim.OPTIMIZERS.values())
        with pytest.raises(ValidationError, match="unknown optimizer kind 'rmsprop'"):
            tc.make_optimizer("rmsprop", [], 0.1)


class TestCheckpoints:
    def test_save_load_bit_identity(self, tmp_path):
        rng = SplitMix64(31)
        entries = [
            ("a.w", rand(rng, (7, 3))),
            ("a.b", rand(rng, (3,))),
            ("scalar", np.array(3.25)),
        ]
        meta = {"kind": "test", "seed": 31, "step": 12}
        path = str(tmp_path / "ck")
        write_files(path, tc.encode_checkpoint(entries, meta))
        arrays, back_meta = tc.load_checkpoint(path)
        assert back_meta == meta
        for name, arr in entries:
            assert np.array_equal(arrays[name], arr)
            assert arrays[name].dtype == np.float64

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            tc.encode_checkpoint([("x", np.zeros(1)), ("x", np.ones(1))], {})

    def test_truncated_payload_detected(self, tmp_path):
        path = str(tmp_path / "ck")
        write_files(path, tc.encode_checkpoint([("x", np.arange(8.0))], {}))
        with open(path + "/params.bin", "r+b") as fh:
            fh.truncate(8 * 4)
        with pytest.raises(ValidationError):
            tc.load_checkpoint(path)


class TestDeterminism:
    def test_forward_backward_bitwise_repeatable(self):
        def run():
            rng = SplitMix64(123)
            d1 = tc.Dense(rng.split(), 6, 8, "d1")
            d2 = tc.Dense(rng.split(), 8, 2, "d2")
            x = rand(rng, (10, 6))
            t = rand(rng, (10, 2))
            loss = tc.mse(tc.softmax(d2(d1(Tensor(x)).relu()), axis=-1), t)
            loss.backward()
            return loss.item(), d1.w.grad.copy()

        (l1, g1), (l2, g2) = run(), run()
        assert l1 == l2
        assert np.array_equal(g1, g2)


# (workers, range bytes): one, two and three workers, three splitting most
# batches unevenly, with ranges of one item and with one range for the batch
FAN_OUTS = [(w, b) for w in (1, 2, 3) for b in (1, 1 << 40)]


def fanned(monkeypatch, workers, range_bytes, run):
    """run() under a patched worker count and range budgets, as a list of arrays."""
    with monkeypatch.context() as patch:
        patch.setattr(tensor_mod, "_WORKERS", workers)
        patch.setattr(tensor_mod, "_RANGE_BYTES", range_bytes)
        patch.setattr(tensor_mod, "_COLUMN_BYTES", range_bytes)
        return [np.array(a) for a in run()]


def leaves(seed, *shapes):
    rng = SplitMix64(seed)
    return [Tensor(rand(rng, shape), requires_grad=True) for shape in shapes]


def conv_single():
    x, k, b = leaves(50, (5, 3, 6, 7), (4, 3, 3, 3), (4,))
    y = tc.conv2d(x, k, b)
    y.backward(np.cos(np.arange(y.data.size)).reshape(y.data.shape))
    return y.data, x.grad, k.grad, b.grad


def conv_paired():
    x, h, kx, kh, b = leaves(51, (5, 2, 6, 6), (5, 3, 6, 6), (4, 2, 3, 3), (4, 3, 3, 3), (4,))
    y = tc.conv2d((x, h), (kx, kh), b)
    y.backward(np.cos(np.arange(y.data.size)).reshape(y.data.shape))
    return y.data, x.grad, h.grad, kx.grad, kh.grad, b.grad


def batch_norm_node(x, gamma, beta, eps, stats=None):
    """The standalone batch-norm node that the normalized gate op replaced, on the whole array, holding its
    output as the node's data: (output, mean, var), with the same expressions forward and backward."""
    axes, shape = (0, 2, 3), (1, -1, 1, 1)
    scale, shift = gamma.data.reshape(shape), beta.data.reshape(shape)
    if stats is None:
        count = x.data.size // x.data.shape[1]
        mu = x.data.sum(axis=axes, keepdims=True) * (1.0 / count)
        centered = x.data - mu
        var = (centered * centered).sum(axis=axes, keepdims=True) * (1.0 / count)
    else:
        mu, var = (np.reshape(s, shape) for s in stats)
    std = np.sqrt(var + eps)

    def back(g):
        xhat = (x.data - mu) / std
        dx = g * scale
        if stats is None:
            mean_dxhat = dx.mean(axis=axes, keepdims=True)
            projection = (dx * xhat).mean(axis=axes, keepdims=True)
            dx -= mean_dxhat
            dx -= xhat * projection
        dx /= std
        x._accum(dx, fresh=True)
        gamma._accum((g * xhat).sum(axis=axes), fresh=True)
        beta._accum(g.sum(axis=axes), fresh=True)

    y = (x.data - mu) / std * scale + shift
    return Tensor(y, _parents=(x, gamma, beta), _op="batch_norm", _back=back), mu.reshape(-1), var.reshape(-1)


def normalized_gates(training, with_state, fused=True):
    """The gate step on batch-normalized pre-activations, fused or as `batch_norm_node` then `lstm_gates`."""
    def run():
        z, gamma, beta, c = leaves(52, (5, 20, 4, 3), (20,), (20,), (5, 5, 4, 3))
        stats = None if training else (np.linspace(-1.0, 1.0, 20), np.linspace(0.5, 2.0, 20))
        c_prev = c if with_state else None
        if fused:
            h, c_t, mu, var = tc.lstm_gates(z, c_prev, norm=(gamma, beta, 1e-5, stats))
        else:
            y, mu, var = batch_norm_node(z, gamma, beta, 1e-5, stats)
            h, c_t = tc.lstm_gates(y, c_prev)
        (h * Tensor(np.cos(np.arange(h.data.size)).reshape(h.data.shape)) + c_t).sum().backward()
        return (h.data, c_t.data, mu, var, z.grad, gamma.grad, beta.grad) + ((c.grad,) if with_state else ())
    return run


def gates(with_state):
    def run():
        z, c = leaves(53, (5, 12, 4, 3), (5, 3, 4, 3))
        h, c_t = tc.lstm_gates(z, c if with_state else None)
        (h * Tensor(np.cos(np.arange(h.data.size)).reshape(h.data.shape)) + c_t).sum().backward()
        return (h.data, c_t.data, z.grad) + ((c.grad,) if with_state else ())
    return run


def trained(kind):
    def run():
        cfg = ds.ArchConfig(kind=kind, seed=4, factor=2, conv_channels=(3, 3), lstm_hidden=6, convlstm_hidden=(3, 3),
                            up_channels=4)
        res = ds.train(cfg, ds.make_dataset(5, 7, t=2, fine_hw=(12, 12), factor=2),
                       ds.TrainConfig(epochs=1, batch_size=5, learning_rate=1e-3))
        return [np.frombuffer(tc.encode_checkpoint(*res.model.checkpoint())["params.bin"], np.uint8)]
    return run


class TestWorkerInvariance:
    """Every fanned-out op writes the same bits at any worker count and range size."""

    @pytest.mark.parametrize("run", [conv_single, conv_paired, gates(True), gates(False),
                                     normalized_gates(True, True), normalized_gates(True, False),
                                     normalized_gates(False, True), normalized_gates(False, False),
                                     trained("convlstm"), trained("cnn_lstm")],
                             ids=["conv2d", "conv2d-paired", "lstm_gates", "lstm_gates-zero-state",
                                  "bn_lstm_gates-train", "bn_lstm_gates-train-zero-state",
                                  "bn_lstm_gates-eval", "bn_lstm_gates-eval-zero-state",
                                  "train-convlstm", "train-cnn_lstm"])
    def test_bits_do_not_depend_on_the_fan_out(self, monkeypatch, run):
        reference = fanned(monkeypatch, 1, 1 << 40, run)
        for workers, range_bytes in FAN_OUTS[1:]:
            got = fanned(monkeypatch, workers, range_bytes, run)
            assert len(got) == len(reference)
            for a, b in zip(got, reference):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (workers, range_bytes)

    def test_bits_hold_under_frequent_thread_switches(self, monkeypatch):
        runs = (conv_paired, normalized_gates(True, True), gates(True))
        reference = [fanned(monkeypatch, 1, 1 << 40, run) for run in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [fanned(monkeypatch, 4, 1, run) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for arrays, want in zip(got, reference):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(arrays, want))

    def test_split_covers_every_item_once_in_even_ranges(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_WORKERS", 3)
        for n, item, least in ((16, 30, 1), (7, 1000, 1), (7, 1000, 2), (1, 1000, 2), (5, 1, 1), (64, 40, 1)):
            ranges = tensor_mod._split(n, item, 100, least)
            assert [r[0] for r in ranges[1:]] == [r[1] for r in ranges[:-1]] and (ranges[0][0], ranges[-1][1]) == (0, n)
            sizes = {hi - lo for lo, hi in ranges}
            assert max(sizes) - min(sizes) <= 1 and min(sizes) >= min(least, n)
            assert len(ranges) == 1 or len(ranges) % 3 == 0 or len(ranges) == n // least
            assert max(sizes) * item <= 100 or max(sizes) < 2 * least

    def test_the_lowest_failed_range_raises_after_every_range_ended(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_WORKERS", 3)
        ended = []

        def fn(lo, hi):
            time.sleep(0.01 * (lo % 3))
            ended.append(lo)
            if lo in (2, 4):
                raise ValueError(f"range {lo}")

        with pytest.raises(ValueError, match="range 2"):
            tensor_mod._fan_out(fn, [(k, k + 1) for k in range(8)])
        # a thread stops at its error and the others take what is left, so every range ran, and was waited for
        assert sorted(ended) == list(range(8))

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(tensor_mod, "_WORKERS", 1)
        threads = set()
        tensor_mod._fan_out(lambda lo, hi: threads.add(threading.get_ident()), [(0, 1), (1, 2), (2, 3)])
        assert threads == {threading.get_ident()}
