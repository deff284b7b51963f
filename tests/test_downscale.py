import hashlib
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import gcmkit
from gcmkit import downscale as ds
from gcmkit import ranking as rk
from gcmkit import tensorcore as tc
from gcmkit.artifacts import write_files
from gcmkit.downscale import trainer as trainer_mod
from gcmkit.downscale.archs import _stride_plan
from gcmkit.errors import ValidationError
from gcmkit.pipeline import run_downscale
from gcmkit.rng import SplitMix64
from gcmkit.tensorcore import tensor as tensor_mod
from gcmkit.tensorcore.tensor import Tensor

from gradcases import OPS
from helpers import capacity_set


MINI = dict(
    factor=2, patch=4, embed_dim=16, heads=2, layers=1,
    conv_channels=(4, 4), lstm_hidden=8, convlstm_hidden=(4, 4), up_channels=8,
)


def mini_cfg(kind, seed=3, **over):
    spec = dict(MINI)
    spec.update(over)
    return ds.ArchConfig(kind=kind, seed=seed, **spec)


@pytest.fixture(scope="module")
def mini_data():
    return ds.make_dataset(5, 6, t=2, fine_hw=(16, 16), factor=2)


class TestDatasets:
    def test_window_slicing_shapes(self, mini_data):
        assert mini_data.inputs.shape == (6, 2, 1, 8, 8)
        assert mini_data.targets.shape == (6, 16, 16)
        assert mini_data.factor == 2
        assert len(mini_data.times) == 6

    def test_target_matches_last_frame_of_fine(self):
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(9, 2, 5, 16, 16)
        data = ds.windows_from_pair(coarse, fine, 3)
        assert len(data) == 3
        assert np.array_equal(data.targets[0], fine.data[2])
        assert np.array_equal(data.inputs[0, :, 0], coarse.data[:3])
        assert data.times[0] == fine.time[2]

    def test_subset_requires_sorted(self, mini_data):
        with pytest.raises(ValidationError):
            mini_data.subset([3, 1])

    def test_patch_coords_normalized(self, mini_data):
        coords = mini_data.patch_coords(4)
        assert coords.shape == (4, 2)
        assert coords.min() >= -1.0 and coords.max() <= 1.0

    def test_spec_split_holds_out_the_last_fifth_of_windows(self, tmp_path):
        from gcmkit import gcf
        from gcmkit.geogrid import synth_pair

        coarse, fine = synth_pair(9, 2, 30, 16, 16)
        gcf.write_cube(coarse, str(tmp_path / "coarse"))
        gcf.write_cube(fine, str(tmp_path / "fine"))
        spec = {"coarse": str(tmp_path / "coarse"), "fine": str(tmp_path / "fine")}
        for window, counts in ((None, (22, 5)), (10, (17, 4))):  # 27 or 21 windows
            if window:
                spec["window"] = window
            train_set, test_set = ds.spec_split(spec)
            assert (len(train_set), len(test_set)) == counts
            assert train_set.inputs.shape[1] == spec.get("window", 4)
            assert test_set.times == fine.time[-counts[1]:]
        for window in (0, "4", True, 29):  # not a positive integer; 2 windows, too few to hold one out
            spec["window"] = window
            with pytest.raises(ValidationError):
                ds.spec_split(spec)

    def test_benchmark_split_sizes_and_determinism(self):
        a_train, a_test = ds.benchmark_sets()
        b_train, b_test = ds.benchmark_sets()
        assert len(a_train) == 160 and len(a_test) == 40
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.targets, b_test.targets)
        months = {m for (_, m, _) in a_test.times}
        assert len(months) >= 8  # test windows spread over the year

    def test_capacity_set_is_fixed(self):
        a = capacity_set()
        b = capacity_set()
        assert len(a) == 8
        assert np.array_equal(a.inputs, b.inputs)


class TestShapeContracts:
    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_output_shape(self, kind, mini_data):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        coords = model.coords(mini_data)
        y = model.forward(mini_data.inputs[:3], coords=coords, training=True)
        assert y.data.shape == (3, 16, 16)

    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_single_frame_sequence_runs(self, kind, mini_data):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        coords = model.coords(mini_data)
        x = mini_data.inputs[:2, :1]
        y = model.forward(x, coords=coords, training=False)
        assert y.data.shape == (2, 16, 16)

    # Tensor nodes one training step builds at the mini config (forward,
    # loss and backward); the fused gate and norm nodes keep these low
    @pytest.mark.parametrize(
        "kind, limit", [("cnn_lstm", 29), ("convlstm", 32), ("vit", 56), ("geostanet", 86)]
    )
    def test_training_step_node_budget(self, kind, limit, mini_data, monkeypatch):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        coords = model.coords(mini_data)
        built = []
        real_init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        pred = model.forward(mini_data.inputs[:3], coords=coords, training=True)
        tc.mse(pred, mini_data.targets[:3]).backward()
        assert len(built) <= limit

    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_wrong_grid_names_both_grids(self, kind, mini_data):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        wrong = ds.make_dataset(5, 2, t=2, fine_hw=(24, 24), factor=2)  # 12x12 coarse frames
        with pytest.raises(ValidationError, match=r"\(8, 8\).*\(12, 12\)"):
            model.forward(wrong.inputs, coords=model.coords(mini_data), training=False)

    def test_vit_token_count(self):
        model = ds.build_model(mini_cfg("vit"), (8, 8))
        assert model.n_tokens == (8 // 4) * (8 // 4)
        with pytest.raises(ValidationError):
            ds.build_model(mini_cfg("vit", patch=3), (8, 8))

    def test_stride_plan(self):
        assert _stride_plan(16) == [4, 4]
        assert _stride_plan(8) == [4, 2]
        assert _stride_plan(4) == [4]
        assert _stride_plan(3) == [3]
        assert _stride_plan(1) == []


class TestOpCoverage:
    """Every Tensor op the networks build has a gradient check: an op added
    to or changed in a network without a `gradcases.py` entry fails here."""

    @staticmethod
    def _ops_built(monkeypatch, run):
        ops = set()
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            ops.add(self.op)

        with monkeypatch.context() as m:
            m.setattr(Tensor, "__init__", recording_init)
            run()
        return ops

    def test_networks_build_only_gradchecked_ops(self, mini_data, monkeypatch):
        checked = set()
        for name in sorted(OPS):
            loss, _ = OPS[name](SplitMix64(1))
            checked |= self._ops_built(monkeypatch, lambda: loss().backward())
        used = set()
        for kind in ds.ARCH_KINDS:
            # the benchmark preset's loss and optimizer, one epoch: training steps plus an eval pass
            tcfg = ds.desk_train_config(kind).replace(epochs=1, batch_size=4)
            used |= self._ops_built(monkeypatch, lambda: ds.train(mini_cfg(kind), mini_data, tcfg))
        rng = np.random.default_rng(5)
        contexts = [rk.DecisionMatrix(["a", "b", "c"], rk.DEFAULT_CRITERIA_NAMES,
                                      np.abs(rng.normal(size=(3, 9))) + 0.01, ("z", str(i))) for i in range(4)]
        wcfg = rk.WeightNetConfig(epochs=2, warm_epochs=1, batch_size=2)
        used |= self._ops_built(monkeypatch, lambda: rk.train_weightnet(contexts, wcfg))
        assert {"conv2d", "conv2d_transpose", "lstm_hidden", "layer_norm", "softmax"} <= used
        assert used <= checked, f"ops the networks build without a gradient check: {sorted(used - checked)}"


def reference_backward(loss):
    """Backward as a plain graph walk that releases nothing: every recorded
    node's closure runs once, in the reverse topological order `backward` uses."""
    order, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if id(p) not in seen)
    loss._accum(np.ones_like(loss.data))
    for node in reversed(order):
        if node._back is not None:
            node._back(node.grad)


class TestGraphLifetime:
    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_backward_releases_the_graph_and_keeps_leaf_gradients(self, kind, mini_data):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        coords = model.coords(mini_data)
        params = [t for _, t in model.params()]

        def step(backward):
            for p in params:
                p.zero_grad()
            pred = model.forward(mini_data.inputs[:3], coords=coords, training=True)
            loss = tc.mse(pred, mini_data.targets[:3])
            intermediate = weakref.ref(pred)
            del pred
            backward(loss)
            return loss, intermediate, [p.grad.copy() for p in params]

        _, _, want = step(reference_backward)
        loss, intermediate, got = step(Tensor.backward)
        assert intermediate() is None
        assert loss._parents == () and loss.grad is None
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_no_grad_forward_matches_and_records_nothing(self, kind, mini_data, monkeypatch):
        model = ds.build_model(mini_cfg(kind), (8, 8))
        coords = model.coords(mini_data)
        x = mini_data.inputs[:3]
        want = model.forward(x, coords=coords, training=False).data
        grads = [(p.grad, p.grad.copy()) for _, p in model.params()]
        built = []
        real_init = Tensor.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(Tensor, "__init__", recording_init)
        with tc.no_grad():
            got = model.forward(x, coords=coords, training=False)
        assert np.array_equal(got.data, want)
        assert built and all(t._parents == () and t._back is None and not t.requires_grad for t in built)
        for (_, p), (buffer, before) in zip(model.params(), grads):
            assert p.grad is buffer and np.array_equal(p.grad, before)


class TestArchitectureSemantics:
    def test_convlstm_factor1_reduces_to_per_pixel_lstm(self):
        # 1x1 kernels, no batch norm influence (eval mode), factor 1: the
        # stack behaves like an independent LSTM at every pixel
        cfg = mini_cfg("convlstm", factor=1, kernel_radius=0, convlstm_hidden=(3,))
        model = ds.build_model(cfg, (4, 4))
        x = SplitMix64(8).normal((2, 3, 1, 4, 4))

        cell = model.cells[0]
        dense = tc.LSTMCell(SplitMix64(1).split(), 1, 3)
        dense.wx.data[...] = cell.wx.data[:, :, 0, 0].T
        dense.wh.data[...] = cell.wh.data[:, :, 0, 0].T
        dense.b.data[...] = cell.b.data

        # run the conv stack in eval mode with frozen identity-ish BN stats
        cell.bn.running_mean[:] = 0.0
        cell.bn.running_var[:] = 1.0 - cell.bn.eps
        h = Tensor(np.zeros((2, 3, 4, 4)))
        c = Tensor(np.zeros((2, 3, 4, 4)))
        for step in range(x.shape[1]):
            h, c = cell.step(Tensor(x[:, step]), h, c, training=False)

        for i in range(4):
            for j in range(4):
                hd = Tensor(np.zeros((2, 3)))
                cd = Tensor(np.zeros((2, 3)))
                for step in range(x.shape[1]):
                    hd, cd = dense.step(Tensor(x[:, step, :, i, j]), hd, cd)
                assert np.allclose(h.data[:, :, i, j], hd.data, atol=1e-9)

    def test_vit_patch_permutation_equivariance(self):
        model = ds.build_model(mini_cfg("vit", layers=2), (8, 8))
        rng = SplitMix64(10)
        x = rng.normal((2, 2, 1, 8, 8))
        tokens = model._embed_frames(x).mean(axis=1) + model.pos
        perm = [2, 0, 3, 1]
        permuted = Tensor(tokens.data[:, perm, :])  # Tensor indexing is basic-only
        enc = tokens
        enc_p = permuted
        for blk in model.blocks:
            enc = blk(enc)
            enc_p = blk(enc_p)
        assert np.allclose(enc_p.data, enc.data[:, perm, :], atol=1e-10)

    def test_vit_output_unchanged_under_matched_permutation(self):
        # permuting patches together with their positional rows and
        # un-permuting before the head is a no-op end to end
        model = ds.build_model(mini_cfg("vit"), (8, 8))
        rng = SplitMix64(11)
        x = rng.normal((1, 2, 1, 8, 8))
        base = model.forward(x, training=False)

        perm = [3, 1, 0, 2]
        inv = np.argsort(perm)
        tokens = Tensor(model._embed_frames(x).mean(axis=1).data[:, perm, :] + model.pos.data[perm, :])
        for blk in model.blocks:
            tokens = blk(tokens)
        out = model._tokens_to_field(Tensor(tokens.data[:, inv, :]), 1)
        assert np.allclose(out.data, base.data, atol=1e-10)

    def test_geostanet_zero_geo_matches_no_coords(self, mini_data):
        model = ds.build_model(mini_cfg("geostanet"), (8, 8))
        model.w_geo.data[:] = 0.0
        x = mini_data.inputs[:2]
        with_geo = model.forward(x, coords=mini_data.patch_coords(4), training=False)
        without = model.forward(x, coords=None, training=False)
        assert np.array_equal(with_geo.data, without.data)

    def test_geostanet_is_coordinate_sensitive(self, mini_data):
        model = ds.build_model(mini_cfg("geostanet"), (8, 8))
        x = mini_data.inputs[:2]
        a = model.forward(x, coords=mini_data.patch_coords(4), training=False)
        flipped = -mini_data.patch_coords(4)
        b = model.forward(x, coords=flipped, training=False)
        assert np.max(np.abs(a.data - b.data)) > 1e-9

    def test_geostanet_reads_every_frame(self):
        data = ds.make_dataset(5, 3, t=4, fine_hw=(16, 16), factor=2)
        model = ds.build_model(mini_cfg("geostanet"), (8, 8))
        coords = data.patch_coords(4)
        x = data.inputs[:2]
        base = model.forward(x, coords=coords).data
        for k in range(x.shape[1]):
            perturbed = x.copy()
            perturbed[:, k] += 0.5
            moved = model.forward(perturbed, coords=coords).data
            assert np.max(np.abs(moved - base)) > 1e-6, f"frame {k} does not reach the output"

    def test_geostanet_rejects_bad_coords(self, mini_data):
        model = ds.build_model(mini_cfg("geostanet"), (8, 8))
        with pytest.raises(ValidationError):
            model.forward(mini_data.inputs[:2], coords=np.zeros((3, 2)))


class TestImbalanceLoss:
    def test_alpha_zero_equals_mse_exactly(self):
        rng = SplitMix64(12)
        pred = Tensor(rng.normal((4, 6)))
        target = rng.normal((4, 6))
        a = ds.imbalance_weighted_mse(pred, target, alpha=0.0)
        b = tc.mse(pred, target)
        assert a.item() == b.item()

    def test_constant_target_degrades_to_mse(self):
        rng = SplitMix64(13)
        pred = Tensor(rng.normal((3, 3)))
        target = np.full((3, 3), 2.0)
        a = ds.imbalance_weighted_mse(pred, target, alpha=1.5)
        assert a.item() == tc.mse(pred, target).item()

    def test_outlier_weight_follows_z_score(self):
        target = np.zeros(100)
        target[0] = 30.0  # lone extreme
        z = (target - target.mean()) / target.std()
        expected_w = 1.0 + 1.0 * max(0.0, abs(z[0]) - 1.0)
        pred = Tensor(target + 1.0)
        loss = ds.imbalance_weighted_mse(pred, target, alpha=1.0)
        manual = np.mean((1.0 + 1.0 * np.maximum(0, np.abs(z) - 1.0)) * 1.0)
        assert loss.item() == pytest.approx(manual, rel=1e-12)
        assert expected_w == pytest.approx(1.0 + (abs(z[0]) - 1.0))


class TestTrainer:
    def test_same_seed_same_log_and_checkpoint(self, tmp_path, mini_data):
        cfg = mini_cfg("vit", seed=21)
        tcfg = ds.TrainConfig(epochs=4, batch_size=3, learning_rate=1e-3)

        def run(tag):
            path = str(tmp_path / f"{tag}.ckpt")
            res = ds.train(cfg, mini_data, tcfg)
            write_files(path, tc.encode_checkpoint(*res.model.checkpoint()))
            return res, path

        res1, p1 = run("a")
        res2, p2 = run("b")
        strip = lambda log: [(r["epoch"], r["train_loss"], r["val_loss"]) for r in log]
        assert strip(res1.log) == strip(res2.log)
        assert open(os.path.join(p1, "params.bin"), "rb").read() == open(os.path.join(p2, "params.bin"), "rb").read()

    def test_best_val_tracking_never_increases(self, mini_data):
        cfg = mini_cfg("cnn_lstm", seed=22)
        res = ds.train(cfg, mini_data, ds.TrainConfig(epochs=6, batch_size=3, learning_rate=1e-3))
        running = math.inf
        for row in res.log:
            running = min(running, row["val_loss"])
        assert res.best_val == running
        assert res.log[0]["epoch"] == 1 and res.log[-1]["epoch"] == 6

    def test_nan_loss_aborts_with_last_good_params(self, mini_data):
        cfg = mini_cfg("cnn_lstm", seed=23)
        model = ds.build_model(cfg, (8, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            res = ds.train(
                cfg,
                mini_data,
                ds.TrainConfig(epochs=8, batch_size=3, learning_rate=1e20, optimizer="sgd"),
                model=model,
            )
        assert res.aborted
        for _, arr in model.state_entries():
            assert np.all(np.isfinite(arr))

    def test_non_finite_parameter_step_keeps_last_good_checkpoint(self, tmp_path, mini_data, monkeypatch):
        # step 2 writes NaN into a parameter after a finite loss; the check
        # after the update must keep step 1's state as the last good one
        real_step = tc.Adam.step
        after_first = []

        def poisoned_step(opt):
            real_step(opt)
            if opt.step_count == 1:
                after_first.extend(p.data.copy() for p in opt.params)
            else:
                opt.params[0].data[0] = np.nan

        monkeypatch.setattr(tc.Adam, "step", poisoned_step)
        cfg = mini_cfg("cnn_lstm", seed=26)
        path = str(tmp_path / "poisoned.ckpt")
        res = ds.train(cfg, mini_data, ds.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3))
        write_files(path, tc.encode_checkpoint(*res.model.checkpoint()))
        assert res.aborted
        arrays, _ = tc.load_checkpoint(path)
        for name, arr in arrays.items():
            assert np.all(np.isfinite(arr)), name
        for (name, _), saved in zip(res.model.params(), after_first):
            assert np.array_equal(arrays[name], saved), name

    def test_non_finite_parameter_step_restores_batch_norm_buffers(self, mini_data, monkeypatch):
        # the running statistics change in place on every training forward, so
        # the abort must restore step 1's copies, not arrays that alias them
        cfg = mini_cfg("convlstm", seed=27)
        model = ds.build_model(cfg, mini_data.coarse_hw)
        real_step = tc.Adam.step
        after_first = []

        def poisoned_step(opt):
            real_step(opt)
            if opt.step_count == 1:
                after_first.extend(arr.copy() for _, arr in model.buffers())
            else:
                opt.params[0].data[0] = np.nan

        monkeypatch.setattr(tc.Adam, "step", poisoned_step)
        res = ds.train(cfg, mini_data, ds.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3), model=model)
        assert res.aborted
        names = [name for name, _ in model.buffers()]
        assert names == ["bn0.running_mean", "bn0.running_var", "bn1.running_mean", "bn1.running_var"]
        for (name, arr), saved in zip(model.buffers(), after_first):
            assert np.array_equal(arr, saved), name

    def test_abort_after_a_new_best_restores_the_last_good_step(self, mini_data, monkeypatch):
        # epoch 1 refreshes the best state set and step 2 of epoch 2 writes NaN into a parameter:
        # the restore brings back the state after step 1 of epoch 2, not the best epoch's
        cfg = mini_cfg("convlstm", seed=28)
        model = ds.build_model(cfg, mini_data.coarse_hw)
        tcfg = ds.TrainConfig(epochs=3, batch_size=3, learning_rate=1e-3)
        per_epoch = -(-(len(mini_data) - round(tcfg.val_fraction * len(mini_data))) // tcfg.batch_size)
        real_step = tc.Adam.step
        states = []

        def poisoned_step(opt):
            real_step(opt)
            if opt.step_count == per_epoch + 2:
                opt.params[0].data[0] = np.nan
            else:
                states.append([arr.copy() for _, arr in model.state_entries()])

        monkeypatch.setattr(tc.Adam, "step", poisoned_step)
        res = ds.train(cfg, mini_data, tcfg, model=model)
        assert res.aborted and res.best_epoch == 1 and len(states) == per_epoch + 1
        restored = [arr for _, arr in model.state_entries()]
        assert all(np.array_equal(a, b) for a, b in zip(restored, states[per_epoch]))
        assert not all(np.array_equal(a, b) for a, b in zip(restored, states[per_epoch - 1]))

    def test_state_sets_are_allocated_twice_per_call(self, mini_data, monkeypatch):
        # the best and last-good sets are made once, and never share an array
        made = []
        real_snapshot = trainer_mod._snapshot
        monkeypatch.setattr(trainer_mod, "_snapshot", lambda model: made.append(real_snapshot(model)) or made[-1])
        res = ds.train(mini_cfg("cnn_lstm", seed=29), mini_data,
                       ds.TrainConfig(epochs=3, batch_size=3, learning_rate=1e-3))
        assert len(res.log) == 3 and len(made) == 2
        assert not any(np.shares_memory(a, b) for a in made[0].values() for b in made[1].values())

    def test_log_csv_columns(self, tmp_path):
        overrides = {"epochs": 2, "batch_size": 3, "learning_rate": 1e-3}
        run_downscale(str(tmp_path), archs=("vit",), seed=24, train_overrides=overrides)
        lines = open(tmp_path / "vit_train_log.csv").read().strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,wall_ms"
        assert len(lines) == 3

    def test_early_stopping_respects_patience(self, mini_data):
        cfg = mini_cfg("vit", seed=25)
        res = ds.train(cfg, mini_data, ds.TrainConfig(epochs=50, batch_size=3, learning_rate=1e-3, patience=2))
        assert len(res.log) <= 50

    @pytest.mark.skipif(tensor_mod._usable_cpus() < 2, reason="two BLAS threads need two usable CPUs")
    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # unpinned, this run's convlstm parameters differ in the last digits between 1 and 2 OpenBLAS threads
        src = os.path.dirname(os.path.dirname(gcmkit.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
            argv = ["downscale", "train", "--arch", "convlstm", "--epochs", "1", "--seed", "1",
                    "--out", str(tmp_path), "--name", f"threads{threads}"]
            done = subprocess.run([sys.executable, "-m", "gcmkit.cli"] + argv, env=env, capture_output=True,
                                  text=True, timeout=600)
            assert done.returncode == 0, done.stderr
            with open(tmp_path / f"threads{threads}" / "convlstm.ckpt" / "params.bin", "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.skipif(tensor_mod._usable_cpus() < 2, reason="two workers need two usable CPUs")
    def test_checkpoint_bytes_do_not_depend_on_the_worker_count(self, tmp_path):
        """A training run pinned to one CPU runs every tensorcore op inline;
        unpinned, conv2d and the gate step fan out over one worker per
        usable CPU. Both write the same parameters."""
        src = os.path.dirname(os.path.dirname(gcmkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        one_cpu = min(os.sched_getaffinity(0))
        digests = []
        for name, pin in (("one", lambda: os.sched_setaffinity(0, {one_cpu})), ("all", None)):
            argv = ["downscale", "train", "--arch", "convlstm", "--epochs", "1", "--seed", "1",
                    "--out", str(tmp_path), "--name", name]
            done = subprocess.run([sys.executable, "-m", "gcmkit.cli"] + argv, env=env, capture_output=True,
                                  text=True, timeout=600, preexec_fn=pin)
            assert done.returncode == 0, done.stderr
            with open(tmp_path / name / "convlstm.ckpt" / "params.bin", "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        assert digests[0] == digests[1]


GOLDEN_CHECKPOINTS = {
    "cnn_lstm": ("f1f7d7f27f933912e88a907f5d7d14627497993470622a0aa099545d30b27b1e",
                 "ae2b5f2579da5774333768e0092658bb95c0aebe97a62bda3173b20e4c5ebbb5"),
    "convlstm": ("f5d72e31fc6719d318f9bdc569b217e42f47c8b4ce25f3af89e783840b7ef85a",
                 "a3473fb598f4346a20da5c536c7984e936c960ac447b5d710198d1dc9a2c7835"),
    "vit": ("b7426f44a0b207ffa465bea593f4889fe55744c680f338a31ea1f0d6fd2ea8e9",
            "2a51239522be1986295778f0674a898316eb624e18aacd85acd333457b5f043f"),
    "geostanet": ("56bac8cfeea6483558949f0caec071ea80aa354a49a060104ede09f5e7551e72",
                  "afe27be8d33c14efc44e906fd42bef8dbe2bb730e0851626458a00b703fbc611"),
    "weightnet": ("54734559868a63726b07856340366577f6cea730dd85765c754c3eedc244e5e3",
                  "03a4255cb5a096d24bb9dfa2d3b5fa35e4db85f34cd07736463ed8f02d716678"),
}


class TestCheckpointReload:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_CHECKPOINTS))
    def test_fresh_checkpoint_bytes_are_pinned(self, kind):
        # attribute order is the checkpoint layout: the names, shapes, order
        # and values of every entry of a freshly built network are pinned here
        from gcmkit.ranking import DEFAULT_CRITERIA_NAMES, WeightNet

        if kind == "weightnet":
            model = WeightNet(DEFAULT_CRITERIA_NAMES, seed=7)
        else:
            model = ds.build_model(ds.ArchConfig(kind=kind, seed=0), (16, 16))
        files = tc.encode_checkpoint(*model.checkpoint())
        digests = tuple(hashlib.sha256(files[name]).hexdigest() for name in ("manifest.json", "params.bin"))
        assert digests == GOLDEN_CHECKPOINTS[kind]

    @pytest.mark.parametrize("kind", ds.ARCH_KINDS)
    def test_save_load_bit_identity(self, kind, tmp_path, mini_data):
        cfg = mini_cfg(kind, seed=31)
        tcfg = ds.TrainConfig(epochs=2, batch_size=3, learning_rate=1e-3)
        path = str(tmp_path / f"{kind}.ckpt")
        res = ds.train(cfg, mini_data, tcfg)
        write_files(path, tc.encode_checkpoint(*res.model.checkpoint()))
        back = ds.load_model(path, mini_data.coarse_hw, mini_data.factor)
        for (name_a, a), (name_b, b) in zip(res.model.state_entries(), back.state_entries()):
            assert name_a == name_b
            assert np.array_equal(a, b), name_a
        coords = res.model.coords(mini_data)
        pred_a = res.model.predict(mini_data.inputs, coords=coords)
        pred_b = back.predict(mini_data.inputs, coords=coords)
        assert np.array_equal(pred_a, pred_b)


class TestEvaluate:
    def test_perfect_prediction_row(self, mini_data):
        rows = ds.comparison_table({"oracle": mini_data.targets.copy()}, mini_data)
        (row,) = [r for r in rows if r["arch"] == "oracle"]
        assert row["rmse"] == 0.0 and row["bias"] == 0.0
        assert row["nse"] == 1.0

    def test_baseline_row_always_present(self, mini_data):
        rows = ds.comparison_table({"something": mini_data.targets + 1.0}, mini_data)
        archs = {r["arch"] for r in rows}
        assert archs == {"something", ds.BASELINE_LABEL}
        base = [r for r in rows if r["arch"] == ds.BASELINE_LABEL][0]
        assert np.isfinite(base["rmse"])

    def test_one_sweep_rows_equal_each_label_scored_alone(self, mini_data):
        from gcmkit.geogrid import ZoneMask
        from gcmkit.metrics import ZONE_OVERALL, full_report

        predictions = {"a": mini_data.targets + 0.5, "b": mini_data.targets * 0.9 - 0.2}
        rows = ds.comparison_table(predictions, mini_data)
        alone = {**predictions, ds.BASELINE_LABEL: ds.baseline_bilinear(mini_data)}
        all_land = ZoneMask(mini_data.fine_lat, mini_data.fine_lon, np.full(mini_data.targets.shape[1:], 3))
        assert [r["arch"] for r in rows] == list(alone)
        for row, (label, pred) in zip(rows, alone.items()):
            rep = full_report(mini_data.target_cube(values=pred), mini_data.target_cube(), all_land,
                              ZONE_OVERALL, "ANNUAL")
            assert row == {"arch": label, "zone": ZONE_OVERALL, "season": "ANNUAL", **rep.as_dict()}

    def test_reserved_baseline_label(self, mini_data):
        with pytest.raises(ValidationError):
            ds.comparison_table({ds.BASELINE_LABEL: mini_data.targets}, mini_data)
