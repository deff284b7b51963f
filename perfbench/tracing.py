"""Spans and counters recorded from outside the program.

`install(tracer)` wraps the public functions of gcf, geogrid, metrics,
ranking, tensorcore, downscale and pipeline. A module-level function is
replaced under every name a gcmkit module binds it to, so `from .geogrid
import regrid_bilinear` in pipeline sees the wrapper too; a method is
replaced on its class. A target that no longer exists is recorded as
absent and skipped. Nothing is installed in untraced runs.

A span is (name, start, end, parent, op, arch). Spans stay in memory and
are written out when the run ends. A span opened while another span of the
same name is open is nested and is not counted again in that name's time.
"""

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent, op, arch, nested]
        self.stack: List[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        self.arch: Optional[str] = None
        self.step_depth = 0  # > 0 inside a training step's forward, loss, backward or optimizer
        self.absent: Dict[str, str] = {}  # wrap target -> why it is not wrapped

    def open(self, name: str, arch: Optional[str] = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, arch or self.arch,
                           self.open_names[name] > 0])
        self.open_names[name] += 1
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.open_names[span[0]] -= 1
        self.stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, arch, nested in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "op": op, "arch": arch}) + "\n")


# span names whose time is split by architecture
_PER_ARCH = ("tensorcore.", "downscale.train", "downscale.predict")


def op_layer_values(tracer: Tracer, first: int) -> Dict[str, float]:
    """Seconds per span name (per architecture where it applies) over the
    spans from index `first` on, plus the trainer's self time: its span
    minus the spans directly inside it."""
    spans = tracer.spans
    child_time: Counter = Counter()
    for name, start, end, parent, *_ in spans[first:]:
        if parent >= first:
            child_time[parent] += end - start
    out: Counter = Counter()
    for i in range(first, len(spans)):
        name, start, end, parent, _, arch, nested = spans[i]
        if nested:
            continue
        key = f"{name}.{arch}" if arch and name.startswith(_PER_ARCH) else name
        out[key + "_s"] += end - start
        if name == "downscale.train":
            out[f"downscale.trainer_self.{arch}_s"] += end - start - child_time[i]
    return dict(out)


def _wrap_call(tracer: Tracer, fn, name: str, arch_of=None, after=None, step=False, sets_arch=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        arch = arch_of(args, kwargs) if arch_of else None
        saved = tracer.arch
        if sets_arch:
            tracer.arch = sets_arch(args, kwargs)
        is_step = step(args, kwargs) if callable(step) else step
        tracer.step_depth += is_step
        index = tracer.open(name, arch)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.step_depth -= is_step
            tracer.arch = saved
        if after:
            after(result, args, kwargs)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, on_item):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            on_item(item)
            yield item

    return wrapper


def _rebind(tracer: Tracer, module: str, attr: str, make) -> None:
    """Replace module.attr under every name a gcmkit module binds it to."""
    target = f"{module}.{attr}"
    try:
        original = getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        tracer.absent[target] = "target no longer exists"
        return
    wrapper = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gcmkit" or mod_name.startswith("gcmkit."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _rebind_method(tracer: Tracer, module: str, cls_name: str, method: str, make) -> None:
    target = f"{module}.{cls_name}.{method}"
    try:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
    except (ImportError, AttributeError, KeyError):
        tracer.absent[target] = "target no longer exists"
        return
    setattr(cls, method, make(original))


def install(tracer: Tracer) -> None:
    t = tracer
    count = t.counts

    # gcf: whole-cube reads and streamed blocks; bytes are float32 payload
    # bytes computed from the array sizes
    def count_cube(result, args, kwargs):
        count["gcf.bytes_read"] += 4 * result.data.size

    def count_block(item):
        count["gcf.bytes_read"] += 4 * item[1].size

    _rebind(t, "gcmkit.gcf", "read_cube", lambda f: _wrap_call(t, f, "gcf.read", after=count_cube))
    _rebind(t, "gcmkit.gcf", "read_mask", lambda f: _wrap_call(t, f, "gcf.read"))
    _rebind(t, "gcmkit.gcf", "iter_time_chunks", lambda f: _wrap_generator(t, f, "gcf.chunk_read", count_block))

    # geogrid
    def count_season(result, args, kwargs):
        count["geogrid.select_season_calls"] += 1

    _rebind(t, "gcmkit.geogrid", "regrid_bilinear", lambda f: _wrap_call(t, f, "geogrid.regrid"))
    _rebind(t, "gcmkit.geogrid", "derive_dtr", lambda f: _wrap_call(t, f, "geogrid.dtr"))
    _rebind(t, "gcmkit.geogrid", "select_season",
            lambda f: _wrap_call(t, f, "geogrid.select_season", after=count_season))

    # metrics
    def count_pool(result, args, kwargs):
        count["metrics.pool_calls"] += 1

    _rebind(t, "gcmkit.metrics", "pool", lambda f: _wrap_call(t, f, "metrics.pool", after=count_pool))
    _rebind(t, "gcmkit.metrics", "compute_report", lambda f: _wrap_call(t, f, "metrics.report"))
    for method in ("update", "freeze", "update_hist", "report"):
        _rebind_method(t, "gcmkit.metrics", "StreamingPool", method,
                       lambda f: _wrap_call(t, f, "metrics.stream"))

    # ranking; the weight net trains inside train_weightnet
    def count_matrix(result, args, kwargs):
        count["ranking.assemble_matrix_calls"] += 1

    _rebind(t, "gcmkit.ranking", "train_weightnet",
            lambda f: _wrap_call(t, f, "ranking.weightnet_train", sets_arch=lambda a, k: "weightnet"))
    _rebind(t, "gcmkit.ranking", "rank_all", lambda f: _wrap_call(t, f, "ranking.rank_all"))
    _rebind(t, "gcmkit.ranking", "assemble_matrix",
            lambda f: _wrap_call(t, f, "ranking.assemble_matrix", after=count_matrix))

    # tensorcore: model forward in training mode, loss, backward, optimizer
    def training_forward(args, kwargs):
        return bool(kwargs.get("training", args[3] if len(args) > 3 else False))

    for cls_name in ("CnnLstm", "ConvLstmNet", "ViTNet", "GeoSTANet"):
        _rebind_method(t, "gcmkit.downscale.archs", cls_name, "forward", lambda f: _wrap_call(
            t, f, "tensorcore.forward", arch_of=lambda a, k: a[0].cfg.kind if training_forward(a, k) else "eval",
            step=training_forward))
    _rebind_method(t, "gcmkit.ranking", "WeightNet", "forward", lambda f: _wrap_call(
        t, f, "tensorcore.forward", arch_of=lambda a, k: "weightnet" if t.arch == "weightnet" else "eval",
        step=lambda a, k: t.arch == "weightnet"))
    _rebind(t, "gcmkit.tensorcore.nn", "mse", lambda f: _wrap_call(t, f, "tensorcore.loss", step=True))
    _rebind(t, "gcmkit.downscale.archs", "imbalance_weighted_mse",
            lambda f: _wrap_call(t, f, "tensorcore.loss", step=True))
    _rebind_method(t, "gcmkit.tensorcore.tensor", "Tensor", "backward",
                   lambda f: _wrap_call(t, f, "tensorcore.backward", step=True))

    def count_step(result, args, kwargs):
        count[f"tensorcore.steps.{t.arch}"] += 1

    for cls_name in ("Adam", "SGD"):
        _rebind_method(t, "gcmkit.tensorcore.optim", cls_name, "step",
                       lambda f: _wrap_call(t, f, "tensorcore.optim", step=True, after=count_step))

    def count_node(f):
        @functools.wraps(f)
        def init(self, *args, **kwargs):
            if t.step_depth:
                count[f"tensorcore.nodes.{t.arch}"] += 1
            f(self, *args, **kwargs)
        return init

    _rebind_method(t, "gcmkit.tensorcore.tensor", "Tensor", "__init__", count_node)

    # downscale
    _rebind(t, "gcmkit.downscale.trainer", "train",
            lambda f: _wrap_call(t, f, "downscale.train", sets_arch=lambda a, k: a[0].kind))
    _rebind(t, "gcmkit.downscale.evaluate", "predict_dataset", lambda f: _wrap_call(
        t, f, "downscale.predict", arch_of=lambda a, k: a[0].cfg.kind))
    _rebind(t, "gcmkit.downscale.data", "benchmark_sets", lambda f: _wrap_call(t, f, "downscale.data"))
    _rebind(t, "gcmkit.downscale.evaluate", "comparison_table", lambda f: _wrap_call(t, f, "downscale.evaluate"))

    # pipeline entry points
    _rebind(t, "gcmkit.pipeline", "run_rank", lambda f: _wrap_call(t, f, "pipeline.run_rank"))
    _rebind(t, "gcmkit.pipeline", "run_downscale", lambda f: _wrap_call(t, f, "pipeline.run_downscale"))
