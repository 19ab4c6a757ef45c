"""Per-layer tracing from outside the library.

The tracer wraps the engine's ``Network.forward``/``backward``, the
``forward``/``backward`` of every ``Layer`` subclass, and the public module
functions the pipeline calls, under every name a caller reaches them by
(``vader.training`` imports ``focal_loss`` by name, for example). Spans are
aggregated in memory by name: total time, self time (total minus the time of
wrapped calls nested inside) and call count. Layer calls also record the
peak of the memory they allocate (``tracemalloc`` runs only within layer
calls, so it does not slow the Python-heavy functions) and, for
convolutions, their useful floating point work. Nothing under ``src/`` is
changed; ``uninstall`` restores every patched attribute.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from pathlib import Path

#: Layer kinds the workloads' networks contain, in report order.
LAYER_KINDS = (
    "conv",
    "transposed_conv",
    "group_norm",
    "max_pool",
    "relu",
    "add",
    "concat",
    "sigmoid",
    "reduce_max_freq",
)
#: Kinds whose useful multiply-adds are counted.
CONV_KINDS = ("conv", "transposed_conv")


def _dataset_bytes(tracer, args, kwargs, result):
    root = Path(args[0] if args else kwargs["root"])
    tracer.add("data.bytes_read", sum(f.stat().st_size for f in root.rglob("*") if f.is_file()))


def _stack_samples(tracer, args, kwargs, result):
    tracer.add("cwt.samples", result.shape[-1])


def _batch_padding(tracer, args, kwargs, result):
    tracer.add("training.valid_samples", int(result.valid.sum()))
    tracer.add("training.padded_samples", result.x.shape[0] * result.x.shape[-1])


def _checkpoint_bytes(tracer, args, kwargs, result):
    json_path = Path(result)
    tracer.add(
        "engine.checkpoint.bytes",
        json_path.stat().st_size + json_path.with_suffix(".bin").stat().st_size,
    )


def _peak_count(tracer, args, kwargs, result):
    tracer.add("metrics.peaks", len(result))


def _pair_count(tracer, args, kwargs, result):
    tracer.add("metrics.pairs", len(result.pairs))


#: (module, function, span name, counter hook) for every traced function.
FUNCTIONS = (
    ("vader.data", "load_dataset", "data.load", _dataset_bytes),
    ("vader.splits", "stratified_split", "splits.split", None),
    ("vader.model", "build_vader", "model.build", None),
    ("vader.model", "infer", "model.infer", None),
    ("vader.cwt", "spectrogram_stack", "cwt.stack", _stack_samples),
    ("vader.training", "build_samples", "training.build_samples", None),
    ("vader.training", "assemble_batch", "training.assemble_batch", _batch_padding),
    ("vader.training", "evaluate_samples", "training.validation", None),
    ("vader.engine.loss", "focal_loss", "engine.focal_loss", None),
    ("vader.engine.optim", "adam_step", "engine.adam", None),
    ("vader.engine.checkpoint", "save_checkpoint", "engine.checkpoint.save", _checkpoint_bytes),
    ("vader.engine.checkpoint", "load_checkpoint", "engine.checkpoint.load", None),
    ("vader.metrics", "pick_peaks", "metrics.pick_peaks", _peak_count),
    ("vader.metrics", "match_axles", "metrics.match_axles", _pair_count),
)


def useful_flop(layer, phase: str, shape) -> int:
    """Floating point operations (2 per multiply-add) a convolution needs.

    ``shape`` is the layer's output shape, which its upstream gradient
    shares. Only multiply-adds on real input values count: a transposed
    convolution that multiplies stuffed zeros does more work than this.
    The backward pass computes both the weight and the input gradient, each
    as much work as the forward pass.
    """
    cfg = layer.config()
    kf, kt = cfg["kernel"]
    n, _, f, t = shape
    if layer.kind == "transposed_conv":
        t //= cfg["stride"]
    macs = n * f * t * cfg["c_in"] * cfg["c_out"] * kf * kt
    return 2 * macs * (2 if phase == "bwd" else 1)


class Tracer:
    """Aggregated spans and counters for one traced run."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, int] = {}  # name -> largest transient bytes
        self._children: list[float] = []
        self._in_layer = False
        self._restore: list = []

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name: str):
        """``(total_s, self_s, calls)`` of one span name."""
        return self.spans.get(name, (0.0, 0.0, 0))

    def _timed(self, name, fn, args, kwargs, memory=False):
        self._children.append(0.0)
        if memory:  # traces only allocations made within this call
            tracemalloc.start()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            if memory:
                self.peaks[name] = max(self.peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            child = self._children.pop()
            if self._children:
                self._children[-1] += dur
            rec = self.spans.setdefault(name, [0.0, 0.0, 0])
            rec[0] += dur
            rec[1] += dur - child
            rec[2] += 1

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_function(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer._timed(name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_layer(self, fn, phase):
        tracer = self

        @functools.wraps(fn)
        def wrapper(layer, *args):
            if tracer._in_layer:  # a layer method reached through super()
                return fn(layer, *args)
            name = f"engine.{layer.kind}.{phase}"
            tracer._in_layer = True
            try:
                out = tracer._timed(name, fn, (layer, *args), {}, memory=True)
            finally:
                tracer._in_layer = False
            if layer.kind in CONV_KINDS:
                shape = out[0].shape if phase == "fwd" else args[1].shape
                tracer.add(f"{name}_flop", useful_flop(layer, phase, shape))
            return out

        return wrapper

    def install(self) -> None:
        """Patch the library; call :meth:`uninstall` to undo."""
        from vader.engine.layers import Layer, Network

        for attr, phase in (("forward", "fwd"), ("backward", "bwd")):
            fn = Network.__dict__[attr]
            self._patch(Network, attr, self._wrap_function(fn, f"engine.network.{phase}", None))
        todo = list(Layer.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            for attr, phase in (("forward", "fwd"), ("backward", "bwd")):
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._wrap_layer(cls.__dict__[attr], phase))

        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "vader"]
        for module_name, attr, name, hook in FUNCTIONS:
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:  # the function moved; its metrics read zero
                continue
            wrapper = self._wrap_function(fn, name, hook)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, alias, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as ``name -> (value, unit)``; absent layers read 0."""
        out: dict[str, tuple[float, str]] = {}
        mb = 1.0 / 2**20
        layer_s = 0.0
        for kind in LAYER_KINDS:
            fwd_s, _, fwd_calls = self.span(f"engine.{kind}.fwd")
            bwd_s, _, bwd_calls = self.span(f"engine.{kind}.bwd")
            layer_s += fwd_s + bwd_s
            peak = max(self.peaks.get(f"engine.{kind}.fwd", 0), self.peaks.get(f"engine.{kind}.bwd", 0))
            out[f"engine.{kind}.fwd_s"] = (fwd_s, "s")
            out[f"engine.{kind}.bwd_s"] = (bwd_s, "s")
            out[f"engine.{kind}.calls"] = (fwd_calls + bwd_calls, "count")
            out[f"engine.{kind}.peak_alloc_mb"] = (peak * mb, "MB")
            if kind in CONV_KINDS:
                fwd_g = self.counts.get(f"engine.{kind}.fwd_flop", 0) / 1e9
                bwd_g = self.counts.get(f"engine.{kind}.bwd_flop", 0) / 1e9
                out[f"engine.{kind}.gflop"] = (fwd_g + bwd_g, "GFLOP")
                out[f"engine.{kind}.fwd_gflop"] = (fwd_g, "GFLOP")
                out[f"engine.{kind}.bwd_gflop"] = (bwd_g, "GFLOP")
                out[f"engine.{kind}.fwd_gflop_per_s"] = (fwd_g / fwd_s if fwd_s else 0.0, "GFLOP/s")
                out[f"engine.{kind}.bwd_gflop_per_s"] = (bwd_g / bwd_s if bwd_s else 0.0, "GFLOP/s")

        net_fwd, fwd_glue, _ = self.span("engine.network.fwd")
        net_bwd, bwd_glue, _ = self.span("engine.network.bwd")
        out["engine.network.fwd_s"] = (net_fwd, "s")
        out["engine.network.bwd_s"] = (net_bwd, "s")
        out["engine.network.fwd_glue_s"] = (fwd_glue, "s")
        out["engine.network.bwd_glue_s"] = (bwd_glue, "s")
        net_s = net_fwd + net_bwd
        out["engine.network.layer_share"] = (layer_s / net_s if net_s else 0.0, "share")
        out["engine.focal_loss_s"] = (self.span("engine.focal_loss")[0], "s")
        out["engine.adam_s"] = (self.span("engine.adam")[0], "s")
        out["engine.checkpoint.save_s"] = (self.span("engine.checkpoint.save")[0], "s")
        out["engine.checkpoint.load_s"] = (self.span("engine.checkpoint.load")[0], "s")
        out["engine.checkpoint.bytes"] = (self.counts.get("engine.checkpoint.bytes", 0), "bytes")

        stack_s, _, stack_calls = self.span("cwt.stack")
        out["cwt.stack_s"] = (stack_s, "s")
        out["cwt.calls"] = (stack_calls, "count")
        out["cwt.samples"] = (self.counts.get("cwt.samples", 0), "count")

        out["data.load_s"] = (self.span("data.load")[0], "s")
        out["data.bytes_read"] = (self.counts.get("data.bytes_read", 0), "bytes")
        out["model.build_s"] = (self.span("model.build")[0], "s")
        out["model.infer_overhead_s"] = (self.span("model.infer")[1], "s")
        out["splits.split_s"] = (self.span("splits.split")[0], "s")

        out["training.build_samples_s"] = (self.span("training.build_samples")[0], "s")
        out["training.assemble_batch_s"] = (self.span("training.assemble_batch")[0], "s")
        out["training.validation_s"] = (self.span("training.validation")[0], "s")
        out["training.steps"] = (self.span("engine.adam")[2], "count")
        valid = self.counts.get("training.valid_samples", 0)
        padded = self.counts.get("training.padded_samples", 0)
        out["training.valid_samples"] = (valid, "count")
        out["training.padded_samples"] = (padded, "count")
        out["training.padding_efficiency"] = (valid / padded if padded else 0.0, "share")

        out["metrics.pick_peaks_s"] = (self.span("metrics.pick_peaks")[0], "s")
        out["metrics.match_axles_s"] = (self.span("metrics.match_axles")[0], "s")
        out["metrics.peaks"] = (self.counts.get("metrics.peaks", 0), "count")
        out["metrics.pairs"] = (self.counts.get("metrics.pairs", 0), "count")
        return out
