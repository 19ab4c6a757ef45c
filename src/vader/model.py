"""Parametric U-Net builder for raw-signal and spectrogram axle detectors.

The encoder is an input convolution block followed by ``pool_steps`` stages
of [residual block, max pool], the bottleneck is one more residual block,
and the decoder mirrors the encoder with [transposed convolution, skip
concatenation, convolution block] per stage. A single-filter convolution
with sigmoid activation emits one probability per input sample.

Convolution blocks are conv + ReLU + group norm; the very first group norm
uses a single group, which standardises the raw measurement, and later ones
target 16 channels per group. Residual blocks are bottleneck-style:
1x1 reduce to a quarter width, full kernel, 1x1 expand, each followed by
group norm + ReLU, with an identity (or 1x1-projected) shortcut and a ReLU
after the add.

Spectrogram inputs carry a frequency axis: encoder pooling shrinks it
(never below one bin), kernels span at most the remaining bins, skip
tensors are max-reduced over frequency before concatenation, and the head
convolution spans whatever frequency extent is left.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cwt import DEFAULT_STACK, N_SCALES, spectrogram_stack
from .data import SensorChannel, json_list, json_value
from .engine import (
    Add,
    Concat,
    Conv,
    GroupNorm,
    MaxPool,
    Network,
    ReLU,
    Sigmoid,
    TileFreq,
    TransposedConvTime,
    groupnorm_groups,
    load_checkpoint,
    read_manifest,
)
from .errors import CheckpointError, InvalidConfig, ShapeMismatch
from .planner import HyperParams, InputKind

#: Frequency bins and wavelet channels of the spectrogram input tensor.
SPEC_BINS = N_SCALES
SPEC_CHANNELS = len(DEFAULT_STACK)
#: Channel widths double per pooling level but never beyond this.
MAX_WIDTH = 256


@dataclass(frozen=True)
class VaderConfig:
    """Everything needed to build one detector instance."""

    hyper: HyperParams
    sample_rate: float = 600.0

    @property
    def widths(self) -> tuple[int, ...]:
        """Channel width per level, level 0 through the bottleneck."""
        return tuple(
            min(self.hyper.base_width * 2**j, MAX_WIDTH)
            for j in range(self.hyper.pool_steps + 1)
        )

    def record(self) -> dict:
        """JSON-ready form, which :meth:`from_record` turns back into the config."""
        hyper = {**asdict(self.hyper), "input_kind": self.hyper.input_kind.value}
        return {**hyper, "sample_rate": self.sample_rate}

    @classmethod
    def from_record(cls, rec: dict) -> VaderConfig:
        hyper = {k: v for k, v in rec.items() if k != "sample_rate"}
        hyper["input_kind"] = InputKind(hyper["input_kind"])
        json_list([v for k, v in hyper.items() if k != "input_kind"], (int,), "hyperparameters")
        rate = json_value(rec["sample_rate"], (int, float), "sample_rate")
        return cls(HyperParams(**hyper), sample_rate=float(rate))


class _Builder:
    def __init__(self, net: Network, kernel_size: int):
        self.net = net
        self.k = kernel_size
        self.counter = 0

    def _name(self, label: str) -> str:
        self.counter += 1
        return f"{self.counter:03d}_{label}"

    def conv(self, src, c_in, c_out, freq_bins, label, kf=None, kt=None, freq_padding="same"):
        kf = min(self.k, freq_bins) if kf is None else kf
        kt = self.k if kt is None else kt
        name = self._name(label)
        return self.net.add(name, Conv(c_in, c_out, kf, kt, freq_padding, name=name), [src])

    def conv_block(self, src, c_in, c_out, freq_bins, label, groups=None):
        """conv + ReLU + group norm."""
        c = self.conv(src, c_in, c_out, freq_bins, f"{label}_conv")
        r = self.net.add(self._name(f"{label}_relu"), ReLU(), [c])
        g = groups if groups is not None else groupnorm_groups(c_out)
        name = self._name(f"{label}_gn")
        return self.net.add(name, GroupNorm(c_out, g, name=name), [r])

    def _conv_gn_relu(self, src, c_in, c_out, freq_bins, label, kf=None, kt=None):
        c = self.conv(src, c_in, c_out, freq_bins, f"{label}_conv", kf=kf, kt=kt)
        name = self._name(f"{label}_gn")
        g = self.net.add(name, GroupNorm(c_out, groupnorm_groups(c_out), name=name), [c])
        return self.net.add(self._name(f"{label}_relu"), ReLU(), [g])

    def residual_block(self, src, c_in, c_out, freq_bins, label):
        """Bottleneck residual block with post-add ReLU."""
        mid = max(1, c_out // 4)
        h = self._conv_gn_relu(src, c_in, mid, freq_bins, f"{label}_reduce", kf=1, kt=1)
        h = self._conv_gn_relu(h, mid, mid, freq_bins, f"{label}_mid")
        h = self._conv_gn_relu(h, mid, c_out, freq_bins, f"{label}_expand", kf=1, kt=1)
        shortcut = src
        if c_in != c_out:
            shortcut = self.conv(src, c_in, c_out, freq_bins, f"{label}_project", kf=1, kt=1)
        a = self.net.add(self._name(f"{label}_add"), Add(), [h, shortcut])
        return self.net.add(self._name(f"{label}_relu"), ReLU(), [a])


def build_vader(cfg: VaderConfig, dtype=np.float32) -> Network:
    """Assemble the detector network described by ``cfg``.

    Raises InvalidConfig when the kernel does not exceed the pooling
    size (upsampling could not interpolate between pooled values) or is
    even (a 'same' convolution has no centre tap).
    """
    hp = cfg.hyper
    if not hp.valid:
        raise InvalidConfig(
            f"kernel_size {hp.kernel_size} must be odd and exceed pool_size {hp.pool_size}"
        )
    k, m, p = hp.kernel_size, hp.pool_size, hp.pool_steps
    widths = cfg.widths
    spectro = hp.input_kind is InputKind.SPECTROGRAM
    c_in = SPEC_CHANNELS if spectro else 1
    freq = SPEC_BINS if spectro else 1

    net = Network(dtype=dtype, time_multiple=m**p)
    net.spec = cfg.record()
    b = _Builder(net, k)

    cur = b.conv_block(-1, c_in, widths[0], freq, "input", groups=1)
    skips: list[tuple[int, int]] = []  # (node, freq bins at that level)
    prev_w = widths[0]
    for level in range(p):
        rb = b.residual_block(cur, prev_w, widths[level], freq, f"enc{level}")
        skips.append((rb, freq))
        pool_f = min(m, freq)
        cur = net.add(b._name(f"enc{level}_pool"), MaxPool(pool_f, m), [rb])
        freq = -(-freq // pool_f)
        prev_w = widths[level]

    cur = b.residual_block(cur, prev_w, widths[p], freq, "bottleneck")

    for level in range(p - 1, -1, -1):
        name = b._name(f"dec{level}_up")
        up_conv = TransposedConvTime(widths[level + 1], widths[level], min(k, freq), k, stride=m, name=name)
        up = net.add(name, up_conv, [cur])
        skip, skip_freq = skips[level]
        if skip_freq > 1:
            skip = net.add(b._name(f"dec{level}_skipmax"), MaxPool(skip_freq, 1), [skip])
        if freq > 1:
            skip = net.add(b._name(f"dec{level}_skiptile"), TileFreq(freq), [skip])
        cat = net.add(b._name(f"dec{level}_concat"), Concat(), [up, skip])
        cur = b.conv_block(cat, 2 * widths[level], widths[level], freq, f"dec{level}")

    head = b.conv(cur, widths[0], 1, freq, "head", kf=freq, kt=1, freq_padding="valid")
    net.add(b._name("head_sigmoid"), Sigmoid(), [head])
    return net


def network_input(source, input_kind: InputKind = InputKind.RAW) -> np.ndarray:
    """The (1, C, F, T) input of a detector of ``input_kind`` for a sensor
    channel, a bare series or a (16, 6, n) spectrogram stack, in the
    source's dtype. A channel or series is wavelet-transformed for a
    spectrogram detector; a stack is taken as it is."""
    arr = source.samples if isinstance(source, SensorChannel) else np.asarray(source)
    if arr.ndim == 1 and input_kind is InputKind.SPECTROGRAM:
        arr = spectrogram_stack(arr)
    if arr.ndim == 1:
        return arr.reshape(1, 1, 1, -1)
    if arr.ndim == 3 and arr.shape[0] == SPEC_BINS and arr.shape[1] == SPEC_CHANNELS:
        return arr.transpose(1, 0, 2)[None, ...]
    raise ShapeMismatch(
        f"expected a 1-D signal or a ({SPEC_BINS}, {SPEC_CHANNELS}, n) stack, got shape {arr.shape}"
    )


def infer(network: Network, source) -> np.ndarray:
    """Probability of an axle above the sensor, one value per input sample,
    for any ``source`` :func:`network_input` takes, of any length and float
    dtype (the network casts and pads it); the input kind is the detector's
    own (raw for a hand-built graph)."""
    kind = InputKind(network.spec.get("input_kind", InputKind.RAW.value))
    return network.forward(network_input(source, kind))[0, 0, 0]


def max_kernel_time_span(network: Network) -> int:
    """Widest original-sample span any single kernel in the graph covers.

    Walks the concrete layer graph, tracking how many original samples one
    position represents at each node; independent of the closed-form
    receptive-field arithmetic it is checked against.
    """
    coverage = {-1: 1}
    widest = 1
    for i, node in enumerate(network.nodes):
        c = max(coverage[j] for j in node.inputs)
        layer = node.layer
        if isinstance(layer, Conv):  # TransposedConvTime included
            widest = max(widest, layer.kt * c)
            c //= layer.stride
        elif isinstance(layer, MaxPool):
            widest = max(widest, layer.pool_t * c)
            c *= layer.pool_t
        coverage[i] = c
    return widest


def load_vader(stem) -> tuple[Network, VaderConfig]:
    """Rebuild a detector from its checkpoint ``<stem>.json`` / ``<stem>.bin``
    alone; the manifest's ``model`` record gives the config, and a record
    that builds no detector is a CheckpointError naming the stem."""
    record = read_manifest(stem)["model"]
    try:
        cfg = VaderConfig.from_record(record)
        network = build_vader(cfg)
    except (AttributeError, InvalidConfig, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{stem}: unusable model record {record!r}: {exc!r}") from None
    load_checkpoint(stem, network)
    return network, cfg
