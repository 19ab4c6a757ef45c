"""Detector builder tests: architecture echoes, shapes, inference contract."""

import io
import timeit
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from vader.cwt import spectrogram_stack
from vader.data import SensorChannel
from vader.engine import Conv, read_manifest, save_checkpoint
from vader.errors import InvalidConfig, NonFiniteInput, ShapeMismatch
from vader.model import (
    SPEC_BINS,
    SPEC_CHANNELS,
    VaderConfig,
    build_vader,
    infer,
    load_vader,
    max_kernel_time_span,
    network_input,
)
from vader.planner import HyperParams, InputKind

RNG = np.random.default_rng(0)


def _cfg(kind=InputKind.RAW, k=9, m=2, p=4, base=16):
    return VaderConfig(HyperParams(kind, k, m, p, base_width=base))


def test_invalid_hyperparams_rejected():
    with pytest.raises(InvalidConfig, match="kernel_size 3 must be odd and exceed pool_size 4"):
        build_vader(_cfg(k=3, m=4, p=3))
    with pytest.raises(InvalidConfig, match="kernel_size 3 must be odd and exceed pool_size 3"):
        build_vader(_cfg(k=3, m=3, p=3))
    with pytest.raises(InvalidConfig, match="kernel_size 4 must be odd and exceed pool_size 2"):
        build_vader(_cfg(k=4, m=2, p=3))


@pytest.mark.parametrize(
    "kind,k,m,p",
    [
        (InputKind.RAW, 9, 2, 4),
        (InputKind.RAW, 9, 3, 4),
        (InputKind.RAW, 5, 2, 2),
        (InputKind.RAW, 13, 4, 3),
        (InputKind.SPECTROGRAM, 9, 2, 4),
        (InputKind.SPECTROGRAM, 9, 3, 4),
        (InputKind.SPECTROGRAM, 9, 2, 3),
        (InputKind.SPECTROGRAM, 7, 5, 3),
    ],
)
def test_walker_echoes_receptive_field_formula(kind, k, m, p):
    cfg = _cfg(kind, k, m, p, base=4)
    net = build_vader(cfg)
    assert max_kernel_time_span(net) == k * m**p == cfg.hyper.mrf


def test_param_count_is_locked():
    golden = {
        (InputKind.RAW, 2): 912633,
        (InputKind.RAW, 3): 912633,
        (InputKind.SPECTROGRAM, 2): 941577,
        (InputKind.SPECTROGRAM, 3): 926601,
    }
    for (kind, m), expect in golden.items():
        net = build_vader(_cfg(kind, 9, m, 4, base=16))
        assert sum(p.value.size for p in net.params()) == expect, (kind, m)


def test_widths_double_and_cap():
    cfg = _cfg(base=16, p=4)
    assert cfg.widths == (16, 32, 64, 128, 256)
    wide = VaderConfig(HyperParams(InputKind.RAW, 9, 2, 6, base_width=16))
    assert wide.widths == (16, 32, 64, 128, 256, 256, 256)


def test_raw_infer_range_and_length():
    net = build_vader(_cfg(k=5, m=2, p=2, base=4))
    net.init_params(3)
    for n in (64, 100, 355):
        probs = infer(net, RNG.normal(size=n))
        assert probs.shape == (n,)
        assert probs.min() > 0.0 and probs.max() < 1.0


def test_fcn_doubling_without_rebuild():
    net = build_vader(_cfg(k=5, m=2, p=2, base=4))
    net.init_params(3)
    x = RNG.normal(size=96)
    assert infer(net, x).shape == (96,)
    assert infer(net, np.tile(x, 2)).shape == (192,)


def test_first_groupnorm_single_group():
    net = build_vader(_cfg(base=16))
    gns = [n.layer for n in net.nodes if n.layer.kind == "group_norm"]
    assert gns[0].groups == 1
    # all later group norms target 16 channels per group
    for gn in gns[1:]:
        assert gn.groups == max(1, gn.channels // 16)


def test_spectrogram_kernel_extents():
    net = build_vader(_cfg(InputKind.SPECTROGRAM, k=9, m=2, p=4))
    by_name = {n.name: n.layer for n in net.nodes}
    first_conv = next(l for n, l in sorted(by_name.items()) if isinstance(l, Conv))
    assert (first_conv.kf, first_conv.kt) == (9, 9)
    enc1_mid = next(l for n, l in by_name.items() if "enc1_mid_conv" in n)
    assert (enc1_mid.kf, enc1_mid.kt) == (8, 9)  # frequency halved to 8 bins


def test_spectrogram_infer_shape():
    net = build_vader(_cfg(InputKind.SPECTROGRAM, k=9, m=2, p=3, base=4))
    net.init_params(5)
    stack = spectrogram_stack(RNG.normal(size=250))
    probs = infer(net, stack)
    assert probs.shape == (250,)
    assert probs.min() > 0.0 and probs.max() < 1.0


def test_infer_channel_equals_precomputed_stack():
    """A channel reaches a spectrogram detector through the same transform
    as a precomputed stack; a raw detector takes its samples as they are."""
    ch = SensorChannel("s0", RNG.normal(size=200), 600.0)
    spec = build_vader(_cfg(InputKind.SPECTROGRAM, k=5, m=2, p=2, base=4))
    spec.init_params(3)
    x = network_input(ch, InputKind.SPECTROGRAM)
    assert x.shape == (1, 6, 16, 200)
    probs = spec.forward(x)[0, 0, 0]
    assert probs.shape == (200,)
    assert np.array_equal(probs, infer(spec, spectrogram_stack(ch.samples)))
    assert np.array_equal(probs, infer(spec, ch))
    raw = build_vader(_cfg(k=5, m=2, p=2, base=4))
    raw.init_params(3)
    assert np.array_equal(infer(raw, ch), infer(raw, ch.samples))


def test_raw_detector_is_cheaper_than_spectrogram():
    """The paper's cost claim: a raw detector infers faster than a
    spectrogram detector of the same hyperparameters, whose time includes
    the transform. Each is timed as the fastest of three calls after one
    warm-up, so that one scheduler stall decides nothing."""
    signal = np.random.Generator(np.random.PCG64(0)).normal(size=1200).astype(np.float32)
    seconds = {}
    for kind in InputKind:
        net = build_vader(_cfg(kind, k=9, m=2, p=4, base=4))
        net.init_params(0)
        infer(net, signal)
        seconds[kind] = min(timeit.repeat(lambda: infer(net, signal), number=1, repeat=3))
    assert seconds[InputKind.SPECTROGRAM] > seconds[InputKind.RAW]


def test_raw_detection_memory_on_a_long_series():
    """The default raw detector's batch-1 forward on 36,000 samples (one
    minute at 600 Hz) peaks under 24 MiB of traced allocations, a bound fixed
    before the element-capped tiles were run; with 4,096-column tiles and a
    padded whole-series plane per convolution it peaked at 53.6 MiB."""
    net = build_vader(_cfg())
    net.init_params(0)
    signal = np.random.default_rng(1).normal(size=36_000).astype(np.float32)
    tracemalloc.start()
    try:
        infer(net, signal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_loaded_detector_holds_only_its_weights(tmp_path):
    """A default raw detector loaded from its checkpoint and run once holds
    at most its parameter bytes and a twentieth more: no gradient buffer,
    which nothing on the detection path reads. Zero-filled gradients made it
    twice its parameter bytes (7.06 against 3.48 MiB)."""
    net = build_vader(_cfg())
    net.init_params(0)
    save_checkpoint(tmp_path / "model", net, seed=0)
    del net
    tracemalloc.start()
    try:
        loaded, _ = load_vader(tmp_path / "model")
        infer(loaded, np.random.default_rng(1).normal(size=2_000).astype(np.float32))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weights = sum(p.value.nbytes for p in loaded.params())
    assert held <= 1.05 * weights, (held, weights)


def test_network_input_shapes():
    assert network_input(np.zeros(10)).shape == (1, 1, 1, 10)
    assert network_input(np.zeros((16, 6, 20))).shape == (1, 6, 16, 20)
    with pytest.raises(ShapeMismatch):
        network_input(np.zeros((4, 4, 20)))


def test_checkpoint_manifest_describes_model(tmp_path):
    cfg = VaderConfig(HyperParams(InputKind.RAW, 9, 2, 4, base_width=8), sample_rate=300.0)
    net = build_vader(cfg)
    net.init_params(4)
    save_checkpoint(tmp_path / "model", net, seed=4)
    manifest = read_manifest(tmp_path / "model")
    assert VaderConfig.from_record(manifest["model"]) == cfg
    assert cfg.hyper.mrf == 144
    assert sum(int(np.prod(p["shape"])) for p in manifest["params"]) == sum(p.value.size for p in net.params())
    kinds = {layer["kind"] for layer in manifest["layers"]}
    assert {"conv", "max_pool", "group_norm", "relu", "sigmoid", "concat", "add", "transposed_conv"} <= kinds
    loaded, loaded_cfg = load_vader(tmp_path / "model")
    assert loaded_cfg == cfg
    for a, b in zip(net.params(), loaded.params()):
        assert np.array_equal(a.value, b.value)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    net = build_vader(_cfg(k=5, m=2, p=2, base=4))
    net.init_params(1)
    save_checkpoint(tmp_path / "model", net, seed=1)
    saved = [p.value.copy() for p in net.params()]
    for p in net.params():
        p.value += 1.0
    open_ = Path.open

    class FailHalfway(io.FileIO):
        """A binary file that takes half of the first write, then fails."""

        def write(self, data):
            data = memoryview(data).cast("B")
            super().write(data[: len(data) // 2])
            raise OSError("no space left on device")

    def open_failing(path, mode="r", *args, **kwargs):
        return FailHalfway(path, "wb") if mode == "wb" else open_(path, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_failing)
    with pytest.raises(OSError):
        save_checkpoint(tmp_path / "model", net, seed=1)
    monkeypatch.undo()
    loaded, _ = load_vader(tmp_path / "model")
    for value, p in zip(saved, loaded.params()):
        assert np.array_equal(value, p.value)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["model.bin", "model.json"]


@pytest.mark.parametrize("kind", list(InputKind))
def test_batched_forward_matches_single_on_detector(kind):
    """Zero-padded batching through the full detector reproduces per-sample
    inference within float32 rounding."""
    net = build_vader(_cfg(kind, k=5, m=2, p=2, base=4))
    net.init_params(9)
    rows = (SPEC_BINS, SPEC_CHANNELS) if kind is InputKind.SPECTROGRAM else ()
    a = RNG.normal(size=rows + (90,)).astype(np.float32)
    b = RNG.normal(size=rows + (128,)).astype(np.float32)
    xb = np.zeros((2,) + network_input(b, kind).shape[1:], dtype=np.float32)
    xb[0, ..., :90] = network_input(a, kind)[0]
    xb[1] = network_input(b, kind)[0]
    yb = net.forward(xb, valid=np.array([90, 128]))
    assert np.allclose(yb[0, 0, 0, :90], infer(net, a), atol=2e-6)
    assert np.allclose(yb[1, 0, 0, :], infer(net, b), atol=2e-6)


def _recording(network):
    """Wrap every layer of ``network`` so that the arrays its forward and
    backward return are collected, by node name, in the returned list."""
    seen = []
    for node in network.nodes:
        fwd, bwd = node.layer.forward, node.layer.backward

        def forward(xs, valids, want_cache, dead=(), fwd=fwd, name=node.name):
            out = fwd(xs, valids, want_cache, dead)
            seen.append((name, out[0]))
            return out

        def backward(cache, dy, bwd=bwd, name=node.name):
            dxs = bwd(cache, dy)
            seen.extend((name, dx) for dx in dxs)
            return dxs

        node.layer.forward, node.layer.backward = forward, backward
    return seen


@pytest.mark.parametrize("kind", list(InputKind))
def test_float32_detector_computes_in_float32(kind):
    """Every node output, every layer gradient, the input gradient and every
    parameter gradient of a float32 detector stay float32, whatever the
    input's dtype."""
    net = build_vader(_cfg(kind, k=5, m=2, p=2, base=16))
    net.init_params(1)
    seen = _recording(net)
    shape = (2, 6, 16, 50) if kind is InputKind.SPECTROGRAM else (2, 1, 1, 50)
    x = RNG.normal(size=shape)  # float64
    y, ctx = net.forward(x, valid=[50, 37], want_cache=True)
    dx = net.backward(ctx, RNG.normal(size=y.shape))
    assert len(seen) > 2 * len(net.nodes)
    assert [name for name, a in seen if a.dtype != np.float32] == []
    assert y.dtype == dx.dtype == np.float32
    assert {p.value.dtype for p in net.params()} == {p.grad.dtype for p in net.params()} == {np.dtype(np.float32)}


def test_forward_backward_pad_time_to_the_pooling_multiple():
    """A length that is not a multiple of the pooling product runs as its
    zero-padded input would, cropped back to its own length."""
    net = build_vader(_cfg(k=5, m=2, p=2, base=4), dtype=np.float64)
    net.init_params(2)
    assert net.time_multiple == 4
    x = RNG.normal(size=(2, 1, 1, 90))
    dy = RNG.normal(size=(2, 1, 1, 90))
    padded_x = np.pad(x, ((0, 0), (0, 0), (0, 0), (0, 2)))
    padded_dy = np.pad(dy, ((0, 0), (0, 0), (0, 0), (0, 2)))
    grads = []
    for inp, grad, length in ((x, dy, 90), (padded_x, padded_dy, 92)):
        net.zero_grads()
        y, ctx = net.forward(inp, valid=[90, 71], want_cache=True)
        dx = net.backward(ctx, grad)
        assert y.shape[-1] == dx.shape[-1] == length
        grads.append((y[..., :90], dx[..., :90], [p.grad.copy() for p in net.params()]))
    (y, dx, pg), (ref_y, ref_dx, ref_pg) = grads
    assert np.array_equal(y, ref_y) and np.array_equal(dx, ref_dx)
    assert all(np.array_equal(a, b) for a, b in zip(pg, ref_pg))


@pytest.mark.parametrize("kind", list(InputKind))
def test_backward_releases_each_cache_after_use(kind):
    """When a node's backward starts, every activation-shaped (4-D) array
    cached by a later node is gone, unless an earlier node's cache, still to
    be used, holds it too."""
    net = build_vader(_cfg(kind, k=5, m=2, p=2, base=4))
    net.init_params(1)
    cached = []  # per node: the ids of, and weak references to, its cached arrays
    seen = []  # per backward call: cached arrays of later nodes still alive
    for i, node in enumerate(net.nodes):
        fwd, bwd = node.layer.forward, node.layer.backward

        def forward(xs, valids, want_cache, dead=(), fwd=fwd):
            y, v, cache = fwd(xs, valids, want_cache, dead)
            items = cache if isinstance(cache, (tuple, list)) else (cache,)
            cached.append({id(a): weakref.ref(a) for a in items if np.ndim(a) == 4})
            return y, v, cache

        def backward(cache, dy, bwd=bwd, i=i):
            pending = set().union(*cached[: i + 1])
            seen.append([(j, key) for j in range(i + 1, len(cached))
                         for key, ref in cached[j].items() if key not in pending and ref() is not None])
            return bwd(cache, dy)

        node.layer.forward, node.layer.backward = forward, backward
    shape = (2, 6, 16, 40) if kind is InputKind.SPECTROGRAM else (2, 1, 1, 40)
    y, ctx = net.forward(RNG.normal(size=shape), valid=[40, 33], want_cache=True)
    dy = RNG.normal(size=y.shape)
    del y  # the output is the sigmoid's cache
    net.backward(ctx, dy)
    assert len(seen) == len(net.nodes) and sum(map(len, cached)) > len(net.nodes)
    assert all(alive == [] for alive in seen), [alive for alive in seen if alive][0]


@pytest.mark.parametrize("kind", list(InputKind))
def test_float32_and_float64_detectors_agree(kind, tiny_passage):
    cfg = _cfg(kind, k=5, m=2, p=2, base=4)
    single, double = build_vader(cfg), build_vader(cfg, dtype=np.float64)
    single.init_params(6)
    for a, b in zip(single.params(), double.params()):
        b.value[...] = a.value
    ch = tiny_passage.channels[0]
    assert np.abs(infer(single, ch) - infer(double, ch)).max() <= 1e-5


def test_input_beyond_float32_is_refused():
    net = build_vader(_cfg(k=5, m=2, p=2, base=4))
    net.init_params(3)
    x = RNG.normal(size=100)
    x[40] = 1e39  # finite in float64
    with pytest.raises(NonFiniteInput, match=r"1e\+39 is not finite in float32"):
        infer(net, x)
    x[40:] = 0.0
    x[60] = np.nan
    with pytest.raises(NonFiniteInput, match="nan"):
        infer(net, x)
