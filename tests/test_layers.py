"""Per-layer finite-difference gradient checks and layer contracts."""

import tracemalloc

import numpy as np
import pytest

from conftest import fd_layer_check
from vader.engine import (
    Add,
    Concat,
    Conv,
    GroupNorm,
    MaxPool,
    Network,
    ReLU,
    Sigmoid,
    TileFreq,
    groupnorm_groups,
    zero_invalid,
)
from vader.engine import layers
from vader.engine.layers import _band
from vader.errors import ShapeMismatch

RNG = np.random.default_rng(123)
TOL = 1e-4


def _x(*shape):
    return RNG.normal(size=shape)


def _full(xs):
    return [np.full(x.shape[0], x.shape[-1], dtype=np.int64) for x in xs]


# -------------------------------------------------- gradient checks


def test_conv_grad_1d():
    layer = Conv(3, 4, 1, 9)
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 3, 1, 30)]) <= TOL


def test_conv_grad_2d_same():
    layer = Conv(2, 3, 8, 5, freq_padding="same")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 2, 8, 12)]) <= TOL


def test_conv_grad_2d_valid_freq():
    layer = Conv(2, 1, 6, 1, freq_padding="valid")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 2, 6, 10)]) <= TOL


def test_conv_grad_pointwise():
    layer = Conv(5, 2, 1, 1)
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(1, 5, 2, 17)]) <= TOL


def test_transposed_conv_grad():
    for stride in (2, 3):
        layer = Conv(3, 2, 1, 5, stride=stride)
        layer.init(RNG)
        assert fd_layer_check(layer, [_x(2, 3, 1, 12)]) <= TOL


def test_transposed_conv_grad_2d():
    layer = Conv(2, 2, 3, 5, stride=2)
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(1, 2, 4, 10)]) <= TOL


def test_maxpool_grad():
    assert fd_layer_check(MaxPool(1, 2), [_x(2, 3, 1, 16)]) <= TOL
    assert fd_layer_check(MaxPool(2, 3), [_x(1, 2, 6, 12)]) <= TOL
    # frequency ceil-padding path
    assert fd_layer_check(MaxPool(3, 2), [_x(1, 2, 7, 8)]) <= TOL


def test_groupnorm_grad():
    layer = GroupNorm(6, 2)
    assert fd_layer_check(layer, [_x(2, 6, 1, 11)]) <= TOL


def test_groupnorm_grad_masked():
    layer = GroupNorm(4, 1)
    x = _x(2, 4, 1, 12)
    valid = np.array([9, 12])
    zero_invalid(x, valid)
    assert fd_layer_check(layer, [x], valids=[valid]) <= TOL


def test_relu_sigmoid_grad():
    x = _x(2, 3, 1, 20)
    x[np.abs(x) < 1e-3] += 0.1  # keep away from the kink
    assert fd_layer_check(ReLU(), [x]) <= TOL
    assert fd_layer_check(Sigmoid(), [_x(2, 3, 1, 20)]) <= TOL


def test_concat_add_grad():
    assert fd_layer_check(Concat(), [_x(2, 3, 1, 10), _x(2, 2, 1, 10)]) <= TOL
    assert fd_layer_check(Add(), [_x(2, 3, 1, 10), _x(2, 3, 1, 10)]) <= TOL


def test_reduce_tile_grad():
    assert fd_layer_check(MaxPool(5, 1), [_x(2, 3, 5, 8)]) <= TOL
    assert fd_layer_check(TileFreq(4), [_x(2, 3, 1, 8)]) <= TOL


# -------------------------------------------------- contracts


def test_identity_convolution():
    layer = Conv(1, 1, 1, 1)
    layer.weight.value[...] = 1.0
    x = _x(2, 1, 1, 40)
    y, _, _ = layer.forward([x], _full([x]), want_cache=False)
    assert np.array_equal(y, x)


def test_pool_then_transposed_restores_length():
    for m in (2, 3, 4):
        T = 12 * m
        x = _x(1, 2, 1, T)
        pooled, _, _ = MaxPool(1, m).forward([x], _full([x]), False)
        up = Conv(2, 2, 1, m + 1, stride=m)
        up.init(RNG)
        y, _, _ = up.forward([pooled], [np.array([T // m])], False)
        assert y.shape[-1] == T


def test_groupnorm_constant_group_is_zero():
    layer = GroupNorm(2, 1)
    x = np.full((1, 2, 1, 50), 3.7)
    y, _, _ = layer.forward([x], _full([x]), False)
    assert np.allclose(y, 0.0, atol=1e-3)


def test_groupnorm_statistics():
    layer = GroupNorm(8, 2)
    x = _x(3, 8, 1, 256) * 4.0 + 1.5
    y, _, _ = layer.forward([x], _full([x]), False)
    per_group = y.reshape(3, 2, 4 * 256)
    assert np.abs(per_group.mean(axis=-1)).max() <= 1e-6
    assert np.abs(per_group.var(axis=-1) - 1.0).max() <= 1e-4


@pytest.mark.parametrize("offset", [0.0, 100.0], ids=["centred", "offset"])
def test_groupnorm_float32_statistics_match_float64(offset):
    """On float32 groups of 2**20 elements the layer normalises with the
    float64 mean and variance, to 2**-16 of the spread (the mean's bound
    grows with its distance from zero, in standard deviations). The offset
    input is where E[x^2] - mean^2 would cancel."""
    layer = GroupNorm(8, 2)
    for p in layer.params():
        p.value = p.value.astype(np.float32)
    rng = np.random.default_rng(5)
    x = ((rng.normal(size=(1, 8, 16, 16384)) + offset) * 3.0).astype(np.float32)
    y, _, _ = layer.forward([x], _full([x]), False)
    x64 = x.astype(np.float64).reshape(1, 2, -1)
    ref = (x64 - x64.mean(axis=-1, keepdims=True)) / np.sqrt(x64.var(axis=-1, keepdims=True) + layer.eps)
    y64 = y.astype(np.float64).reshape(1, 2, -1)
    tol = 2.0**-16
    assert np.abs(y64.mean(axis=-1) - ref.mean(axis=-1)).max() <= tol * (1 + offset)
    assert np.abs(y64.var(axis=-1) / ref.var(axis=-1) - 1).max() <= tol


def test_groupnorm_channels_divisible():
    with pytest.raises(ValueError):
        GroupNorm(6, 4)


def test_groupnorm_groups_rule():
    assert groupnorm_groups(1) == 1
    assert groupnorm_groups(8) == 1
    assert groupnorm_groups(16) == 1
    assert groupnorm_groups(32) == 2
    assert groupnorm_groups(256) == 16
    assert groupnorm_groups(56) == 2  # 3 does not divide 56; largest divisor <= C//16


def test_relu_sigmoid_ranges():
    x = np.concatenate([_x(200), np.array([-50.0, 50.0])]).reshape(1, 1, 1, -1)
    y, _, _ = ReLU().forward([x], _full([x]), False)
    assert y.min() >= 0
    s, _, _ = Sigmoid().forward([x], _full([x]), False)
    assert 0.0 < s.min() and s.max() < 1.0


def test_concat_shape_mismatch():
    a, b = _x(1, 2, 1, 10), _x(1, 2, 1, 12)
    with pytest.raises(ShapeMismatch):
        Concat().forward([a, b], _full([a, b]), False)


def test_missing_forward_cache():
    layer = Conv(1, 1, 1, 3)
    with pytest.raises(ValueError, match="needs a forward"):
        layer.backward(None, _x(1, 1, 1, 8))


def test_one_row_band_is_the_weight():
    """A stride-1 one-row kernel is multiplied as the weight itself, not a copy."""
    layer = Conv(3, 4, 1, 9)
    band = _band(layer._kernel(layer.weight.value.dtype), 1, layer._freq_pads)
    assert band.shape == (4, 3 * 9)
    assert np.shares_memory(band, layer.weight.value)


def _ref_subpixel_kernel(w, s):
    """The sub-pixel kernel of a stride-``s`` transposed convolution, tap by
    tap: tap ``j`` sends input column ``c`` to output column
    ``s * c + crop - j`` (``crop`` is the zero-stuffed reference's left
    padding), so it lands in phase ``p`` at input shift ``(p + j - crop) / s``."""
    O, C, kf, kt = w.shape
    crop = (kt + s - 2) // 2
    hits = [(p, j, (p + j - crop) // s) for j in range(kt) for p in range(s) if (p + j - crop) % s == 0]
    lo = -min(shift for _, _, shift in hits)
    k = np.zeros((s, O, C, kf, max(shift for _, _, shift in hits) + lo + 1))
    for p, j, shift in hits:
        k[p, :, :, :, shift + lo] = w[:, :, :, j]
    return k.reshape(s * O, C, kf, -1), lo


#: Stride 1, a plain Conv, whose time kernels are odd, and every stride the
#: planner's pool sizes give.
SUBPIXEL_CASES = [(s, kt) for s in range(1, 6) for kt in (*range(1, 10), 17) if s > 1 or kt % 2]


@pytest.mark.parametrize("stride, kt", SUBPIXEL_CASES, ids=[f"s{s}-k{kt}" for s, kt in SUBPIXEL_CASES])
def test_subpixel_kernel_matches_per_tap_loop(stride, kt):
    layer = Conv(2, 3, 2, kt, stride=stride)
    layer.init(RNG)
    ref, lo = _ref_subpixel_kernel(layer.weight.value, stride)
    assert np.array_equal(layer._kernel(np.float64), ref)
    assert layer._time_pads == (lo, ref.shape[-1] - 1 - lo)


def test_conv_stride_and_kernel_rules():
    """Stride 1 is a convolution with an odd time kernel, a higher stride the
    transposed convolution, which also takes an even one; below 1 is refused."""
    assert (Conv(2, 3, 1, 4, stride=2).kind, Conv(2, 3, 1, 5).kind) == ("transposed_conv", "conv")
    assert Conv(2, 3, 1, 4, stride=2).config()["stride"] == 2 and "stride" not in Conv(2, 3, 1, 5).config()
    with pytest.raises(ValueError, match="time kernel extent must be odd, got 4"):
        Conv(2, 3, 1, 4)
    with pytest.raises(ValueError, match="stride must be >= 1, got 0"):
        Conv(2, 3, 1, 5, stride=0)


def test_zero_upstream_gradient_gives_zero_param_grads():
    layer = Conv(2, 3, 1, 5)
    layer.init(RNG)
    x = _x(1, 2, 1, 16)
    y, _, cache = layer.forward([x], _full([x]), True)
    layer.backward(cache, np.zeros_like(y))
    assert np.all(layer.weight.grad == 0)
    assert np.all(layer.bias.grad == 0)


@pytest.mark.parametrize(
    "make, F",
    [
        (lambda: Conv(1, 2, 1, 3), 1),
        (lambda: Conv(2, 3, 3, 3), 4),
        (lambda: Conv(1, 2, 1, 4, stride=2), 1),
        (lambda: Conv(2, 3, 3, 3, stride=3), 4),
    ],
    ids=["conv-1d", "conv-2d", "tconv-1d", "tconv-2d"],
)
def test_zero_length_backward(make, F):
    """An empty series has no tiles: the backward pass returns an empty input
    gradient of the input's shape and leaves the parameter gradients zero."""
    layer = make()
    layer.init(RNG)
    x = np.zeros((1, layer.c_in, F, 0))
    y, _, cache = layer.forward([x], [0], True)
    assert y.shape == (1, layer.c_out, F, 0)
    (dx,) = layer.backward(cache, np.zeros_like(y))
    assert dx.shape == x.shape
    assert np.all(layer.weight.grad == 0)
    assert np.all(layer.bias.grad == 0)


def test_network_valid_propagation_batch_equals_single():
    """Padded batches replicate per-sample forwards exactly (see also the
    model-level test on the full detector)."""
    net = Network(dtype=np.float64, time_multiple=2)
    c = Conv(1, 3, 1, 5)
    g = GroupNorm(3, 1)
    i_c = net.add("c", c, [-1])
    i_r = net.add("r", ReLU(), [i_c])
    i_g = net.add("g", g, [i_r])
    i_p = net.add("p", MaxPool(1, 2), [i_g])
    t = Conv(3, 1, 1, 3, stride=2)
    net.add("t", t, [i_p])
    net.init_params(0)
    a = _x(18)
    b = _x(24)
    xb = np.zeros((2, 1, 1, 24))
    xb[0, 0, 0, :18] = a
    xb[1, 0, 0, :] = b
    yb = net.forward(xb, valid=np.array([18, 24]))
    ya = net.forward(a.reshape(1, 1, 1, -1))
    # only summation order differs between the two paths
    assert np.allclose(yb[0, :, :, :18], ya[0], rtol=0, atol=1e-12)
    yb_single = net.forward(b.reshape(1, 1, 1, -1))
    assert np.allclose(yb[1], yb_single[0], rtol=0, atol=1e-12)


def test_forward_leaves_caller_input_unchanged():
    """The padded tail is zeroed in a private copy, not in the caller's array."""
    net = Network(dtype=np.float32)
    net.add("c", Conv(1, 1, 1, 3), [-1])
    net.init_params(0)
    x = np.ones((1, 1, 1, 8), np.float32)
    y = net.forward(x, valid=[4])
    assert np.array_equal(x, np.ones((1, 1, 1, 8), np.float32))
    zeroed = x.copy()
    zeroed[..., 4:] = 0
    assert np.array_equal(y, net.forward(zeroed, valid=[4]))


#: One layer of every kind, with the (channels, frequency rows) of its inputs.
KIND_CASES = {
    "conv": (lambda: Conv(3, 4, 1, 1), [(3, 5)]),  # at batch 1 its plane is a view of x
    "transposed_conv": (lambda: Conv(3, 2, 3, 4, stride=2), [(3, 5)]),
    "max_pool": (lambda: MaxPool(2, 2), [(3, 5)]),
    "group_norm": (lambda: GroupNorm(4, 2), [(4, 5)]),
    "relu": (lambda: ReLU(), [(3, 5)]),
    "sigmoid": (lambda: Sigmoid(), [(3, 5)]),
    "concat": (lambda: Concat(), [(3, 5), (2, 5)]),
    "add": (lambda: Add(), [(3, 5), (3, 5)]),
    "tile_freq": (lambda: TileFreq(4), [(3, 1)]),
}


def test_kind_cases_cover_every_layer_kind():
    """Every kind a layer can report has a case: a class's own ``kind``, and
    Conv's two, which its stride chooses."""
    kinds, todo = {Conv(1, 1, 1, 1, stride=s).kind for s in (1, 2)}, list(layers.Layer.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Conv:
            kinds.add(cls.kind)
    assert kinds == set(KIND_CASES)


@pytest.mark.parametrize("want_cache", [False, True], ids=["uncached", "cached"])
@pytest.mark.parametrize("n", [1, 2], ids=["batch1", "batch2"])
@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_direct_forward_leaves_inputs_unchanged(kind, n, want_cache):
    """A layer called directly writes into none of its inputs, and its output
    shares no memory with them: overwriting the output, as the network's
    valid-length masking does, leaves every input bit-identical."""
    make, shapes = KIND_CASES[kind]
    layer = make()
    if hasattr(layer, "init"):
        layer.init(RNG)
    xs = [RNG.normal(size=(n, c, f, 12)) for c, f in shapes]
    kept = [x.copy() for x in xs]
    y, _, _ = layer.forward(xs, _full(xs), want_cache)
    assert layer.kind == kind
    y[...] = np.nan
    for x, k in zip(xs, kept):
        assert np.array_equal(x, k)


@pytest.mark.parametrize(
    "make, dead",
    [(ReLU, (0,)), (lambda: GroupNorm(4, 2), (0,)), (Add, (0,)), (Add, (1,))],
    ids=["relu", "group_norm", "add_first", "add_second"],
)
def test_dead_input_takes_the_output(make, dead):
    """Given a dead input, ReLU, group norm and Add write their output into it,
    with the same bits as out of place."""
    layer = make()
    n_in = 2 if isinstance(layer, Add) else 1
    xs = [RNG.normal(size=(1, 4, 3, 12)) for _ in range(n_in)]
    want, _, _ = layer.forward([x.copy() for x in xs], _full(xs), False)
    y, _, _ = layer.forward(xs, _full(xs), False, dead)
    assert np.shares_memory(y, xs[dead[0]]) and np.array_equal(y, want)


@pytest.mark.parametrize("n", [1, 2], ids=["batch1", "batch2"])
def test_uncached_forward_overwrites_only_dead_inputs(n):
    """Activations read by a ReLU, a group norm or an Add and again by a later
    node survive them: the uncached forward, whose layers may overwrite dead
    inputs, equals the cached forward bit for bit."""
    net = Network(dtype=np.float64)
    i0 = net.add("r0", ReLU(), [-1])  # the network input is read again by c1
    i1 = net.add("c1", Conv(1, 4, 1, 1), [-1])
    i2 = net.add("r2", ReLU(), [i1])  # i1 is read again by g3 and a4
    i3 = net.add("g3", GroupNorm(4, 2), [i1])
    i4 = net.add("a4", Add(), [i2, i1])
    i5 = net.add("a5", Add(), [i3, i4])
    i6 = net.add("c6", Conv(4, 1, 1, 3), [i5])
    net.add("a7", Add(), [i0, i6])
    net.init_params(0)
    for layer in (net.nodes[i1].layer, net.nodes[i6].layer):
        layer.bias.value[...] = RNG.normal(size=layer.bias.shape)
    x = RNG.normal(size=(n, 1, 1, 40))
    valid = np.array([40, 31][:n])
    cached, _ = net.forward(x, valid, want_cache=True)
    assert np.array_equal(net.forward(x, valid), cached)


def test_transposed_backward_reuses_forward_kernel(monkeypatch):
    """Backward takes the sub-pixel kernel from the forward cache: one build
    per forward-backward pair."""
    built = []
    kernel = Conv._kernel
    monkeypatch.setattr(Conv, "_kernel", lambda self, dtype: built.append(dtype) or kernel(self, dtype))
    layer = Conv(3, 2, 1, 5, stride=2)
    layer.init(RNG)
    x = _x(2, 3, 1, 12)
    y, _, cache = layer.forward([x], _full([x]), True)
    layer.backward(cache, np.ones_like(y))
    assert len(built) == 1


def _first_max_reference(x, pf, pt, dy):
    """Pooling gradient by argmax over each window, flattened frequency-major."""
    dx = np.zeros_like(x)
    for n, c, a, b in np.ndindex(dy.shape):
        win = x[n, c, a * pf : (a + 1) * pf, b * pt : (b + 1) * pt]
        i, j = np.unravel_index(np.argmax(win), win.shape)
        dx[n, c, a * pf + i, b * pt + j] = dy[n, c, a, b]
    return dx


@pytest.mark.parametrize(
    "layer", [MaxPool(2, 2), MaxPool(3, 2), MaxPool(5, 1)], ids=["pool2x2", "pool3x2", "reduce"]
)
def test_pool_ties_send_gradient_to_first_in_window(layer):
    """Windows of equal values (all zero, as after ReLU, or tied ones) send
    the whole gradient to their first element in window order."""
    x = np.maximum(RNG.integers(-1, 2, size=(2, 3, 5, 8)), 0).astype(np.float64)
    pf, pt = layer.pool_f, layer.pool_t
    y, _, cache = layer.forward([x], _full([x]), True)
    dy = RNG.normal(size=y.shape)
    (dx,) = layer.backward(cache, dy)
    assert (y == 0).any() and np.array_equal(dx, _first_max_reference(x, pf, pt, dy))
    uncached, _, _ = layer.forward([x], _full([x]), False)
    assert np.array_equal(uncached, y)


def test_forward_releases_dead_activations():
    """An uncached forward holds a few activations at a time, not all of
    them; cached and uncached outputs agree bit for bit."""
    net = Network(dtype=np.float64)
    prev = -1
    for i in range(24):
        prev = net.add(f"c{i}", Conv(2, 2, 1, 3), [prev])
        prev = net.add(f"r{i}", ReLU(), [prev])
    net.init_params(0)
    x = RNG.normal(size=(1, 2, 1, 20000))
    act_bytes = len(net.nodes) * x.nbytes
    tracemalloc.start()
    try:
        y = net.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < act_bytes / 4
    cached, _ = net.forward(x, want_cache=True)
    assert np.array_equal(cached, y)


# -------------------------------------------------- plain-loop reference


def _ref_correlate(xp, w):
    """Direct sum over taps: y[n, o, f, t] = sum w[o, c, i, j] xp[n, c, f+i, t+j]."""
    _, _, kf, kt = w.shape
    fo, to = xp.shape[2] - kf + 1, xp.shape[3] - kt + 1
    y = np.zeros((xp.shape[0], w.shape[0], fo, to))
    for i in range(kf):
        for j in range(kt):
            y += np.einsum("oc,ncft->noft", w[:, :, i, j], xp[:, :, i : i + fo, j : j + to])
    return y


def _ref_correlate_grads(xp, w, dy):
    """Weight and padded-input gradients of :func:`_ref_correlate`."""
    _, _, kf, kt = w.shape
    fo, to = dy.shape[2:]
    dw = np.zeros_like(w)
    dxp = np.zeros_like(xp)
    for i in range(kf):
        for j in range(kt):
            dw[:, :, i, j] = np.einsum("noft,ncft->oc", dy, xp[:, :, i : i + fo, j : j + to])
            dxp[:, :, i : i + fo, j : j + to] += np.einsum("oc,noft->ncft", w[:, :, i, j], dy)
    return dw, dxp


def _reference(layer, x, dy):
    """Output and (dx, dW, db) of ``layer`` by padding, explicit zero-stuffing
    for the transposed case, and :func:`_ref_correlate`."""
    kf, kt, s = layer.kf, layer.kt, layer.stride
    pf = ((kf - 1) // 2, kf // 2) if layer.freq_padding == "same" else (0, 0)
    if s == 1:
        pt = ((kt - 1) // 2,) * 2
        stuffed = x
    else:
        total = kt + s - 2
        pt = (total // 2, total - total // 2)
        stuffed = np.zeros(x.shape[:3] + ((x.shape[3] - 1) * s + 1,))
        stuffed[..., ::s] = x
    xp = np.pad(stuffed, ((0, 0), (0, 0), pf, pt))
    w = layer.weight.value
    y = _ref_correlate(xp, w) + layer.bias.value[None, :, None, None]
    dw, dxp = _ref_correlate_grads(xp, w, dy)
    dstuffed = dxp[:, :, pf[0] : xp.shape[2] - pf[1], pt[0] : xp.shape[3] - pt[1]]
    return y, dstuffed[..., ::s], dw, dy.sum(axis=(0, 2, 3))


REFERENCE_CASES = {
    "conv_k1": lambda: Conv(3, 4, 1, 1),
    "conv_k3": lambda: Conv(3, 4, 1, 3),
    "conv_k9": lambda: Conv(2, 5, 1, 9),
    "conv_f3_same": lambda: Conv(2, 3, 3, 5, "same"),
    "conv_f4_same": lambda: Conv(2, 3, 4, 3, "same"),
    "conv_f3_valid": lambda: Conv(2, 3, 3, 3, "valid"),
    "conv_f5_valid_head": lambda: Conv(3, 1, 5, 1, "valid"),
    **{
        f"tconv_s{s}_k{kt}_f{kf}": (
            lambda s=s, kt=kt, kf=kf: Conv(3, 2, kf, kt, stride=s)
        )
        for s in (2, 3, 4, 5)
        for kt in (1, 2, 3, 4, 5, 9, 17)
        for kf in (1, 3)
    },
}


#: Kernels over several frequency rows whose geometry REFERENCE_CASES
#: leaves out: one-row kernels, whose rows ride along as batch columns, and
#: the spectrogram input convolution (kf 9 over 16 rows, 'same').
ROW_CASES = {
    "conv_k3_f1_rows5": (lambda: Conv(3, 4, 1, 3), 5),
    "conv_k1_f1_rows5": (lambda: Conv(3, 4, 1, 1), 5),
    "tconv_s2_k5_f1_rows5": (lambda: Conv(3, 2, 1, 5, stride=2), 5),
    "tconv_s3_k4_f1_rows5": (lambda: Conv(3, 2, 1, 4, stride=3), 5),
    "conv_f9_same_rows16": (lambda: Conv(6, 4, 9, 9, "same"), 16),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_conv_matches_plain_loop_reference(case):
    layer = REFERENCE_CASES[case]()
    _check_against_reference(layer, 5 if layer.kf > 1 else 1)


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_conv_over_rows_matches_plain_loop_reference(case):
    make, F = ROW_CASES[case]
    _check_against_reference(make(), F)


@pytest.mark.parametrize(
    "make, F",
    [(REFERENCE_CASES[c], None) for c in sorted(REFERENCE_CASES)] + [ROW_CASES[c] for c in sorted(ROW_CASES)],
    ids=sorted(REFERENCE_CASES) + sorted(ROW_CASES),
)
def test_tiled_conv_matches_plain_loop_reference(monkeypatch, make, F):
    """``BLOCK`` patched so that the forward product takes one-column tiles,
    five-column pieces of a sample row (tile edges inside the time pads, a
    remainder piece) and two-row tiles (boundaries inside and across
    samples, a remainder tile); the gradient products take tiles of other
    widths."""
    layer = make()
    F = F or (5 if layer.kf > 1 else 1)
    band = _band(layer._kernel(np.float64), F if layer.kf > 1 else 1, layer._freq_pads)
    for columns in (1, 5, 27):
        monkeypatch.setattr(layers, "BLOCK", columns * max(band.shape))
        _check_against_reference(make(), F)


def _check_against_reference(layer, F):
    rng = np.random.default_rng(7)
    layer.init(rng)
    layer.bias.value[...] = rng.normal(size=layer.c_out)
    valid = np.array([13, 9, 4])
    x = zero_invalid(rng.normal(size=(3, layer.c_in, F, 13)), valid)
    y, out_valid, cache = layer.forward([x], [valid], want_cache=True)
    assert np.array_equal(out_valid, valid * layer.stride)
    dy = zero_invalid(rng.normal(size=y.shape), out_valid)
    (dx,) = layer.backward(cache, dy)
    ref_y, ref_dx, ref_dw, ref_db = _reference(layer, x, dy)
    for got, want in ((y, ref_y), (dx, ref_dx), (layer.weight.grad, ref_dw), (layer.bias.grad, ref_db)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10


def _peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_conv_transient_does_not_grow_with_series():
    """The spectrogram input convolution (6 channels, 9x9 kernel over 16
    rows) builds its shift block one ``BLOCK``-sized tile at a time: from 2
    to 4 tiles of series, the peak of a batch-1 forward or backward pass
    grows by its output alone, not by the ``kt * F * C`` block rows, nor by
    a padded copy of its input, for every added column."""
    C, O, F = 6, 16, 16
    layer = Conv(C, O, 9, 9)
    layer.init(np.random.default_rng(0))
    tile = layers.BLOCK // (9 * F * C)  # output columns per tile
    peaks = []
    for T in (2 * tile, 4 * tile):
        x = np.random.default_rng(1).normal(size=(1, C, F, T)).astype(np.float32)
        valid = np.array([T])
        fwd = _peak_bytes(lambda: layer.forward([x], [valid], want_cache=False))
        y, _, cache = layer.forward([x], [valid], want_cache=True)
        bwd = _peak_bytes(lambda: layer.backward(cache, y))
        peaks.append((fwd, bwd))
    added = 2 * tile * np.dtype(np.float32).itemsize  # bytes per row
    objects = 4096  # interpreter objects, which vary by hundreds of bytes between calls
    (fwd2, bwd2), (fwd4, bwd4) = peaks
    # forward: the output, which the products are written into
    assert fwd4 - fwd2 <= added * F * O + objects
    # backward: the input gradient; dy, the cached input and the phases of dy
    # are read tile by tile
    assert bwd4 - bwd2 <= added * F * C + objects


def test_conv_block_is_capped_in_elements():
    """A 256 -> 128 channel, 9-tap one-row convolution (the default raw
    decoder's widest) on a series whose shift block would hold 2,304 rows
    by 6,000 columns: a batch-1 forward or backward pass holds, beside its
    output, one ``BLOCK``-element block and a slack: the block's padded
    segment (``C`` rows of a ninth of its columns and the halo), and three
    kernel-sized arrays (the flipped kernel's band, the kernel gradient's
    band and one tile's product)."""
    C, O, kt, T = 256, 128, 9, 6000
    layer = Conv(C, O, 1, kt)
    Network().add("c", layer, [-1])  # float32 parameters
    layer.init(np.random.default_rng(0))
    assert C * kt * T > layers.BLOCK
    x = np.random.default_rng(1).normal(size=(1, C, 1, T)).astype(np.float32)
    valid = np.array([T])
    item = np.dtype(np.float32).itemsize
    slack = (layers.BLOCK // kt + C * kt + 3 * O * C * kt) * item
    fwd = _peak_bytes(lambda: layer.forward([x], [valid], want_cache=False))
    assert fwd - O * T * item <= layers.BLOCK * item + slack
    y, _, cache = layer.forward([x], [valid], want_cache=True)
    bwd = _peak_bytes(lambda: layer.backward(cache, y))
    assert bwd - C * T * item <= layers.BLOCK * item + slack
