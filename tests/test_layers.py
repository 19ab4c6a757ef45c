"""Per-layer finite-difference gradient checks and layer contracts."""

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
    ReduceMaxFreq,
    Sigmoid,
    TileFreq,
    TransposedConvTime,
    groupnorm_groups,
    zero_invalid,
)
from vader.errors import MissingForwardCache, ShapeMismatch

RNG = np.random.default_rng(123)
TOL = 1e-4


def _x(*shape):
    return RNG.normal(size=shape)


def _full(xs):
    return [np.full(x.shape[0], x.shape[-1], dtype=np.int64) for x in xs]


# -------------------------------------------------- gradient checks


def test_conv_grad_1d():
    layer = Conv(3, 4, 1, 9, name="c")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 3, 1, 30)]) <= TOL


def test_conv_grad_2d_same():
    layer = Conv(2, 3, 8, 5, freq_padding="same", name="c")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 2, 8, 12)]) <= TOL


def test_conv_grad_2d_valid_freq():
    layer = Conv(2, 1, 6, 1, freq_padding="valid", name="c")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(2, 2, 6, 10)]) <= TOL


def test_conv_grad_pointwise():
    layer = Conv(5, 2, 1, 1, name="c")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(1, 5, 2, 17)]) <= TOL


def test_transposed_conv_grad():
    for stride in (2, 3):
        layer = TransposedConvTime(3, 2, 1, 5, stride=stride, name="t")
        layer.init(RNG)
        assert fd_layer_check(layer, [_x(2, 3, 1, 12)]) <= TOL


def test_transposed_conv_grad_2d():
    layer = TransposedConvTime(2, 2, 3, 5, stride=2, name="t")
    layer.init(RNG)
    assert fd_layer_check(layer, [_x(1, 2, 4, 10)]) <= TOL


def test_maxpool_grad():
    assert fd_layer_check(MaxPool(1, 2), [_x(2, 3, 1, 16)]) <= TOL
    assert fd_layer_check(MaxPool(2, 3), [_x(1, 2, 6, 12)]) <= TOL
    # frequency ceil-padding path
    assert fd_layer_check(MaxPool(3, 2), [_x(1, 2, 7, 8)]) <= TOL


def test_groupnorm_grad():
    layer = GroupNorm(6, 2, name="g")
    assert fd_layer_check(layer, [_x(2, 6, 1, 11)]) <= TOL


def test_groupnorm_grad_masked():
    layer = GroupNorm(4, 1, name="g")
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
    assert fd_layer_check(ReduceMaxFreq(), [_x(2, 3, 5, 8)]) <= TOL
    assert fd_layer_check(TileFreq(4), [_x(2, 3, 1, 8)]) <= TOL


# -------------------------------------------------- contracts


def test_identity_convolution():
    layer = Conv(1, 1, 1, 1, name="id")
    layer.weight.value[...] = 1.0
    x = _x(2, 1, 1, 40)
    y, _, _ = layer.forward([x], _full([x]), want_cache=False)
    assert np.array_equal(y, x)


def test_pool_then_transposed_restores_length():
    for m in (2, 3, 4):
        T = 12 * m
        x = _x(1, 2, 1, T)
        pooled, _, _ = MaxPool(1, m).forward([x], _full([x]), False)
        up = TransposedConvTime(2, 2, 1, m + 1, stride=m, name="t")
        up.init(RNG)
        y, _, _ = up.forward([pooled], [np.array([T // m])], False)
        assert y.shape[-1] == T


def test_groupnorm_constant_group_is_zero():
    layer = GroupNorm(2, 1, name="g")
    x = np.full((1, 2, 1, 50), 3.7)
    y, _, _ = layer.forward([x], _full([x]), False)
    assert np.allclose(y, 0.0, atol=1e-3)


def test_groupnorm_statistics():
    layer = GroupNorm(8, 2, name="g")
    x = _x(3, 8, 1, 256) * 4.0 + 1.5
    y, _, _ = layer.forward([x], _full([x]), False)
    per_group = y.reshape(3, 2, 4 * 256)
    assert np.abs(per_group.mean(axis=-1)).max() <= 1e-6
    assert np.abs(per_group.var(axis=-1) - 1.0).max() <= 1e-4


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
    layer = Conv(1, 1, 1, 3, name="c")
    with pytest.raises(MissingForwardCache):
        layer.backward(None, _x(1, 1, 1, 8))


def test_zero_upstream_gradient_gives_zero_param_grads():
    layer = Conv(2, 3, 1, 5, name="c")
    layer.init(RNG)
    x = _x(1, 2, 1, 16)
    y, _, cache = layer.forward([x], _full([x]), True)
    layer.backward(cache, np.zeros_like(y))
    assert np.all(layer.weight.grad == 0)
    assert np.all(layer.bias.grad == 0)


def test_network_valid_propagation_batch_equals_single():
    """Padded batches replicate per-sample forwards exactly (see also the
    model-level test on the full detector)."""
    net = Network(dtype=np.float64, time_multiple=2)
    c = Conv(1, 3, 1, 5, name="c")
    g = GroupNorm(3, 1, name="g")
    i_c = net.add("c", c, [-1])
    i_r = net.add("r", ReLU(), [i_c])
    i_g = net.add("g", g, [i_r])
    i_p = net.add("p", MaxPool(1, 2), [i_g])
    t = TransposedConvTime(3, 1, 1, 3, stride=2, name="t")
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
    net.add("c", Conv(1, 1, 1, 3, name="c"), [-1])
    net.init_params(0)
    x = np.ones((1, 1, 1, 8), np.float32)
    y = net.forward(x, valid=[4])
    assert np.array_equal(x, np.ones((1, 1, 1, 8), np.float32))
    zeroed = x.copy()
    zeroed[..., 4:] = 0
    assert np.array_equal(y, net.forward(zeroed, valid=[4]))


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
    "conv_k1": lambda: Conv(3, 4, 1, 1, name="c"),
    "conv_k3": lambda: Conv(3, 4, 1, 3, name="c"),
    "conv_k9": lambda: Conv(2, 5, 1, 9, name="c"),
    "conv_f3_same": lambda: Conv(2, 3, 3, 5, "same", name="c"),
    "conv_f4_same": lambda: Conv(2, 3, 4, 3, "same", name="c"),
    "conv_f3_valid": lambda: Conv(2, 3, 3, 3, "valid", name="c"),
    "conv_f5_valid_head": lambda: Conv(3, 1, 5, 1, "valid", name="c"),
    **{
        f"tconv_s{s}_k{kt}_f{kf}": (
            lambda s=s, kt=kt, kf=kf: TransposedConvTime(3, 2, kf, kt, stride=s, name="t")
        )
        for s in (2, 3, 4)
        for kt in (1, 2, 3, 4, 5, 9)
        for kf in (1, 3)
    },
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_conv_matches_plain_loop_reference(case):
    layer = REFERENCE_CASES[case]()
    rng = np.random.default_rng(7)
    layer.init(rng)
    layer.bias.value[...] = rng.normal(size=layer.c_out)
    F = 5 if layer.kf > 1 else 1
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
