"""Focal loss, Adam, and checkpoint round-trip tests."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import rel_err
from vader.engine import (
    LossConfig,
    Network,
    Param,
    ParamStore,
    ReLU,
    adam_step,
    checkpoint_bytes,
    focal_loss,
    load_checkpoint,
    save_checkpoint,
)
from vader.errors import CheckpointError, InvalidConfig, ShapeMismatch
from vader.model import VaderConfig, build_vader
from vader.planner import HyperParams, InputKind


# ------------------------------------------------------------- focal loss


def test_focal_reduces_to_bce():
    rng = np.random.default_rng(0)
    p = rng.uniform(1e-6, 1 - 1e-6, size=1000)
    y = rng.integers(0, 2, size=1000)
    loss, _ = focal_loss(p, y, LossConfig(gamma=0.0, alpha=1.0))
    pc = np.clip(p, 1e-7, 1 - 1e-7)
    bce = float(np.mean(-(y * np.log(pc) + (1 - y) * np.log(1 - pc))))
    assert abs(loss - bce) <= 1e-9


def test_focal_confident_positive_is_tiny():
    cfg = LossConfig(gamma=2.5, alpha=0.25)
    loss, _ = focal_loss(np.array([1.0 - 1e-7]), np.array([1]), cfg)
    assert loss <= 1e-6 * cfg.alpha


def test_focal_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    cfg = LossConfig(gamma=2.5, alpha=0.25)
    p = rng.uniform(0.02, 0.98, size=(4, 50))
    y = rng.integers(0, 2, size=(4, 50))
    mask = (rng.random((4, 50)) < 0.8).astype(float)
    mask[0, 0] = 1.0
    loss, grad = focal_loss(p, y, cfg, mask)
    eps = 1e-5  # balances fp64 roundoff against truncation
    worst = 0.0
    for idx in [(i, j) for i in range(4) for j in range(0, 50, 7)]:
        old = p[idx]
        p[idx] = old + eps
        up, _ = focal_loss(p, y, cfg, mask)
        p[idx] = old - eps
        down, _ = focal_loss(p, y, cfg, mask)
        p[idx] = old
        worst = max(worst, rel_err(grad[idx], (up - down) / (2 * eps)))
    assert worst <= 1e-6


def test_focal_gradient_zero_on_masked():
    p = np.array([[0.3, 0.6]])
    y = np.array([[1, 0]])
    mask = np.array([[1.0, 0.0]])
    _, grad = focal_loss(p, y, LossConfig(), mask)
    assert grad[0, 1] == 0.0


def test_focal_shape_checks():
    """Arguments that disagree are library misuse, ValueError."""
    with pytest.raises(ValueError, match=r"probs \(3,\) vs labels \(4,\)"):
        focal_loss(np.zeros(3), np.zeros(4), LossConfig())
    with pytest.raises(ValueError, match=r"probs \(3,\) vs mask \(4,\)"):
        focal_loss(np.zeros(3), np.zeros(3), LossConfig(), np.zeros(4))
    with pytest.raises(ValueError, match="mask selects no samples"):
        focal_loss(np.zeros(3), np.zeros(3), LossConfig(), np.zeros(3))


def test_loss_config_validation():
    with pytest.raises(InvalidConfig, match="gamma must be >= 0, got -1"):
        LossConfig(gamma=-1)
    with pytest.raises(InvalidConfig, match=r"alpha must be in \(0, 1\], got 0.0"):
        LossConfig(alpha=0.0)


# ------------------------------------------------------------- adam


def _store_with(values):
    params = [Param(f"p{i}", np.array(v, dtype=np.float64)) for i, v in enumerate(values)]
    return ParamStore(params), params


def test_adam_first_step_is_signed_lr():
    store, params = _store_with([[1.0, -2.0, 3.0]])
    params[0].grad[...] = np.array([0.5, -0.25, 1e3])
    before = params[0].value.copy()
    adam_step(store, learning_rate=0.001)
    delta = params[0].value - before
    expect = -0.001 * np.sign(params[0].grad)
    assert np.max(np.abs((delta - expect) / expect)) <= 1e-6
    assert store.step_count == 1


def test_adam_zero_gradient_fresh_store_no_move():
    store, params = _store_with([[1.0, 2.0]])
    params[0].grad[...] = 0.0
    adam_step(store, 0.001)
    assert np.array_equal(params[0].value, np.array([1.0, 2.0]))


def test_adam_quadratic_descent():
    # minimize f(x) = 0.5 * x^2 starting at 3; monotone decrease after step 5
    store, params = _store_with([3.0])
    values = []
    for _ in range(100):
        params[0].grad[...] = params[0].value  # df/dx = x
        adam_step(store, 0.05)
        values.append(float(np.abs(params[0].value)))
    objective = [0.5 * v**2 for v in values]
    assert all(b <= a for a, b in zip(objective[5:], objective[6:]))
    assert objective[-1] < 0.5 * objective[5]


def test_adam_shape_mismatch():
    store, params = _store_with([[1.0, 2.0]])
    params[0].grad = np.zeros(3)
    with pytest.raises(ValueError, match=r"grad \(3,\) vs value \(2,\)"):
        adam_step(store, 0.001)


# ------------------------------------------------------------- checkpoints


def _small_net():
    cfg = VaderConfig(HyperParams(InputKind.RAW, 5, 2, 2, base_width=4))
    net = build_vader(cfg)
    net.init_params(17)
    return net


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = _small_net()
    store = ParamStore(net.params())
    for p in net.params():
        p.grad[...] = np.random.default_rng(0).normal(size=p.shape)
    adam_step(store, 0.001)
    before = checkpoint_bytes(net, store, seed=17)
    save_checkpoint(tmp_path / "model", net, store, seed=17)

    net2 = _small_net()  # same topology, different values
    net2.init_params(99)
    store2 = ParamStore(net2.params())
    manifest = load_checkpoint(tmp_path / "model", net2, store2)
    assert manifest["seed"] == 17
    assert store2.step_count == 1
    assert checkpoint_bytes(net2, store2, seed=17) == before
    for a, b in zip(net.params(), net2.params()):
        assert np.array_equal(a.value, b.value)
    for a, b in zip(store.m, store2.m):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("moments", [False, True])
def test_checkpoint_round_trip_in_network_dtype(tmp_path, dtype, moments):
    """``.bin`` holds each value in the network's dtype, and a save/load
    cycle keeps ``checkpoint_bytes``."""
    cfg = VaderConfig(HyperParams(InputKind.RAW, 5, 2, 2, base_width=4))
    net, restored = build_vader(cfg, dtype=dtype), build_vader(cfg, dtype=dtype)
    net.init_params(17)
    restored.init_params(99)
    store = ParamStore(net.params()) if moments else None
    if moments:
        for p in net.params():
            p.grad[...] = np.random.default_rng(0).normal(size=p.shape)
        adam_step(store, 0.001)
    before = checkpoint_bytes(net, store, seed=17)
    save_checkpoint(tmp_path / "model", net, store, seed=17)
    values = sum(p.value.size for p in net.params()) * (3 if moments else 1)
    assert (tmp_path / "model.bin").stat().st_size == np.dtype(dtype).itemsize * values
    restored_store = ParamStore(restored.params()) if moments else None
    load_checkpoint(tmp_path / "model", restored, restored_store)
    assert checkpoint_bytes(restored, restored_store, seed=17) == before


def test_checkpoint_with_moments_loads_weights_without_store(tmp_path):
    net = _small_net()
    store = ParamStore(net.params())
    for p in net.params():
        p.grad[...] = 1.0
    adam_step(store, 0.001)
    save_checkpoint(tmp_path / "model", net, store, seed=17)
    net2 = _small_net()
    net2.init_params(99)
    assert load_checkpoint(tmp_path / "model", net2)["has_adam"]
    for a, b in zip(net.params(), net2.params()):
        assert np.array_equal(a.value, b.value)


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_checkpoint_value_not_finite_in_float32_is_refused(tmp_path, value):
    """A moment, like a weight, must be finite in the network's dtype, also
    where the load restores weights only; the network keeps its values."""
    net = _small_net()
    save_checkpoint(tmp_path / "model", net, ParamStore(net.params()), seed=17)
    path = tmp_path / "model.bin"
    values = np.fromfile(path, dtype="<f4")
    values[-1] = value  # the last second moment
    path.write_bytes(values.tobytes())
    net2 = _small_net()
    net2.init_params(99)
    before = [p.value.copy() for p in net2.params()]
    for store in (ParamStore(net2.params()), None):
        with pytest.raises(CheckpointError, match="is not finite in float32"):
            load_checkpoint(tmp_path / "model", net2, store)
    assert all(np.array_equal(a, p.value) for a, p in zip(before, net2.params()))


def test_checkpoint_hash_stability(tmp_path):
    net = _small_net()
    h1 = hashlib.sha256(checkpoint_bytes(net)).hexdigest()
    h2 = hashlib.sha256(checkpoint_bytes(net)).hexdigest()
    assert h1 == h2


def test_checkpoint_topology_mismatch(tmp_path):
    net = _small_net()
    save_checkpoint(tmp_path / "model", net, seed=0)
    other = build_vader(VaderConfig(HyperParams(InputKind.RAW, 5, 2, 1, base_width=4)))
    with pytest.raises(ShapeMismatch):
        load_checkpoint(tmp_path / "model", other)


@pytest.mark.parametrize(
    "other",
    [
        VaderConfig(HyperParams(InputKind.RAW, 9, 4, 4, base_width=16)),
        VaderConfig(HyperParams(InputKind.RAW, 9, 2, 4, base_width=16), sample_rate=100.0),
    ],
    ids=["pool_size", "sample_rate"],
)
def test_checkpoint_architecture_mismatch(tmp_path, other):
    """A different pool size or sample rate leaves every parameter shape
    unchanged; the manifest's layers and model record still tell them apart."""
    net = build_vader(VaderConfig(HyperParams(InputKind.RAW, 9, 2, 4, base_width=16), sample_rate=600.0))
    save_checkpoint(tmp_path / "model", net, seed=0)
    target = build_vader(other)
    assert [p.shape for p in target.params()] == [p.shape for p in net.params()]
    with pytest.raises(ShapeMismatch):
        load_checkpoint(tmp_path / "model", target)


@pytest.fixture(scope="module")
def default_detector():
    """The default k9/m2/p4 w16 raw detector after one Adam step, so that
    the weights, m and v all differ."""
    net = build_vader(VaderConfig(HyperParams(InputKind.RAW, 9, 2, 4, base_width=16)))
    net.init_params(3)
    store = ParamStore(net.params())
    rng = np.random.default_rng(4)
    for p in net.params():
        p.grad[...] = rng.normal(size=p.shape)
    adam_step(store, 0.001)
    return net, store


def test_checkpoint_layout(tmp_path, default_detector):
    """``.bin`` is the float32 parameters, then m, then v; checkpoint_bytes
    is the manifest as saved, without its newline, a NUL and ``.bin``."""
    net, store = default_detector
    save_checkpoint(tmp_path / "model", net, store, seed=5)
    arrays = [p.value for p in net.params()] + store.m + store.v
    binary = (tmp_path / "model.bin").read_bytes()
    assert binary == b"".join(a.astype("<f4").tobytes() for a in arrays)
    manifest = (tmp_path / "model.json").read_text(encoding="utf-8")
    assert manifest.endswith("}\n")
    assert checkpoint_bytes(net, store, seed=5) == manifest[:-1].encode("utf-8") + b"\x00" + binary


def _traced_peak(fn):
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_checkpoint_writes_allocate_one_array_beyond_their_result(tmp_path, default_detector):
    """Saving a float32 network copies no array, and checkpoint_bytes holds
    nothing of size beyond the buffer it returns (1 MiB allows for the
    manifest and interpreter objects). Building the whole binary first
    peaked at 24.1 and 41.8 MiB; writing float64 copies one array at a
    time peaked at 2.29 MiB on save."""
    net, store = default_detector
    _, peak = _traced_peak(lambda: save_checkpoint(tmp_path / "model", net, store, seed=5))
    assert peak <= 2**20
    blob, peak = _traced_peak(lambda: checkpoint_bytes(net, store, seed=5))
    assert peak <= len(blob) + 2**20


def test_checkpoint_of_network_without_parameters(tmp_path):
    """An empty ``.bin`` loads, and the round trip keeps the bytes."""
    net = Network()
    net.add("relu", ReLU(), [-1])
    store = ParamStore(net.params())
    before = checkpoint_bytes(net, store, seed=1)
    save_checkpoint(tmp_path / "model", net, store, seed=1)
    assert (tmp_path / "model.bin").read_bytes() == b""
    restored = Network()
    restored.add("relu", ReLU(), [-1])
    restored_store = ParamStore(restored.params())
    assert load_checkpoint(tmp_path / "model", restored, restored_store)["has_adam"]
    assert checkpoint_bytes(restored, restored_store, seed=1) == before
