"""Shared test helpers: finite-difference oracles, tiny dataset factories and
sample-file edits."""

import numpy as np
import pytest

from vader.simulate import BridgeConfig, DatasetConfig, TrainConfig, generate_passage


def rel_err(analytic: float, numeric: float) -> float:
    """Relative error with a floor so noise-level gradients cannot divide by
    (almost) zero; 1e-6 is far above the fp64 central-difference noise."""
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


def fd_layer_check(layer, xs, valids=None, eps=1e-5, max_entries=40, seed=0):
    """Central-difference check of one layer against a random projection.

    Honors the engine's masking contract: layer inputs are zero beyond their
    valid length and upstream gradients are masked the same way. Returns the
    worst relative error over sampled parameter entries and all input
    entries.
    """
    from vader.engine import zero_invalid

    rng = np.random.default_rng(seed)
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    if valids is None:
        valids = [np.full(x.shape[0], x.shape[-1], dtype=np.int64) for x in xs]

    def objective():
        masked = [zero_invalid(x.copy(), v) for x, v in zip(xs, valids)]
        y, out_valid, _ = layer.forward(masked, valids, want_cache=False)
        return float((zero_invalid(y, out_valid) * R).sum())

    y0, out_valid0, _ = layer.forward(
        [zero_invalid(x.copy(), v) for x, v in zip(xs, valids)], valids, want_cache=False
    )
    R = zero_invalid(rng.normal(size=y0.shape), out_valid0)
    y0, _, cache = layer.forward(
        [zero_invalid(x.copy(), v) for x, v in zip(xs, valids)], valids, want_cache=True
    )
    for p in layer.params():
        p.grad[...] = 0
    dxs = layer.backward(cache, R.copy())

    worst = 0.0
    for p in layer.params():
        flat = p.value.ravel()
        gflat = p.grad.ravel()
        idx = (
            range(flat.size)
            if flat.size <= max_entries
            else rng.choice(flat.size, max_entries, replace=False)
        )
        for i in idx:
            old = flat[i]
            flat[i] = old + eps
            up = objective()
            flat[i] = old - eps
            down = objective()
            flat[i] = old
            worst = max(worst, rel_err(gflat[i], (up - down) / (2 * eps)))
    for x, dx in zip(xs, dxs):
        flat = x.ravel()
        gflat = dx.ravel()
        idx = (
            range(flat.size)
            if flat.size <= max_entries
            else rng.choice(flat.size, max_entries, replace=False)
        )
        for i in idx:
            old = flat[i]
            flat[i] = old + eps
            up = objective()
            flat[i] = old - eps
            down = objective()
            flat[i] = old
            worst = max(worst, rel_err(gflat[i], (up - down) / (2 * eps)))
    return worst


def write_sample(path, index, value):
    """Overwrite sample ``index`` of a ``sensor_<id>.f64`` file with ``value``."""
    with path.open("r+b") as f:
        f.seek(8 * index)
        f.write(np.array(value, dtype="<f8").tobytes())


@pytest.fixture
def tiny_passage():
    """Two sensors, three axles, no noise."""
    bridge = BridgeConfig(sensor_positions=(4.0, 12.0), sample_rate=600.0)
    train = TrainConfig(axle_offsets=(0.0, 3.0, 8.5), speed=40.0, load_scale=(1.0, 1.2, 0.9))
    return generate_passage(bridge, train, noise_std=0.0, seed=11, passage_id="tiny")


@pytest.fixture
def small_dataset(tmp_path):
    """A 14-passage on-disk dataset with two axle counts."""
    from vader.simulate import generate_dataset

    cfg = DatasetConfig(speed_range=(30.0, 50.0))
    return generate_dataset(
        14, {4: 0.6, 6: 0.4}, tmp_path / "passages", seed=21, config=cfg
    )
