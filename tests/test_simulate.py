"""Synthetic passage generator tests."""

import numpy as np
import pytest

from vader.data import crossing_index, load_dataset, validate_passage
from vader.errors import InvalidConfig
from vader.simulate import (
    BridgeConfig,
    DatasetConfig,
    TrainConfig,
    generate_dataset,
    generate_passage,
)


def test_single_axle_zero_noise_matches_forward_model():
    bridge = BridgeConfig(sensor_positions=(8.0,), fundamental_frequency=6.0, damping_ratio=0.04)
    train = TrainConfig(axle_offsets=(0.0,), speed=40.0, load_scale=(1.0,))
    p = generate_passage(bridge, train, noise_std=0.0, seed=0)
    ch = p.channels[0]
    t0 = 8.0 / 40.0
    i0 = crossing_index(t0, ch.sample_rate)
    assert np.all(ch.samples[:i0] == 0.0)
    assert np.any(ch.samples[i0:] != 0.0)
    # straight-line recompute of the response
    t = np.arange(ch.n_samples) / ch.sample_rate
    tr = t - t0
    active = tr >= 0
    omega = 2 * np.pi * 6.0
    expect = np.zeros(ch.n_samples)
    ring = np.exp(-0.04 * omega * tr[active]) * np.sin(omega * tr[active])
    click = bridge.click_gain * np.exp(-(tr[active] ** 2) / (2 * bridge.click_width**2)) * np.sin(
        2 * np.pi * 0.3 * ch.sample_rate * tr[active]
    )
    expect[active] = ring + click
    assert np.allclose(ch.samples, expect, atol=1e-12)


def test_label_sum_matches_axles(tiny_passage):
    assert validate_passage(tiny_passage) == []
    for sid in (ch.sensor_id for ch in tiny_passage.channels):
        assert len(tiny_passage.axles[sid]) == tiny_passage.axle_count == 3


def test_seed_determinism():
    bridge = BridgeConfig()
    train = TrainConfig(axle_offsets=(0.0, 4.0), speed=35.0, load_scale=(1.0, 1.0))
    a = generate_passage(bridge, train, noise_std=0.1, seed=9)
    b = generate_passage(bridge, train, noise_std=0.1, seed=9)
    c = generate_passage(bridge, train, noise_std=0.1, seed=10)
    assert np.array_equal(a.channels[0].samples, b.channels[0].samples)
    assert not np.array_equal(a.channels[0].samples, c.channels[0].samples)


def test_cross_sensor_crossing_consistency(tiny_passage):
    # crossing(s1) - crossing(s0) == (pos1 - pos0) / speed for every axle
    gap = (12.0 - 4.0) / 40.0
    for a0, a1 in zip(tiny_passage.axles["s0"], tiny_passage.axles["s1"]):
        assert a1.crossing_time - a0.crossing_time == pytest.approx(gap, abs=1e-12)


def test_velocity_in_meters_per_sample(tiny_passage):
    for records in tiny_passage.axles.values():
        for rec in records:
            assert rec.velocity == pytest.approx(40.0 / 600.0)


def test_energy_locality_zero_noise():
    bridge = BridgeConfig(sensor_positions=(6.0,), fundamental_frequency=6.0)
    train = TrainConfig(axle_offsets=(0.0, 80.0), speed=30.0, load_scale=(1.0, 1.0))
    p = generate_passage(bridge, train, noise_std=0.0, seed=0)
    ch = p.channels[0]
    fs = ch.sample_rate
    x2 = ch.samples**2
    w = int(0.5 * fs)  # +-0.25 s

    def window_energy(center):
        lo = max(0, center - w // 2)
        return float(x2[lo : lo + w].sum())

    crossings = [crossing_index(a.crossing_time, fs) for a in p.axles["s0"]]
    near = min(window_energy(c) for c in crossings)
    far_energies = []
    for start in range(0, ch.n_samples - w, w // 2):
        if all(abs(start + w // 2 - c) > int(1.0 * fs) for c in crossings):
            far_energies.append(float(x2[start : start + w].sum()))
    assert far_energies, "need at least one far window"
    assert near > max(far_energies)


def test_invalid_configs(tmp_path):
    nan, inf = float("nan"), float("inf")
    one_axle = TrainConfig((0.0,), 30.0, (1.0,))
    for bridge in (
        dict(damping_ratio=1.5),
        dict(sensor_positions=(99.0,)),
        dict(sample_rate=nan),
        dict(sample_rate=inf),
        dict(fundamental_frequency=nan),
        dict(fundamental_frequency=inf),
        dict(span=inf),
        dict(click_gain=nan),
        dict(click_gain=inf),
    ):
        with pytest.raises(InvalidConfig):
            BridgeConfig(**bridge)
    for train in (
        dict(axle_offsets=(0.0, 1.0), speed=30.0, load_scale=(1.0, 1.0)),  # spacing < 2 m
        dict(axle_offsets=(0.0, 4.0), speed=-1.0, load_scale=(1.0, 1.0)),
        dict(axle_offsets=(0.0, 4.0), speed=nan, load_scale=(1.0, 1.0)),
        dict(axle_offsets=(0.0, inf), speed=30.0, load_scale=(1.0, 1.0)),
        dict(axle_offsets=(0.0,), speed=30.0, load_scale=(nan,)),
        dict(axle_offsets=(0.0, 4.0), speed=30.0, load_scale=()),  # one factor per axle
        dict(axle_offsets=(0.0, 4.0), speed=30.0, load_scale=(1.0,)),
    ):
        with pytest.raises(InvalidConfig):
            TrainConfig(**train)
    for noise_std in (-0.1, nan, inf):
        with pytest.raises(InvalidConfig):
            generate_passage(BridgeConfig(), one_axle, noise_std=noise_std)
    for config in (
        dict(speed_range=(20.0, nan)),
        dict(spacing_range=(2.5, inf)),
        dict(frequency_range=(5.0, nan)),
        dict(noise_std=nan),
    ):
        with pytest.raises(InvalidConfig, match="must be finite"):
            DatasetConfig(**config)
    for speed_range in ((0.0, 5.0), (-5.0, 5.0)):
        with pytest.raises(InvalidConfig, match="speed_range low bound must be > 0"):
            DatasetConfig(speed_range=speed_range)
    # refused before the first passage is drawn, so nothing is written
    out = tmp_path / "d"
    for n, distribution in ((2, {8: nan}), (2, {8: inf}), (0, {8: 1.0}), (-1, {8: 1.0}), (2, {10**400: 1.0})):
        with pytest.raises(InvalidConfig):
            generate_dataset(n, distribution, out)
        assert not out.exists()


def test_generate_dataset_round_trip(tmp_path):
    ds = generate_dataset(6, {4: 1.0}, tmp_path / "d", seed=3)
    loaded = load_dataset(tmp_path / "d")
    assert len(loaded) == 6
    for a, b in zip(ds.passages, loaded.passages):
        assert a.passage_id == b.passage_id
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca.samples, cb.samples)


def test_generate_dataset_histogram(tmp_path):
    dist = {8: 0.5, 16: 0.3, 32: 0.2}
    ds = generate_dataset(250, dist, tmp_path / "d", seed=1,
                          config=DatasetConfig(speed_range=(40.0, 60.0)))
    hist = ds.axle_count_histogram()
    for count, weight in dist.items():
        expect = 250 * weight
        sigma = np.sqrt(250 * weight * (1 - weight))
        assert abs(hist.get(count, 0) - expect) <= 3 * sigma


def test_generate_dataset_two_seeds_differ(tmp_path):
    a = generate_dataset(3, {4: 1.0}, tmp_path / "a", seed=0)
    b = generate_dataset(3, {4: 1.0}, tmp_path / "b", seed=1)
    assert not np.array_equal(a.passages[0].channels[0].samples, b.passages[0].channels[0].samples)
