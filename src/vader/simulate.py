"""Deterministic synthetic passage generator.

Each axle crossing a sensor injects an impulse-excited decaying sinusoid at
the bridge's ringing frequency plus a short Gaussian-windowed broadband
click at the crossing instant; channels superpose the contributions of all
axles and add seeded Gaussian noise. The crossing of axle ``a`` at sensor
``s`` happens at ``(position_s + offset_a) / speed``, so crossing times are
exactly consistent across sensors and label vectors follow from the core
data rules.

This is the minimal physics that makes receptive-field effects observable:
the ringing of earlier axles buries the click of the next one, so telling
axles from bridge oscillation requires context on the order of one ringing
period.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import AxleRecord, Dataset, Passage, SensorChannel, save_passage, validate_passage
from .errors import InvalidConfig, ValidationError

#: Minimum assumed distance between two axles (meters).
MIN_AXLE_SPACING_M = 2.0


@dataclass(frozen=True)
class BridgeConfig:
    """Bridge response model and sensor layout."""

    fundamental_frequency: float = 6.9  # Hz, ringing of an unloaded crossing
    damping_ratio: float = 0.03
    sensor_positions: tuple[float, ...] = (8.2,)  # meters along the span
    span: float = 16.4  # meters
    sample_rate: float = 600.0  # Hz
    #: Click amplitude relative to the ringing amplitude of the same axle.
    click_gain: float = 0.35
    #: Gaussian click window width in seconds.
    click_width: float = 0.008

    def __post_init__(self):
        """Refuse an out-of-range value; NaN fails every comparison, so it
        is refused too."""
        if not 0.0 < self.fundamental_frequency < np.inf:
            raise InvalidConfig(f"fundamental_frequency must be finite and > 0, got {self.fundamental_frequency}")
        if not 0.0 < self.damping_ratio < 1.0:
            raise InvalidConfig(f"damping_ratio must be in (0, 1), got {self.damping_ratio}")
        if not 0.0 < self.sample_rate < np.inf:
            raise InvalidConfig(f"sample_rate must be finite and > 0, got {self.sample_rate}")
        if not 0.0 < self.span < np.inf:
            raise InvalidConfig(f"span must be finite and > 0, got {self.span}")
        if not self.sensor_positions:
            raise InvalidConfig("at least one sensor position required")
        for pos in self.sensor_positions:
            if not 0.0 <= pos <= self.span:
                raise InvalidConfig(f"sensor position {pos} outside [0, {self.span}]")
        if not (0.0 <= self.click_gain < np.inf and 0.0 < self.click_width < np.inf):
            raise InvalidConfig(
                f"click_gain must be finite and >= 0 and click_width finite and > 0, "
                f"got {self.click_gain}, {self.click_width}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Axle layout and speed of one crossing train."""

    axle_offsets: tuple[float, ...]  # meters from the train head, increasing
    speed: float  # m/s
    load_scale: tuple[float, ...]  # per-axle amplitude factors

    def __post_init__(self):
        if not self.axle_offsets:
            raise InvalidConfig("train needs at least one axle")
        offsets = np.asarray(self.axle_offsets, dtype=float)
        if not np.all(np.isfinite(offsets)):
            raise InvalidConfig(f"axle offsets must be finite, got {self.axle_offsets}")
        if np.any(np.diff(offsets) < MIN_AXLE_SPACING_M):
            raise InvalidConfig(
                f"consecutive axle offsets must differ by >= {MIN_AXLE_SPACING_M} m"
            )
        if not 0.0 < self.speed < np.inf:
            raise InvalidConfig(f"speed must be finite and > 0, got {self.speed}")
        if len(self.load_scale) != len(self.axle_offsets):
            raise InvalidConfig("load_scale must match the number of axles")
        if not all(0.0 < l < np.inf for l in self.load_scale):
            raise InvalidConfig("load_scale entries must be finite and > 0")


#: Extra recording time after the last crossing, seconds.
TAIL_SECONDS = 0.8
#: Samples in the longest passage ``generate_dataset`` draws: 2^23, about
#: four times a one-hour record at 600 Hz (2.16 M samples) and 64 MiB per
#: float64 channel.
MAX_PASSAGE_SAMPLES = 1 << 23


def generate_passage(
    bridge: BridgeConfig,
    train: TrainConfig,
    noise_std: float = 0.1,
    seed: int = 0,
    passage_id: str = "passage",
) -> Passage:
    """Synthesise one passage; ``noise_std`` is relative to the clean signal
    peak. Identical arguments produce a bit-identical passage."""
    if not 0.0 <= noise_std < np.inf:
        raise InvalidConfig(f"noise_std must be finite and >= 0, got {noise_std}")

    fs = bridge.sample_rate
    offsets = np.asarray(train.axle_offsets, dtype=float)
    loads = np.asarray(train.load_scale, dtype=float)
    duration = (bridge.span + offsets[-1]) / train.speed + TAIL_SECONDS
    n = int(np.ceil(duration * fs))
    t = np.arange(n) / fs

    rng = np.random.Generator(np.random.PCG64(seed))
    zeta = bridge.damping_ratio
    omega = 2.0 * np.pi * bridge.fundamental_frequency
    carrier = 2.0 * np.pi * (0.3 * fs)  # broadband click carrier, rad/s
    channels = []
    axles: dict[str, tuple[AxleRecord, ...]] = {}
    velocity = train.speed / fs  # meters per sample
    for si, pos in enumerate(bridge.sensor_positions):
        sensor_id = f"s{si}"
        clean = np.zeros(n)
        crossings = (pos + offsets) / train.speed
        for t0, amp in zip(crossings, loads):
            tr = t - t0
            active = tr >= 0.0
            tra = tr[active]
            ring = np.exp(-zeta * omega * tra) * np.sin(omega * tra)
            click = bridge.click_gain * np.exp(-(tra**2) / (2.0 * bridge.click_width**2)) * np.sin(
                carrier * tra
            )
            clean[active] += amp * (ring + click)
        peak = np.max(np.abs(clean))
        noise = rng.normal(0.0, noise_std * peak, size=n) if noise_std > 0 else 0.0
        channels.append(SensorChannel(sensor_id, clean + noise, fs))
        axles[sensor_id] = tuple(AxleRecord(float(tc), velocity) for tc in crossings)

    return Passage(
        passage_id=passage_id,
        channels=tuple(channels),
        axles=axles,
        axle_count=len(offsets),
    )


@dataclass(frozen=True)
class DatasetConfig:
    """Sampling ranges for randomly drawn passages."""

    speed_range: tuple[float, float] = (20.0, 60.0)
    spacing_range: tuple[float, float] = (2.5, 8.0)
    load_range: tuple[float, float] = (0.7, 1.3)
    frequency_range: tuple[float, float] = (5.0, 6.9)
    noise_std: float = 0.1
    bridge: BridgeConfig = field(default_factory=BridgeConfig)

    def __post_init__(self):
        """Refuse a non-finite range bound or noise level, a reversed range, or
        a speed range that reaches down to 0."""
        for name in ("speed_range", "spacing_range", "load_range", "frequency_range", "noise_std"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise InvalidConfig(f"{name} must be finite, got {value}")
            if name.endswith("_range") and value[0] > value[1]:
                raise InvalidConfig(f"{name} low bound {value[0]} exceeds high bound {value[1]}")
        if not self.speed_range[0] > 0:
            raise InvalidConfig(f"speed_range low bound must be > 0, got {self.speed_range[0]}")


def sample_train(rng, axle_count: int, cfg: DatasetConfig) -> TrainConfig:
    gaps = rng.uniform(*cfg.spacing_range, size=max(axle_count - 1, 0))
    offsets = np.concatenate(([0.0], np.cumsum(gaps)))
    return TrainConfig(
        axle_offsets=tuple(offsets),
        speed=float(rng.uniform(*cfg.speed_range)),
        load_scale=tuple(rng.uniform(*cfg.load_range, size=axle_count)),
    )


def generate_dataset(
    n_passages: int,
    axle_count_distribution: dict[int, float],
    out_dir,
    seed: int = 0,
    config: DatasetConfig = DatasetConfig(),
) -> Dataset:
    """Draw ``n_passages`` i.i.d. passages and write them in the canonical
    directory format. Per-passage randomness is derived from the seed and
    the passage index, so any generation order gives the same files. A
    passage count below 1, a non-finite weight, or settings under which a
    passage could exceed ``MAX_PASSAGE_SAMPLES`` samples are refused before
    the first passage is drawn, and every passage is generated and validated
    before the first is saved, so a refused draw, or a passage that
    ``load_dataset`` would refuse (ValidationError), writes nothing."""
    if n_passages < 1:
        raise InvalidConfig(f"n_passages must be >= 1, got {n_passages}")
    if not axle_count_distribution:
        raise InvalidConfig("axle_count_distribution must be nonempty")
    counts = sorted(axle_count_distribution)
    if counts[0] < 1:
        raise InvalidConfig(f"axle counts must be >= 1, got {counts[0]}")
    probs = np.asarray([axle_count_distribution[c] for c in counts], dtype=float)
    if not (np.all(probs >= 0) and 0 < probs.sum() < np.inf):
        raise InvalidConfig(f"distribution weights must be finite, >= 0 and sum > 0, got {probs.tolist()}")
    probs = probs / probs.sum()
    # the longest passage the draws allow, in float: inf where it overflows
    axles = counts[-1] if counts[-1] <= sys.float_info.max else np.inf
    train_length = config.bridge.span + (axles - 1) * config.spacing_range[1]
    longest = (train_length / config.speed_range[0] + TAIL_SECONDS) * config.bridge.sample_rate
    if not longest <= MAX_PASSAGE_SAMPLES:
        raise InvalidConfig(
            f"the longest passage drawn could have {longest:.4g} samples, more than {MAX_PASSAGE_SAMPLES}"
        )

    out_dir = Path(out_dir)
    passages = []
    for i in range(n_passages):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.PCG64(ss))
        axle_count = int(rng.choice(counts, p=probs))
        train = sample_train(rng, axle_count, config)
        bridge = replace(config.bridge, fundamental_frequency=float(rng.uniform(*config.frequency_range)))
        passage = generate_passage(
            bridge,
            train,
            noise_std=config.noise_std,
            seed=int(rng.integers(0, 2**63 - 1)),
            passage_id=f"passage_{i:05d}",
        )
        violations = validate_passage(passage)
        if violations:
            raise ValidationError(f"{passage.passage_id}: " + "; ".join(violations))
        passages.append(passage)
    for passage in passages:
        save_passage(passage, out_dir)
    return Dataset(root=str(out_dir), passages=tuple(passages))
