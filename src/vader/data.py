"""Canonical data model for passages and on-disk dataset handling.

A *passage* is one train crossing: per-sensor acceleration series sharing a
sample rate, plus per-sensor ground-truth crossing times and per-axle
velocities (meters per sample). Labels are binary series with a one at the
sample nearest each crossing.

On-disk layout (one directory per passage)::

    <root>/<passage_id>/meta.json
    <root>/<passage_id>/sensor_<id>.f64     # the samples, little-endian float64, no header

``meta.json`` carries passage_id, sample_rate, axle_count, n_samples (the
length every channel shares), per-sensor crossing times in seconds, which
strictly increase (axles pass a sensor in order), and per-axle velocities in
m/sample. A sample file holds exactly ``8 * n_samples`` bytes, read straight
into the array, so a save/load cycle is bit-exact. Text sample files
(``sensor_<id>.csv``) of older datasets are refused by name.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, SampleRateMismatch, UnknownId, ValidationError


@dataclass(frozen=True)
class SensorChannel:
    """One sensor's acceleration series at a fixed sample rate."""

    sensor_id: str
    samples: np.ndarray  # float64, shape (n_samples,)
    sample_rate: float  # Hz

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[0])

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class AxleRecord:
    """Ground truth for one axle at one sensor."""

    crossing_time: float  # seconds from signal start
    velocity: float  # meters per sample


@dataclass(frozen=True)
class Passage:
    """One train crossing with per-sensor channels and axle ground truth."""

    passage_id: str
    channels: tuple[SensorChannel, ...]
    axles: dict[str, tuple[AxleRecord, ...]]  # sensor_id -> per-axle records
    axle_count: int

    def channel(self, sensor_id: str) -> SensorChannel:
        for ch in self.channels:
            if ch.sensor_id == sensor_id:
                return ch
        raise KeyError(sensor_id)


def crossing_index(crossing_time: float, sample_rate: float) -> int:
    """Sample index of a crossing, rounding half away from zero."""
    return int(math.floor(crossing_time * sample_rate + 0.5))


def crossing_indices(crossings, sample_rate: float, n_samples: int) -> np.ndarray:
    """Sorted indices of the samples nearest each crossing: the ones of the
    label vector.

    Raises ValidationError for a crossing outside [0, n_samples/sample_rate)
    and when two crossings round to the same sample.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    duration = n_samples / sample_rate
    seen: set[int] = set()
    for t in crossings:
        if not 0.0 <= t < duration:
            raise ValidationError(f"crossing {t} s outside [0, {duration}) s")
        # rounding can push the last half-sample over the edge
        i = min(crossing_index(t, sample_rate), n_samples - 1)
        if i in seen:
            raise ValidationError(f"two crossings map to sample {i}")
        seen.add(i)
    return np.array(sorted(seen), dtype=np.intp)


def build_label_vector(crossings, sample_rate: float, n_samples: int) -> np.ndarray:
    """Binary label series with a one at the sample nearest each crossing;
    raises as :func:`crossing_indices`."""
    bits = np.zeros(n_samples, dtype=np.uint8)
    bits[crossing_indices(crossings, sample_rate, n_samples)] = 1
    return bits


def label_indices(passage: Passage, sensor_id: str) -> np.ndarray:
    """Sorted label sample indices of one sensor: the ones of its label vector."""
    ch = passage.channel(sensor_id)
    times = [a.crossing_time for a in passage.axles[sensor_id]]
    return crossing_indices(times, ch.sample_rate, ch.n_samples)


def shared_sample_rate(passages, expected: float | None = None) -> float | None:
    """The one sample rate of all channels of ``passages``, or ``expected``
    when there are none. Raises SampleRateMismatch when they mix rates or
    differ from ``expected``, the rate a model was trained at."""
    rates = {ch.sample_rate for p in passages for ch in p.channels}
    if len(rates | {expected} - {None}) > 1:
        model = "" if expected is None else f"; the model was trained at {expected} Hz"
        found = ", ".join(f"{rate} Hz" for rate in sorted(rates))
        raise SampleRateMismatch(f"passages are sampled at {found}{model}")
    return next(iter(rates), expected)


def validate_passage(p: Passage) -> list[str]:
    """Check all passage invariants; returns human-readable violations, one
    per fault. The sample rate and the axle velocities are the passage's,
    checked once on the first channel and the first sensor with records;
    every other channel and sensor must repeat them."""
    violations: list[str] = []
    if not p.channels:
        violations.append(f"passage {p.passage_id}: no channels")
        return violations
    ref = p.channels[0]
    if ref.sample_rate <= 0:
        violations.append(f"channel {ref.sensor_id}: sample_rate {ref.sample_rate} <= 0")
    elif not math.isfinite(ref.sample_rate):
        violations.append(f"channel {ref.sensor_id}: sample_rate {ref.sample_rate} is not finite")
    for ch in p.channels:
        if ch.n_samples < 1:
            violations.append(f"channel {ch.sensor_id}: empty sample series")
        elif not (np.isfinite(ch.samples.min()) and np.isfinite(ch.samples.max())):  # both are NaN if any sample is
            bad = int(np.flatnonzero(~np.isfinite(ch.samples))[0])
            violations.append(f"channel {ch.sensor_id}: non-finite sample at index {bad}")
        if ch.n_samples != ref.n_samples:
            violations.append(
                f"channel {ch.sensor_id} length {ch.n_samples} != channel {ref.sensor_id} length {ref.n_samples}"
            )
        # a NaN rate, reported above, differs from every rate, itself included
        if ch.sample_rate != ref.sample_rate and not math.isnan(ch.sample_rate + ref.sample_rate):
            violations.append(
                f"channel {ch.sensor_id} rate {ch.sample_rate} != channel {ref.sensor_id} rate {ref.sample_rate}"
            )
    shared = None  # (sensor id, velocities) of the first sensor with records
    for ch in p.channels:
        records = p.axles.get(ch.sensor_id)
        if records is None:
            violations.append(f"channel {ch.sensor_id}: no axle records")
            continue
        if len(records) != p.axle_count:
            violations.append(
                f"channel {ch.sensor_id}: {len(records)} axle records, expected {p.axle_count}"
            )
        times = [r.crossing_time for r in records]
        # equal times are left to crossing_indices, which refuses two crossings on one sample
        if any(later < earlier for earlier, later in zip(times, times[1:])):
            violations.append(f"channel {ch.sensor_id}: crossing times {times} do not strictly increase")
        velocities = [r.velocity for r in records]
        if shared is None:
            shared = ch.sensor_id, velocities
            for i, v in enumerate(velocities):
                if not 0 < v < math.inf:
                    violations.append(f"channel {ch.sensor_id} axle {i}: velocity {v} is not finite and > 0")
        elif len(velocities) == len(shared[1]) and not np.array_equal(velocities, shared[1], equal_nan=True):
            violations.append(
                f"channel {ch.sensor_id} velocities {velocities} != channel {shared[0]} velocities {shared[1]}"
            )
        if 0 < ch.sample_rate < math.inf and ch.n_samples >= 1:
            try:
                crossing_indices(times, ch.sample_rate, ch.n_samples)
            except ValidationError as exc:
                violations.append(f"channel {ch.sensor_id}: {exc}")
    return violations


@dataclass(frozen=True)
class Dataset:
    """An immutable collection of validated passages."""

    root: str
    passages: tuple[Passage, ...]

    def __len__(self) -> int:
        return len(self.passages)

    def __iter__(self):
        return iter(self.passages)

    @cached_property
    def _by_id(self) -> dict[str, Passage]:
        return {p.passage_id: p for p in self.passages}

    def by_id(self, passage_id: str) -> Passage:
        if passage_id not in self._by_id:
            raise UnknownId(f"no passage {passage_id!r} in {self.root}")
        return self._by_id[passage_id]

    def axle_count_index(self) -> dict[str, int]:
        """passage_id -> axle count, the only view splitting needs."""
        return {p.passage_id: p.axle_count for p in self.passages}

    def axle_count_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for p in self.passages:
            hist[p.axle_count] = hist.get(p.axle_count, 0) + 1
        return dict(sorted(hist.items()))


def json_value(value, types: tuple, what: str):
    """``value`` if it is of exactly one of ``types`` (so a bool is not an
    int, nor a string a number), as parsed JSON gives it; TypeError naming
    ``what`` otherwise."""
    if type(value) not in types:
        raise TypeError(f"{what} {value!r} is not {'/'.join(t.__name__ for t in types)}")
    return value


def json_list(value, types: tuple, what: str) -> list:
    """``value`` if it is a list of values of exactly ``types``, as
    :func:`json_value` takes them; TypeError naming ``what`` otherwise."""
    if not isinstance(value, list) or any(type(v) not in types for v in value):
        raise TypeError(f"{what} {value!r} is not a list of {'/'.join(t.__name__ for t in types)}")
    return value


#: Byte layout of a sample file.
SAMPLE_DTYPE = np.dtype("<f8")


def _read_samples(path: Path, n_samples: int) -> np.ndarray:
    """The ``n_samples`` samples of one sample file; ParseError unless the
    file holds exactly that many."""
    need = SAMPLE_DTYPE.itemsize * n_samples
    try:
        found = path.stat().st_size
    except FileNotFoundError:
        raise ParseError(f"{path}: referenced sensor file missing") from None
    if found != need:
        raise ParseError(f"{path}: expected {need} bytes of values, found {found}")
    return np.fromfile(path, SAMPLE_DTYPE)


def _load_passage(pdir: Path) -> Passage:
    for text in pdir.glob("sensor_*.csv"):
        if not text.with_suffix(".f64").exists():
            raise ParseError(f"{text}: text sample files are no longer read; regenerate the dataset")
    meta_path = pdir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{meta_path}:{exc.lineno}: {exc.msg}") from None
    try:
        passage_id = json_value(meta["passage_id"], (str,), "passage_id")
        sample_rate = float(json_value(meta["sample_rate"], (int, float), "sample_rate"))
        axle_count = json_value(meta["axle_count"], (int,), "axle_count")
        n_samples = json_value(meta["n_samples"], (int,), "n_samples")
        if n_samples < 1:
            raise ValueError(f"n_samples {n_samples} is not positive")
        velocities = [float(v) for v in json_list(meta["velocities"], (int, float), "velocities")]
        crossing_times = {
            sid: [float(t) for t in json_list(ts, (int, float), f"sensor {sid} crossing times")]
            for sid, ts in meta["crossing_times"].items()
        }
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{meta_path}: bad metadata: {exc!r}") from None

    channels = []
    axles: dict[str, tuple[AxleRecord, ...]] = {}
    for sensor_id in crossing_times:
        samples = _read_samples(pdir / f"sensor_{sensor_id}.f64", n_samples)
        channels.append(SensorChannel(sensor_id, samples, sample_rate))
        times = crossing_times[sensor_id]
        if len(times) != len(velocities):
            raise ParseError(
                f"{meta_path}: sensor {sensor_id}: {len(times)} crossings vs {len(velocities)} velocities"
            )
        axles[sensor_id] = tuple(AxleRecord(t, v) for t, v in zip(times, velocities))
    return Passage(
        passage_id=passage_id,
        channels=tuple(channels),
        axles=axles,
        axle_count=axle_count,
    )


def load_dataset(root) -> Dataset:
    """Load and validate every passage directory under ``root``.

    Raises FileNotFoundError for a root that does not exist, ParseError on
    malformed files and ValidationError on the first passage violating an
    invariant or reusing another directory's passage id.
    """
    root = Path(root)
    dirs: dict[str, Path] = {}  # passage_id -> its directory
    passages = []
    for pdir in sorted(d for d in root.iterdir() if d.is_dir()):
        if not (pdir / "meta.json").exists():
            continue
        passage = _load_passage(pdir)
        violations = validate_passage(passage)
        if passage.passage_id in dirs:
            violations.append(f"passage id {passage.passage_id!r} already used by {dirs[passage.passage_id]}")
        if violations:
            raise ValidationError(f"{pdir}: " + "; ".join(violations))
        dirs[passage.passage_id] = pdir
        passages.append(passage)
    return Dataset(root=str(root), passages=tuple(passages))


def save_passage(passage: Passage, root) -> Path:
    """Write one passage in the canonical directory format."""
    pdir = Path(root) / passage.passage_id
    os.makedirs(pdir, exist_ok=True)
    velocities = []
    if passage.channels:
        first = passage.axles[passage.channels[0].sensor_id]
        velocities = [rec.velocity for rec in first]
    meta = {
        "passage_id": passage.passage_id,
        "sample_rate": passage.channels[0].sample_rate if passage.channels else 0.0,
        "axle_count": passage.axle_count,
        "n_samples": passage.channels[0].n_samples if passage.channels else 0,
        "crossing_times": {
            sid: [rec.crossing_time for rec in records] for sid, records in sorted(passage.axles.items())
        },
        "velocities": velocities,
    }
    (pdir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for ch in passage.channels:
        np.asarray(ch.samples, dtype=SAMPLE_DTYPE).tofile(pdir / f"sensor_{ch.sensor_id}.f64")
    return pdir
