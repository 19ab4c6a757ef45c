"""Canonical data model for passages and on-disk dataset handling.

A *passage* is one train crossing: per-sensor acceleration series sharing a
sample rate, plus per-sensor ground-truth crossing times and per-axle
velocities (meters per sample). Labels are binary series with a one at the
sample nearest each crossing.

On-disk layout (one directory per passage)::

    <root>/<passage_id>/meta.json
    <root>/<passage_id>/sensor_<id>.csv     # one sample per line, no header

``meta.json`` carries passage_id, sample_rate, axle_count, per-sensor
crossing times in seconds, which strictly increase (axles pass a sensor in
order), and per-axle velocities in m/sample. All CSV is ASCII with ``\\n``
line endings; floats are written with ``repr`` so a save/load cycle is
bit-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateSampleIndex,
    OutOfRangeCrossing,
    ParseError,
    SampleRateMismatch,
    UnknownId,
    ValidationError,
)


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

    @property
    def sensor_ids(self) -> tuple[str, ...]:
        return tuple(ch.sensor_id for ch in self.channels)


def crossing_index(crossing_time: float, sample_rate: float) -> int:
    """Sample index of a crossing, rounding half away from zero."""
    return int(math.floor(crossing_time * sample_rate + 0.5))


def build_label_vector(crossings, sample_rate: float, n_samples: int) -> np.ndarray:
    """Binary label series with a one at the sample nearest each crossing.

    Raises OutOfRangeCrossing for a crossing outside [0, n_samples/sample_rate)
    and DuplicateSampleIndex when two crossings round to the same sample.
    """
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    bits = np.zeros(n_samples, dtype=np.uint8)
    duration = n_samples / sample_rate
    for t in crossings:
        if not 0.0 <= t < duration:
            raise OutOfRangeCrossing(f"crossing {t} s outside [0, {duration}) s")
        i = crossing_index(t, sample_rate)
        if i >= n_samples:  # rounding can push the last half-sample over the edge
            i = n_samples - 1
        if bits[i]:
            raise DuplicateSampleIndex(f"two crossings map to sample {i}")
        bits[i] = 1
    return bits


def label_indices(passage: Passage, sensor_id: str) -> np.ndarray:
    """Sorted label sample indices of one sensor: the ones of its label vector."""
    ch = passage.channel(sensor_id)
    times = [a.crossing_time for a in passage.axles[sensor_id]]
    return np.flatnonzero(build_label_vector(times, ch.sample_rate, ch.n_samples))


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
    """Check all passage invariants; returns human-readable violations."""
    violations: list[str] = []
    if not p.channels:
        violations.append(f"passage {p.passage_id}: no channels")
        return violations
    ref = p.channels[0]
    for ch in p.channels:
        if ch.sample_rate <= 0:
            violations.append(f"channel {ch.sensor_id}: sample_rate {ch.sample_rate} <= 0")
        if ch.n_samples < 1:
            violations.append(f"channel {ch.sensor_id}: empty sample series")
        elif not np.all(np.isfinite(ch.samples)):
            bad = int(np.flatnonzero(~np.isfinite(ch.samples))[0])
            violations.append(f"channel {ch.sensor_id}: non-finite sample at index {bad}")
        if ch.n_samples != ref.n_samples:
            violations.append(
                f"channel {ch.sensor_id} length {ch.n_samples} != channel {ref.sensor_id} length {ref.n_samples}"
            )
        if ch.sample_rate != ref.sample_rate:
            violations.append(
                f"channel {ch.sensor_id} rate {ch.sample_rate} != channel {ref.sensor_id} rate {ref.sample_rate}"
            )
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
        if any(later <= earlier for earlier, later in zip(times, times[1:])):
            violations.append(f"channel {ch.sensor_id}: crossing times {times} do not strictly increase")
        for i, rec in enumerate(records):
            if rec.velocity <= 0:
                violations.append(f"channel {ch.sensor_id} axle {i}: velocity {rec.velocity} <= 0")
            if not 0.0 <= rec.crossing_time < ch.duration:
                violations.append(
                    f"channel {ch.sensor_id} axle {i}: crossing {rec.crossing_time} s outside signal"
                )
        if ch.sample_rate > 0 and ch.n_samples >= 1:
            try:
                bits = build_label_vector(times, ch.sample_rate, ch.n_samples)
            except (OutOfRangeCrossing, DuplicateSampleIndex) as exc:
                violations.append(f"channel {ch.sensor_id}: label construction failed: {exc}")
            else:
                if int(bits.sum()) != p.axle_count:
                    violations.append(
                        f"channel {ch.sensor_id}: label sum {int(bits.sum())} != axle_count {p.axle_count}"
                    )
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


def _read_samples(path: Path) -> np.ndarray:
    text = path.read_text(encoding="ascii")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    try:
        return np.asarray(lines, dtype=np.float64)
    except ValueError:
        for lineno, line in enumerate(lines, start=1):
            try:
                float(line)
            except ValueError:
                raise ParseError(path, lineno, f"not a number: {line!r}") from None
        raise ParseError(path, 0, "unparseable sample file")


def _load_passage(pdir: Path) -> Passage:
    meta_path = pdir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(meta_path, exc.lineno, exc.msg) from None
    try:
        passage_id = meta["passage_id"]
        sample_rate = float(meta["sample_rate"])
        axle_count = int(meta["axle_count"])
        crossing_times = meta["crossing_times"]
        velocities = [float(v) for v in meta["velocities"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(meta_path, 0, f"bad metadata: {exc!r}") from None

    channels = []
    axles: dict[str, tuple[AxleRecord, ...]] = {}
    for sensor_id in crossing_times:
        csv_path = pdir / f"sensor_{sensor_id}.csv"
        if not csv_path.exists():
            raise ParseError(csv_path, 0, "referenced sensor file missing")
        samples = _read_samples(csv_path)
        channels.append(SensorChannel(sensor_id, samples, sample_rate))
        times = [float(t) for t in crossing_times[sensor_id]]
        if len(times) != len(velocities):
            raise ParseError(
                meta_path, 0, f"sensor {sensor_id}: {len(times)} crossings vs {len(velocities)} velocities"
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

    Raises ParseError on malformed files and ValidationError on the first
    passage violating an invariant or reusing another directory's passage id.
    """
    root = Path(root)
    dirs: dict[str, Path] = {}  # passage_id -> its directory
    passages = []
    for pdir in sorted(d for d in root.iterdir() if d.is_dir()) if root.exists() else []:
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
        "crossing_times": {
            sid: [rec.crossing_time for rec in records] for sid, records in sorted(passage.axles.items())
        },
        "velocities": velocities,
    }
    (pdir / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for ch in passage.channels:
        body = "\n".join(repr(float(x)) for x in ch.samples.tolist())
        (pdir / f"sensor_{ch.sensor_id}.csv").write_text(body + "\n", encoding="ascii")
    return pdir


def save_dataset(passages, root) -> Path:
    root = Path(root)
    for p in passages:
        save_passage(p, root)
    return root
