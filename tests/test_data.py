"""Core data model: label vectors, validation, and dataset round-trips."""

import json
import shutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vader.data import (
    AxleRecord,
    Dataset,
    Passage,
    SensorChannel,
    build_label_vector,
    crossing_index,
    label_indices,
    load_dataset,
    save_dataset,
    save_passage,
    validate_passage,
)
from vader.errors import (
    DuplicateSampleIndex,
    OutOfRangeCrossing,
    ParseError,
    UnknownId,
    ValidationError,
)


def test_label_vector_direct_index():
    bits = build_label_vector([1.0], 600.0, 7200)
    assert bits[600] == 1
    assert bits.sum() == 1


def test_label_vector_sum_equals_count():
    crossings = [0.5, 1.25, 3.0, 7.7]
    bits = build_label_vector(crossings, 600.0, 6000)
    assert bits.sum() == len(crossings)


def test_label_vector_out_of_range():
    with pytest.raises(OutOfRangeCrossing):
        build_label_vector([13.0], 600.0, 7200)  # 12 s signal
    with pytest.raises(OutOfRangeCrossing):
        build_label_vector([-0.1], 600.0, 7200)


def test_label_vector_duplicate_index():
    with pytest.raises(DuplicateSampleIndex):
        build_label_vector([1.0, 1.0004], 600.0, 7200)


def test_rounding_half_away_from_zero():
    # 0.5-sample boundary rounds up
    assert crossing_index(0.5 / 600.0, 600.0) == 1
    assert crossing_index(1.4999 / 600.0, 600.0) == 1
    assert crossing_index(1.5 / 600.0, 600.0) == 2


@given(st.lists(st.integers(0, 5999), unique=True, min_size=1, max_size=20))
def test_label_vector_decoding_recovers_crossings(indices):
    fs = 600.0
    crossings = [i / fs for i in indices]
    bits = build_label_vector(crossings, fs, 6000)
    decoded = np.flatnonzero(bits) / fs
    assert sorted(np.round(decoded * fs).astype(int)) == sorted(indices)
    for t in crossings:
        assert np.min(np.abs(decoded - t)) <= 0.5 / fs + 1e-12


def _passage(**overrides):
    fs = 600.0
    n = 1200
    rng = np.random.default_rng(0)
    fields = dict(
        passage_id="p0",
        channels=(
            SensorChannel("a", rng.normal(size=n), fs),
            SensorChannel("b", rng.normal(size=n), fs),
        ),
        axles={
            "a": (AxleRecord(0.5, 0.05), AxleRecord(1.0, 0.05)),
            "b": (AxleRecord(0.7, 0.05), AxleRecord(1.2, 0.05)),
        },
        axle_count=2,
    )
    fields.update(overrides)
    return Passage(**fields)


def test_validate_ok():
    assert validate_passage(_passage()) == []


def test_validate_mismatched_lengths():
    p = _passage(
        channels=(
            SensorChannel("a", np.zeros(1200), 600.0),
            SensorChannel("b", np.zeros(1100), 600.0),
        )
    )
    violations = validate_passage(p)
    assert len(violations) == 1
    assert "b" in violations[0] and "a" in violations[0]


def test_validate_label_sum_mismatch():
    p = _passage(axle_count=3)
    violations = validate_passage(p)
    assert any("axle records" in v for v in violations)


def test_validate_nonfinite():
    samples = np.zeros(1200)
    samples[7] = np.nan
    p = _passage(channels=(SensorChannel("a", samples, 600.0), SensorChannel("b", np.zeros(1200), 600.0)))
    assert any("non-finite" in v for v in validate_passage(p))


def test_validate_bad_velocity():
    p = _passage(axles={"a": (AxleRecord(0.5, -1.0), AxleRecord(1.0, 0.05)),
                        "b": (AxleRecord(0.7, 0.05), AxleRecord(1.2, 0.05))})
    assert any("velocity" in v for v in validate_passage(p))


def test_validate_decreasing_crossing_times():
    """Axles pass a sensor in order; a record order that disagrees would pair
    each label with another axle's velocity."""
    p = _passage(axles={"a": (AxleRecord(1.0, 0.05), AxleRecord(0.5, 0.01)),
                        "b": (AxleRecord(0.7, 0.05), AxleRecord(1.2, 0.01))})
    violations = validate_passage(p)
    assert violations == ["channel a: crossing times [1.0, 0.5] do not strictly increase"]


def test_label_indices_sorted(tiny_passage):
    idx = label_indices(tiny_passage, "s0")
    assert list(idx) == sorted(idx)
    assert idx.size == tiny_passage.axle_count


def test_label_indices_clamp_last_half_sample():
    # 0.96 s at 10 Hz rounds to sample 10 of a 10-sample series
    ch = SensorChannel("s0", np.zeros(10), 10.0)
    p = Passage("p", (ch,), {"s0": (AxleRecord(0.3, 0.05), AxleRecord(0.96, 0.05))}, axle_count=2)
    assert list(label_indices(p, "s0")) == [3, 9]
    assert list(np.flatnonzero(build_label_vector([0.3, 0.96], 10.0, 10))) == [3, 9]


def test_dataset_by_id(tiny_passage):
    ds = Dataset(root="mem", passages=(tiny_passage,))
    assert ds.by_id("tiny") is tiny_passage
    with pytest.raises(UnknownId):
        ds.by_id("nope")


def test_empty_dataset_dir(tmp_path):
    ds = load_dataset(tmp_path)
    assert len(ds) == 0


def test_round_trip_bit_exact(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    loaded = load_dataset(root)
    assert len(loaded) == 1
    p = loaded.passages[0]
    assert p.passage_id == tiny_passage.passage_id
    assert p.axle_count == tiny_passage.axle_count
    for ch, orig in zip(p.channels, tiny_passage.channels):
        assert ch.sensor_id == orig.sensor_id
        assert ch.sample_rate == orig.sample_rate
        assert np.array_equal(ch.samples, orig.samples)
    for sid in p.axles:
        assert p.axles[sid] == tiny_passage.axles[sid]
    # save(load(x)) == load(x) byte for byte
    again = save_dataset(loaded.passages, tmp_path / "ds2")
    for f in sorted((tmp_path / "ds").rglob("*")):
        twin = tmp_path / "ds2" / f.relative_to(tmp_path / "ds")
        if f.is_file():
            assert twin.read_bytes() == f.read_bytes(), f.name


def test_load_rejects_nonfinite(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    csv = root / "tiny" / "sensor_s0.csv"
    lines = csv.read_text().split("\n")
    lines[5] = "nan"
    csv.write_text("\n".join(lines))
    with pytest.raises(ValidationError):
        load_dataset(root)


def test_load_parse_error_names_file_and_line(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    csv = root / "tiny" / "sensor_s0.csv"
    lines = csv.read_text().split("\n")
    lines[3] = "bogus"
    csv.write_text("\n".join(lines))
    with pytest.raises(ParseError) as err:
        load_dataset(root)
    assert "sensor_s0.csv" in str(err.value)
    assert ":4:" in str(err.value)


def test_load_missing_sensor_file(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    (root / "tiny" / "sensor_s1.csv").unlink()
    with pytest.raises(ParseError):
        load_dataset(root)


def test_load_rejects_duplicate_passage_id(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    shutil.copytree(root / "tiny", root / "tiny_copy")
    with pytest.raises(ValidationError) as err:
        load_dataset(root)
    assert str(root / "tiny_copy") in str(err.value)
    assert f"'tiny' already used by {root / 'tiny'}" in str(err.value)


def test_load_bad_meta_json(tmp_path, tiny_passage):
    root = save_dataset([tiny_passage], tmp_path / "ds")
    (root / "tiny" / "meta.json").write_text("{not json")
    with pytest.raises(ParseError):
        load_dataset(root)


def test_axle_count_index_and_histogram(small_dataset):
    index = small_dataset.axle_count_index()
    assert len(index) == len(small_dataset)
    hist = small_dataset.axle_count_histogram()
    assert sum(hist.values()) == len(small_dataset)
    assert set(hist) == {4, 6}
