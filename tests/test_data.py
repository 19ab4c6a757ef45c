"""Core data model: label vectors, validation, and dataset round-trips."""

import json
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import write_sample
from vader import data
from vader.data import (
    AxleRecord,
    Dataset,
    Passage,
    SensorChannel,
    build_label_vector,
    crossing_index,
    crossing_indices,
    label_indices,
    load_dataset,
    save_passage,
    validate_passage,
)
from vader.errors import ParseError, UnknownId, ValidationError


def test_label_vector_direct_index():
    bits = build_label_vector([1.0], 600.0, 7200)
    assert bits[600] == 1
    assert bits.sum() == 1


def test_label_vector_sum_equals_count():
    crossings = [0.5, 1.25, 3.0, 7.7]
    bits = build_label_vector(crossings, 600.0, 6000)
    assert bits.sum() == len(crossings)


def test_label_vector_out_of_range():
    with pytest.raises(ValidationError, match=r"crossing 13.0 s outside \[0, 12.0\) s"):
        build_label_vector([13.0], 600.0, 7200)  # 12 s signal
    with pytest.raises(ValidationError, match=r"crossing -0.1 s outside \[0, 12.0\) s"):
        build_label_vector([-0.1], 600.0, 7200)


def test_label_vector_duplicate_index():
    with pytest.raises(ValidationError, match="two crossings map to sample 600"):
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


@pytest.mark.parametrize(
    "axles, axle_count, expected",
    [
        (
            {"a": (AxleRecord(0.5, 0.05), AxleRecord(2.5, 0.05))},
            2,
            "channel a: crossing 2.5 s outside [0, 2.0) s",
        ),
        (
            {"a": (AxleRecord(0.5, 0.05), AxleRecord(1.0, 0.05))},
            3,
            "channel a: 2 axle records, expected 3",
        ),
        (
            {"a": (AxleRecord(1.0, 0.05), AxleRecord(1.0, 0.05))},
            2,
            "channel a: two crossings map to sample 600",
        ),
    ],
    ids=["crossing_outside_signal", "record_count", "equal_crossing_times"],
)
def test_validate_reports_each_fault_once(axles, axle_count, expected):
    p = _passage(channels=_passage().channels[:1], axles=axles, axle_count=axle_count)
    assert validate_passage(p) == [expected]


def test_validate_zero_sample_rate():
    """A zero rate is one fault; the crossings are not judged against a
    duration it cannot give."""
    p = _passage(channels=(SensorChannel("a", np.zeros(1200), 0.0),), axles=_passage().axles)
    assert validate_passage(p) == ["channel a: sample_rate 0.0 <= 0"]


def test_validate_nonfinite():
    samples = np.zeros(1200)
    samples[7] = np.nan
    p = _passage(channels=(SensorChannel("a", samples, 600.0), SensorChannel("b", np.zeros(1200), 600.0)))
    assert any("non-finite" in v for v in validate_passage(p))


def test_validate_bad_velocity():
    p = _passage(axles={"a": (AxleRecord(0.5, -1.0), AxleRecord(1.0, 0.05)),
                        "b": (AxleRecord(0.7, 0.05), AxleRecord(1.2, 0.05))})
    assert any("velocity" in v for v in validate_passage(p))


def test_validate_sensors_share_rate_and_velocities():
    """A rate or a velocity list that differs from the first channel's is
    one fault of the channel that differs."""
    a, b = _passage().channels
    p = _passage(channels=(a, SensorChannel("b", b.samples, 300.0)))
    assert validate_passage(p) == ["channel b rate 300.0 != channel a rate 600.0"]
    p = _passage(axles={"a": (AxleRecord(0.5, 0.05), AxleRecord(1.0, 0.05)),
                        "b": (AxleRecord(0.7, 0.05), AxleRecord(1.2, 0.04))})
    assert validate_passage(p) == ["channel b velocities [0.05, 0.04] != channel a velocities [0.05, 0.05]"]


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("sample_rate", 0.0, "channel a: sample_rate 0.0 <= 0"),
        ("sample_rate", float("nan"), "channel a: sample_rate nan is not finite"),
        ("velocities", -1.0, "channel a axle 0: velocity -1.0 is not finite and > 0"),
        ("velocities", float("nan"), "channel a axle 0: velocity nan is not finite and > 0"),
    ],
    ids=["rate_zero", "rate_nan", "velocity_negative", "velocity_nan"],
)
def test_two_sensor_passage_names_a_passage_fault_once(tmp_path, field, value, fault):
    """meta.json holds one sample rate and one velocity list for all sensors:
    a fault in either is one violation, not one per sensor."""
    root = save_passage(_passage(), tmp_path / "ds").parent
    path = root / "p0" / "meta.json"
    meta = json.loads(path.read_text())
    if field == "velocities":
        meta[field][0] = value
    else:
        meta[field] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ValidationError) as err:
        load_dataset(root)
    assert str(err.value) == f"{root / 'p0'}: {fault}"


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


def test_crossing_indices_are_the_label_vector_ones():
    crossings = [3.0, 0.5, 7.7, 1.25]
    idx = crossing_indices(crossings, 600.0, 6000)
    assert idx.dtype == np.intp
    assert np.array_equal(idx, np.flatnonzero(build_label_vector(crossings, 600.0, 6000)))
    assert crossing_indices([], 600.0, 6000).shape == (0,)
    with pytest.raises(ValidationError, match=r"crossing 13.0 s outside \[0, 12.0\) s"):
        crossing_indices([1.0, 13.0], 600.0, 7200)
    with pytest.raises(ValidationError, match="two crossings map to sample 600"):
        crossing_indices([1.0, 1.0004], 600.0, 7200)


def test_loading_builds_no_label_vector(small_dataset, monkeypatch):
    """Validation checks each channel's crossings by their sample indices:
    loading a dataset allocates no label series."""

    def refuse(*args):
        raise AssertionError("a label vector was built")

    monkeypatch.setattr(data, "build_label_vector", refuse)
    assert len(load_dataset(small_dataset.root)) == len(small_dataset)


def test_dataset_by_id(tiny_passage):
    ds = Dataset(root="mem", passages=(tiny_passage,))
    assert ds.by_id("tiny") is tiny_passage
    with pytest.raises(UnknownId):
        ds.by_id("nope")


def test_empty_dataset_dir(tmp_path):
    ds = load_dataset(tmp_path)
    assert len(ds) == 0


def test_missing_dataset_root_is_an_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope"):
        load_dataset(tmp_path / "nope")


def test_round_trip_bit_exact(tmp_path, tiny_passage):
    info = np.finfo(np.float64)
    extremes = [-0.0, info.smallest_subnormal, info.max, -info.max]
    tiny_passage.channels[0].samples[: len(extremes)] = extremes
    root = tmp_path / "ds"
    save_passage(tiny_passage, root)
    loaded = load_dataset(root)
    assert len(loaded) == 1
    p = loaded.passages[0]
    assert p.passage_id == tiny_passage.passage_id
    assert p.axle_count == tiny_passage.axle_count
    for ch, orig in zip(p.channels, tiny_passage.channels):
        assert ch.sensor_id == orig.sensor_id
        assert ch.sample_rate == orig.sample_rate
        assert ch.samples.dtype == np.float64
        assert ch.samples.tobytes() == orig.samples.tobytes()  # -0.0 == 0.0, so compare bits
    for sid in p.axles:
        assert p.axles[sid] == tiny_passage.axles[sid]
    # save(load(x)) == load(x) byte for byte
    for p in loaded.passages:
        save_passage(p, tmp_path / "ds2")
    for f in sorted((tmp_path / "ds").rglob("*")):
        twin = tmp_path / "ds2" / f.relative_to(tmp_path / "ds")
        if f.is_file():
            assert twin.read_bytes() == f.read_bytes(), f.name


def test_load_rejects_nonfinite(tmp_path, tiny_passage):
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    write_sample(root / "tiny" / "sensor_s0.f64", 5, np.nan)
    with pytest.raises(ValidationError, match="channel s0: non-finite sample at index 5"):
        load_dataset(root)


def test_load_partial_sample_names_file_and_byte_counts(tmp_path, tiny_passage):
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    path = root / "tiny" / "sensor_s0.f64"
    need = 8 * tiny_passage.channels[0].n_samples
    with path.open("ab") as f:
        f.write(b"\x00\x01\x02")
    with pytest.raises(ParseError) as err:
        load_dataset(root)
    assert str(err.value) == f"{path}: expected {need} bytes of values, found {need + 3}"


def test_load_missing_sensor_file(tmp_path, tiny_passage):
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    (root / "tiny" / "sensor_s1.f64").unlink()
    with pytest.raises(ParseError, match="sensor_s1.f64: referenced sensor file missing"):
        load_dataset(root)


def test_loading_allocates_only_the_samples(tmp_path):
    """The samples are read straight into their array: no text, bytes or
    copies held beside them."""
    n = 120_000
    samples = np.random.default_rng(3).normal(size=n)
    channel = SensorChannel("s0", samples, 600.0)
    axles = {"s0": (AxleRecord(10.0, 0.05), AxleRecord(150.0, 0.05))}
    root = save_passage(Passage("long", (channel,), axles, axle_count=2), tmp_path / "ds").parent
    tracemalloc.start()
    try:
        loaded = load_dataset(root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.passages[0].channels[0].samples.tobytes() == samples.tobytes()
    assert peak <= 1.1 * samples.nbytes + 256 * 1024, peak


def test_load_rejects_duplicate_passage_id(tmp_path, tiny_passage):
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    shutil.copytree(root / "tiny", root / "tiny_copy")
    with pytest.raises(ValidationError) as err:
        load_dataset(root)
    assert str(root / "tiny_copy") in str(err.value)
    assert f"'tiny' already used by {root / 'tiny'}" in str(err.value)


def test_load_bad_meta_json(tmp_path, tiny_passage):
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    (root / "tiny" / "meta.json").write_text("{\n not json")
    with pytest.raises(ParseError, match="meta.json:2: Expecting property name"):
        load_dataset(root)


META_DAMAGE = {
    "crossing_times_list": lambda meta: meta.update(crossing_times=list(meta["crossing_times"])),
    "crossing_times_int": lambda meta: meta.update(crossing_times=3),
    "sensor_times_scalar": lambda meta: meta["crossing_times"].update(s0=0.5),
    "sensor_times_text": lambda meta: meta["crossing_times"]["s0"].append("abc"),
    "passage_id_int": lambda meta: meta.update(passage_id=7),
    "passage_id_list": lambda meta: meta.update(passage_id=["x"]),
    "axle_count_inf": lambda meta: meta.update(axle_count=float("inf")),
    "axle_count_float": lambda meta: meta.update(axle_count=meta["axle_count"] + 0.7),
    "axle_count_bool": lambda meta: meta.update(axle_count=True),
    "sample_rate_text": lambda meta: meta.update(sample_rate=str(meta["sample_rate"])),
    "sample_rate_bool": lambda meta: meta.update(sample_rate=True),
    "n_samples_missing": lambda meta: meta.pop("n_samples"),
    "n_samples_float": lambda meta: meta.update(n_samples=float(meta["n_samples"])),
    "n_samples_bool": lambda meta: meta.update(n_samples=True),
    "n_samples_zero": lambda meta: meta.update(n_samples=0),
    "n_samples_negative": lambda meta: meta.update(n_samples=-meta["n_samples"]),
}


@pytest.mark.parametrize("damage", sorted(META_DAMAGE))
def test_load_refuses_meta_of_wrong_type(tmp_path, tiny_passage, damage):
    """Crossing times are an object of number lists, the passage id is a
    string, the sample rate a number, and the axle count and the positive
    sample count integers (a bool is neither, a string no number); anything
    else is a parse error of ``meta.json``."""
    root = save_passage(tiny_passage, tmp_path / "ds").parent
    path = root / "tiny" / "meta.json"
    meta = json.loads(path.read_text())
    META_DAMAGE[damage](meta)
    path.write_text(json.dumps(meta))
    with pytest.raises(ParseError, match="meta.json: bad metadata"):
        load_dataset(root)


def test_axle_count_index_and_histogram(small_dataset):
    index = small_dataset.axle_count_index()
    assert len(index) == len(small_dataset)
    hist = small_dataset.axle_count_histogram()
    assert sum(hist.values()) == len(small_dataset)
    assert set(hist) == {4, 6}
