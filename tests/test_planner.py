"""Receptive-field arithmetic and grid classification tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vader.errors import InvalidConfig
from vader.planner import (
    HyperParams,
    InputKind,
    PlanClass,
    classify,
    mrf,
    object_size,
    plan_grid,
)


def test_mrf_values():
    assert mrf(9, 2, 4) == 144
    assert mrf(9, 3, 4) == 729
    assert mrf(7, 5, 0) == 7


def test_mrf_overflow():
    with pytest.raises(InvalidConfig, match=r"receptive field 9\*10\^64 exceeds 2\^63-1"):
        mrf(9, 10, 64)
    # refused after the first product beyond 2^63-1, without building 2^(10^23)
    with pytest.raises(InvalidConfig, match=r"receptive field 3\*2\^100000000000000000000000 exceeds"):
        mrf(3, 2, 10**23)
    with pytest.raises(InvalidConfig, match=r"receptive field 3\*2\^100000000000000000000000 exceeds"):
        HyperParams(InputKind.RAW, 3, 2, 10**23)


def test_object_size_values():
    assert object_size(600, 6.9) == 87
    assert object_size(600, 5) == 120
    assert object_size(600, 600) == 1


def test_object_size_errors():
    with pytest.raises(InvalidConfig, match="must be finite and > 0, got 600, 0"):
        object_size(600, 0)
    with pytest.raises(InvalidConfig, match="must be finite and > 0, got 600, -3"):
        object_size(600, -3)
    with pytest.raises(InvalidConfig, match="lowest_frequency 601 exceeds sample_rate 600"):
        object_size(600, 601)
    with pytest.raises(InvalidConfig, match=r"sample_rate 1e\+300 / lowest_frequency 1e-300 is not finite"):
        object_size(1e300, 1e-300)


@given(fs=st.integers(1, 10_000), fl=st.floats(0.01, 1000))
def test_object_size_ceiling_property(fs, fl):
    if fl > fs:
        return
    y = object_size(fs, fl)
    assert y >= 1
    assert y * fl >= fs * (1 - 1e-12)


@given(k=st.integers(1, 20), m=st.integers(2, 6), p=st.integers(1, 8))
def test_mrf_monotonicity(k, m, p):
    assert mrf(k + 1, m, p) > mrf(k, m, p)
    assert mrf(k, m + 1, p) > mrf(k, m, p)
    assert mrf(k, m, p + 1) > mrf(k, m, p)


def test_hyper_validity_rule():
    assert HyperParams(InputKind.RAW, 9, 2, 4).valid
    assert not HyperParams(InputKind.RAW, 3, 4, 3).valid
    assert not HyperParams(InputKind.RAW, 3, 3, 3).valid
    # an even kernel has no centre tap for a 'same' convolution
    assert not HyperParams(InputKind.RAW, 4, 2, 4).valid
    assert not HyperParams(InputKind.RAW, 8, 2, 4).valid


def test_hyper_field_validation():
    with pytest.raises(InvalidConfig, match="kernel_size must be >= 1, got 0"):
        HyperParams(InputKind.RAW, 0, 2, 4)
    with pytest.raises(InvalidConfig, match="pool_size must be >= 2, got 1"):
        HyperParams(InputKind.RAW, 9, 1, 4)
    with pytest.raises(InvalidConfig, match="pool_steps must be >= 0, got -1"):
        HyperParams(InputKind.RAW, 9, 2, -1)


def test_classify_examples():
    ok = HyperParams(InputKind.RAW, 9, 2, 4)  # field 144, thresholds 120..600
    assert classify(ok, 600, 5.0, 1.0) is PlanClass.OK
    under = HyperParams(InputKind.RAW, 3, 2, 4)  # field 48 < 87 and < 120
    assert classify(under, 600, 5.0, 1.0) is PlanClass.UNDERFIT
    assert classify(under, 600, 6.9, 1.0) is PlanClass.UNDERFIT
    invalid = HyperParams(InputKind.RAW, 3, 4, 3)
    assert classify(invalid, 600, 5.0, 1.0) is PlanClass.INVALID
    even = HyperParams(InputKind.RAW, 8, 2, 4)  # field 128 would be ok
    assert classify(even, 600, 5.0, 1.0) is PlanClass.INVALID
    big = HyperParams(InputKind.RAW, 17, 5, 4)  # 10625 > 600
    assert classify(big, 600, 5.0, 1.0) is PlanClass.BEYOND_USEFUL


def test_classify_boundaries_inclusive():
    # exactly the certain object size is acceptable, as is exactly the useful cap
    at_low = HyperParams(InputKind.RAW, 15, 2, 3)  # 120
    assert classify(at_low, 600, 5.0, 1.0) is PlanClass.OK
    exactly_600 = classify(HyperParams(InputKind.RAW, 75, 2, 3), 600, 5.0, 1.0)  # 75*8=600
    assert exactly_600 is PlanClass.OK
    just_over = classify(HyperParams(InputKind.RAW, 77, 2, 3), 600, 5.0, 1.0)  # 616, the next odd kernel
    assert just_over is PlanClass.BEYOND_USEFUL


def test_plan_grid_total_and_exclusive():
    entries = plan_grid()
    # 8 kernels x 4 pools x 2 steps x 2 input kinds
    assert len(entries) == 128
    for e in entries:
        assert isinstance(e.classification, PlanClass)
        assert e.hyper.mrf == e.hyper.kernel_size * e.hyper.pool_size**e.hyper.pool_steps
        if e.hyper.kernel_size <= e.hyper.pool_size:
            assert e.classification is PlanClass.INVALID


def test_plan_grid_spectrogram_classifies_like_raw():
    entries = plan_grid(kernel_sizes=(3,), pool_sizes=(2,), pool_steps=(3,))
    raw = next(e for e in entries if e.hyper.input_kind is InputKind.RAW)
    spec = next(e for e in entries if e.hyper.input_kind is InputKind.SPECTROGRAM)
    assert spec.classification is raw.classification


def test_plan_grid_validation():
    with pytest.raises(InvalidConfig, match="grid axes must be nonempty"):
        plan_grid(kernel_sizes=())
    with pytest.raises(InvalidConfig, match=r"f_low_useful \(5.0\) must not exceed f_low_certain \(1.0\)"):
        plan_grid(f_low_certain=1.0, f_low_useful=5.0)
    with pytest.raises(InvalidConfig, match="kernel_sizes gives 3 more than once"):
        plan_grid(kernel_sizes=(3, 5, 3))
