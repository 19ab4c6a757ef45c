"""Metric stack tests: peak picking and matching against brute-force oracles."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vader.errors import InvalidConfig
from vader.metrics import (
    MatchResult,
    MatchedPair,
    _plateau_maxima,
    PeakConfig,
    f1,
    harmonic_mean,
    match_axles,
    msa,
    pick_peaks,
    score_series,
    summarize,
)


# ------------------------------------------------------------- oracles


def oracle_pick_peaks(x, min_confidence, min_distance):
    """All qualifying local maxima (plateau start; boundaries count as lower),
    accepted greedily by descending height, ties by lower index."""
    x = np.asarray(x, dtype=float)
    n = x.size
    candidates = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[j + 1] == x[i]:
            j += 1
        left_ok = i == 0 or x[i - 1] < x[i]
        right_ok = j == n - 1 or x[j + 1] < x[i]
        if left_ok and right_ok and x[i] >= min_confidence:
            candidates.append(i)
        i = j + 1
    accepted = []
    for i in sorted(candidates, key=lambda i: (-x[i], i)):
        if all(abs(i - a) >= min_distance for a in accepted):
            accepted.append(i)
    return sorted(accepted)


def oracle_max_matching(labels, peaks, velocities, threshold_cm):
    """Maximum-cardinality bipartite matching via augmenting paths."""
    adj = []
    for t, v in zip(labels, velocities):
        adj.append([j for j, p in enumerate(peaks) if abs(p - t) * v * 100.0 <= threshold_cm])
    owner = {}

    def augment(i, banned):
        for j in adj[i]:
            if j in banned:
                continue
            banned.add(j)
            if j not in owner or augment(owner[j], banned):
                owner[j] = i
                return True
        return False

    tp = sum(augment(i, set()) for i in range(len(labels)))
    return tp, len(peaks) - tp, len(labels) - tp


# ------------------------------------------------------------- pick_peaks


def test_peaks_all_zero():
    assert pick_peaks(np.zeros(100)).size == 0


def test_peaks_single_spike():
    x = np.zeros(100)
    x[50] = 0.9
    assert pick_peaks(x).tolist() == [50]


def test_peaks_conflict_higher_wins():
    x = np.zeros(200)
    x[100] = 0.9
    x[110] = 0.8
    assert pick_peaks(x, PeakConfig(min_distance=20)).tolist() == [100]


def test_peaks_below_confidence_dropped():
    x = np.zeros(50)
    x[10] = 0.2
    x[30] = 0.26
    assert pick_peaks(x).tolist() == [30]


def test_peaks_plateau_first_index():
    x = np.zeros(40)
    x[10:14] = 0.5
    assert pick_peaks(x, PeakConfig(min_distance=3)).tolist() == [10]


def test_peaks_tie_lower_index_wins():
    x = np.zeros(60)
    x[10] = 0.5
    x[20] = 0.5
    out = pick_peaks(x, PeakConfig(min_distance=15)).tolist()
    assert out == [10]


def test_peaks_match_oracle_random():
    rng = np.random.default_rng(42)
    cfg = PeakConfig(min_confidence=0.25, min_distance=20)
    for _ in range(500):
        n = int(rng.integers(1, 1001))
        x = rng.random(n)
        if rng.random() < 0.3:  # inject plateaus
            x = np.round(x, 1)
        got = pick_peaks(x, cfg).tolist()
        want = oracle_pick_peaks(x, cfg.min_confidence, cfg.min_distance)
        assert got == want


def bisect_pick_peaks(x, cfg):
    """The greedy loop ``pick_peaks`` ran before it blocked positions in one
    pass: a sorted list of accepted indices, searched and grown with
    ``bisect`` per candidate."""
    x = np.asarray(x, dtype=np.float64).ravel()
    idx, height = _plateau_maxima(x)
    qualify = height >= cfg.min_confidence
    idx, height = idx[qualify], height[qualify]
    accepted = []
    for i in idx[np.lexsort((idx, -height))]:
        pos = bisect.bisect_left(accepted, i)
        if pos > 0 and i - accepted[pos - 1] < cfg.min_distance:
            continue
        if pos < len(accepted) and accepted[pos] - i < cfg.min_distance:
            continue
        accepted.insert(pos, int(i))
    return np.asarray(accepted, dtype=int)


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.integers(0, 12), min_size=0, max_size=400),
    ramp=st.sampled_from([None, "up", "down"]),
    min_distance=st.integers(1, 39),
    min_confidence=st.sampled_from([1e-7, 0.25, 0.5]),
)
def test_pick_peaks_matches_bisect_loop(levels, ramp, min_distance, min_confidence):
    """Few levels give ties and plateaus; ramps give one candidate."""
    x = np.asarray(levels, dtype=np.float64) / 12
    if ramp is not None:
        x = np.sort(x) if ramp == "up" else np.sort(x)[::-1]
    cfg = PeakConfig(min_confidence=min_confidence, min_distance=min_distance)
    got = pick_peaks(x, cfg)
    assert got.tolist() == bisect_pick_peaks(x, cfg).tolist()
    assert got.dtype == bisect_pick_peaks(x, cfg).dtype


def test_peak_config_validation():
    with pytest.raises(InvalidConfig, match=r"min_confidence must be in \(0, 1\), got 0.0"):
        PeakConfig(min_confidence=0.0)
    with pytest.raises(InvalidConfig, match="min_distance must be >= 1, got 0"):
        PeakConfig(min_distance=0)


# ------------------------------------------------------------- match_axles


def test_match_exact_hits():
    labels = np.array([100, 200, 300])
    res = match_axles(labels, labels, np.full(3, 0.05), 200.0)
    assert (res.tp, res.fp, res.fn) == (3, 0, 0)
    assert all(p.error_cm == 0.0 for p in res.pairs)


def test_match_threshold_dependence():
    # 30 samples off at 0.05 m/sample -> 150 cm
    res_200 = match_axles([130], [100], [0.05], 200.0)
    assert (res_200.tp, res_200.fp, res_200.fn) == (1, 0, 0)
    assert res_200.pairs[0].error_cm == pytest.approx(150.0)
    res_37 = match_axles([130], [100], [0.05], 37.0)
    assert (res_37.tp, res_37.fp, res_37.fn) == (0, 1, 1)


def test_match_one_peak_two_labels():
    # equidistant peak can serve only one label
    res = match_axles([100], [80, 120], [0.05, 0.05], 200.0)
    assert (res.tp, res.fp, res.fn) == (1, 0, 1)


def test_match_length_mismatch():
    with pytest.raises(ValueError, match="2 labels vs 1 velocities"):
        match_axles([1], [1, 2], [0.05], 200.0)


def test_match_one_to_one():
    res = match_axles([100, 101], [100], [0.05], 200.0)
    assert (res.tp, res.fp, res.fn) == (1, 1, 0)
    assert res.pairs[0].peak_index == 100


def test_match_counts_equal_optimal_on_random_instances():
    """Greedy counts equal maximum-matching counts on detector-like
    instances: labels at realistic axle spacings, peaks as small
    perturbations of labels plus uniform clutter."""
    rng = np.random.default_rng(0)
    for _ in range(500):
        v = float(rng.uniform(0.03, 0.1))
        n_labels = int(rng.integers(0, 11))
        gaps_m = rng.uniform(2.5, 8.0, size=n_labels)
        labels = (np.cumsum(gaps_m / v) + 50).astype(int)
        peaks = []
        for t in labels:
            if rng.random() < 0.8:
                peaks.append(int(t + rng.normal(0, 8)))
        span = int(labels.max()) + 200 if n_labels else 400
        while len(peaks) < int(rng.integers(0, 11)):
            peaks.append(int(rng.integers(0, span)))
        peaks = sorted(set(peaks))[:10]
        vels = np.full(labels.size, v)
        res = match_axles(peaks, labels, vels, 200.0)
        want = oracle_max_matching(labels, peaks, vels, 200.0)
        assert (res.tp, res.fp, res.fn) == want


# ------------------------------------------------------------- f1 and friends


def test_f1_perfect():
    assert f1(5, 0, 0) == 100.0


def test_f1_example():
    assert f1(3, 1, 1) == pytest.approx(75.0)


def test_f1_zero_tp():
    assert f1(0, 5, 0) == 0.0
    assert f1(0, 0, 3) == 0.0
    assert f1(0, 0, 0) == 100.0


@given(
    tp=st.integers(1, 50),
    fp=st.integers(0, 50),
    fn=st.integers(0, 50),
)
def test_f1_monotone(tp, fp, fn):
    assert f1(tp + 1, fp, fn) >= f1(tp, fp, fn)
    assert f1(tp, fp + 1, fn) <= f1(tp, fp, fn)
    assert f1(tp, fp, fn + 1) <= f1(tp, fp, fn)


def test_msa_scale():
    assert msa(0.0) == 100.0
    assert msa(200.0) == 0.0
    assert msa(5.21) == pytest.approx(97.395)


def test_harmonic_mean_values():
    assert harmonic_mean(80.0, 80.0, 80.0, 80.0) == pytest.approx(80.0)
    # dominance of the weakest input
    two_term = 2.0 / (1.0 / 99.0 + 1.0 / 1.0)
    assert two_term == pytest.approx(1.98)
    got = harmonic_mean(90.0, 90.0, 99.0, 1.0)
    assert got == pytest.approx(4.0 / (1 / 90 + 1 / 90 + 1 / 99 + 1 / 1.0))
    assert got == pytest.approx(3.8748, abs=1e-3)
    with pytest.raises(ValueError, match="all inputs must be positive"):
        harmonic_mean(90.0, 0.0, 99.0, 1.0)


def test_msa_of_matched_errors_in_range():
    rng = np.random.default_rng(3)
    for _ in range(50):
        labels = np.sort(rng.integers(0, 2000, size=6))
        peaks = labels + rng.integers(-30, 30, size=6)
        res = match_axles(peaks, labels, np.full(6, 0.05), 200.0)
        if res.pairs:
            assert 0.0 <= msa(float(np.mean([p.error_cm for p in res.pairs]))) <= 100.0


def test_score_series_matches_peaks_at_both_thresholds():
    probs = np.zeros(300)
    probs[[100, 210]] = 0.9  # 210 is 10 samples * 5 cm off its label at 200
    at_200, at_37 = score_series(probs, [100, 200], [0.05, 0.05])
    assert (at_200.tp, at_200.fp, at_200.fn) == (2, 0, 0)
    assert (at_37.tp, at_37.fp, at_37.fn) == (1, 1, 1)
    assert [p.error_cm for p in at_200.pairs] == [0.0, 50.0]


def test_summarize_report(tiny_passage):
    res = match_axles([100, 200], [100, 205], [0.05, 0.05], 200.0)
    res37 = match_axles([100, 200], [100, 205], [0.05, 0.05], 37.0)
    results = [("s0", res, res37)]
    report = summarize(results)
    assert report.f1_200 == 100.0
    assert set(report.per_sensor) == {"s0"}
    assert report.per_sensor["s0"]["tp"] == 2
    assert report.mean_spatial_error_cm == pytest.approx(12.5)  # 0 and 5 samples at 5 cm each
    # 10 samples off at 0.02 m/sample -> 20 cm
    far = match_axles([110], [100], [0.02], 200.0)
    results.append(("s1", far, far))
    assert summarize(results).per_sensor["s1"]["mean_spatial_error_cm"] == pytest.approx(20.0)
    # the mean does not depend on the order the series arrive in: 10, 30 and 5 cm
    series = [("s0", r, r) for r in (match_axles([100 + d], [100], [0.05], 200.0) for d in (2, 6, 1))]
    assert summarize(series) == summarize(series[::-1])
    assert summarize(series).mean_spatial_error_cm == pytest.approx(15.0)
    # nothing to detect and nothing detected: a perfect F1 and no spatial error
    empty = summarize([])
    assert (empty.f1_200, empty.f1_37, empty.per_sensor) == (100.0, 100.0, {})
    assert empty.mean_spatial_error_cm is None and empty.msa is None


def test_summarize_averages_errors_in_result_order():
    """The total and each sensor average their errors in the order the
    results come, so that a report's floats follow from that order alone."""
    errors = {"s0": [1e16, 1.0, 1.0], "s1": [0.1, 0.2, 0.3]}
    assert np.mean(errors["s0"]) != np.mean(errors["s0"][::-1])  # a float sum that depends on order
    order = [("s1", 0), ("s0", 0), ("s0", 1), ("s1", 1), ("s0", 2), ("s1", 2)]
    results = []
    for sid, i in order:
        at = MatchResult(tp=1, fp=0, fn=0, pairs=(MatchedPair(100, errors[sid][i]),))
        results.append((sid, at, at))
    report = summarize(results)
    assert report.mean_spatial_error_cm == float(np.mean([errors[sid][i] for sid, i in order]))
    for sid, values in errors.items():
        assert report.per_sensor[sid]["mean_spatial_error_cm"] == float(np.mean(values))
        assert report.per_sensor[sid]["tp"] == len(values)


def test_no_matched_pair_has_no_spatial_error():
    """A sensor that matched nothing has no spatial error, per sensor and
    overall; it does not score a perfect MSA."""
    nothing = match_axles([], [100, 205], [0.05, 0.05], 200.0)
    results = [("s1", nothing, match_axles([], [100, 205], [0.05, 0.05], 37.0))]
    report = summarize(results)
    assert report.f1_200 == 0.0
    assert report.mean_spatial_error_cm is None and report.msa is None
    assert report.per_sensor["s1"]["msa"] is None
    hit = match_axles([100], [100, 205], [0.05, 0.05], 200.0)
    results.append(("s0", hit, hit))
    report = summarize(results)
    assert report.msa == 100.0 and report.per_sensor["s0"]["msa"] == 100.0
    assert report.per_sensor["s1"]["mean_spatial_error_cm"] is None
