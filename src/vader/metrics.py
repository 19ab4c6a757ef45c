"""Peak picking, spatial axle matching, and the detection metric stack.

Detections are compared to ground truth in *space*: the temporal error in
samples between a predicted and a labelled crossing is multiplied by the
axle velocity (meters per sample) and judged against a spatial threshold.
The standard thresholds are 200 cm (minimum assumed axle separation) and
37 cm (maximum expected labelling error).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidConfig

#: Spatial threshold (cm) that doubles as the zero point of the accuracy scale.
SPATIAL_THRESHOLD_CM = 200.0
#: Secondary threshold (cm): maximum expected error of the labels themselves.
LABEL_ERROR_THRESHOLD_CM = 37.0


@dataclass(frozen=True)
class PeakConfig:
    """Thresholds for turning a probability series into discrete detections."""

    min_confidence: float = 0.25
    min_distance: int = 20

    def __post_init__(self):
        if not 0.0 < self.min_confidence < 1.0:
            raise InvalidConfig(f"min_confidence must be in (0, 1), got {self.min_confidence}")
        if self.min_distance < 1:
            raise InvalidConfig(f"min_distance must be >= 1, got {self.min_distance}")


@dataclass(frozen=True)
class MatchedPair:
    """The predicted peak of one accepted (label, prediction) pair, with its
    spatial error."""

    peak_index: int
    error_cm: float


@dataclass(frozen=True)
class MatchResult:
    """TP/FP/FN counts plus the accepted pairs for one series and threshold."""

    tp: int
    fp: int
    fn: int
    pairs: tuple[MatchedPair, ...]


def _plateau_maxima(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices and heights of local maxima, plateaus reported at their first
    index. Series boundaries count as lower neighbours."""
    n = x.size
    if n == 0:
        return np.empty(0, dtype=int), np.empty(0)
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts = np.concatenate(([0], change))
    vals = x[starts]
    rising = np.empty(starts.size, dtype=bool)
    falling = np.empty(starts.size, dtype=bool)
    rising[0] = True
    rising[1:] = vals[1:] > vals[:-1]
    falling[-1] = True
    falling[:-1] = vals[:-1] > vals[1:]
    keep = rising & falling
    return starts[keep], vals[keep]


def pick_peaks(probs: np.ndarray, cfg: PeakConfig = PeakConfig()) -> np.ndarray:
    """Select detection peaks from a probability series.

    A candidate is a local maximum with height >= ``cfg.min_confidence``.
    Candidates are accepted greedily by descending height (ties broken by
    lower index) subject to a minimum separation of ``cfg.min_distance``
    samples from every previously accepted peak.

    Returns the accepted peak indices in ascending order.
    """
    x = np.asarray(probs, dtype=np.float64).ravel()
    idx, height = _plateau_maxima(x)
    qualify = height >= cfg.min_confidence
    idx, height = idx[qualify], height[qualify]
    # lexsort is stable; primary key height descending, secondary index ascending
    order = np.lexsort((idx, -height))
    d = cfg.min_distance
    blocked = bytearray(x.size)  # within min_distance of an accepted peak
    ones = b"\x01" * min(2 * d - 1, x.size)
    accepted: list[int] = []
    for i in idx[order].tolist():
        if not blocked[i]:
            accepted.append(i)
            lo, hi = max(i - d + 1, 0), min(i + d, x.size)
            blocked[lo:hi] = ones[: hi - lo]
    accepted.sort()
    return np.asarray(accepted, dtype=int)


def match_axles(
    peaks,
    label_indices,
    velocities,
    threshold_cm: float,
) -> MatchResult:
    """Greedy one-to-one assignment of predicted peaks to labelled crossings.

    Candidate (label, peak) pairs are ranked by ascending spatial error
    ``|peak - label| * velocity`` (the velocity of the label, meters per
    sample) and accepted while both endpoints are unused and the error does
    not exceed ``threshold_cm``. Unmatched labels count as false negatives,
    unmatched peaks as false positives.
    """
    peaks = np.asarray(peaks, dtype=np.int64).ravel()
    labels = np.asarray(label_indices, dtype=np.int64).ravel()
    vels = np.asarray(velocities, dtype=np.float64).ravel()
    if labels.size != vels.size:
        raise ValueError(f"{labels.size} labels vs {vels.size} velocities")

    err_cm = np.abs(peaks[None, :] - labels[:, None]) * vels[:, None] * 100.0
    li, pi = np.nonzero(err_cm <= threshold_cm)
    cand_err = err_cm[li, pi]
    order = np.lexsort((pi, li, cand_err))

    label_used = np.zeros(labels.size, dtype=bool)
    peak_used = np.zeros(peaks.size, dtype=bool)
    pairs: list[MatchedPair] = []
    for k in order:
        a, b = li[k], pi[k]
        if label_used[a] or peak_used[b]:
            continue
        label_used[a] = peak_used[b] = True
        pairs.append(MatchedPair(int(peaks[b]), float(cand_err[k])))
    tp = len(pairs)
    return MatchResult(tp=tp, fp=int(peaks.size - tp), fn=int(labels.size - tp), pairs=tuple(pairs))


def score_series(probs, label_indices, velocities, peak_cfg: PeakConfig = PeakConfig()):
    """Peaks of one probability series matched against a sensor's labelled
    crossings at SPATIAL_THRESHOLD_CM and at LABEL_ERROR_THRESHOLD_CM: the
    ``(at_200, at_37)`` pair of the series' ``(sensor_id, at_200, at_37)``
    result, as :func:`summarize` takes it."""
    peaks = pick_peaks(probs, peak_cfg)
    at_200 = match_axles(peaks, label_indices, velocities, SPATIAL_THRESHOLD_CM)
    return at_200, match_axles(peaks, label_indices, velocities, LABEL_ERROR_THRESHOLD_CM)


def f1(tp: int, fp: int, fn: int) -> float:
    """F1 score in percent.

    Defined as 100 when there is nothing to detect and nothing detected
    (tp == fp == fn == 0) and 0 whenever tp == 0 otherwise.
    """
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if tp == 0:
        return 100.0 if fp == 0 and fn == 0 else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall) * 100.0


def msa(mean_error_cm: float) -> float:
    """Mean spatial accuracy in percent: spatial error rescaled so that 0 cm
    maps to 100 and the 200 cm threshold maps to 0."""
    return (SPATIAL_THRESHOLD_CM - mean_error_cm) / 2.0


def harmonic_mean(msa_strat: float, msa_dgps: float, f1_strat: float, f1_dgps: float) -> float:
    """Harmonic mean of the two accuracy metrics across both scenarios.

    Punishes any single weak component: one near-zero input drags the whole
    score towards zero regardless of the others.
    """
    values = (msa_strat, msa_dgps, f1_strat, f1_dgps)
    if any(v <= 0 for v in values):
        raise ValueError(f"all inputs must be positive, got {values}")
    return 4.0 / sum(1.0 / v for v in values)


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate detection quality over a set of evaluated series; spatial
    error and MSA are None when no pair matched."""

    f1_200: float
    f1_37: float
    mean_spatial_error_cm: float | None
    msa: float | None
    per_sensor: dict[str, dict]

    def to_dict(self) -> dict:
        return asdict(self)


def _summary(results: list) -> dict:
    """Counts at 200 cm, F1 at 200 cm and 37 cm, mean spatial error and MSA
    over ``(sensor_id, at_200, at_37)`` results; the last two are None when
    no pair matched. The errors are averaged in the order of ``results``."""
    tp, fp, fn, tp_37, fp_37, fn_37 = (
        sum(getattr(r[i], k) for r in results) for i in (1, 2) for k in ("tp", "fp", "fn")
    )
    errors = [p.error_cm for _, at_200, _ in results for p in at_200.pairs]
    ds = float(np.mean(errors)) if errors else None
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "f1_200": f1(tp, fp, fn),
        "f1_37": f1(tp_37, fp_37, fn_37),
        "mean_spatial_error_cm": ds,
        "msa": None if ds is None else msa(ds),
    }


def summarize(results: list) -> MetricsReport:
    """The report over ``(sensor_id, at_200, at_37)`` match results, one per
    series: the totals, and each sensor's summary in sensor id order."""
    total = _summary(results)
    per_sensor = {sid: _summary([r for r in results if r[0] == sid]) for sid in sorted({r[0] for r in results})}
    return MetricsReport(total["f1_200"], total["f1_37"], total["mean_spatial_error_cm"], total["msa"], per_sensor)
