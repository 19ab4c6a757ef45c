"""Train/validation/test split construction with 5-fold cross-validation.

Two scenarios are supported:

* stratified — a holdout test set drawn proportionally from every
  axle-count stratum, the remainder dealt into five folds that are each
  stratified as well (within one passage per stratum);
* axle-count holdout ("dgps") — the folds cover exactly the passages with
  the most common axle count and everything else goes to the test set,
  which probes generalisation to unseen train types.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, json_list, json_value
from .errors import InvalidConfig, UnknownId, ValidationError

N_FOLDS = 5
#: Default holdout fraction for the stratified scenario.
DEFAULT_TEST_FRACTION = 1.0 / 6.0
#: Strata smaller than this are merged into the nearest axle-count stratum
#: (five folds plus a test share need at least six representatives).
MIN_STRATUM_SIZE = 6


class Scenario(enum.Enum):
    STRATIFIED = "stratified"
    DGPS = "dgps"


@dataclass(frozen=True)
class SplitPlan:
    """Deterministic assignment of passage ids to a test set and five folds."""

    scenario: Scenario
    seed: int
    test_ids: tuple[str, ...]
    folds: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.folds) != N_FOLDS:
            raise ValidationError(f"split plan has {len(self.folds)} folds, expected {N_FOLDS}")
        seen: set[str] = set()
        for pid in itertools.chain(self.test_ids, *self.folds):
            if pid in seen:
                raise ValidationError(f"split plan lists passage {pid!r} more than once")
            seen.add(pid)

    def fold_val_ids(self, fold: int) -> tuple[str, ...]:
        if not 0 <= fold < N_FOLDS:
            raise UnknownId(f"fold {fold} outside 0..{N_FOLDS - 1}")
        return self.folds[fold]

    def fold_train_ids(self, fold: int) -> tuple[str, ...]:
        self.fold_val_ids(fold)  # range check
        ids: list[str] = []
        for i, f in enumerate(self.folds):
            if i != fold:
                ids.extend(f)
        return tuple(sorted(ids))

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario.value,
            "seed": self.seed,
            "test": list(self.test_ids),
            "folds": [list(f) for f in self.folds],
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SplitPlan":
        """Parse :meth:`to_json` output; anything else raises ValidationError."""
        try:
            payload = json.loads(text)
            return SplitPlan(
                scenario=Scenario(payload["scenario"]),
                seed=json_value(payload["seed"], (int,), "seed"),
                test_ids=tuple(json_list(payload["test"], (str,), "test ids")),
                folds=tuple(tuple(json_list(f, (str,), "fold ids")) for f in payload["folds"]),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ValidationError(f"not a split plan: {exc!r}") from None


def _strata(index: dict[str, int]) -> dict[int, list[str]]:
    strata: dict[int, list[str]] = {}
    for pid in sorted(index):
        strata.setdefault(index[pid], []).append(pid)
    return strata


def _merge_small_strata(strata: dict[int, list[str]]) -> dict[int, list[str]]:
    """Fold strata below MIN_STRATUM_SIZE into their nearest axle count."""
    merged = {k: list(v) for k, v in strata.items()}
    while len(merged) > 1:
        small = [k for k in merged if len(merged[k]) < MIN_STRATUM_SIZE]
        if not small:
            break
        k = min(small, key=lambda c: (len(merged[c]), c))
        others = [c for c in merged if c != k]
        dest = min(others, key=lambda c: (abs(c - k), c))
        merged[dest] = sorted(merged[dest] + merged[k])
        del merged[k]
    return merged


def _deal_into_folds(ids: list[str], start: int) -> list[list[str]]:
    folds: list[list[str]] = [[] for _ in range(N_FOLDS)]
    for i, pid in enumerate(ids):
        folds[(start + i) % N_FOLDS].append(pid)
    return folds


def stratified_split(dataset: Dataset, test_fraction: float = DEFAULT_TEST_FRACTION, seed: int = 0) -> SplitPlan:
    """Proportional holdout per axle-count stratum plus five stratified folds.

    The test set size is ``round(N * test_fraction)`` overall, apportioned to
    strata by largest remainder so every stratum stays within one passage of
    proportionality.
    """
    index = dataset.axle_count_index()
    if not index:
        raise ValidationError("cannot split an empty dataset")
    if not 0.0 < test_fraction < 1.0:
        raise InvalidConfig(f"test_fraction must be in (0, 1), got {test_fraction}")

    strata = _merge_small_strata(_strata(index))
    keys = sorted(strata)
    rng = np.random.Generator(np.random.PCG64(seed))

    n_total = len(index)
    n_test = round(n_total * test_fraction)
    ideals = {k: len(strata[k]) * test_fraction for k in keys}
    base = {k: min(math.floor(ideals[k]), len(strata[k])) for k in keys}
    leftover = n_test - sum(base.values())
    by_remainder = sorted(keys, key=lambda k: (-(ideals[k] - base[k]), k))
    for k in by_remainder:
        if leftover <= 0:
            break
        if base[k] < len(strata[k]):
            base[k] += 1
            leftover -= 1

    test_ids: list[str] = []
    folds: list[list[str]] = [[] for _ in range(N_FOLDS)]
    for si, k in enumerate(keys):
        members = list(strata[k])
        order = rng.permutation(len(members))
        shuffled = [members[i] for i in order]
        test_ids.extend(shuffled[: base[k]])
        rest = shuffled[base[k]:]
        for fi, chunk in enumerate(_deal_into_folds(rest, start=si % N_FOLDS)):
            folds[fi].extend(chunk)

    return SplitPlan(
        scenario=Scenario.STRATIFIED,
        seed=seed,
        test_ids=tuple(sorted(test_ids)),
        folds=tuple(tuple(sorted(f)) for f in folds),
    )


def dgps_split(dataset: Dataset, seed: int = 0, modal_axles: int | None = None) -> SplitPlan:
    """Folds over the modal axle count; every other passage goes to test.

    A tie for the most common axle count raises ValidationError unless a
    ``modal_axles`` override picks the winner explicitly.
    """
    index = dataset.axle_count_index()
    if not index:
        raise ValidationError("cannot split an empty dataset")
    strata = _strata(index)
    if len(strata) < 2:
        raise ValidationError("axle-count holdout needs at least two distinct axle counts")

    if modal_axles is None:
        best = max(len(v) for v in strata.values())
        candidates = sorted(k for k, v in strata.items() if len(v) == best)
        if len(candidates) > 1:
            raise ValidationError(
                f"axle counts {candidates} share the maximum frequency {best}; pass an explicit modal count"
            )
        modal_axles = candidates[0]
    elif modal_axles not in strata:
        raise ValidationError(f"no passages with axle count {modal_axles}")

    rng = np.random.Generator(np.random.PCG64(seed))
    members = list(strata[modal_axles])
    order = rng.permutation(len(members))
    shuffled = [members[i] for i in order]
    folds = _deal_into_folds(shuffled, start=0)
    test_ids = sorted(pid for pid, count in index.items() if count != modal_axles)

    return SplitPlan(
        scenario=Scenario.DGPS,
        seed=seed,
        test_ids=tuple(test_ids),
        folds=tuple(tuple(sorted(f)) for f in folds),
    )
