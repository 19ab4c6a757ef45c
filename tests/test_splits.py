"""Split construction: stratification, holdout cardinalities, determinism."""

import pytest

from vader.data import Dataset, Passage
from vader.errors import DataError, UnknownId, ValidationError
from vader.splits import (
    N_FOLDS,
    Scenario,
    SplitPlan,
    dgps_split,
    stratified_split,
)


def _dataset(spec: dict[int, int]) -> Dataset:
    """{axle_count: n_passages} -> a Dataset of sensorless passages p00000, ...
    with those axle counts."""
    counts = [count for count, n in sorted(spec.items()) for _ in range(n)]
    passages = (Passage(f"p{i:05d}", (), {}, count) for i, count in enumerate(counts))
    return Dataset(root="", passages=tuple(passages))


def test_stratified_two_even_strata():
    dataset = _dataset({4: 30, 8: 30})
    index = dataset.axle_count_index()
    plan = stratified_split(dataset, test_fraction=1 / 6, seed=0)
    by_count = lambda ids: {c: sum(1 for p in ids if index[p] == c) for c in (4, 8)}
    assert by_count(plan.test_ids) == {4: 5, 8: 5}
    for fold in plan.folds:
        assert by_count(fold) == {4: 5, 8: 5}


def test_stratified_deterministic():
    dataset = _dataset({4: 30, 8: 30, 12: 18})
    assert stratified_split(dataset, 1 / 6, seed=3) == stratified_split(dataset, 1 / 6, seed=3)
    assert stratified_split(dataset, 1 / 6, seed=3) != stratified_split(dataset, 1 / 6, seed=4)


def test_stratified_partition_and_proportionality():
    dataset = _dataset({4: 41, 8: 23, 12: 64, 16: 9})
    index = dataset.axle_count_index()
    plan = stratified_split(dataset, test_fraction=1 / 6, seed=1)
    all_ids = set(plan.test_ids)
    for fold in plan.folds:
        assert all_ids.isdisjoint(fold)
        all_ids |= set(fold)
    assert all_ids == set(index)
    # per-stratum test share within one passage of proportional
    for count in (4, 8, 12, 16):
        members = [p for p in index if index[p] == count]
        got = sum(1 for p in plan.test_ids if index[p] == count)
        assert abs(got - len(members) / 6) <= 1.0
    # folds near equal
    sizes = [len(f) for f in plan.folds]
    assert max(sizes) - min(sizes) <= len([4, 8, 12, 16])  # one per stratum at worst


def test_stratified_small_strata_merged():
    dataset = _dataset({4: 30, 5: 2})  # the 2-member stratum merges into 4
    index = dataset.axle_count_index()
    plan = stratified_split(dataset, 1 / 6, seed=0)
    assert set(plan.test_ids).union(*plan.folds) == set(index)


def test_stratified_real_scale_holdout():
    # histogram loosely shaped like a railway mix; total 3733
    spec = {8: 300, 12: 260, 16: 420, 20: 180, 24: 330, 28: 210, 32: 760,
            36: 240, 40: 120, 44: 98, 48: 340, 52: 130, 56: 85, 60: 160, 64: 100}
    dataset = _dataset(spec)
    index = dataset.axle_count_index()
    assert len(index) == 3733
    plan = stratified_split(dataset, test_fraction=1 / 6, seed=0)
    assert abs(len(plan.test_ids) - 623) <= 2
    assert len(plan.test_ids) + sum(map(len, plan.folds)) == 3733


def test_stratified_empty():
    with pytest.raises(ValidationError, match="cannot split an empty dataset"):
        stratified_split(_dataset({}), 1 / 6, 0)


def test_stratified_seed_changes_membership_not_counts():
    dataset = _dataset({4: 60, 8: 36})
    a = stratified_split(dataset, 1 / 6, seed=0)
    b = stratified_split(dataset, 1 / 6, seed=99)
    assert a.test_ids != b.test_ids
    assert len(a.test_ids) == len(b.test_ids)
    assert sorted(map(len, a.folds)) == sorted(map(len, b.folds))


def test_dgps_example():
    dataset = _dataset({32: 10, 16: 4, 48: 2})
    index = dataset.axle_count_index()
    plan = dgps_split(dataset, seed=0)
    fold_ids = [pid for fold in plan.folds for pid in fold]
    assert all(index[p] == 32 for p in fold_ids)
    assert len(fold_ids) == 10
    assert len(plan.test_ids) == 6
    assert all(index[p] != 32 for p in plan.test_ids)


def test_dgps_real_scale():
    dataset = _dataset({32: 1916, 16: 700, 48: 600, 64: 517})
    plan = dgps_split(dataset, seed=5)
    assert sum(len(f) for f in plan.folds) == 1916
    assert len(plan.test_ids) == 1817


def test_dgps_tie_raises_and_override():
    dataset = _dataset({16: 5, 32: 5, 48: 2})
    with pytest.raises(ValidationError, match=r"axle counts \[16, 32\] share the maximum frequency 5"):
        dgps_split(dataset, seed=0)
    plan = dgps_split(dataset, seed=0, modal_axles=16)
    assert sum(len(f) for f in plan.folds) == 5
    assert len(plan.test_ids) == 7


def test_dgps_empty():
    with pytest.raises(ValidationError, match="cannot split an empty dataset"):
        dgps_split(_dataset({}), seed=0)


def test_dgps_single_class():
    with pytest.raises(ValidationError, match="axle-count holdout needs at least two distinct axle counts"):
        dgps_split(_dataset({8: 12}), seed=0)


def test_split_plan_json_round_trip():
    dataset = _dataset({4: 30, 8: 30})
    plan = stratified_split(dataset, 1 / 6, seed=0)
    again = SplitPlan.from_json(plan.to_json())
    assert again == plan
    assert again.scenario is Scenario.STRATIFIED


def test_fold_train_val_disjoint():
    dataset = _dataset({4: 30, 8: 30})
    plan = stratified_split(dataset, 1 / 6, seed=0)
    for fold in range(5):
        train = set(plan.fold_train_ids(fold))
        val = set(plan.fold_val_ids(fold))
        assert train.isdisjoint(val)
        assert train | val == set().union(*plan.folds)


def test_split_works_on_dataset_object(small_dataset):
    plan = stratified_split(small_dataset, 1 / 6, seed=0)
    assert len(plan.test_ids) + sum(map(len, plan.folds)) == len(small_dataset)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"scenario": "stratified", "seed": 0, "test": []}',
        '{"scenario": "random", "seed": 0, "test": [], "folds": [[], [], [], [], []]}',
        '{"scenario": "stratified", "seed": 0, "test": [], "folds": [[], [], []]}',
        '{"scenario": "stratified", "seed": 0, "test": ["a"], "folds": [["a"], [], [], [], []]}',
        '{"scenario": "stratified", "seed": 0, "test": [], "folds": 7}',
        '{"scenario": "stratified", "seed": 0, "test": "abc", "folds": [[], [], [], [], []]}',
        '{"scenario": "stratified", "seed": 0, "test": [], "folds": [["a", 1], [], [], [], []]}',
        '{"scenario": "stratified", "seed": Infinity, "test": [], "folds": [[], [], [], [], []]}',
        '{"scenario": "stratified", "seed": true, "test": [], "folds": [[], [], [], [], []]}',
        '{"scenario": "stratified", "seed": 1.5, "test": [], "folds": [[], [], [], [], []]}',
        '{"scenario": "stratified", "seed": "1", "test": [], "folds": [[], [], [], [], []]}',
    ],
    ids=[
        "not_json", "not_object", "no_folds", "bad_scenario", "three_folds", "overlap", "folds_int",
        "test_text", "int_id", "seed_inf", "seed_bool", "seed_float", "seed_text",
    ],
)
def test_split_plan_from_json_rejects_malformed(text):
    with pytest.raises(ValidationError):
        SplitPlan.from_json(text)


def test_split_plan_checks_without_assert():
    # raised explicitly, so the check survives python -O
    with pytest.raises(ValidationError):
        SplitPlan(Scenario.STRATIFIED, 0, (), ((),) * (N_FOLDS - 1))


@pytest.mark.parametrize(
    "test_ids, folds",
    [
        (("a", "b", "a"), (("c",), (), (), (), ())),
        (("b",), (("a", "c", "a"), (), (), (), ())),
        (("b",), (("a",), ("c", "a"), (), (), ())),
        (("a",), (("a",), (), (), (), ())),
    ],
    ids=["in_test", "in_one_fold", "in_two_folds", "in_test_and_fold"],
)
def test_split_plan_refuses_a_repeated_passage(test_ids, folds):
    with pytest.raises(ValidationError, match="split plan lists passage 'a' more than once"):
        SplitPlan(Scenario.STRATIFIED, 0, test_ids, folds)


@pytest.mark.parametrize("fold", [-1, N_FOLDS, 7])
def test_fold_outside_range_is_typed(fold):
    plan = stratified_split(_dataset({4: 30, 8: 30}), 1 / 6, seed=0)
    for method in (plan.fold_val_ids, plan.fold_train_ids):
        with pytest.raises(UnknownId) as info:
            method(fold)
        assert isinstance(info.value, DataError)
