"""Training loop tests: batching, padding neutrality, schedule conformance,
best-weight restoration, determinism."""

import hashlib

import numpy as np
import pytest

from vader.data import Dataset
from vader.engine import LossConfig, checkpoint_bytes, focal_loss
from vader.errors import EmptyFold
from vader.model import VaderConfig, build_vader
from vader.planner import HyperParams, InputKind
from vader.simulate import DatasetConfig, generate_dataset
from vader.splits import stratified_split
from vader.training import (
    Sample,
    TrainSchedule,
    assemble_batch,
    build_samples,
    make_batches,
    train,
)


def _tiny_cfg(base=4):
    return VaderConfig(HyperParams(InputKind.RAW, 5, 2, 2, base_width=base))


def _sample(length, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.zeros(length, dtype=np.uint8)
    idx = np.sort(rng.choice(length, 3, replace=False))
    labels[idx] = 1
    return Sample(
        passage_id=f"p{seed}",
        sensor_id="s0",
        x=rng.normal(size=(1, 1, length)).astype(np.float32),
        labels=labels,
        label_idx=idx,
        velocities=np.full(3, 0.06),
    )


def test_batch_padding_and_mask():
    batch = assemble_batch([_sample(100, 0), _sample(120, 1)])
    assert batch.x.shape[-1] == 120
    assert batch.mask.sum() == 220
    assert batch.valid.tolist() == [100, 120]
    assert np.all(batch.x[0, ..., 100:] == 0)


def test_batch_size_one_never_pads():
    for n in (64, 96, 128):
        batch = assemble_batch([_sample(n)])
        assert batch.x.shape[-1] == n
        assert batch.mask.sum() == n


def test_make_batches_covers_all_samples_once():
    samples = [_sample(64, i) for i in range(10)]
    rng = np.random.default_rng(0)
    batches = list(make_batches(samples, 4, rng))
    assert [len(b.samples) for b in batches] == [4, 4, 2]
    seen = sorted(s.passage_id for b in batches for s in b.samples)
    assert seen == sorted(s.passage_id for s in samples)


def test_padded_batch_loss_equals_mean_of_individual_losses():
    net = build_vader(_tiny_cfg())
    net.init_params(4)
    samples = [_sample(100, 0), _sample(120, 1)]
    batch = assemble_batch(samples)
    y = net.forward(batch.x, batch.valid)
    loss_cfg = LossConfig()
    batch_loss, _ = focal_loss(y[:, 0, 0, :].astype(np.float64), batch.labels, loss_cfg, batch.mask)

    total = 0.0
    count = 0
    for s in samples:
        single = assemble_batch([s])
        ys = net.forward(single.x, single.valid)
        li, _ = focal_loss(ys[:, 0, 0, :].astype(np.float64), single.labels, loss_cfg, single.mask)
        n = s.labels.size
        total += li * n
        count += n
    assert abs(batch_loss - total / count) <= 1e-6


def test_padding_positions_get_zero_gradient():
    net = build_vader(_tiny_cfg())
    net.init_params(4)
    samples = [_sample(100, 0), _sample(120, 1)]
    batch = assemble_batch(samples)
    y, ctx = net.forward(batch.x, batch.valid, want_cache=True)
    _, dprobs = focal_loss(y[:, 0, 0, :].astype(np.float64), batch.labels, LossConfig(), batch.mask)
    dx = net.backward(ctx, dprobs[:, None, None, :].astype(np.float32))
    assert np.all(dx[0, ..., 100:] == 0.0)
    assert np.any(dx[0, ..., :100] != 0.0)


@pytest.fixture(scope="module")
def train_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = DatasetConfig(speed_range=(35.0, 55.0), spacing_range=(3.0, 6.0))
    dataset = generate_dataset(12, {3: 1.0}, root, seed=2, config=cfg)
    plan = stratified_split(dataset, test_fraction=1 / 6, seed=0)
    return dataset, plan


def _fast_schedule(**kw):
    defaults = dict(max_epochs=8, batch_size=4, initial_lr=0.001)
    defaults.update(kw)
    return TrainSchedule(**defaults)


def test_scripted_stagnation_schedule(train_setup):
    """One improving epoch, then flat: the learning rate drops by 0.3x after
    three flat epochs and training stops after six, restoring the weights of
    the best epoch (checkpoint hash equality)."""
    dataset, plan = train_setup
    scripted = [1.0] + [0.5] * 20
    snapshots = {}

    def monitor(epoch, network):
        snapshots[epoch] = checkpoint_bytes(network)
        return scripted[epoch]

    net, store, history = train(
        _tiny_cfg(), dataset, plan, fold=0, schedule=_fast_schedule(max_epochs=30), seed=5,
        monitor=monitor,
    )
    assert len(history.train_loss) == 7  # epochs 0..6; stops after 6 flat epochs
    assert history.learning_rate == [0.001] * 4 + [pytest.approx(0.0003)] * 3
    assert history.best_epoch == 0
    assert hashlib.sha256(checkpoint_bytes(net)).hexdigest() == hashlib.sha256(
        snapshots[0]
    ).hexdigest()


def test_lr_sequence_non_increasing_real_monitor(train_setup):
    dataset, plan = train_setup
    net, store, history = train(
        _tiny_cfg(), dataset, plan, fold=0, schedule=_fast_schedule(), seed=5
    )
    lrs = history.learning_rate
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert 0 <= history.best_epoch < len(history.val_f1)
    assert history.val_f1[history.best_epoch] == max(history.val_f1)


def test_training_is_deterministic(train_setup):
    dataset, plan = train_setup
    runs = []
    for _ in range(2):
        net, store, history = train(
            _tiny_cfg(), dataset, plan, fold=1, schedule=_fast_schedule(max_epochs=3), seed=9
        )
        runs.append((checkpoint_bytes(net, store, seed=9), history.to_csv()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_history_csv_shape(train_setup):
    dataset, plan = train_setup
    _, _, history = train(
        _tiny_cfg(), dataset, plan, fold=0, schedule=_fast_schedule(max_epochs=2), seed=1
    )
    lines = history.to_csv().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,val_f1,lr"
    assert len(lines) == 1 + len(history.train_loss)


def test_empty_fold_raises():
    with pytest.raises(EmptyFold):
        from vader.splits import Scenario, SplitPlan

        empty_plan = SplitPlan(
            scenario=Scenario.STRATIFIED,
            seed=0,
            test_ids=("a",),
            folds=((), (), (), (), ()),
        )
        train(_tiny_cfg(), Dataset(root="", passages=()), empty_plan, 0, _fast_schedule(), 0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        TrainSchedule(stop_patience=2, plateau_patience=3)
    with pytest.raises(ValueError):
        TrainSchedule(lr_factor=1.5)
    with pytest.raises(ValueError):
        TrainSchedule(max_epochs=0)


def test_build_samples_spectrogram(train_setup):
    dataset, plan = train_setup
    ids = plan.fold_val_ids(0)[:1]
    samples = build_samples(dataset, ids, InputKind.SPECTROGRAM)
    assert samples[0].x.shape[0] == 6
    assert samples[0].x.shape[1] == 16
    assert samples[0].labels.sum() == 3
