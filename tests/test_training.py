"""Training loop tests: batching, padding neutrality, schedule conformance,
best-weight restoration, determinism."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vader import model, training
from vader.data import Dataset
from vader.engine import LossConfig, checkpoint_bytes, focal_loss
from vader.errors import InvalidConfig, ValidationError
from vader.model import VaderConfig, build_vader
from vader.planner import HyperParams, InputKind
from vader.simulate import DatasetConfig, generate_dataset
from vader.splits import stratified_split
from vader.training import (
    PASS_SAMPLES,
    Plateau,
    Sample,
    TrainSchedule,
    assemble_batch,
    build_samples,
    evaluate_samples,
    make_batches,
    step_gradient,
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
    steps = list(make_batches(samples, 4, rng))
    assert [sum(len(b.samples) for b in parts) for parts in steps] == [4, 4, 2]
    seen = sorted(s.passage_id for parts in steps for b in parts for s in b.samples)
    assert seen == sorted(s.passage_id for s in samples)


def test_micro_batches_sorted_and_within_budget():
    """Longest first, equal lengths in shuffled order, at most PASS_SAMPLES
    padded samples per micro-batch, and a longer sample alone."""
    lengths = [PASS_SAMPLES + 100, 3000, 3000, 3000, 2000, 1000, 1000, 500]
    samples = [_sample(n, i) for i, n in enumerate(lengths)]
    order = np.random.default_rng(3).permutation(len(samples))
    (parts,) = make_batches(samples, len(samples), np.random.default_rng(3))
    flat = [s.passage_id for b in parts for s in b.samples]
    shuffled = sorted((samples[i] for i in order), key=lambda s: -s.x.shape[-1])
    assert flat == [s.passage_id for s in shuffled]
    assert [b.x.shape[-1] for b in parts] == [PASS_SAMPLES + 100, 3000, 3000, 1000]
    assert [len(b.samples) for b in parts] == [1, 2, 2, 3]
    for b in parts:
        assert b.x.shape[0] * b.x.shape[-1] <= PASS_SAMPLES or b.x.shape[0] == 1


def test_micro_batch_step_equals_padded_batch_gradient():
    """One step over length-sorted micro-batches gives the parameter
    gradients and loss sum of the same samples as one padded batch."""
    net = build_vader(_tiny_cfg(), dtype=np.float64)
    net.init_params(4)
    samples = [_sample(n, i) for i, n in enumerate([700, 3000, 1800, 2500, 600, 2000])]
    loss_cfg = LossConfig()

    (parts,) = make_batches(samples, len(samples), np.random.default_rng(0))
    assert len(parts) >= 2
    loss_sum, count = step_gradient(net, parts)
    grads = [p.grad.copy() for p in net.params()]

    batch = assemble_batch(samples)
    y, ctx = net.forward(batch.x, batch.valid, want_cache=True)
    loss, dprobs = focal_loss(y[:, 0, 0, :], batch.labels, loss_cfg, batch.mask)
    net.zero_grads()
    net.backward(ctx, dprobs[:, None, None, :])

    assert count == batch.mask.sum()
    assert loss_sum == pytest.approx(loss * count, rel=1e-10)
    scale = max(np.abs(p.grad).max() for p in net.params())
    for g, p in zip(grads, net.params()):
        assert np.abs(g - p.grad).max() <= 1e-10 * scale, p.name


def _traced_peak(fn, *args) -> int:
    """The most memory ``fn(*args)`` allocated at once, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_holds_one_micro_batch_at_a_time():
    """A step over several micro-batches peaks no higher than its longest
    micro-batch alone, up to a slack of a tenth of that: backward releases
    the caches it has used, and nothing of one micro-batch stays alive while
    the next one runs. Holding one micro-batch's caches through the next
    forward takes about half as much again."""
    net = build_vader(_tiny_cfg())
    net.init_params(4)
    samples = [_sample(2000 - 10 * i, i) for i in range(12)]
    (parts,) = make_batches(samples, len(samples), np.random.default_rng(0))
    assert len(parts) >= 3 and parts[0].x.shape[-1] == 2000
    step_gradient(net, parts)  # first calls allocate nothing later ones do not
    alone = _traced_peak(step_gradient, net, parts[:1])
    whole = _traced_peak(step_gradient, net, parts)
    assert whole <= 1.1 * alone, (whole, alone)


def test_backward_consumes_its_context():
    """A second backward on one forward context is refused before it
    changes any gradient."""
    net = build_vader(_tiny_cfg())
    net.init_params(4)
    batch = assemble_batch([_sample(100, 0), _sample(120, 1)])
    y, ctx = net.forward(batch.x, batch.valid, want_cache=True)
    _, dprobs = focal_loss(y[:, 0, 0, :], batch.labels, LossConfig(), batch.mask)
    net.backward(ctx, dprobs[:, None, None, :])
    grads = [p.grad.copy() for p in net.params()]
    assert any(np.any(g != 0) for g in grads)
    with pytest.raises(ValueError, match="context already consumed"):
        net.backward(ctx, dprobs[:, None, None, :])
    assert all(np.array_equal(g, p.grad) for g, p in zip(grads, net.params()))


def _holds_gradients(net) -> bool:
    """Whether any parameter has allocated its gradient buffer; reading
    ``grad`` would allocate it."""
    return any(p._grad is not None for p in net.params())


def test_first_backward_needs_no_zeroing():
    """A network builds no gradient buffer; its first backward, without
    ``zero_grads``, gives exactly the gradients it gives after
    ``zero_grads``, in the network's dtype."""
    net = build_vader(_tiny_cfg())
    net.init_params(4)
    assert not _holds_gradients(net)
    batch = assemble_batch([_sample(100, 0), _sample(120, 1)])
    grads = []
    for zeroed in (False, True):
        if zeroed:
            net.zero_grads()
        y, ctx = net.forward(batch.x, batch.valid, want_cache=True)
        _, dprobs = focal_loss(y[:, 0, 0, :], batch.labels, LossConfig(), batch.mask)
        net.backward(ctx, dprobs[:, None, None, :])
        grads.append([p.grad.copy() for p in net.params()])
    assert {g.dtype for g in grads[0]} == {np.dtype(net.dtype)}
    assert any(np.any(g != 0) for g in grads[0])
    assert all(np.array_equal(a, b) for a, b in zip(*grads))


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


#: One improving epoch, then flat, under ``_fast_schedule(max_epochs=30)``
#: (plateau 3, stop 6, factor 0.3): the learning rate drops by 0.3x after
#: three flat epochs and training stops after six.
STAGNATION = ([1.0] + [0.5] * 20, [0.001] * 4 + [0.0003] * 3, 0)


def _scripted_validation(monkeypatch, scores):
    """Make each epoch's validation F1 the next of ``scores``; returns the
    list that collects the network's checkpoint bytes at each validation."""
    snapshots = []
    real = training.evaluate_samples

    def scripted(network, samples, *args):
        loss, report = real(network, samples, *args)
        snapshots.append(checkpoint_bytes(network))
        return loss, dataclasses.replace(report, f1_200=scores[len(snapshots) - 1])

    monkeypatch.setattr(training, "evaluate_samples", scripted)
    return snapshots


def _drive(plateau, scores):
    """Step ``plateau`` through ``scores`` until it stops; returns the
    learning rate each epoch ran at, the best epochs and the stop epoch
    (None if the scores ran out first)."""
    lrs, best = [], []
    for epoch, score in enumerate(scores):
        lrs.append(plateau.lr)
        is_best, stop = plateau.step(score)
        if is_best:
            best.append(epoch)
        if stop:
            return lrs, best, epoch
    return lrs, best, None


def test_scripted_stagnation_schedule(train_setup, monkeypatch):
    """The stagnation trace, end to end: seven epochs at the scripted
    learning rates, and the returned network carries the weights of the
    best epoch (checkpoint hash equality)."""
    dataset, plan = train_setup
    scores, lrs, best_epoch = STAGNATION
    snapshots = _scripted_validation(monkeypatch, scores)
    net, store, history = train(
        _tiny_cfg(), dataset, plan, fold=0, schedule=_fast_schedule(max_epochs=30), seed=5
    )
    assert len(history.train_loss) == len(snapshots) == 7  # epochs 0..6; stops after 6 flat epochs
    assert history.learning_rate == [pytest.approx(lr) for lr in lrs]
    assert history.val_f1 == scores[:7]
    assert history.best_epoch == best_epoch
    assert hashlib.sha256(checkpoint_bytes(net)).hexdigest() == hashlib.sha256(
        snapshots[best_epoch]
    ).hexdigest()


@pytest.mark.parametrize(
    "schedule, scores, lrs, best, stop",
    [
        (_fast_schedule(max_epochs=30), STAGNATION[0], STAGNATION[1], [0], 6),
        # a tie is not best; improving after a decay keeps the decayed rate
        (
            _fast_schedule(plateau_patience=1, stop_patience=2),
            [15.2, 15.2, 15.3, 15.1, 15.1, 99.0],
            [0.001, 0.001, 0.0003, 0.0003, 0.00009],
            [0, 2],
            4,
        ),
    ],
    ids=["stagnation", "short-patience"],
)
def test_plateau_scripted_trace(schedule, scores, lrs, best, stop):
    """The schedule's policy alone, with no network: the learning rate of
    each epoch, the best epochs and the stop epoch of a scripted score
    sequence."""
    got_lrs, got_best, got_stop = _drive(Plateau(schedule), scores)
    assert got_lrs == [pytest.approx(lr) for lr in lrs]
    assert (got_best, got_stop) == (best, stop)


@st.composite
def _schedules(draw):
    plateau = draw(st.integers(1, 5))
    return TrainSchedule(
        initial_lr=draw(st.floats(1e-6, 1.0)),
        lr_factor=draw(st.floats(0.01, 0.99)),
        plateau_patience=plateau,
        stop_patience=draw(st.integers(plateau, 12)),
    )


@settings(database=None, deadline=None, max_examples=300)
@given(schedule=_schedules(), scores=st.lists(st.integers(0, 6).map(float), max_size=40))
def test_plateau_properties(schedule, scores):
    """Over any score sequence: best epochs are exactly the strict running
    maxima (a tie is not best); training stops exactly ``stop_patience``
    epochs after the last of them; the learning rate never rises, each
    change is one factor of ``lr_factor``, and the stopping step changes
    nothing."""
    plateau = Plateau(schedule)
    running, last_best = -np.inf, None
    for epoch, score in enumerate(scores):
        lr = plateau.lr
        is_best, stop = plateau.step(score)
        assert is_best == (score > running)
        if is_best:
            running, last_best = score, epoch
        assert stop == (epoch - last_best == schedule.stop_patience)
        assert plateau.lr in (lr, lr * schedule.lr_factor)  # lr_factor < 1: never a rise
        if stop:
            assert plateau.lr == lr
            break


def test_best_weights_restored_on_the_real_score(train_setup):
    """With short patience, training stops past its best epoch, and the
    returned network scores that epoch's validation F1 exactly."""
    dataset, plan = train_setup
    net, store, history = train(
        _tiny_cfg(), dataset, plan, fold=0,
        schedule=_fast_schedule(plateau_patience=1, stop_patience=2), seed=5,
    )
    assert history.best_epoch < len(history.val_f1) - 1
    samples = build_samples(dataset, plan.fold_val_ids(0), InputKind.RAW)
    assert evaluate_samples(net, samples)[1].f1_200 == history.val_f1[history.best_epoch]


def test_trained_network_holds_no_gradients(train_setup):
    """``train`` returns its network without the gradient buffers its steps
    used: the detector it hands on holds only its weights."""
    dataset, plan = train_setup
    net, _, _ = train(_tiny_cfg(), dataset, plan, fold=0, schedule=_fast_schedule(max_epochs=1), seed=5)
    assert not _holds_gradients(net)


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
    with pytest.raises(ValidationError, match="fold 0: 0 train / 0 val passages"):
        from vader.splits import Scenario, SplitPlan

        empty_plan = SplitPlan(
            scenario=Scenario.STRATIFIED,
            seed=0,
            test_ids=("a",),
            folds=((), (), (), (), ()),
        )
        train(_tiny_cfg(), Dataset(root="", passages=()), empty_plan, 0, _fast_schedule(), 0)


def test_invalid_hyperparams_refused_before_any_transform(train_setup, monkeypatch):
    """An even kernel is refused before a single series is wavelet-transformed."""
    dataset, plan = train_setup

    def transform(*_args, **_kw):
        raise AssertionError("spectrogram_stack called before the network was built")

    monkeypatch.setattr(model, "spectrogram_stack", transform)
    cfg = VaderConfig(HyperParams(InputKind.SPECTROGRAM, 4, 2, 2, base_width=4))
    with pytest.raises(InvalidConfig, match="kernel_size 4 must be odd and exceed pool_size 2"):
        train(cfg, dataset, plan, fold=0, schedule=_fast_schedule(), seed=0)


def test_schedule_validation():
    with pytest.raises(InvalidConfig, match="stop_patience must be >= plateau_patience"):
        TrainSchedule(stop_patience=2, plateau_patience=3)
    with pytest.raises(InvalidConfig, match="need 0 < lr_factor < 1"):
        TrainSchedule(lr_factor=1.5)
    with pytest.raises(InvalidConfig, match="schedule counts must be positive"):
        TrainSchedule(max_epochs=0)


def test_build_samples_spectrogram(train_setup):
    dataset, plan = train_setup
    ids = plan.fold_val_ids(0)[:1]
    samples = build_samples(dataset, ids, InputKind.SPECTROGRAM)
    assert samples[0].x.shape[0] == 6
    assert samples[0].x.shape[1] == 16
    assert samples[0].labels.sum() == 3
