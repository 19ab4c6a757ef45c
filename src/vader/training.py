"""Training loop: focal loss, Adam, plateau LR decay, early stopping on
validation F1, best-weight restoration.

Every (passage, sensor) pair is one training example. Within a batch,
shorter signals are zero-padded to the batch maximum and excluded from both
the loss and all normalisation statistics, so a padded batch yields exactly
the per-sample results. The network casts batches to its dtype and pads
them to its pooling multiple itself.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, build_label_vector, label_indices
from .engine import LossConfig, ParamStore, adam_step, focal_loss
from .errors import EmptyFold
from .metrics import MetricsAccumulator, PeakConfig, score_series
from .model import VaderConfig, build_vader, network_input
from .planner import InputKind
from .splits import SplitPlan


@dataclass(frozen=True)
class TrainSchedule:
    """The training protocol's knobs."""

    max_epochs: int = 300
    batch_size: int = 16
    initial_lr: float = 0.001
    plateau_patience: int = 3
    lr_factor: float = 0.3
    stop_patience: int = 6

    def __post_init__(self):
        if min(self.max_epochs, self.batch_size, self.plateau_patience, self.stop_patience) < 1:
            raise ValueError("schedule counts must be positive")
        if not 0.0 < self.lr_factor < 1.0 or self.initial_lr <= 0:
            raise ValueError("need 0 < lr_factor < 1 and initial_lr > 0")
        if self.stop_patience < self.plateau_patience:
            raise ValueError("stop_patience must be >= plateau_patience")


@dataclass
class History:
    """Per-epoch training record."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_f1: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("epoch,train_loss,val_loss,val_f1,lr\n")
        for e in range(len(self.train_loss)):
            out.write(
                f"{e},{self.train_loss[e]!r},{self.val_loss[e]!r},"
                f"{self.val_f1[e]!r},{self.learning_rate[e]!r}\n"
            )
        return out.getvalue()


@dataclass(frozen=True)
class Sample:
    """One training example: a single sensor of a single passage."""

    passage_id: str
    sensor_id: str
    x: np.ndarray  # (C, F, T)
    labels: np.ndarray  # (T,) uint8
    label_idx: np.ndarray
    velocities: np.ndarray


def build_samples(dataset: Dataset, ids, input_kind: InputKind) -> list[Sample]:
    """Materialise the (passage, sensor) examples for the given passage ids."""
    samples = []
    for pid in sorted(ids):
        passage = dataset.by_id(pid)
        for ch in passage.channels:
            bits = build_label_vector(
                [a.crossing_time for a in passage.axles[ch.sensor_id]],
                ch.sample_rate,
                ch.n_samples,
            )
            samples.append(
                Sample(
                    passage_id=pid,
                    sensor_id=ch.sensor_id,
                    x=network_input(ch, input_kind)[0],
                    labels=bits,
                    label_idx=label_indices(passage, ch.sensor_id),
                    velocities=np.asarray(
                        [a.velocity for a in passage.axles[ch.sensor_id]], dtype=np.float64
                    ),
                )
            )
    return samples


@dataclass
class Batch:
    x: np.ndarray  # (N, C, F, T) padded
    labels: np.ndarray  # (N, T)
    valid: np.ndarray  # (N,)
    mask: np.ndarray  # (N, T) float, 1 on valid samples
    samples: list[Sample]


def assemble_batch(samples: list[Sample]) -> Batch:
    """Zero-pad a list of samples to the longest of them, keeping their
    dtype; the mask marks real positions."""
    lengths = [s.x.shape[-1] for s in samples]
    t_max = max(lengths)
    n = len(samples)
    c, f = samples[0].x.shape[0], samples[0].x.shape[1]
    x = np.zeros((n, c, f, t_max), dtype=samples[0].x.dtype)
    labels = np.zeros((n, t_max), dtype=np.float64)
    mask = np.zeros((n, t_max), dtype=np.float64)
    for i, s in enumerate(samples):
        t = lengths[i]
        x[i, ..., :t] = s.x
        labels[i, :t] = s.labels
        mask[i, :t] = 1.0
    return Batch(x=x, labels=labels, valid=np.asarray(lengths, dtype=np.int64), mask=mask, samples=samples)


def make_batches(samples: list[Sample], batch_size: int, rng):
    """One epoch of shuffled, padded batches."""
    order = rng.permutation(len(samples))
    for start in range(0, len(samples), batch_size):
        chosen = [samples[i] for i in order[start : start + batch_size]]
        yield assemble_batch(chosen)


def evaluate_samples(network, samples, loss_cfg: LossConfig, peak_cfg=PeakConfig()):
    """Mean loss and matched-detection F1 at 200 cm over a list of samples."""
    total_loss = 0.0
    total_count = 0
    acc = MetricsAccumulator()
    for s in samples:
        probs = network.forward(s.x[None, ...])[0, 0, 0]
        loss, _ = focal_loss(probs, s.labels, loss_cfg)
        total_loss += loss * s.labels.size
        total_count += s.labels.size
        acc.add(s.sensor_id, *score_series(probs, s.label_idx, s.velocities, peak_cfg))
    return total_loss / max(total_count, 1), acc.report().f1_200


def train(
    cfg: VaderConfig,
    dataset: Dataset,
    plan: SplitPlan,
    fold: int,
    schedule: TrainSchedule = TrainSchedule(),
    seed: int = 0,
    loss_cfg: LossConfig = LossConfig(),
    monitor=None,
    log=None,
):
    """Train one fold; returns ``(network, store, history)``.

    The monitored score is validation F1 at 200 cm (a custom
    ``monitor(epoch, network) -> float`` can replace it). After
    ``plateau_patience`` epochs without strict improvement the learning rate
    is multiplied by ``lr_factor``; after ``stop_patience`` epochs training
    stops. The returned network carries the weights of the best epoch.
    """
    train_ids = plan.fold_train_ids(fold)
    val_ids = plan.fold_val_ids(fold)
    if not train_ids or not val_ids:
        raise EmptyFold(f"fold {fold}: {len(train_ids)} train / {len(val_ids)} val passages")

    train_samples = build_samples(dataset, train_ids, cfg.hyper.input_kind)
    val_samples = build_samples(dataset, val_ids, cfg.hyper.input_kind)
    if not train_samples or not val_samples:
        raise EmptyFold(f"fold {fold} supplies no usable samples")

    network = build_vader(cfg)
    network.init_params(seed)
    store = ParamStore(network.params())
    rng = np.random.Generator(np.random.PCG64(seed))

    history = History()
    best_score = -np.inf
    best_params: list[np.ndarray] = []
    lr = schedule.initial_lr
    lr_wait = 0
    stop_wait = 0

    for epoch in range(schedule.max_epochs):
        loss_sum = 0.0
        count_sum = 0
        for batch in make_batches(train_samples, schedule.batch_size, rng):
            y, ctx = network.forward(batch.x, batch.valid, want_cache=True)
            loss, dprobs = focal_loss(y[:, 0, 0, :], batch.labels, loss_cfg, batch.mask)
            network.zero_grads()
            network.backward(ctx, dprobs[:, None, None, :])
            adam_step(store, lr)
            n_valid = batch.mask.sum()
            loss_sum += loss * n_valid
            count_sum += n_valid

        val_loss, val_f1 = evaluate_samples(network, val_samples, loss_cfg)
        score = monitor(epoch, network) if monitor is not None else val_f1
        history.train_loss.append(float(loss_sum / max(count_sum, 1)))
        history.val_loss.append(val_loss)
        history.val_f1.append(val_f1)
        history.learning_rate.append(lr)
        if log is not None:
            log(
                f"epoch {epoch}: train_loss {history.train_loss[-1]:.6f} "
                f"val_loss {val_loss:.6f} val_f1 {val_f1:.2f} lr {lr:g}"
            )

        if score > best_score:
            best_score = score
            history.best_epoch = epoch
            best_params = [p.value.copy() for p in network.params()]
            lr_wait = 0
            stop_wait = 0
        else:
            lr_wait += 1
            stop_wait += 1
            if stop_wait >= schedule.stop_patience:
                break
            if lr_wait >= schedule.plateau_patience:
                lr *= schedule.lr_factor
                lr_wait = 0

    if best_params:
        for p, value in zip(network.params(), best_params):
            p.value[...] = value
    return network, store, history
