"""Training loop: focal loss, Adam, plateau LR decay, early stopping on
validation F1, best-weight restoration.

Every (passage, sensor) pair is one training example. Each epoch shuffles
the examples into optimizer steps of ``batch_size``. A step does not run as
one batch padded to its longest signal: its examples are sorted by length,
longest first, and cut into micro-batches of at most ``PASS_SAMPLES``
padded samples, so that short signals are not padded to the longest one.
Each micro-batch is zero-padded to its own maximum; padding is excluded
from the loss and from all normalisation statistics, so every example's
result is its own. The micro-batches' gradients, each weighted by its share
of the step's valid samples, add up to the gradient of the whole step as
one padded batch (up to float32 summation order), and Adam takes one step
on it. The network casts batches to its dtype and pads them to its pooling
multiple itself.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, build_label_vector
from .engine import LossConfig, ParamStore, adam_step, focal_loss
from .errors import InvalidConfig, ValidationError, naming
from .metrics import MetricsReport, PeakConfig, score_series, summarize
from .model import VaderConfig, build_vader, network_input
from .planner import InputKind
from .splits import SplitPlan

#: The most padded samples (micro-batch size times its longest length) one
#: forward and backward pass holds; a longer example runs alone.
PASS_SAMPLES = 8192


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
            raise InvalidConfig("schedule counts must be positive")
        if not (0.0 < self.lr_factor < 1.0 and 0.0 < self.initial_lr < np.inf):
            raise InvalidConfig("need 0 < lr_factor < 1 and a finite initial_lr > 0")
        if self.stop_patience < self.plateau_patience:
            raise InvalidConfig("stop_patience must be >= plateau_patience")


class Plateau:
    """The schedule's policy: ``step(score)`` returns ``(is_best, stop)``, best
    being a strict rise. Stop ``stop_patience`` epochs after the best; before
    that, scale ``lr`` by ``lr_factor`` every ``plateau_patience`` of them."""

    def __init__(self, schedule: TrainSchedule):
        self.schedule = schedule
        self.lr = schedule.initial_lr
        self.best, self.wait = -np.inf, 0  # the best score and the epochs since it

    def step(self, score: float) -> tuple[bool, bool]:
        if score > self.best:
            self.best, self.wait = score, 0
            return True, False
        self.wait += 1
        stop = self.wait >= self.schedule.stop_patience
        if not stop and self.wait % self.schedule.plateau_patience == 0:
            self.lr *= self.schedule.lr_factor
        return False, stop


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
    velocities: np.ndarray


def build_samples(dataset: Dataset, ids, input_kind: InputKind) -> list[Sample]:
    """Materialise the (passage, sensor) examples for the given passage ids."""
    samples = []
    for pid in sorted(ids):
        passage = dataset.by_id(pid)
        for ch in passage.channels:
            with naming(pid, ch.sensor_id):
                x = network_input(ch, input_kind)[0]
            bits = build_label_vector(
                [a.crossing_time for a in passage.axles[ch.sensor_id]],
                ch.sample_rate,
                ch.n_samples,
            )
            samples.append(
                Sample(
                    passage_id=pid,
                    sensor_id=ch.sensor_id,
                    x=x,
                    labels=bits,
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
    """One epoch of shuffled optimizer steps, each a list of padded
    micro-batches: the step's samples sorted by length, longest first (a
    stable sort, so equal lengths keep their shuffled order), and cut where
    one more sample would take a micro-batch beyond ``PASS_SAMPLES``."""
    order = rng.permutation(len(samples))
    for start in range(0, len(samples), batch_size):
        chosen = [samples[i] for i in order[start : start + batch_size]]
        chosen.sort(key=lambda s: -s.x.shape[-1])
        parts: list[list[Sample]] = []
        for s in chosen:
            if parts and (len(parts[-1]) + 1) * parts[-1][0].x.shape[-1] <= PASS_SAMPLES:
                parts[-1].append(s)
            else:
                parts.append([s])
        yield [assemble_batch(part) for part in parts]


def step_gradient(network, parts: list[Batch]) -> tuple[float, int]:
    """Set the network's gradients to those of one optimizer step over its
    micro-batches ``parts``: each part's mean-loss gradient, under the
    default loss configuration, weighted by its share of the step's valid
    samples. Returns the step's summed loss and its count of valid samples.
    Each backward consumes its micro-batch's context, and nothing else of a
    micro-batch outlives it: the step holds one micro-batch's caches at a
    time."""
    counts = [int(batch.valid.sum()) for batch in parts]
    n_step = sum(counts)
    loss_sum = 0.0
    network.zero_grads()
    for batch, n_valid in zip(parts, counts):
        y, ctx = network.forward(batch.x, batch.valid, want_cache=True)
        loss, dprobs = focal_loss(y[:, 0, 0, :], batch.labels, LossConfig(), batch.mask)
        del y  # the output's cache holds it until backward releases that
        network.backward(ctx, dprobs[:, None, None, :] * (n_valid / n_step))
        del ctx, dprobs  # the next micro-batch's forward holds only its own caches
        loss_sum += loss * n_valid
    return loss_sum, n_step


def evaluate_samples(network, samples, peak_cfg: PeakConfig = PeakConfig()) -> tuple[float, MetricsReport]:
    """Mean focal loss per sample position, under the default loss
    configuration, and the metrics report of the peaks ``peak_cfg`` picks,
    over the iterable ``samples``. Validation and ``vader eval`` both score
    here; a forward-pass error names its passage and sensor."""
    total_loss = 0.0
    total_count = 0
    results = []
    for s in samples:
        with naming(s.passage_id, s.sensor_id):
            probs = network.forward(s.x[None, ...])[0, 0, 0]
        loss, _ = focal_loss(probs, s.labels, LossConfig())
        total_loss += loss * s.labels.size
        total_count += s.labels.size
        results.append((s.sensor_id, *score_series(probs, np.flatnonzero(s.labels), s.velocities, peak_cfg)))
    return total_loss / max(total_count, 1), summarize(results)


def train(
    cfg: VaderConfig,
    dataset: Dataset,
    plan: SplitPlan,
    fold: int,
    schedule: TrainSchedule = TrainSchedule(),
    seed: int = 0,
    log=None,
):
    """Train one fold; returns ``(network, store, history)``. Each epoch's
    validation F1 at 200 cm drives a :class:`Plateau`, the learning rate and
    stopping rule; the returned network carries the best epoch's weights
    and no gradient buffers."""
    train_ids = plan.fold_train_ids(fold)
    val_ids = plan.fold_val_ids(fold)
    if not train_ids or not val_ids:
        raise ValidationError(f"fold {fold}: {len(train_ids)} train / {len(val_ids)} val passages")

    network = build_vader(cfg)  # refuses invalid hyperparameters before any input work
    train_samples = build_samples(dataset, train_ids, cfg.hyper.input_kind)
    val_samples = build_samples(dataset, val_ids, cfg.hyper.input_kind)
    if not train_samples or not val_samples:
        raise ValidationError(f"fold {fold} supplies no usable samples")

    for s in train_samples + val_samples:  # refuse an unusable input by name, before any step
        with naming(s.passage_id, s.sensor_id):
            network.cast_input(s.x[None])
    network.init_params(seed)
    store = ParamStore(network.params())
    rng = np.random.Generator(np.random.PCG64(seed))

    history = History()
    plateau = Plateau(schedule)
    for epoch in range(schedule.max_epochs):
        loss_sum = 0.0
        count_sum = 0
        for parts in make_batches(train_samples, schedule.batch_size, rng):
            step_loss, step_count = step_gradient(network, parts)
            adam_step(store, plateau.lr)
            loss_sum += step_loss
            count_sum += step_count

        val_loss, report = evaluate_samples(network, val_samples)
        history.train_loss.append(float(loss_sum / max(count_sum, 1)))
        history.val_loss.append(val_loss)
        history.val_f1.append(report.f1_200)
        history.learning_rate.append(plateau.lr)
        if log is not None:
            log(
                f"epoch {epoch}: train_loss {history.train_loss[-1]:.6f} "
                f"val_loss {val_loss:.6f} val_f1 {history.val_f1[-1]:.2f} lr {plateau.lr:g}"
            )

        is_best, stop = plateau.step(history.val_f1[-1])
        if is_best:  # always epoch 0: F1 is finite
            history.best_epoch = epoch
            best_params = [p.value.copy() for p in network.params()]
        if stop:
            break

    for p, value in zip(network.params(), best_params):
        p.value[...] = value
        p.grad = None  # the returned network holds its weights, not its last step's gradients
    return network, store, history
