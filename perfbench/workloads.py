"""Workloads of the benchmark: seeded inputs, set-up, timed passes and the
checks on every output.

Each workload calls the library functions that ``vader train``, ``vader
eval`` and ``vader detect`` call. They are reached through their modules
(``model.infer``, not a local name), so that the tracer sees the calls.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vader import cwt, data, engine, metrics, model, simulate, splits, training
from vader.engine import ParamStore, checkpoint_bytes
from vader.engine.loss import LossConfig, focal_loss
from vader.planner import HyperParams, InputKind

from tracer import Tracer

SAMPLE_RATE = 600.0
BATCH_SIZE = 16
#: Set-up is measured this many times before the timed passes and this many
#: after them, each time after a pause; ``setup_s`` reports the median. The
#: machine's speed changes in phases of about a second, so samples taken
#: back to back would all see the same phase.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
SETUP_PAUSE_S = 0.5
#: What a fresh interpreter imports before set-up, timed in a child process.
_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "from vader import cwt, data, engine, metrics, model, simulate, splits, training; "
    "print(time.perf_counter() - t)"
)
#: Candidates for the latency tail, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: Seeds the passage layout, the split, weight initialisation and batch
#: order. The workload seed draws the signals only, so that a seed changes
#: the data but not how much work the data makes.
LAYOUT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload with a single caller."""

    name: str
    passages: int
    axle_mix: tuple[tuple[int, float], ...]
    speed_range: tuple[float, float]  # m/s
    sensor_positions: tuple[float, ...]  # m
    input_kind: InputKind = InputKind.RAW
    #: Fixed epoch count of a training workload; 0 for a detection workload.
    epochs: int = 0

    @property
    def config(self) -> model.VaderConfig:
        # The paper's default detector: kernel 9, pool 2, 4 pooling steps, width 16.
        hyper = HyperParams(self.input_kind, kernel_size=9, pool_size=2, pool_steps=4, base_width=16)
        return model.VaderConfig(hyper, sample_rate=SAMPLE_RATE)


_SYNTH_MIX = ((8, 0.5), (12, 0.3), (16, 0.2))
_LONG_MIX = ((16, 1 / 3), (24, 1 / 3), (32, 1 / 3))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_raw", 48, _SYNTH_MIX, (20.0, 60.0), (8.2,), epochs=5),
        Workload("detect_raw", 60, _LONG_MIX, (12.0, 30.0), (4.1, 12.3)),
        Workload("detect_spectrogram", 20, _LONG_MIX, (12.0, 30.0), (4.1, 12.3), InputKind.SPECTROGRAM),
    )
}


def _quotas(n: int, weights) -> list[int]:
    """Split ``n`` by ``weights``, largest remainder first."""
    ideal = [n * w / sum(weights) for w in weights]
    out = [math.floor(x) for x in ideal]
    for i in sorted(range(len(ideal)), key=lambda i: out[i] - ideal[i])[: n - sum(out)]:
        out[i] += 1
    return out


def make_inputs(wl: Workload, seed: int, root: Path) -> None:
    """Write the workload's passages under ``root / "passages"``; a detection
    workload also gets a seeded, untrained checkpoint at ``root / "model"``.

    The train layout is the same for every seed: passage ``i`` always has
    the same axle count, axle spacing and speed, so every seed gives the same
    series lengths, split and batch order, and the same amount of work.
    Counts come in exact proportions and speeds are stratified over the
    range. The seed draws axle loads, bridge frequency and noise.
    """
    layout = np.random.default_rng(LAYOUT_SEED)
    n = wl.passages
    counts = np.repeat([c for c, _ in wl.axle_mix], _quotas(n, [w for _, w in wl.axle_mix]))
    layout.shuffle(counts)
    lo, hi = wl.speed_range
    speeds = lo + (hi - lo) * (layout.permutation(n) + layout.uniform(size=n)) / n
    ds_cfg = simulate.DatasetConfig(speed_range=wl.speed_range)
    for i in range(n):
        geometry = simulate.sample_train(layout, int(counts[i]), ds_cfg)
        r = np.random.default_rng([seed, i])
        train_cfg = simulate.TrainConfig(
            geometry.axle_offsets, float(speeds[i]), tuple(r.uniform(*ds_cfg.load_range, size=counts[i]))
        )
        bridge = simulate.BridgeConfig(
            fundamental_frequency=float(r.uniform(*ds_cfg.frequency_range)),
            sensor_positions=wl.sensor_positions,
            sample_rate=SAMPLE_RATE,
        )
        passage = simulate.generate_passage(
            bridge, train_cfg, ds_cfg.noise_std, seed=int(r.integers(2**63 - 1)), passage_id=f"passage_{i:05d}"
        )
        data.save_passage(passage, root / "passages")
    if not wl.epochs:
        network = model.build_vader(wl.config)
        network.init_params(LAYOUT_SEED)
        engine.save_checkpoint(root / "model", network, seed=LAYOUT_SEED)


@dataclass
class State:
    dataset: data.Dataset
    plan: splits.SplitPlan | None = None
    network: object = None
    #: Detection digest per (passage, sensor) from the first pass.
    expected: dict = field(default_factory=dict)


def import_seconds() -> float:
    """Time a fresh interpreter spends importing numpy and ``vader``."""
    src = Path(data.__file__).resolve().parent.parent
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(probe.stdout)


def setup(wl: Workload, root: Path) -> State:
    """What a user waits for before the first timed operation, imports aside."""
    dataset = data.load_dataset(root / "passages")
    if wl.epochs:
        return State(dataset, plan=splits.stratified_split(dataset, seed=LAYOUT_SEED))
    network = model.build_vader(wl.config)
    engine.load_checkpoint(root / "model", network)
    return State(dataset, network=network)


@dataclass
class Pass:
    """One pass of a workload: one training run, or every series detected once."""

    wall_s: float  # train() plus save_checkpoint, or the sum of series latencies
    latencies: list  # per epoch after the first, or per series
    signal_s: float  # recorded signal seconds processed within busy_s
    busy_s: float
    attempted: int  # training steps, or sensor series
    failed: int
    loss: float
    digest: str
    problems: list = field(default_factory=list)


def _failure(key: str) -> str:
    text = f"{key}: {traceback.format_exc()}"
    print(text, file=sys.stderr)
    return text


def check_detection(probs, peaks, n: int) -> str | None:
    """Why one series' output is invalid, or None."""
    probs = np.asarray(probs)
    if probs.shape != (n,):
        return f"probabilities have shape {probs.shape}, expected ({n},)"
    if not np.all(np.isfinite(probs)):
        return "non-finite probability"
    if not np.all((probs > 0.0) & (probs < 1.0)):
        return "probability outside (0, 1)"
    peaks = np.asarray(peaks)
    if peaks.size and (np.any(np.diff(peaks) <= 0) or peaks[0] < 0 or peaks[-1] >= n):
        return "peak indices not sorted, unique and in range"
    return None


def _train_pass(wl: Workload, root: Path, state: State) -> Pass:
    patience = wl.epochs + 1  # never decay or stop early: every run trains wl.epochs
    schedule = training.TrainSchedule(
        max_epochs=wl.epochs, batch_size=BATCH_SIZE, plateau_patience=patience, stop_patience=patience
    )
    lengths = [
        ch.n_samples for pid in state.plan.fold_train_ids(0) for ch in state.dataset.by_id(pid).channels
    ]
    steps = wl.epochs * math.ceil(len(lengths) / BATCH_SIZE)
    stem = root / "trained" / "model"
    stamps: list[float] = []
    t0 = time.perf_counter()
    try:
        network, store, history = training.train(
            wl.config, state.dataset, state.plan, 0, schedule, seed=LAYOUT_SEED,
            log=lambda _line: stamps.append(time.perf_counter()),
        )
        engine.save_checkpoint(stem, network, store, seed=LAYOUT_SEED)
        wall = time.perf_counter() - t0
        blob = checkpoint_bytes(network, store, LAYOUT_SEED)
        restored = model.build_vader(wl.config)
        restored_store = ParamStore(restored.params())
        engine.load_checkpoint(stem, restored, restored_store)
        round_trip = checkpoint_bytes(restored, restored_store, LAYOUT_SEED)
    except Exception:  # counted as failed steps; the run goes on
        return Pass(time.perf_counter() - t0, [], 0.0, 0.0, steps, steps, math.nan, "", [_failure("train")])

    problems = []
    losses = history.train_loss
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    elif losses[-1] >= losses[0]:
        problems.append(f"final epoch loss {losses[-1]} not below the first {losses[0]}")
    if round_trip != blob:
        problems.append("save/load round trip changed the checkpoint bytes")
    return Pass(
        wall_s=wall,
        latencies=list(np.diff(stamps)),
        signal_s=(len(stamps) - 1) * sum(lengths) / SAMPLE_RATE,
        busy_s=stamps[-1] - stamps[0],
        attempted=steps,
        failed=steps if problems else 0,
        loss=losses[-1],
        digest=hashlib.sha256(blob).hexdigest(),
        problems=problems,
    )


def _detect_pass(wl: Workload, state: State) -> Pass:
    spectrogram = wl.input_kind is InputKind.SPECTROGRAM
    peak_cfg = metrics.PeakConfig()
    loss_cfg = LossConfig()
    latencies, problems = [], []
    signal_s = loss_sum = 0.0
    attempted = failed = loss_count = 0
    digest = hashlib.sha256()
    for passage in state.dataset:
        for ch in passage.channels:
            key = f"{passage.passage_id}/{ch.sensor_id}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                x = cwt.spectrogram_stack(ch.samples) if spectrogram else ch
                probs = model.infer(state.network, x)
                peaks = metrics.pick_peaks(probs, peak_cfg)
                labels = data.label_indices(passage, ch.sensor_id)
                vels = np.asarray([a.velocity for a in passage.axles[ch.sensor_id]])
                metrics.match_axles(peaks, labels, vels, metrics.SPATIAL_THRESHOLD_CM)
                metrics.match_axles(peaks, labels, vels, metrics.LABEL_ERROR_THRESHOLD_CM)
            except Exception:  # counted as a failed series; the run goes on
                failed += 1
                problems.append(_failure(key))
                continue
            latencies.append(time.perf_counter() - t0)
            signal_s += ch.duration

            series_digest = hashlib.sha256(np.asarray(peaks, dtype="<i8").tobytes()).hexdigest()
            problem = check_detection(probs, peaks, ch.n_samples)
            if problem is None and state.expected.setdefault(key, series_digest) != series_digest:
                problem = "detections differ from the first pass"
            if problem is not None:
                failed += 1
                problems.append(f"{key}: {problem}")
                continue
            digest.update(series_digest.encode())
            bits = data.build_label_vector(
                [a.crossing_time for a in passage.axles[ch.sensor_id]], ch.sample_rate, ch.n_samples
            )
            loss, _ = focal_loss(np.asarray(probs, dtype=np.float64), bits, loss_cfg)
            loss_sum += loss * ch.n_samples
            loss_count += ch.n_samples
    busy = sum(latencies)
    return Pass(
        wall_s=busy,
        latencies=latencies,
        signal_s=signal_s,
        busy_s=busy,
        attempted=attempted,
        failed=failed,
        loss=loss_sum / loss_count if loss_count else math.nan,
        digest=digest.hexdigest(),
        problems=problems,
    )


def run_pass(wl: Workload, root: Path, state: State) -> Pass:
    return _train_pass(wl, root, state) if wl.epochs else _detect_pass(wl, state)


def tail_percentile(distinct_ops: int) -> int:
    """Highest candidate percentile with at least ten distinct operations
    beyond it; 100, the maximum, when no candidate has."""
    for p in TAIL_PERCENTILES:
        if distinct_ops * (100 - p) / 100 >= 10:
            return p
    return 100


def distinct_ops(wl: Workload) -> int:
    """Operations per pass that ``latencies`` holds."""
    return wl.epochs - 1 if wl.epochs else wl.passages * len(wl.sensor_positions)


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(wl: Workload, root: Path) -> tuple[float, State]:
    """One ``setup_s`` sample, imports included, after a pause."""
    time.sleep(SETUP_PAUSE_S)
    imports = import_seconds()
    t0 = time.perf_counter()
    state = setup(wl, root)
    return imports + time.perf_counter() - t0, state


def run_benchmark(wl: Workload, seed: int, seconds: float, trace: bool, root: Path):
    """Run one workload; returns ``(result, report)``.

    ``result`` holds ``correct``, ``attempted``, ``failed`` and ``metrics``
    (end-to-end metrics untraced, per-layer metrics traced); ``report`` holds
    the details a reader needs to interpret them.
    """
    make_inputs(wl, seed, root)
    report: dict = {"workload": wl.name, "seed": seed, "trace": int(trace)}
    if trace:
        state = setup(wl, root)
        untraced = run_pass(wl, root, state)
        tracer = Tracer()
        tracer.install()
        try:
            expected = state.expected  # the traced pass must repeat the untraced detections
            state = setup(wl, root)
            state.expected = expected
            traced = run_pass(wl, root, state)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        out = tracer.metrics()
        out["trace.untraced_s"] = (untraced.wall_s, "s")
        out["trace.traced_s"] = (traced.wall_s, "s")
        out["trace.overhead_share"] = (traced.wall_s / untraced.wall_s - 1.0 if untraced.wall_s else 0.0, "share")
    else:
        setups = []
        for _ in range(SETUPS_BEFORE):
            sample, state = _timed_setup(wl, root)
            setups.append(sample)
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(run_pass(wl, root, state))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        peak_rss_mb = _peak_rss_mb()
        setups += [_timed_setup(wl, root)[0] for _ in range(SETUPS_AFTER)]
        latencies = [v for p in passes for v in p.latencies]
        pct = tail_percentile(distinct_ops(wl))
        busy = sum(p.busy_s for p in passes)
        signal = sum(p.signal_s for p in passes)
        out = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_rate": (0.0, "share"),  # filled in below
            "realtime_factor": (signal / busy if busy else 0.0, "s/s"),
            "latency_p50_ms": (float(np.percentile(latencies, 50)) * 1e3 if latencies else 0.0, "ms"),
            "latency_tail_ms": (float(np.percentile(latencies, pct)) * 1e3 if latencies else 0.0, "ms"),
            "command_s": (_median(p.wall_s for p in passes), "s"),
            "loss": (_median(p.loss for p in passes), "nat"),
        }
        report.update(
            passes=len(passes),
            latency_samples=len(latencies),
            latency_tail_percentile=pct,
            distinct_ops_per_pass=distinct_ops(wl),
            samples_per_s=signal * SAMPLE_RATE / busy if busy else 0.0,
            setup_samples_s=setups,
        )

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = sorted({p.digest for p in passes if not p.failed})
    problems = [text for p in passes for text in p.problems]
    if len(digests) > 1:
        problems.append("passes of one run produced different outputs")
        failed += attempted
    if not trace:
        out["success_rate"] = (1.0 - min(failed, attempted) / attempted, "share")
    report.update(digests=digests, problems=problems[:20])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {name: {"value": float(v), "unit": unit} for name, (v, unit) in out.items()},
    }
    return result, report
