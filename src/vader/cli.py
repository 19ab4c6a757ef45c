"""Command-line surface tying the pipeline together.

Subcommands: ``plan`` (hyperparameter grid), ``synth`` (dataset generation),
``split`` (train/val/test plans), ``train`` (one fold), ``eval`` (metrics
report), ``detect`` (inference to axle times). Exit codes: 0 success,
1 usage error, 2 data/validation error. The parser checks only syntax (text
that does not parse, a repeated key, an unknown flag or config key,
contradictory options: exit 1); the config object that owns a value refuses
it out of range with ``InvalidConfig`` (exit 2) before anything is written.

``train`` writes ``run.json``, ``history.csv`` and the weights-only
checkpoint ``model.json`` + ``model.bin``, which alone describes the
detector: ``eval`` and ``detect`` take only its stem. The model's sample
rate is the training data's; ``eval`` and ``detect`` refuse passages
recorded at another rate. ``detect`` runs each sensor through
``model.infer``; ``eval`` scores through ``training.evaluate_samples``, the
function training validation runs.

Every artifact-writing subcommand echoes its fully resolved configuration
to ``run.json`` in the output directory, making reruns reproducible and
byte-identical for a fixed seed. It is written once the inputs are read and
validated (by ``train`` after training), so a run failing on input leaves
none. A flat ``key = value`` config file stands for its options written
right after the subcommand name, before the command line's own: argparse
checks their types and choices, and a flag given on the command line wins.
A key the subcommand does not define is a usage error; a switch is on for
``true``/``1``/``yes``/``on``. ``--seed`` exists where a seed is read
(``synth``, ``split``, ``train``) and defaults to ``VADER_SEED``, else 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .data import load_dataset, shared_sample_rate
from .engine import save_checkpoint
from .errors import DataError, InvalidConfig, UnknownId, ValidationError, naming
from .metrics import PeakConfig, pick_peaks
from .model import VaderConfig, infer, load_vader
from .planner import (
    DEFAULT_F_LOW_CERTAIN,
    DEFAULT_F_LOW_USEFUL,
    DEFAULT_KERNEL_SIZES,
    DEFAULT_POOL_SIZES,
    DEFAULT_POOL_STEPS,
    HyperParams,
    InputKind,
    object_size,
    plan_grid,
)
from .simulate import BridgeConfig, DatasetConfig, generate_dataset
from .splits import DEFAULT_TEST_FRACTION, Scenario, SplitPlan, dgps_split, stratified_split
from .training import TrainSchedule, build_samples, evaluate_samples, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so usage maps to code 1."""

    def error(self, message):
        raise UsageError(message)


def _config_tokens(path: str, options: dict) -> list[str]:
    """The option tokens a flat ``key = value`` file stands for: ``--key=value``
    for each key among ``options`` (the subcommand's parsed namespace), and
    ``--key`` for a switch set to true/1/yes/on. Any other key is a usage
    error naming the file and line."""
    tokens = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest in ("config", "command", "func") or dest not in options:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        flag = "--" + dest.replace("_", "-")
        if not isinstance(options[dest], bool):
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return tokens


def _write_run_json(out_dir: Path, command: str, args) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    payload = {"command": command, "version": __version__, "config": resolved}
    (out_dir / "run.json").write_text(
        json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n", encoding="utf-8"
    )


def _parse_fraction(text: str) -> float:
    """'1/6' or '0.2'."""
    num, _, den = text.partition("/")
    try:
        return float(num) / float(den or 1)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction such as 1/6 or 0.2, got {text!r}") from None


def _parse_ids(text: str) -> str | int:
    return text if text == "test" else int(text)


def _list_of(kind):
    """Parser of 'a,b,c' into a tuple of ``kind``; an empty item is refused."""
    def parse(text: str) -> tuple:
        return tuple(kind(v) for v in text.split(","))

    parse.__name__ = f"{kind.__name__} list"
    return parse


def _parse_positions(text: str) -> dict[str, float]:
    """'s0=4.1,s1=12.3' -> {sensor id: position in m}; an empty item is
    refused."""
    out = {}
    for part in text.split(","):
        sensor_id, pos = part.split("=")
        sensor_id, value = sensor_id.strip(), float(pos)
        if sensor_id in out:
            raise argparse.ArgumentTypeError(f"sensor {sensor_id!r} is given more than once")
        out[sensor_id] = value
    return out


def _parse_distribution(text: str) -> dict[int, float]:
    dist = {}
    for part in text.split(","):
        count, weight = part.split(":")
        axles = int(count)
        if axles in dist:
            raise argparse.ArgumentTypeError(f"axle count {axles} is given more than once")
        dist[axles] = float(weight)
    return dist


def _parse_range(text: str) -> tuple[float, float]:
    lo, hi = text.split(":")
    return float(lo), float(hi)


# ---------------------------------------------------------------- plan


def _cmd_plan(args) -> int:
    out_dir = Path(args.out)
    entries = plan_grid(
        kernel_sizes=args.kernel_sizes,
        pool_sizes=args.pool_sizes,
        pool_steps=args.pool_steps,
        sample_rate=args.fs,
        f_low_certain=args.fl_certain,
        f_low_useful=args.fl_useful,
    )
    counts: dict[str, int] = {}
    for e in entries:
        counts[e.classification.value] = counts.get(e.classification.value, 0) + 1
    summary = {
        "entries": len(entries),
        "classes": counts,
        "object_size_certain": object_size(args.fs, args.fl_certain),
        "object_size_useful": object_size(args.fs, args.fl_useful),
    }
    _write_run_json(out_dir, "plan", args)
    csv_path = out_dir / "plan.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["kernel_size", "pool_size", "pool_steps", "input_kind", "mrf", "class"])
        for e in entries:
            writer.writerow(
                [
                    e.hyper.kernel_size,
                    e.hyper.pool_size,
                    e.hyper.pool_steps,
                    e.hyper.input_kind.value,
                    e.hyper.mrf,
                    e.classification.value,
                ]
            )
    (out_dir / "plan.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {csv_path} ({len(entries)} entries)")
    return 0


# ---------------------------------------------------------------- synth


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    cfg = DatasetConfig(
        speed_range=args.speed_range,
        spacing_range=args.spacing_range,
        frequency_range=args.frequency_range,
        noise_std=args.noise_std,
        bridge=BridgeConfig(
            sensor_positions=args.sensor_positions,
            sample_rate=args.fs,
            click_gain=args.click_gain,
        ),
    )
    dataset = generate_dataset(
        args.n, args.distribution, out_dir / "passages", seed=args.seed, config=cfg
    )
    _write_run_json(out_dir, "synth", args)
    hist = dataset.axle_count_histogram()
    print(f"wrote {len(dataset)} passages under {out_dir / 'passages'}")
    print("axle-count histogram: " + ", ".join(f"{k}: {v}" for k, v in hist.items()))
    return 0


# ---------------------------------------------------------------- split


def _cmd_split(args) -> int:
    stratified = args.scenario == Scenario.STRATIFIED.value
    # an option of the other scenario would be silently ignored
    if stratified and args.modal_axles is not None:
        raise UsageError("--modal-axles applies to --scenario dgps only")
    if not stratified and args.fraction is not None:
        raise UsageError("--fraction applies to --scenario stratified only")
    dataset = load_dataset(args.dataset)
    if stratified:
        fraction = DEFAULT_TEST_FRACTION if args.fraction is None else args.fraction
        plan = stratified_split(dataset, test_fraction=fraction, seed=args.seed)
    else:
        plan = dgps_split(dataset, seed=args.seed, modal_axles=args.modal_axles)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(plan.to_json() + "\n", encoding="utf-8")
    sizes = [len(f) for f in plan.folds]
    print(
        f"{plan.scenario.value}: {len(plan.test_ids)} test, folds {sizes} "
        f"({sum(sizes)} train/val) -> {out}"
    )
    return 0


# ---------------------------------------------------------------- train


def _cmd_train(args) -> int:
    out_dir = Path(args.out)
    dataset = load_dataset(args.dataset)
    plan = SplitPlan.from_json(Path(args.split).read_text(encoding="utf-8"))
    fold_ids = plan.fold_train_ids(args.fold) + plan.fold_val_ids(args.fold)
    rate = shared_sample_rate(dataset.by_id(pid) for pid in fold_ids)
    hyper = HyperParams(
        input_kind=InputKind(args.input_kind),
        kernel_size=args.kernel_size,
        pool_size=args.pool_size,
        pool_steps=args.pool_steps,
        base_width=args.base_width,
    )
    cfg = VaderConfig(hyper=hyper, sample_rate=rate)
    schedule = TrainSchedule(
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        initial_lr=args.lr,
        plateau_patience=args.plateau_patience,
        lr_factor=args.lr_factor,
        stop_patience=args.stop_patience,
    )
    log = print if args.verbose else None
    network, _, history = train(cfg, dataset, plan, args.fold, schedule, seed=args.seed, log=log)
    save_checkpoint(out_dir / "model", network, seed=args.seed)  # weights only
    (out_dir / "history.csv").write_text(history.to_csv(), encoding="utf-8")
    _write_run_json(out_dir, "train", args)
    best = history.best_epoch
    print(
        f"trained {len(history.train_loss)} epochs; best epoch {best} "
        f"(val F1 {history.val_f1[best]:.2f}) -> {out_dir / 'model'}"
    )
    return 0


# ---------------------------------------------------------------- eval


def _selection(dataset: str, passages: list, sample_rate: float) -> list:
    """``passages``, which ``eval`` or ``detect`` runs on: ValidationError when
    there are none, SampleRateMismatch when one is not at the model's rate."""
    if not passages:
        raise ValidationError(f"{dataset}: no passages to run on")
    shared_sample_rate(passages, sample_rate)
    return passages


def _cell(value) -> str:
    """A per-sensor CSV cell: the exact number, empty for no value."""
    return "" if value is None else repr(value)


def _fixed(value, unit="") -> str:
    return "n/a" if value is None else f"{value:.2f}{unit}"


def _cmd_eval(args) -> int:
    if args.ids is not None and not args.split:
        raise UsageError("--ids needs --split")
    out_dir = Path(args.out)
    dataset = load_dataset(args.dataset)
    network, cfg = load_vader(args.checkpoint)
    if args.split:
        plan = SplitPlan.from_json(Path(args.split).read_text(encoding="utf-8"))
        if args.ids is None:
            args.ids = "test"  # resolved here, so that run.json names it
        ids = plan.test_ids if args.ids == "test" else plan.fold_val_ids(args.ids)
    else:
        ids = [p.passage_id for p in dataset]
    passages = _selection(args.dataset, [dataset.by_id(pid) for pid in sorted(ids)], cfg.sample_rate)
    peak_cfg = PeakConfig(args.min_confidence, args.min_distance)
    # built one passage at a time, so that eval holds one passage's spectrogram stacks
    samples = (s for p in passages for s in build_samples(dataset, [p.passage_id], cfg.hyper.input_kind))
    _, report = evaluate_samples(network, samples, peak_cfg)
    _write_run_json(out_dir, "eval", args)
    (out_dir / "metrics.json").write_text(
        json.dumps(report.to_dict(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    with (out_dir / "per_sensor.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sensor", *next(iter(report.per_sensor.values()))])
        for sensor_id, row in report.per_sensor.items():
            writer.writerow([sensor_id, *map(_cell, row.values())])
    print(
        f"evaluated {len(passages)} passages: F1@200cm {report.f1_200:.2f} "
        f"F1@37cm {report.f1_37:.2f} mean spatial error {_fixed(report.mean_spatial_error_cm, ' cm')} "
        f"MSA {_fixed(report.msa)}"
    )
    return 0


# ---------------------------------------------------------------- detect


def _estimate_velocities(passage_id: str, per_sensor: dict, positions: dict[str, float]) -> dict[int, float]:
    """Per-axle speed from detection time differences between the two most
    distant positioned sensors; needs equal detection counts on both, and
    says on stderr when they differ."""
    placed = [s for s in per_sensor if s in positions]
    if len(placed) < 2:
        return {}
    placed.sort(key=lambda s: positions[s])
    first, last = placed[0], placed[-1]
    t_first, t_last = per_sensor[first], per_sensor[last]
    if len(t_first) != len(t_last):
        print(
            f"{passage_id}: no velocities, {first} has {len(t_first)} detections "
            f"and {last} has {len(t_last)}",
            file=sys.stderr,
        )
        return {}
    gap = positions[last] - positions[first]
    out = {}
    for i, (ta, tb) in enumerate(zip(t_first, t_last)):
        dt = float(tb - ta)
        if dt > 0 and gap > 0:
            out[i] = gap / dt
    return out


def _cmd_detect(args) -> int:
    """Writes ``--out`` under a temporary sibling name and renames it into
    place only once every passage has been detected, so a failing passage
    leaves no partial file."""
    dataset = load_dataset(args.dataset)
    network, cfg = load_vader(args.checkpoint)
    peak_cfg = PeakConfig(args.min_confidence, args.min_distance)
    selected = [dataset.by_id(args.passage)] if args.passage else list(dataset)
    passages = _selection(args.dataset, selected, cfg.sample_rate)
    for sensor_id, position in args.sensor_positions.items():
        if not math.isfinite(position):
            raise InvalidConfig(
                f"--sensor-positions: position of sensor {sensor_id!r} must be finite, got {position}"
            )
    sensors = sorted({ch.sensor_id for p in passages for ch in p.channels})
    unknown = sorted(set(args.sensor_positions) - set(sensors))
    if unknown:
        raise UnknownId(
            f"--sensor-positions names sensor {unknown[0]!r}, which no selected passage has "
            f"(sensor ids: {', '.join(sensors)})"
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    try:
        with tmp.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["passage_id", "sensor_id", "axle", "time_s", "velocity_mps"])
            for passage in passages:
                per_sensor = {}
                for ch in passage.channels:
                    with naming(passage.passage_id, ch.sensor_id):
                        peaks = pick_peaks(infer(network, ch), peak_cfg)
                    per_sensor[ch.sensor_id] = peaks / ch.sample_rate
                velocities = _estimate_velocities(passage.passage_id, per_sensor, args.sensor_positions)
                for sensor_id in sorted(per_sensor):
                    for i, t in enumerate(per_sensor[sensor_id]):
                        v = repr(velocities[i]) if i in velocities else ""
                        writer.writerow([passage.passage_id, sensor_id, i, repr(float(t)), v])
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    print(f"wrote detections -> {out}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> _Parser:
    """The ``vader`` parser; ``--seed`` defaults to None, which :func:`main`
    resolves to ``VADER_SEED``, else 0."""
    parser = _Parser(prog="vader", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"vader {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None, help="RNG seed (default: VADER_SEED, else 0)")
    peaks = _Parser(add_help=False)
    peaks.add_argument("--min-confidence", type=float, default=PeakConfig.min_confidence)
    peaks.add_argument("--min-distance", type=int, default=PeakConfig.min_distance)

    p = sub.add_parser("plan", parents=[common], help="classify the hyperparameter grid")
    p.add_argument("--fs", type=float, default=BridgeConfig.sample_rate, help="sample rate in Hz")
    p.add_argument("--fl-certain", type=float, default=DEFAULT_F_LOW_CERTAIN, help="lowest frequency to resolve")
    p.add_argument("--fl-useful", type=float, default=DEFAULT_F_LOW_USEFUL, help="lowest informative frequency")
    p.add_argument("--kernel-sizes", type=_list_of(int), default=DEFAULT_KERNEL_SIZES)
    p.add_argument("--pool-sizes", type=_list_of(int), default=DEFAULT_POOL_SIZES)
    p.add_argument("--pool-steps", type=_list_of(int), default=DEFAULT_POOL_STEPS)
    p.add_argument("--out", default="plan_out")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("synth", parents=[common, seeded], help="generate a synthetic dataset")
    p.add_argument("--n", type=int, default=250)
    p.add_argument(
        "--distribution", type=_parse_distribution, default="8:0.5,12:0.3,16:0.2", help="axles:weight,…"
    )
    p.add_argument("--speed-range", type=_parse_range, default=DatasetConfig.speed_range)
    p.add_argument("--spacing-range", type=_parse_range, default=DatasetConfig.spacing_range)
    p.add_argument("--frequency-range", type=_parse_range, default=DatasetConfig.frequency_range)
    p.add_argument("--noise-std", type=float, default=DatasetConfig.noise_std)
    p.add_argument("--click-gain", type=float, default=BridgeConfig.click_gain)
    p.add_argument(
        "--sensor-positions", type=_list_of(float), default=BridgeConfig.sensor_positions,
        help="sensor positions in m, e.g. '4.1,12.3'",
    )
    p.add_argument("--fs", type=float, default=BridgeConfig.sample_rate)
    p.add_argument("--out", default="synth_out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", parents=[common, seeded], help="build a train/val/test split plan")
    p.add_argument("--dataset", required=True)
    p.add_argument("--scenario", choices=[s.value for s in Scenario], default=Scenario.STRATIFIED.value)
    p.add_argument(
        "--fraction", type=_parse_fraction, default=None,
        help=f"test fraction (stratified only; default {DEFAULT_TEST_FRACTION:.4g})",
    )
    p.add_argument("--modal-axles", type=int, default=None, help="tie override (dgps)")
    p.add_argument("--out", default="split.json")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", parents=[common, seeded], help="train one cross-validation fold")
    p.add_argument("--kernel-size", type=int, default=9)
    p.add_argument("--pool-size", type=int, default=2)
    p.add_argument("--pool-steps", type=int, default=4)
    p.add_argument("--base-width", type=int, default=HyperParams.base_width)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--input-kind", choices=[k.value for k in InputKind], default=InputKind.RAW.value)
    p.add_argument("--epochs", type=int, default=TrainSchedule.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainSchedule.batch_size)
    p.add_argument("--lr", type=float, default=TrainSchedule.initial_lr)
    p.add_argument("--plateau-patience", type=int, default=TrainSchedule.plateau_patience)
    p.add_argument("--lr-factor", type=float, default=TrainSchedule.lr_factor)
    p.add_argument("--stop-patience", type=int, default=TrainSchedule.stop_patience)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", default="train_out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[common, peaks], help="evaluate a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True, help="checkpoint stem (without .bin/.json)")
    p.add_argument("--split", default=None)
    p.add_argument("--ids", type=_parse_ids, default=None, help="'test' (default) or a fold index; needs --split")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("detect", parents=[common, peaks], help="inference + peak picking to axle times")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--passage", default=None)
    p.add_argument(
        "--sensor-positions",
        type=_parse_positions,
        default={},
        help="sensor geometry for velocity estimation, e.g. 's0=4.1,s1=12.3'",
    )
    p.add_argument("--out", default="detections.csv")
    p.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, vars(args))
            try:
                args = parser.parse_args(argv[:at] + tokens + argv[at:])
            except UsageError as exc:
                raise UsageError(f"{args.config}: {exc}") from None
        if vars(args).get("seed", 0) is None:  # neither the command line nor a config file gave one
            try:
                args.seed = int(os.environ.get("VADER_SEED", "0"))
            except ValueError as exc:
                raise UsageError(f"VADER_SEED: {exc}") from None
        if vars(args).get("seed", 0) < 0:
            raise InvalidConfig(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    # an input path that is missing, a file where a directory belongs or the reverse, or not text
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
