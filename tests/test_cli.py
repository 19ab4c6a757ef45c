"""CLI surface tests: subcommand behaviour, exit codes, artifact layout."""

import csv
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from vader.cli import _estimate_velocities, main
from vader.engine import ParamStore, save_checkpoint
from vader.model import load_vader
from vader.splits import SplitPlan


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesised dataset + split reused across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert (
        run(
            "synth",
            "--n", "12",
            "--distribution", "3:0.7,4:0.3",
            "--speed-range", "35:55",
            "--spacing-range", "3:6",
            "--out", str(root / "data"),
            "--seed", "5",
        )
        == 0
    )
    assert (
        run(
            "split",
            "--dataset", str(root / "data" / "passages"),
            "--scenario", "stratified",
            "--fraction", "1/6",
            "--seed", "1",
            "--out", str(root / "split.json"),
        )
        == 0
    )
    return root


def _train(root, out, **flags):
    argv = [
        "train",
        "--dataset", str(root / "data" / "passages"),
        "--split", str(root / "split.json"),
        "--fold", "0",
        "--kernel-size", "5",
        "--pool-size", "2",
        "--pool-steps", "2",
        "--base-width", "4",
        "--epochs", "2",
        "--batch-size", "4",
        "--seed", "7",
        "--out", str(out),
    ]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return run(*argv)


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """Directory of one model trained on the workspace at 600 Hz."""
    out = tmp_path_factory.mktemp("trained")
    assert _train(workspace, out) == 0
    return out


def _copy_checkpoint(src, dst):
    """Copy only the checkpoint of a trained model directory; returns its stem."""
    dst.mkdir()
    for name in ("model.json", "model.bin"):
        shutil.copy(src / name, dst / name)
    return dst / "model"


def test_plan_csv_and_summary(tmp_path):
    out = tmp_path / "plan"
    assert run("plan", "--fs", "600", "--fl-certain", "5", "--fl-useful", "1", "--out", str(out)) == 0
    rows = list(csv.DictReader((out / "plan.csv").open()))
    target = next(
        r
        for r in rows
        if r["kernel_size"] == "9" and r["pool_size"] == "2" and r["pool_steps"] == "4"
        and r["input_kind"] == "raw"
    )
    assert target["mrf"] == "144"
    assert target["class"] == "ok"
    summary = json.loads((out / "plan.json").read_text())
    assert summary["object_size_certain"] == 120
    assert summary["object_size_useful"] == 600
    assert (out / "run.json").exists()


def test_unknown_flag_exits_1_writes_nothing(tmp_path):
    out = tmp_path / "never"
    assert run("plan", "--definitely-not-a-flag", "--out", str(out)) == 1
    assert not out.exists()


def test_missing_dataset_exits_2(tmp_path):
    assert run("split", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "s.json")) == 2


def test_data_error_exits_2(tmp_path):
    # single axle count cannot satisfy the holdout scenario
    root = tmp_path / "one"
    assert run("synth", "--n", "4", "--distribution", "3:1.0", "--out", str(root), "--seed", "0") == 0
    code = run(
        "split", "--dataset", str(root / "passages"), "--scenario", "dgps",
        "--out", str(tmp_path / "s.json"),
    )
    assert code == 2


def test_train_eval_detect_flow(workspace, tmp_path):
    out = tmp_path / "train"
    assert _train(workspace, out) == 0
    assert sorted(f.name for f in out.iterdir()) == ["history.csv", "model.bin", "model.json", "run.json"]
    run_cfg = json.loads((out / "run.json").read_text())
    assert run_cfg["command"] == "train"
    assert run_cfg["config"]["seed"] == 7
    # eval and detect need nothing but the checkpoint itself
    stem = _copy_checkpoint(out, tmp_path / "checkpoint_only")

    eval_out = tmp_path / "eval"
    code = run(
        "eval",
        "--dataset", str(workspace / "data" / "passages"),
        "--checkpoint", str(stem),
        "--split", str(workspace / "split.json"),
        "--ids", "test",
        "--out", str(eval_out),
    )
    assert code == 0
    report = json.loads((eval_out / "metrics.json").read_text())
    assert {"f1_200", "f1_37", "mean_spatial_error_cm", "msa", "per_sensor"} <= set(report)
    per_sensor = list(csv.DictReader((eval_out / "per_sensor.csv").open()))
    assert per_sensor and per_sensor[0]["sensor"] == "s0"

    det = tmp_path / "det.csv"
    code = run(
        "detect",
        "--dataset", str(workspace / "data" / "passages"),
        "--checkpoint", str(stem),
        "--out", str(det),
    )
    assert code == 0
    rows = list(csv.DictReader(det.open()))
    assert set(rows[0]) == {"passage_id", "sensor_id", "axle", "time_s", "velocity_mps"}


def test_train_idempotent_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(workspace, a) == 0
    assert _train(workspace, b) == 0
    for name in ("model.bin", "model.json", "history.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_writes_weights_only(workspace, trained, tmp_path):
    """``train`` saves no optimizer moments; a checkpoint that holds them, as
    earlier versions of ``train`` wrote, still evaluates to the same report."""
    network, _ = load_vader(trained / "model")
    assert (trained / "model.bin").stat().st_size == 8 * network.param_count()
    assert not json.loads((trained / "model.json").read_text())["has_adam"]
    with_moments = tmp_path / "with_moments" / "model"
    save_checkpoint(with_moments, network, ParamStore(network.params()), seed=7)
    reports = []
    for i, stem in enumerate((trained / "model", with_moments)):
        assert run(
            "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(stem),
            "--out", str(tmp_path / f"eval{i}"),
        ) == 0
        reports.append((tmp_path / f"eval{i}" / "metrics.json").read_text())
    assert reports[0] == reports[1]


def test_bench_reports_memory_ratio_96(tmp_path):
    out = tmp_path / "bench"
    code = run(
        "bench", "--n-samples", "1200", "--base-width", "4", "--repeats", "1",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    result = json.loads((out / "bench.json").read_text())
    assert result["memory_ratio"] == 96.0
    assert result["raw_input_bytes"] == 1200 * 4
    assert result["speedup"] > 1.0


def test_config_file_defaults_and_flag_override(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("fs = 1200\nfl-certain = 6\n# comment\n")
    out = tmp_path / "plan"
    assert run("plan", "--config", str(cfg), "--fl-certain", "5", "--out", str(out)) == 0
    summary = json.loads((out / "plan.json").read_text())
    # file sets fs; explicit flag beats the file for fl-certain
    assert summary["object_size_certain"] == 240  # 1200 / 5
    run_cfg = json.loads((out / "run.json").read_text())
    assert run_cfg["config"]["fs"] == 1200.0


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("VADER_SEED", "33")
    out = tmp_path / "synth"
    assert run("synth", "--n", "2", "--distribution", "3:1.0", "--out", str(out)) == 0
    run_cfg = json.loads((out / "run.json").read_text())
    assert run_cfg["config"]["seed"] == 33


def test_transform_writes_stacks(workspace, tmp_path):
    out = tmp_path / "stacks"
    code = run(
        "transform",
        "--dataset", str(workspace / "data" / "passages"),
        "--passage", "passage_00000",
        "--out", str(out),
    )
    assert code == 0
    stacks = sorted(out.glob("*.stack"))
    assert stacks
    from vader.cwt import read_stack

    arr = read_stack(stacks[0])
    assert arr.shape[0] == 16 and arr.shape[1] == 6
    sidecar = json.loads((stacks[0].parent / (stacks[0].name + ".json")).read_text())
    assert sidecar["passage_id"] == "passage_00000"


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_eval_detect_refuse_other_sample_rate(trained, tmp_path, capsys, command):
    """The model was trained at 600 Hz; the planner's rule makes it a
    different detector on passages recorded at 300 Hz."""
    data = tmp_path / "data300"
    assert run(
        "synth", "--n", "3", "--distribution", "3:1.0", "--speed-range", "35:55",
        "--spacing-range", "3:6", "--fs", "300", "--seed", "2", "--out", str(data),
    ) == 0
    capsys.readouterr()
    code = run(
        command, "--dataset", str(data / "passages"), "--checkpoint", str(trained / "model"),
        "--out", str(tmp_path / "out"),
    )
    assert code == 2
    assert "300.0 Hz" in capsys.readouterr().err


def test_train_refuses_mixed_sample_rates(workspace, tmp_path, capsys):
    data = tmp_path / "mixed"
    shutil.copytree(workspace / "data" / "passages", data)
    plan = SplitPlan.from_json((workspace / "split.json").read_text())
    meta_path = data / plan.fold_train_ids(0)[0] / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sample_rate"] = 300.0
    meta_path.write_text(json.dumps(meta))
    code = run(
        "train", "--dataset", str(data), "--split", str(workspace / "split.json"),
        "--kernel-size", "5", "--pool-steps", "2", "--base-width", "4", "--epochs", "1",
        "--out", str(tmp_path / "train"),
    )
    assert code == 2
    assert "300.0 Hz" in capsys.readouterr().err
    assert not (tmp_path / "train" / "model.json").exists()
    assert not (tmp_path / "train" / "run.json").exists()


def test_fold_out_of_range_exits_2_without_run_json(workspace, trained, tmp_path, capsys):
    out = tmp_path / "train"
    assert _train(workspace, out, fold=7) == 2
    assert "fold 7" in capsys.readouterr().err
    assert not (out / "run.json").exists()
    code = run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model"),
        "--split", str(workspace / "split.json"), "--ids", "9", "--out", str(tmp_path / "eval"),
    )
    assert code == 2
    assert "fold 9" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "run.json").exists()
    code = run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model"),
        "--split", str(workspace / "split.json"), "--ids", "nine", "--out", str(tmp_path / "eval"),
    )
    assert code == 1


MALFORMED_VALUES = {
    "fraction_not_a_number": ["split", "--fraction", "abc"],
    "fraction_zero_denominator": ["split", "--fraction", "1/0"],
    "fraction_zero": ["split", "--fraction", "0"],
    "detect_position_without_sensor": ["detect", "--sensor-positions", "s0"],
    "synth_position_not_a_number": ["synth", "--sensor-positions", "a"],
    "eval_min_confidence_above_1": ["eval", "--min-confidence", "2"],
    "train_lr_factor_above_1": ["train", "--lr-factor", "2"],
    "train_kernel_size_0": ["train", "--kernel-size", "0"],
    "bench_pool_size_1": ["bench", "--pool-size", "1"],
    "plan_empty_kernel_sizes": ["plan", "--kernel-sizes", ","],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_malformed_value_is_usage_error(workspace, trained, tmp_path, capsys, case):
    argv = MALFORMED_VALUES[case] + ["--out", str(tmp_path / "out")]
    if argv[0] in ("split", "train", "eval", "detect"):
        argv += ["--dataset", str(workspace / "data" / "passages")]
    if argv[0] in ("eval", "detect"):
        argv += ["--checkpoint", str(trained / "model")]
    if argv[0] == "train":
        argv += ["--split", str(workspace / "split.json")]
    assert run(*argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_malformed_config_value_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("fraction = 1/0\n")
    out = tmp_path / "split.json"
    assert run("split", "--config", str(cfg), "--dataset", str(workspace / "data" / "passages"), "--out", str(out)) == 1
    assert "fraction" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_passage_id_exits_2(workspace, tmp_path, capsys):
    data = tmp_path / "dup"
    shutil.copytree(workspace / "data" / "passages", data)
    shutil.copytree(data / "passage_00000", data / "passage_copy")
    assert run("split", "--dataset", str(data), "--out", str(tmp_path / "split.json")) == 2
    assert "passage_copy" in capsys.readouterr().err
    assert not (tmp_path / "split.json").exists()


def test_malformed_split_exits_2(workspace, tmp_path):
    split = tmp_path / "split.json"
    split.write_text('{"scenario": "stratified"}')
    assert run(
        "train", "--dataset", str(workspace / "data" / "passages"), "--split", str(split),
        "--out", str(tmp_path / "train"),
    ) == 2
    assert not (tmp_path / "train" / "run.json").exists()


def test_unknown_passage_exits_2(workspace, trained, tmp_path, capsys):
    code = run(
        "detect", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model"),
        "--passage", "nope", "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert "'nope'" in capsys.readouterr().err


def _edit_manifest(stem, edit):
    path = stem.with_suffix(".json")
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))


CHECKPOINT_DAMAGE = {
    "truncated_json": lambda stem: stem.with_suffix(".json").write_text(
        stem.with_suffix(".json").read_text()[:200]
    ),
    "not_json": lambda stem: stem.with_suffix(".json").write_bytes(b"\x89PNG not a manifest"),
    "no_model": lambda stem: _edit_manifest(stem, lambda m: m.pop("model")),
    "no_params": lambda stem: _edit_manifest(stem, lambda m: m.pop("params")),
    "bad_model": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(input_kind="audio")),
    "version_1": lambda stem: _edit_manifest(stem, lambda m: (m.pop("model"), m.update(version=1))),
    "no_bin": lambda stem: stem.with_suffix(".bin").unlink(),
    "short_bin": lambda stem: stem.with_suffix(".bin").write_bytes(stem.with_suffix(".bin").read_bytes()[:-3]),
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_malformed_checkpoint_exits_2(workspace, trained, tmp_path, capsys, damage):
    stem = _copy_checkpoint(trained, tmp_path / "ckpt")
    CHECKPOINT_DAMAGE[damage](stem)
    code = run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(stem),
        "--out", str(tmp_path / "eval"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    if damage == "version_1":
        assert "retrain" in err


def test_config_file_then_abbreviated_flag(tmp_path):
    """A file's options come before the command line's, so an abbreviated
    flag still overrides the file."""
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("fl-certain = 6\n")
    out = tmp_path / "plan"
    assert run("plan", "--config", str(cfg), "--fl-cert", "5", "--out", str(out)) == 0
    assert json.loads((out / "plan.json").read_text())["object_size_certain"] == 120  # 600 / 5


@pytest.mark.parametrize(
    "command, line", [("split", "scenario = dgsp"), ("train", "input_kind = spectro")]
)
def test_config_value_outside_choices_is_usage_error(workspace, tmp_path, capsys, command, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--dataset", str(workspace / "data" / "passages"), "--out", str(out)]
    if command == "train":
        argv += ["--split", str(workspace / "split.json")]
    assert run(*argv) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_config_switch_on(workspace, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("verbose = yes\n")
    out = tmp_path / "train"
    assert _train(workspace, out, config=cfg) == 0
    assert "epoch 0:" in capsys.readouterr().out
    assert json.loads((out / "run.json").read_text())["config"]["verbose"] is True


@pytest.mark.parametrize("command", ["plan", "transform", "eval", "detect"])
def test_seed_only_where_read(workspace, trained, tmp_path, capsys, command):
    argv = [command, "--seed", "1", "--out", str(tmp_path / "out")]
    if command != "plan":
        argv += ["--dataset", str(workspace / "data" / "passages")]
    if command in ("eval", "detect"):
        argv += ["--checkpoint", str(trained / "model")]
    assert run(*argv) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_seed_env_not_an_integer_is_usage_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VADER_SEED", "seven")
    out = tmp_path / "synth"
    assert run("synth", "--n", "2", "--distribution", "3:1.0", "--out", str(out)) == 1
    assert "'seven'" in capsys.readouterr().err
    assert not out.exists()
    # A seed in the config file, like one on the command line, leaves VADER_SEED unread.
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("seed = 5\n")
    assert run("synth", "--config", str(cfg), "--n", "2", "--distribution", "3:1.0", "--out", str(out)) == 0
    assert json.loads((out / "run.json").read_text())["config"]["seed"] == 5


@pytest.mark.parametrize(
    "flags",
    [
        ["--kernel-sizes", "3", "--pool-sizes", "2", "--pool-steps", "3", "--fl-useful", "0"],
        ["--kernel-sizes", "2", "--pool-sizes", "2", "--fl-certain", "0", "--fl-useful", "0"],
    ],
)
def test_plan_zero_frequency_exits_2(tmp_path, capsys, flags):
    """Every entry is underfit or invalid, so only the summary's object
    sizes see the zero frequency."""
    out = tmp_path / "plan"
    assert run("plan", *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_history_csv_holds_plain_numbers(trained):
    lines = (trained / "history.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,val_f1,lr"
    assert len(lines) == 3
    for line in lines[1:]:
        [float(field) for field in line.split(",")]


def test_detect_says_why_velocities_are_blank(capsys):
    positions = {"s0": 4.0, "s1": 12.0}
    assert _estimate_velocities("p", {"s0": np.array([1.0, 2.0]), "s1": np.array([1.5])}, positions) == {}
    assert capsys.readouterr().err == "p: no velocities, s0 has 2 detections and s1 has 1\n"
    assert _estimate_velocities("p", {"s0": np.array([1.0]), "s1": np.array([1.5])}, positions) == {0: 16.0}
    assert capsys.readouterr().err == ""


def _edited_copy(workspace, tmp_path, passage_id, edit):
    """A copy of the workspace passages with ``edit`` applied to one passage's
    directory."""
    data = tmp_path / "edited"
    shutil.copytree(workspace / "data" / "passages", data)
    edit(data / passage_id)
    return data


def test_decreasing_crossing_times_exit_2(workspace, trained, tmp_path, capsys):
    def reverse_s0(pdir):
        meta = json.loads((pdir / "meta.json").read_text())
        meta["crossing_times"]["s0"].reverse()
        (pdir / "meta.json").write_text(json.dumps(meta))

    data = _edited_copy(workspace, tmp_path, "passage_00000", reverse_s0)
    code = run("eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(tmp_path / "eval"))
    assert code == 2
    assert "do not strictly increase" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["eval", "detect", "train"])
def test_sample_beyond_float32_exits_2(workspace, trained, tmp_path, capsys, command):
    def overflow_s0(pdir):
        lines = (pdir / "sensor_s0.csv").read_text().split("\n")
        lines[5] = "1e39"
        (pdir / "sensor_s0.csv").write_text("\n".join(lines))

    first_train = SplitPlan.from_json((workspace / "split.json").read_text()).fold_train_ids(0)[0]
    data = _edited_copy(workspace, tmp_path, first_train, overflow_s0)
    out = tmp_path / "out"
    if command == "train":
        code = run("train", "--dataset", str(data), "--split", str(workspace / "split.json"),
                   "--kernel-size", "5", "--pool-steps", "2", "--base-width", "4", "--epochs", "1",
                   "--out", str(out))
    else:
        code = run(command, "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(out))
    assert code == 2
    assert "1e+39 is not finite in float32" in capsys.readouterr().err
    assert not (out / "model.bin").exists()


def test_eval_without_matches_has_no_spatial_error(workspace, trained, tmp_path, capsys):
    network, _ = load_vader(trained / "model")
    network.params()[-1].value[...] = -50.0  # the head bias: every probability at its floor
    stem = tmp_path / "silent" / "model"
    save_checkpoint(stem, network, seed=7)
    out = tmp_path / "eval"
    code = run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(stem), "--out", str(out)
    )
    assert code == 0
    report = json.loads((out / "metrics.json").read_text())
    assert report["f1_200"] == 0.0
    assert report["mean_spatial_error_cm"] is None and report["msa"] is None
    for row in csv.DictReader((out / "per_sensor.csv").open()):
        assert row["tp"] == "0" and row["mean_spatial_error_cm"] == "" and row["msa"] == ""
    assert "mean spatial error n/a MSA n/a" in capsys.readouterr().out
