"""CLI surface tests: subcommand behaviour, exit codes, artifact layout."""

import csv
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_sample
from vader.cli import _estimate_velocities, main
from vader.engine import ParamStore, save_checkpoint
from vader.model import VaderConfig, build_vader, load_vader
from vader.planner import HyperParams, InputKind
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


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_missing_or_empty_dataset_exits_2(trained, tmp_path, capsys, command):
    """A dataset root that does not exist or is a file, and one without a
    passage, are data errors naming the root: no score of nothing, no empty
    detections."""
    empty = tmp_path / "empty"
    empty.mkdir()
    (tmp_path / "file").write_text("")
    out = tmp_path / "out"
    for dataset, says in (
        (tmp_path / "typo", "No such file or directory"),
        (tmp_path / "file", "Not a directory"),
        (empty, "no passages"),
    ):
        assert run(command, "--dataset", str(dataset), "--checkpoint", str(trained / "model"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(dataset) in err and says in err
        assert not out.exists()


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
    """``train`` saves no optimizer moments, 4 bytes per float32 parameter; a
    checkpoint that holds moments still evaluates to the same report."""
    network, _ = load_vader(trained / "model")
    assert (trained / "model.bin").stat().st_size == 4 * sum(p.value.size for p in network.params())
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


def test_bench_is_an_unknown_subcommand(tmp_path, capsys):
    out = tmp_path / "bench"
    assert run("bench", "--out", str(out)) == 1
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


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


#: Option values the parser refuses: text that does not parse into the
#: option's type, a key that a mapping option repeats, or contradictory options.
SYNTAX_ERRORS = {
    "fraction_not_a_number": ["split", "--fraction", "abc"],
    "fraction_zero_denominator": ["split", "--fraction", "1/0"],
    "detect_position_without_sensor": ["detect", "--sensor-positions", "s0"],
    "detect_position_repeated": ["detect", "--sensor-positions", "s0=4.1,s0=12.3"],
    "detect_positions_empty_item": ["detect", "--sensor-positions", "s0=4.1,,s1=12.3"],
    "detect_positions_trailing_comma": ["detect", "--sensor-positions", "s0=4.1,s1=12.3,"],
    "split_fraction_under_dgps": ["split", "--scenario", "dgps", "--fraction", "0.9"],
    "split_modal_axles_under_stratified": ["split", "--modal-axles", "3"],
    "synth_position_not_a_number": ["synth", "--sensor-positions", "a"],
    "eval_ids_without_split": ["eval", "--ids", "0"],
    "plan_empty_kernel_sizes": ["plan", "--kernel-sizes", ","],
    "plan_kernel_sizes_empty_item": ["plan", "--kernel-sizes", "3,,5"],
    "plan_kernel_sizes_trailing_comma": ["plan", "--kernel-sizes", "3,5,"],
    "synth_positions_empty_item": ["synth", "--sensor-positions", "4.1,,12.3"],
    "synth_axle_count_repeated": ["synth", "--distribution", "8:0.5,8:0.5"],
}

#: Option values that parse but are out of range, each with the message of
#: the config object that refuses it.
OUT_OF_RANGE = {
    "fraction_zero": (["split", "--fraction", "0"], "test_fraction must be in (0, 1), got 0.0"),
    "detect_position_inf": (
        ["detect", "--sensor-positions", "s0=0,s1=inf"], "position of sensor 's1' must be finite, got inf"
    ),
    "detect_position_nan": (
        ["detect", "--sensor-positions", "s0=nan,s1=12.3"], "position of sensor 's0' must be finite, got nan"
    ),
    "synth_n_0": (["synth", "--n", "0"], "n_passages must be >= 1, got 0"),
    "synth_n_negative": (["synth", "--n", "-3"], "n_passages must be >= 1, got -3"),
    "eval_min_confidence_above_1": (["eval", "--min-confidence", "2"], "min_confidence must be in (0, 1), got 2.0"),
    "detect_min_distance_0": (["detect", "--min-distance", "0"], "min_distance must be >= 1, got 0"),
    "train_lr_factor_above_1": (["train", "--lr-factor", "2"], "need 0 < lr_factor < 1 and a finite initial_lr > 0"),
    "train_lr_nan": (["train", "--lr", "nan"], "need 0 < lr_factor < 1 and a finite initial_lr > 0"),
    "train_lr_inf": (["train", "--lr", "inf"], "need 0 < lr_factor < 1 and a finite initial_lr > 0"),
    "train_batch_size_0": (["train", "--batch-size", "0"], "schedule counts must be positive"),
    "train_stop_before_plateau": (
        ["train", "--plateau-patience", "3", "--stop-patience", "2"], "stop_patience must be >= plateau_patience"
    ),
    "train_kernel_size_0": (["train", "--kernel-size", "0"], "kernel_size must be >= 1, got 0"),
    "train_pool_size_1": (["train", "--pool-size", "1"], "pool_size must be >= 2, got 1"),
    "train_base_width_0": (["train", "--base-width", "0"], "base_width must be >= 1, got 0"),
    "plan_kernel_sizes_repeated": (["plan", "--kernel-sizes", "3,3"], "kernel_sizes gives 3 more than once"),
    "plan_pool_sizes_repeated": (["plan", "--pool-sizes", "2,3,2"], "pool_sizes gives 2 more than once"),
    "plan_pool_steps_repeated": (["plan", "--pool-steps", "4,4"], "pool_steps gives 4 more than once"),
    # refused as soon as the receptive field passes 2^63-1, without building it
    "plan_pool_steps_huge": (
        ["plan", "--pool-steps", "99999999999999999999999"], "receptive field 3*2^99999999999999999999999 exceeds"
    ),
    "train_pool_steps_huge": (
        ["train", "--pool-steps", "99999999999999999999999"], "receptive field 9*2^99999999999999999999999 exceeds"
    ),
    "train_kernel_size_huge": (
        ["train", "--kernel-size", "99999999999999999999999"], "receptive field 99999999999999999999999*2^4 exceeds"
    ),
    # refused before the first draw: a passage could hold more samples than any record needs
    "synth_fs_huge": (["synth", "--fs", "1e300"], "could have 7.62e+300 samples, more than 8388608"),
    "synth_fs_1e8": (["synth", "--fs", "1e8"], "could have 7.62e+08 samples, more than 8388608"),
    "synth_spacing_huge": (["synth", "--spacing-range", "3:1e300"], "could have 4.5e+302 samples, more than 8388608"),
    "synth_axle_count_huge": (
        ["synth", "--distribution", "99999999999999999999999:1"], "could have 2.4e+25 samples, more than 8388608"
    ),
}


@pytest.mark.parametrize("case", sorted({**SYNTAX_ERRORS, **OUT_OF_RANGE}))
def test_malformed_value_is_usage_error(workspace, trained, tmp_path, capsys, case):
    """An option value of ``SYNTAX_ERRORS`` is a usage error (exit 1); one of
    ``OUT_OF_RANGE`` parses, and the config object that owns it refuses it
    (exit 2, ``data error:`` and the object's message). Neither writes
    anything."""
    argv, message = OUT_OF_RANGE[case] if case in OUT_OF_RANGE else (SYNTAX_ERRORS[case], None)
    argv = argv + ["--out", str(tmp_path / "out")]
    if argv[0] in ("split", "train", "eval", "detect"):
        argv += ["--dataset", str(workspace / "data" / "passages")]
    if argv[0] in ("eval", "detect"):
        argv += ["--checkpoint", str(trained / "model")]
    if argv[0] == "train":
        argv += ["--split", str(workspace / "split.json")]
    code = run(*argv)
    err = capsys.readouterr().err
    if message is None:
        assert code == 1 and err.startswith("error:")
    else:
        assert code == 2 and err.startswith("data error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def two_sensor_passages(tmp_path_factory):
    root = tmp_path_factory.mktemp("two_sensor")
    argv = ["synth", "--n", "6", "--sensor-positions", "4.1,12.3", "--seed", "5", "--out", str(root / "data")]
    assert run(*argv) == 0
    return root / "data" / "passages"


def test_detect_position_of_unknown_sensor_exits_2(two_sensor_passages, trained, tmp_path, capsys):
    """An id no passage has would leave every velocity blank: it is refused
    before anything is written."""
    out = tmp_path / "detections.csv"
    argv = ["detect", "--dataset", str(two_sensor_passages), "--checkpoint", str(trained / "model"), "--out", str(out)]
    assert run(*argv, "--sensor-positions", "s0=4.1,S1=12.3") == 2
    err = capsys.readouterr().err
    assert "--sensor-positions names sensor 'S1', which no selected passage has (sensor ids: s0, s1)" in err
    assert not out.exists()
    assert run(*argv, "--sensor-positions", "s0=4.1,s1=12.3") == 0
    rows = list(csv.DictReader(out.open()))
    assert {row["sensor_id"] for row in rows} == {"s0", "s1"}
    assert any(row["velocity_mps"] for row in rows)


def test_malformed_config_value_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("fraction = 1/0\n")
    out = tmp_path / "split.json"
    assert run("split", "--config", str(cfg), "--dataset", str(workspace / "data" / "passages"), "--out", str(out)) == 1
    assert "fraction" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("distribution", ["0:1", "-2:1"])
def test_synth_axle_count_below_1_exits_2(tmp_path, capsys, distribution):
    out = tmp_path / "synth"
    assert run("synth", "--n", "2", f"--distribution={distribution}", "--out", str(out)) == 2
    assert "axle counts must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--fs=nan", "--noise-std=nan", "--distribution=8:inf"])
def test_synth_non_finite_value_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "synth"
    assert run("synth", "--n", "2", flag, "--out", str(out)) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("quantity", ["speed", "spacing", "frequency"])
def test_synth_reversed_range_exits_2(tmp_path, capsys, quantity):
    out = tmp_path / "synth"
    assert run("synth", "--n", "2", f"--{quantity}-range=50:10", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{quantity}_range low bound 50.0 exceeds high bound 10.0" in err
    assert not out.exists()


def test_synth_refused_draw_writes_nothing(tmp_path, capsys):
    """Only some draws of a 1.9-4 m spacing range fall below the minimum
    axle spacing; the first refused one leaves no earlier passage behind."""
    out = tmp_path / "synth"
    assert run("synth", "--n", "20", "--spacing-range", "1.9:4", "--seed", "0", "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_synth_refuses_a_passage_split_would_refuse(tmp_path, capsys):
    """At 10 Hz two crossings of one draw round to the same sample: every
    drawn passage is validated before the first is saved."""
    out = tmp_path / "synth"
    assert run("synth", "--n", "4", "--fs", "10", "--seed", "1", "--out", str(out)) == 2
    assert "two crossings map to sample" in capsys.readouterr().err
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
    assert run(
        "train", "--dataset", str(workspace / "data" / "passages"), "--split", str(tmp_path),
        "--out", str(tmp_path / "train"),
    ) == 2
    assert not (tmp_path / "train" / "run.json").exists()


@pytest.mark.parametrize("where", ["test", "fold"])
def test_split_listing_a_passage_twice_exits_2(workspace, trained, tmp_path, capsys, where):
    """A passage listed twice would be scored twice by eval, or trained on
    twice per epoch: the plan is refused, naming the passage."""
    payload = json.loads((workspace / "split.json").read_text())
    pool = payload["test"] if where == "test" else payload["folds"][0]
    pool.append(pool[0])
    split = tmp_path / "split.json"
    split.write_text(json.dumps(payload))
    out = tmp_path / "eval"
    code = run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model"),
        "--split", str(split), "--out", str(out),
    )
    assert code == 2
    assert f"split plan lists passage {pool[0]!r} more than once" in capsys.readouterr().err
    assert not out.exists()


def test_eval_split_without_ids_scores_the_test_set(workspace, trained, tmp_path):
    argv = [
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model"),
        "--split", str(workspace / "split.json"),
    ]
    assert run(*argv, "--out", str(tmp_path / "default")) == 0
    assert run(*argv, "--ids", "test", "--out", str(tmp_path / "test")) == 0
    assert json.loads((tmp_path / "default" / "run.json").read_text())["config"]["ids"] == "test"
    for name in ("metrics.json", "per_sensor.csv"):
        assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "test" / name).read_bytes()


def test_dgps_split_of_an_absent_modal_count_exits_2(workspace, tmp_path, capsys):
    out = tmp_path / "split.json"
    code = run(
        "split", "--dataset", str(workspace / "data" / "passages"), "--scenario", "dgps", "--modal-axles", "7",
        "--out", str(out),
    )
    assert code == 2
    assert "no passages with axle count 7" in capsys.readouterr().err
    assert not out.exists()


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


def _fill_bin(stem, value):
    """Overwrite every float32 value of the checkpoint's .bin with ``value``."""
    path = stem.with_suffix(".bin")
    path.write_bytes(np.full(path.stat().st_size // 4, value, dtype="<f4").tobytes())


def _as_version_2(stem):
    """Rewrite the checkpoint as version 2 wrote it: every value widened to float64."""
    path = stem.with_suffix(".bin")
    path.write_bytes(np.fromfile(path, dtype="<f4").astype("<f8").tobytes())
    _edit_manifest(stem, lambda m: m.update(version=2))


CHECKPOINT_DAMAGE = {
    "truncated_json": lambda stem: stem.with_suffix(".json").write_text(
        stem.with_suffix(".json").read_text()[:200]
    ),
    "not_json": lambda stem: stem.with_suffix(".json").write_bytes(b"\x89PNG not a manifest"),
    "no_format": lambda stem: _edit_manifest(stem, lambda m: m.pop("format")),
    "no_model": lambda stem: _edit_manifest(stem, lambda m: m.pop("model")),
    "no_params": lambda stem: _edit_manifest(stem, lambda m: m.pop("params")),
    "bad_model": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(input_kind="audio")),
    "version_2": _as_version_2,
    "version_1": lambda stem: _edit_manifest(stem, lambda m: (m.pop("model"), m.update(version=1))),
    "version_float": lambda stem: _edit_manifest(stem, lambda m: m.update(version=3.0)),
    "float_kernel_size": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(kernel_size=5.0)),
    "float_pool_steps": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(pool_steps=2.0)),
    "float_base_width": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(base_width=4.5)),
    "kernel_size_even": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(kernel_size=4)),
    "kernel_size_zero": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(kernel_size=0)),
    "pool_steps_huge": lambda stem: _edit_manifest(stem, lambda m: m["model"].update(pool_steps=10**23)),
    "layers_differ": lambda stem: _edit_manifest(stem, lambda m: m["layers"].pop()),
    **{
        f"{key}_{name}": (lambda stem, key=key, value=value: _edit_manifest(stem, lambda m: m.update({key: value})))
        for key, name, value in (
            ("seed", "string", "abc"),
            ("seed", "float", 1.5),
            ("seed", "bool", True),
            ("dtype", "int", 5),
            ("dtype", "float64", "float64"),
            ("step", "negative", -4),
            ("step", "string", "x"),
            ("step", "bool", False),
            ("has_adam", "string", "no"),
            ("has_adam", "int", 1),
            ("has_adam", "null", None),
        )
    },
    "no_bin": lambda stem: stem.with_suffix(".bin").unlink(),
    "short_bin": lambda stem: stem.with_suffix(".bin").write_bytes(stem.with_suffix(".bin").read_bytes()[:-3]),
    "nan_bin": lambda stem: _fill_bin(stem, np.nan),
    "inf_bin": lambda stem: _fill_bin(stem, np.inf),
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
    if damage in ("version_1", "version_2"):
        assert "retrain" in err
    if damage in ("nan_bin", "inf_bin"):
        assert "is not finite in float32" in err
    if damage == "no_format":
        assert "not a checkpoint manifest" in err
    if damage.startswith(("seed_", "dtype_", "step_", "has_adam_")):
        assert f"manifest {damage.rsplit('_', 1)[0]} " in err
    if damage.startswith(("kernel_size_", "pool_steps_")):
        assert f"{stem}: unusable model record" in err


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


def test_config_line_without_equals_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 3\nverbose\n")
    out = tmp_path / "train"
    assert _train(workspace, out, config=cfg) == 1
    assert f"{cfg}:2: expected 'key = value', got 'verbose'" in capsys.readouterr().err
    assert not out.exists()


def test_misspelled_config_key_is_usage_error(workspace, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# three epochs\nepoch = 3\n")
    out = tmp_path / "train"
    assert _train(workspace, out, config=cfg) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2: " in err and "'epoch'" in err
    assert not out.exists()


def test_config_switch_on(workspace, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("verbose = yes\n")
    out = tmp_path / "train"
    assert _train(workspace, out, config=cfg) == 0
    assert "epoch 0:" in capsys.readouterr().out
    assert json.loads((out / "run.json").read_text())["config"]["verbose"] is True


@pytest.mark.parametrize("command", ["plan", "eval", "detect"])
def test_seed_only_where_read(workspace, trained, tmp_path, capsys, command):
    argv = [command, "--seed", "1", "--out", str(tmp_path / "out")]
    if command != "plan":
        argv += ["--dataset", str(workspace / "data" / "passages")]
    if command in ("eval", "detect"):
        argv += ["--checkpoint", str(trained / "model")]
    assert run(*argv) == 1
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["synth", "split", "train"])
def test_negative_seed_exits_2(workspace, tmp_path, monkeypatch, capsys, command):
    """numpy's generators take no negative seed: one from the command line
    or from VADER_SEED is refused before anything is read or written."""
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "synth":
        argv += ["--n", "2", "--distribution", "3:1.0"]
    else:
        argv += ["--dataset", str(workspace / "data" / "passages")]
    if command == "train":
        argv += ["--split", str(workspace / "split.json")]
    assert run(*argv, "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "seed must be >= 0, got -1" in err
    monkeypatch.setenv("VADER_SEED", "-3")
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "seed must be >= 0, got -3" in err
    assert not out.exists()


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
        ["--fs", "nan"],
        ["--fs", "inf"],
        ["--fl-certain", "nan"],
        ["--fl-useful", "inf"],
        ["--fs", "1e300", "--fl-certain", "1e-300", "--fl-useful", "1e-300"],
    ],
)
def test_plan_zero_frequency_exits_2(tmp_path, capsys, flags):
    """A zero or non-finite frequency is a data error, also where every
    entry is underfit or invalid (the first two cases), where it would
    fail the comparison of the two frequencies (``--fl-useful inf``), and
    where one period of it spans more samples than a float holds (the
    last)."""
    out = tmp_path / "plan"
    assert run("plan", *flags, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_plan_receptive_field_overflow_is_data_error(tmp_path, capsys):
    out = tmp_path / "plan"
    assert run("plan", "--kernel-sizes", "9", "--pool-sizes", "5", "--pool-steps", "30", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "exceeds 2^63-1" in err
    assert not out.exists()


def test_even_kernel_size_exits_2(workspace, tmp_path, capsys):
    """An even kernel has no centre tap for a 'same' convolution: the planner
    calls it invalid, and train refuses it before writing anything."""
    out = tmp_path / "out"
    assert _train(workspace, out, kernel_size=4) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "kernel_size 4 must be odd and exceed pool_size 2" in err
    assert not out.exists()
    plan = tmp_path / "plan"
    assert run("plan", "--kernel-sizes", "4,8", "--pool-sizes", "2", "--pool-steps", "4", "--out", str(plan)) == 0
    assert {row["class"] for row in csv.DictReader((plan / "plan.csv").open())} == {"invalid"}


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


def test_fewer_crossings_than_velocities_exits_2(workspace, trained, tmp_path, capsys):
    n_axles = json.loads((workspace / "data" / "passages" / "passage_00000" / "meta.json").read_text())["axle_count"]

    def drop_s0_crossing(pdir):
        meta = json.loads((pdir / "meta.json").read_text())
        meta["crossing_times"]["s0"].pop()
        (pdir / "meta.json").write_text(json.dumps(meta))

    data = _edited_copy(workspace, tmp_path, "passage_00000", drop_s0_crossing)
    code = run("eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(tmp_path / "eval"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"sensor s0: {n_axles - 1} crossings vs {n_axles} velocities" in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize(
    "field, value, fault",
    [
        ("sample_rate", float("nan"), "sample_rate nan is not finite"),
        ("sample_rate", float("inf"), "sample_rate inf is not finite"),
        ("velocities", float("nan"), "velocity nan is not finite and > 0"),
        ("velocities", float("inf"), "velocity inf is not finite and > 0"),
    ],
    ids=["rate_nan", "rate_inf", "velocity_nan", "velocity_inf"],
)
def test_non_finite_meta_exits_2(workspace, trained, tmp_path, capsys, field, value, fault):
    """A non-finite rate or velocity is named once, and is not scored."""

    def write_value(pdir):
        meta = json.loads((pdir / "meta.json").read_text())
        if field == "velocities":
            meta[field][0] = value
        else:
            meta[field] = value
        (pdir / "meta.json").write_text(json.dumps(meta))

    data = _edited_copy(workspace, tmp_path, "passage_00000", write_value)
    code = run("eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(tmp_path / "eval"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count(fault) == 1 and ";" not in err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("target", ["meta.json", "sensor_s0.f64", "split.json"])
def test_undecodable_input_exits_2(workspace, trained, tmp_path, capsys, target):
    """A dataset or split file that is not text, or a sample file that is
    not whole float64 values, is a data error."""
    data = _edited_copy(workspace, tmp_path, "passage_00000", lambda pdir: None)
    split = tmp_path / "split.json"
    shutil.copy(workspace / "split.json", split)
    path = split if target == "split.json" else data / "passage_00000" / target
    path.write_bytes(path.read_bytes() + b"\xff")
    code = run(
        "eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--split", str(split),
        "--out", str(tmp_path / "eval"),
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


def _overflow_s0(pdir):
    """Put a sample beyond float32 range into sensor s0 of a passage."""
    write_sample(pdir / "sensor_s0.f64", 5, 1e39)


def test_sample_file_cut_at_a_sample_boundary_exits_2(workspace, trained, tmp_path, capsys):
    """A sample file cut just past the sample of its last crossing keeps
    every label; eval refuses it for its length instead of scoring a
    shorter series."""
    meta = json.loads((workspace / "data" / "passages" / "passage_00000" / "meta.json").read_text())
    kept = int(max(meta["crossing_times"]["s0"]) * meta["sample_rate"]) + 2

    def cut(pdir):
        path = pdir / "sensor_s0.f64"
        path.write_bytes(path.read_bytes()[: 8 * kept])

    data = _edited_copy(workspace, tmp_path, "passage_00000", cut)
    code = run("eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(tmp_path / "eval"))
    assert code == 2
    err = capsys.readouterr().err
    path = data / "passage_00000" / "sensor_s0.f64"
    assert f"{path}: expected {8 * meta['n_samples']} bytes of values, found {8 * kept}" in err
    assert not (tmp_path / "eval").exists()


def test_text_dataset_exits_2(workspace, trained, tmp_path, capsys):
    """A passage written by an older version, text samples and no
    ``n_samples``, is refused by name: the dataset must be regenerated."""

    def to_text(pdir):
        meta = json.loads((pdir / "meta.json").read_text())
        del meta["n_samples"]
        (pdir / "meta.json").write_text(json.dumps(meta))
        binary = pdir / "sensor_s0.f64"
        binary.with_suffix(".csv").write_text("".join(f"{x!r}\n" for x in np.fromfile(binary, "<f8").tolist()))
        binary.unlink()

    data = _edited_copy(workspace, tmp_path, "passage_00002", to_text)
    code = run("eval", "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(tmp_path / "eval"))
    assert code == 2
    text = data / "passage_00002" / "sensor_s0.csv"
    expected = f"{text}: text sample files are no longer read; regenerate the dataset"
    assert capsys.readouterr().err == f"data error: {expected}\n"


@pytest.mark.parametrize("command", ["eval", "detect", "train", "train-spectrogram"])
def test_sample_beyond_float32_exits_2(workspace, trained, tmp_path, capsys, command):
    first_train = SplitPlan.from_json((workspace / "split.json").read_text()).fold_train_ids(0)[0]
    data = _edited_copy(workspace, tmp_path, first_train, _overflow_s0)
    out = tmp_path / "out"
    if command.startswith("train"):
        kind = "spectrogram" if command == "train-spectrogram" else "raw"
        code = run("train", "--dataset", str(data), "--split", str(workspace / "split.json"),
                   "--input-kind", kind, "--kernel-size", "5", "--pool-steps", "2", "--base-width", "4",
                   "--epochs", "1", "--out", str(out))
    else:
        code = run(command, "--dataset", str(data), "--checkpoint", str(trained / "model"), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    value = "spectrogram value" if command == "train-spectrogram" else "input value 1e+39"
    assert f"{first_train}/s0: {value}" in err and "is not finite in float32" in err
    assert not (out / "model.bin").exists()


@pytest.mark.parametrize("input_kind", ["raw", "spectrogram"])
def test_detect_failing_passage_leaves_no_csv(workspace, trained, tmp_path, capsys, input_kind):
    """A sample beyond float32 range in the 4th passage: exit 2 naming that
    passage and sensor, without a numpy warning, and no detections file,
    although three passages were detected before it."""
    stem = trained / "model"
    if input_kind == "spectrogram":
        network = build_vader(VaderConfig(HyperParams(InputKind.SPECTROGRAM, 5, 2, 2, base_width=4)))
        network.init_params(0)
        stem = tmp_path / "spectrogram" / "model"
        save_checkpoint(stem, network, seed=0)
    data = _edited_copy(workspace, tmp_path, "passage_00003", _overflow_s0)
    out = tmp_path / "detections.csv"
    assert run("detect", "--dataset", str(data), "--checkpoint", str(stem), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "passage_00003/s0: " in err and "not finite in float32" in err
    assert "inf" not in err and "Warning" not in err
    assert list(tmp_path.glob("detections.csv*")) == []


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


@pytest.mark.parametrize("input_kind", ["raw", "spectrogram"])
def test_eval_of_a_fold_equals_its_validation(workspace, trained, tmp_path, input_kind):
    """Validation and eval score through one function: eval of fold 0's
    validation passages gives exactly the F1 that history.csv records at the
    best epoch, whose weights the checkpoint holds."""
    model_dir = trained
    if input_kind == "spectrogram":
        model_dir = tmp_path / "train"
        assert _train(workspace, model_dir, input_kind="spectrogram") == 0
    best_f1 = max(float(row["val_f1"]) for row in csv.DictReader((model_dir / "history.csv").open()))
    out = tmp_path / "eval"
    assert run(
        "eval", "--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(model_dir / "model"),
        "--split", str(workspace / "split.json"), "--ids", "0", "--out", str(out),
    ) == 0
    assert json.loads((out / "metrics.json").read_text())["f1_200"] == best_f1


def test_eval_and_detect_pick_the_same_peaks(workspace, trained, tmp_path):
    """eval's peak options reach its scoring: with the same options, the
    peaks eval scores (tp + fp at 200 cm, over all passages) are the rows
    detect writes, and the options change that count."""
    dataset = ["--dataset", str(workspace / "data" / "passages"), "--checkpoint", str(trained / "model")]
    options = ["--min-confidence", "0.3", "--min-distance", "40"]
    counts = []
    for argv in (options, []):
        assert run("eval", *dataset, *argv, "--out", str(tmp_path / "eval")) == 0
        rows = csv.DictReader((tmp_path / "eval" / "per_sensor.csv").open())
        scored = sum(int(row["tp"]) + int(row["fp"]) for row in rows)
        assert run("detect", *dataset, *argv, "--out", str(tmp_path / "det.csv")) == 0
        assert scored == len(list(csv.DictReader((tmp_path / "det.csv").open())))
        counts.append(scored)
    assert counts[0] != counts[1]


# -------------------------------------------------- contract: mutated inputs

#: One value of each JSON type; a swap writes one of another type than the
#: value it replaces (ints and floats are one type, JSON's number).
JSON_VALUES = (None, True, 7, "abc", [], {})
NON_FINITE = ("nan", "inf", "-inf")


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value)


def _json_paths(node, path=()):
    """The path of ``node`` and of every value inside it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _json_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate_json(data, text, targets):
    """``text`` with one value swapped for another JSON type or a non-finite
    number, one object key deleted, or the document truncated; only values
    whose path passes ``targets`` change."""
    kind = data.draw(st.sampled_from(["swap", "non_finite", "delete", "truncate"]))
    if kind == "truncate":
        return text[: data.draw(st.integers(0, len(text.rstrip()) - 1))]
    doc = json.loads(text)
    paths = [p for p in _json_paths(doc) if targets(p)]
    if kind == "delete":
        paths = [p for p in paths if p and isinstance(_json_at(doc, p[:-1]), dict)]
    path = data.draw(st.sampled_from(paths))
    if kind == "delete":
        del _json_at(doc, path[:-1])[path[-1]]
        return json.dumps(doc)
    if kind == "swap":
        old = _json_at(doc, path)
        value = data.draw(st.sampled_from([v for v in JSON_VALUES if _json_type(v) != _json_type(old)]))
    else:
        value = float(data.draw(st.sampled_from(NON_FINITE)))
    if not path:
        return json.dumps(value)
    _json_at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


def _mutate_samples(data, raw):
    """``raw``, a sample file, with one sample overwritten by a non-finite
    number or one beyond float32 range, cut to fewer bytes, or grown by 1-7
    bytes."""
    kind = data.draw(st.sampled_from(["non_finite", "truncate", "append"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "append":
        return raw + bytes(data.draw(st.integers(1, 7)))
    # 1e39 is finite in float64 but overflows the float32 network
    value = np.array(float(data.draw(st.sampled_from(NON_FINITE + ("1e39",)))), dtype="<f8").tobytes()
    i = 8 * data.draw(st.integers(0, len(raw) // 8 - 1))
    return raw[:i] + value + raw[i + 8 :]


@pytest.fixture(scope="module")
def contract_files(workspace, trained, tmp_path_factory):
    """A private copy of the workspace passages, split and checkpoint, and the
    four files the contract test mutates: the meta.json and a sample file of a
    passage of fold 0, which fold 0's training and evaluation both read, the
    split JSON and the checkpoint's model.json."""
    root = tmp_path_factory.mktemp("contract")
    shutil.copytree(workspace / "data" / "passages", root / "passages")
    shutil.copy(workspace / "split.json", root / "split.json")
    stem = _copy_checkpoint(trained, root / "ckpt")
    pdir = root / "passages" / json.loads((root / "split.json").read_text())["folds"][0][0]
    files = {
        "meta": pdir / "meta.json",
        "samples": pdir / "sensor_s0.f64",
        "split": root / "split.json",
        "model": stem.with_suffix(".json"),
    }
    return root, files


#: The values of each JSON file the contract test may change. Of the
#: manifest, the model record and the typed entries beside it are in, but
#: not ``seed``, whose ``null`` is valid. The split's seed is in: nothing
#: reads it after splitting, but it must still be an integer.
CONTRACT_TARGETS = {
    "meta": lambda path: True,
    "split": lambda path: True,
    "model": lambda path: path[:1] in (("model",), ("dtype",), ("step",), ("has_adam",)),
}


@settings(database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_mutated_input_exits_1_or_2(contract_files, data):
    """Contract: a meta.json, split JSON or model.json with a value of
    another JSON type, a non-finite number, a missing key or a truncated
    body, or a sample file with a non-finite or out-of-range sample or of
    the wrong length, makes eval return 1 or 2, and no exception escapes main. detect and
    train, which read their inputs through other paths, must do the same for
    every file they read: detect all but the split, train all but the
    model."""
    root, files = contract_files
    name = data.draw(st.sampled_from(sorted(files)))
    original = files[name].read_bytes()
    if name == "samples":
        mutated = _mutate_samples(data, original)
    else:
        mutated = _mutate_json(data, original.decode(), CONTRACT_TARGETS[name]).encode()
    # the mutated passage is one of fold 0, so only a split mutation may
    # evaluate another set instead
    ids = data.draw(st.sampled_from(["test", "0", "1", "2", "3", "4"])) if name == "split" else "0"
    inputs = ["--dataset", str(root / "passages"), "--checkpoint", str(files["model"].with_suffix(""))]
    files[name].write_bytes(mutated)
    try:
        codes = [run("eval", *inputs, "--split", str(files["split"]), "--ids", ids, "--out", str(root / "eval"))]
        if name != "split":
            codes.append(run("detect", *inputs, "--out", str(root / "detections.csv")))
        if name != "model":
            codes.append(run(
                "train", "--dataset", str(root / "passages"), "--split", str(files["split"]), "--kernel-size", "5",
                "--pool-steps", "2", "--base-width", "4", "--epochs", "1", "--batch-size", "4",
                "--out", str(root / "train"),
            ))
    finally:
        files[name].write_bytes(original)
        shutil.rmtree(root / "eval", ignore_errors=True)
        shutil.rmtree(root / "train", ignore_errors=True)
        (root / "detections.csv").unlink(missing_ok=True)
    assert all(code in (1, 2) for code in codes)
