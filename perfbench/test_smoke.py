"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from vader import model, training  # noqa: E402
from workloads import WORKLOADS, run_benchmark  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "train_raw": dict(passages=12, epochs=2),
    "detect_raw": dict(passages=2),
    "detect_spectrogram": dict(passages=1),
}


def _run(name, tmp_path, trace=False):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    return run_benchmark(wl, seed=5, seconds=0.1, trace=trace, root=tmp_path)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, report = _run(name, tmp_path, trace)
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert len(report["digests"]) == 1 and not report["problems"]


def test_nan_probability_is_counted_not_fatal(tmp_path, monkeypatch):
    real_infer = model.infer
    calls = []

    def nan_once(network, x):
        probs = real_infer(network, x)
        if not calls:
            probs[0] = math.nan
        calls.append(None)
        return probs

    monkeypatch.setattr(model, "infer", nan_once)
    result, report = _run("detect_raw", tmp_path)
    attempted = result["attempted"]
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(1 - 1 / attempted)
    assert any("non-finite probability" in p for p in report["problems"])


def test_raising_series_is_counted_not_fatal(tmp_path, monkeypatch):
    real_infer = model.infer
    calls = []

    def raise_once(network, x):
        calls.append(None)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return real_infer(network, x)

    monkeypatch.setattr(model, "infer", raise_once)
    result, report = _run("detect_raw", tmp_path)
    assert result["failed"] == 1 and result["attempted"] > 1
    assert any("injected" in p for p in report["problems"])


def test_non_finite_training_loss_fails_every_step(tmp_path, monkeypatch):
    real_loss = training.focal_loss

    def nan_loss(*args, **kwargs):
        loss, grad = real_loss(*args, **kwargs)
        return math.nan, grad

    monkeypatch.setattr(training, "focal_loss", nan_loss)
    result, report = _run("train_raw", tmp_path)
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["success_rate"]["value"] == 0.0
    assert any("non-finite epoch loss" in p for p in report["problems"])


def test_environment_record():
    from run import environment

    env = environment()
    assert set(env) == {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads", "command"}
    assert env["nproc"] >= 1 and env["numpy"] and env["command"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "detect_raw", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
