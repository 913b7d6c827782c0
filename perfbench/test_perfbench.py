"""Smoke tests of the benchmark's own correctness checks and tracing.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from edapinn import data, model, suites, trainer  # noqa: E402

TINY_SYNTH = {"n": 200, "noise": 0.01}


@pytest.fixture
def tiny(monkeypatch):
    """The training workloads at 200 samples and one epoch."""
    monkeypatch.setattr(workloads, "SYNTH", TINY_SYNTH)
    monkeypatch.setattr(workloads, "ABLATE_EPOCHS", 1)
    monkeypatch.setattr(workloads, "KFOLD_EPOCHS", 1)


def _corrupt_number(path: Path) -> None:
    text = path.read_text()
    i = text.index("0.", text.index("\n"))
    path.write_text(text[: i + 2] + ("1" if text[i + 2] != "1" else "2") + text[i + 3 :])


# kind: (artifact, alteration, the failure it must produce)
CORRUPTIONS = {
    "header": (
        "metrics.csv",
        lambda p: p.write_text(p.read_text().replace("eda_rmse", "rmse", 1)),
        "does not start with",
    ),
    "non-finite": (
        "params.csv",
        lambda p: p.write_text(re.sub(r"\n1,[^,]+", "\n1,nan", p.read_text())),
        "not a finite number",
    ),
    "missing": ("fold_5.ckpt.json", lambda p: p.unlink(), "missing"),
    "fold-count": (
        "curves.csv",
        lambda p: p.write_text(p.read_text().rsplit("\n", 2)[0] + "\n"),
        "rows differ",
    ),
    "bytes": ("curves.csv", _corrupt_number, "not byte-identical"),
    "checkpoint": (
        "fold_2.ckpt.json",
        lambda p: p.write_text(p.read_text().replace('"dropout": 0.1', '"dropout": NaN')),
        "non-finite constant",
    ),
}


def test_healthy_runs_pass(tmp_path, tiny):
    for cls in (workloads.AblateSeq, workloads.KfoldPar):
        wl = cls(3, tmp_path / cls.name)
        wl.setup()
        for i in range(2):
            wall, failures = wl.run_op(i)
            assert failures == [] and wall > 0
        assert set(wl.quality) == {"eda_pearson_r", "emotion_f1", "eda_rmse"}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_altered_artifact_is_a_failed_run(tmp_path, tiny, monkeypatch, kind):
    name, corrupt, reason = CORRUPTIONS[kind]
    wl = workloads.KfoldPar(3, tmp_path)
    wl.setup()
    assert wl.run_op(0)[1] == []
    real = workloads.run_cli

    def altered(argv):
        result = real(argv)
        corrupt(wl.out / name)
        return result

    monkeypatch.setattr(workloads, "run_cli", altered)
    _, failures = wl.run_op(1)
    assert any(f.startswith(name) and reason in f for f in failures), failures


def test_nonzero_exit_is_a_failed_run(tmp_path, tiny, monkeypatch):
    wl = workloads.AblateSeq(3, tmp_path)
    wl.setup()
    real = workloads.run_cli
    monkeypatch.setattr(workloads, "run_cli", lambda argv: (3,) + real(argv)[1:])
    _, failures = wl.run_op(0)
    assert "exit code 3" in failures


def _fake_suite(name: str, passed: bool):
    def suite(seed=1):
        return suites.SuiteResult(name, passed, "fake", 0.0)

    return suite


def test_failing_suite_is_a_failed_run(tmp_path, monkeypatch):
    fakes = tuple(_fake_suite(n, n != "ode-oracle") for n in workloads.SUITES)
    monkeypatch.setattr(suites, "ALL_SUITES", fakes)
    args = argparse.Namespace(workload="check", seed=5, seconds=0.0, trace=0)
    result, record = run.run(args, ROOT, tmp_path)
    assert result["attempted"] == run.MIN_OPS
    assert result["failed"] == run.MIN_OPS and result["correct"] is False
    assert result["metrics"]["success_ratio"]["value"] == 0.0
    assert "seed 5: suite ode-oracle FAIL" in record["failures"][0]


def test_benchmark_json_names_every_emitted_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS) - workloads.UNLISTED


def test_tracer_wraps_every_binding_and_restores():
    originals = (trainer.forward_batch, model.ad.affine_forward, suites.ALL_SUITES)
    tracer = Tracer()
    tracer.install()
    try:
        assert trainer.forward_batch is not originals[0]
        assert model.ad.affine_forward is not originals[1]
        assert all(s.__wrapped__ is o for s, o in zip(suites.ALL_SUITES, originals[2]))
        ds = data.Dataset(
            data.np.arange(40.0), data.np.zeros((40, 3)), data.np.zeros(40), data.np.arange(40) % 2
        )
        workers = [threading.Thread(target=data.stratified_kfold, args=(ds, 5, s)) for s in (1, 2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
            assert not w.is_alive()
    finally:
        tracer.uninstall()
    assert (trainer.forward_batch, model.ad.affine_forward, suites.ALL_SUITES) == originals
    summary = tracer.summary()
    assert summary["calls"]["data.stratified_kfold"] == 2
    assert summary["threads"] == 2
    # each worker's self time is its own: together at most the two spans
    assert 0 < summary["module_self_s"]["data"] <= summary["total_s"]["data.stratified_kfold"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
