"""Aggregation math, CSV layouts, atomic writes."""

import os
import stat

import numpy as np
import pytest

from edapinn.data import SynthSpec, synth_generate, write_text_atomic
from edapinn.errors import ConfigError
from edapinn.evaluation import ClassificationMetrics, RegressionMetrics
from edapinn.model import ModelConfig
from edapinn.objective import PhysicsParams
from edapinn.reporting import (
    ablation_csv,
    ablation_table,
    aggregate_folds,
    confusion_csv,
    curves_csv,
    metrics_csv,
    render_table,
)
from edapinn.trainer import EpochTrace, FoldReport, TrainRunConfig


def fake_report(fold, rmse, f1=0.5, r=0.9, epochs=2):
    reg = RegressionMetrics(rmse, rmse * 0.8, r)
    cls = ClassificationMetrics(0.9, 0.8, 0.7, f1, tn=5, fp=2, fn=3, tp=10)
    traces = [
        EpochTrace(i, 0.1 / (i + 1), 0.2, 0.05, 0.1, 1.0, np.array([0.1, 0.1, 0.1]), 1.0)
        for i in range(epochs)
    ]
    return FoldReport(fold, reg, cls, PhysicsParams(), traces)


def test_single_fold_mean_equals_fold():
    rows = aggregate_folds([fake_report(1, rmse=0.04)])
    assert len(rows) == 2
    assert rows[0][1:] == rows[1][1:]
    assert rows[1][0] == "mean"


def test_two_fold_mean_arithmetic():
    rows = aggregate_folds([fake_report(1, rmse=0.02), fake_report(2, rmse=0.04)])
    assert rows[-1][1] == pytest.approx(0.03, abs=1e-15)


def test_mean_double_entry_to_1e15():
    reports = [fake_report(i + 1, rmse=0.01 * (i + 1), f1=0.1 * (i + 1), r=0.9 - 0.01 * i) for i in range(5)]
    rows = aggregate_folds(reports)
    raw = np.array([row[1:] for row in rows[:-1]])
    assert np.allclose(rows[-1][1:], raw.mean(axis=0), atol=1e-15)


def test_metrics_csv_layout():
    text = metrics_csv([fake_report(1, 0.02), fake_report(2, 0.04)])
    lines = text.strip().splitlines()
    assert lines[0] == "fold,eda_rmse,eda_mae,eda_r,accuracy,precision,recall,f1"
    assert len(lines) == 4
    assert lines[1].startswith("1,") and lines[3].startswith("mean,")


def test_curves_csv_one_row_per_epoch_per_fold():
    text = curves_csv([fake_report(1, 0.02, epochs=3), fake_report(2, 0.04, epochs=3)])
    assert len(text.strip().splitlines()) == 1 + 6


def test_confusion_rows_normalized():
    text = confusion_csv([fake_report(1, 0.02)])
    lines = text.strip().splitlines()
    row0 = [float(v) for v in lines[1].split(",")[1:]]
    row1 = [float(v) for v in lines[2].split(",")[1:]]
    assert sum(row0) == pytest.approx(1.0, abs=1e-12)
    assert sum(row1) == pytest.approx(1.0, abs=1e-12)


def test_ablation_single_variant_single_row():
    data, _ = synth_generate(SynthSpec(n=200, seed=3))
    rows, _ = ablation_table(
        data, ["ridge"], ModelConfig(hidden=[8, 8], seed=1),
        TrainRunConfig(epochs=1, batch_size=64, k=3, seed=1),
    )
    assert len(rows) == 1
    text = ablation_csv(rows)
    assert len(text.strip().splitlines()) == 2


def test_ablation_zeroes_the_columns_of_untrained_heads():
    """eda_only trains no classifier: its row reports F1 0.0, as the
    regression baseline does."""
    data, _ = synth_generate(SynthSpec(n=200, seed=3))
    cfg = TrainRunConfig(epochs=1, batch_size=64, k=3, seed=1)
    (eda_only,), _ = ablation_table(data, ["eda_only"], ModelConfig(hidden=[8, 8], seed=1), cfg)
    assert eda_only.emotion_f1 == 0.0
    assert eda_only.eda_rmse > 0.0 and eda_only.pearson_r != 0.0


def test_ablation_unknown_variant():
    data, _ = synth_generate(SynthSpec(n=200, seed=3))
    with pytest.raises(ConfigError):
        ablation_table(data, ["nope"], ModelConfig(), TrainRunConfig())


def test_atomic_write_no_temp_left_behind(tmp_path):
    target = tmp_path / "deep" / "table.csv"
    write_text_atomic(target, "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"
    leftovers = [p for p in target.parent.iterdir() if p.name != "table.csv"]
    assert not leftovers
    # overwrite is atomic too
    write_text_atomic(target, "a,b\n3,4\n")
    assert target.read_text() == "a,b\n3,4\n"


def test_atomic_write_follows_the_umask(tmp_path):
    """A new file and an overwritten one get the mode ``open`` would give
    them, not the temp file's 0o600."""
    target = tmp_path / "table.csv"
    old = os.umask(0o022)
    try:
        write_text_atomic(target, "a\n1\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        target.chmod(0o600)
        write_text_atomic(target, "a\n2\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
    finally:
        os.umask(old)


def test_render_table_alignment():
    out = render_table(["col", "x"], [["a", "1.25"], ["bb", "2"]])
    lines = out.splitlines()
    assert lines[0].startswith("col")
    assert len(lines) == 4
