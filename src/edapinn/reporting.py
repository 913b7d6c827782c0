"""Fold aggregation, ablation harness and CSV emission.

All tables mirror the protocol's layouts: per-fold metrics plus a Mean row,
an ablation table of network variants and classical baselines, per-epoch
loss curves, per-fold physics parameters, and the averaged row-normalized
confusion matrix. Numbers are written as shortest round-trip decimals and
files are written atomically (temp file + rename) so interrupted runs never
leave truncated tables behind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import BASELINES, baseline_rows
from .data import Dataset, _fmt, stratified_kfold, write_text_atomic  # re-exported for cli
from .errors import ContractError
from .evaluation import normalized_confusion
from .model import ModelConfig
from .trainer import FoldReport, TrainRunConfig, fold_jobs, run_fold_jobs


# ---------------------------------------------------------------------------
# fold-wise metrics table
# ---------------------------------------------------------------------------

METRICS_COLUMNS = ["fold", "eda_rmse", "eda_mae", "eda_r", "accuracy", "precision", "recall", "f1"]


@dataclass
class MetricsRow:
    fold: str
    values: list[float]


def aggregate_folds(reports: list[FoldReport]) -> list[MetricsRow]:
    """Rows fold 1..k then the arithmetic Mean row."""
    if not reports:
        raise ContractError("need at least one fold report")
    rows = []
    for r in reports:
        rows.append(
            MetricsRow(
                str(r.fold),
                [
                    r.regression.rmse,
                    r.regression.mae,
                    r.regression.pearson_r,
                    r.classification.accuracy,
                    r.classification.precision,
                    r.classification.recall,
                    r.classification.f1,
                ],
            )
        )
    mean = np.mean([row.values for row in rows], axis=0)
    rows.append(MetricsRow("mean", [float(v) for v in mean]))
    return rows


def metrics_csv(reports: list[FoldReport]) -> str:
    lines = [",".join(METRICS_COLUMNS)]
    for row in aggregate_folds(reports):
        lines.append(",".join([row.fold] + [_fmt(v) for v in row.values]))
    return "\n".join(lines) + "\n"


def curves_csv(reports: list[FoldReport]) -> str:
    lines = ["epoch,fold,l_eda,l_emotion,l_physics,lambda_eff"]
    for r in reports:
        for tr in r.traces:
            lines.append(
                f"{tr.epoch + 1},{r.fold},{_fmt(tr.l_eda)},{_fmt(tr.l_emotion)},"
                f"{_fmt(tr.l_physics)},{_fmt(tr.lambda_eff)}"
            )
    return "\n".join(lines) + "\n"


def params_csv(reports: list[FoldReport]) -> str:
    lines = ["fold,alpha0,beta1,beta2,beta3,gamma"]
    for r in reports:
        p = r.physics
        lines.append(
            f"{r.fold},{_fmt(p.alpha0)},{_fmt(p.beta[0])},{_fmt(p.beta[1])},"
            f"{_fmt(p.beta[2])},{_fmt(p.gamma)}"
        )
    return "\n".join(lines) + "\n"


def confusion_csv(reports: list[FoldReport]) -> str:
    cm = normalized_confusion([r.classification for r in reports])
    lines = ["true_label,pred_0,pred_1"]
    lines.append(f"0,{_fmt(cm[0, 0])},{_fmt(cm[0, 1])}")
    lines.append(f"1,{_fmt(cm[1, 0])},{_fmt(cm[1, 1])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ablation table (network variants + classical baselines)
# ---------------------------------------------------------------------------

ABLATION_COLUMNS = ["variant", "eda_rmse", "emotion_f1", "pearson_r"]


@dataclass
class AblationRow:
    variant: str
    eda_rmse: float
    emotion_f1: float
    pearson_r: float


def ablation_table(
    data: Dataset,
    variants: list[str],
    model_cfg: ModelConfig,
    cfg: TrainRunConfig,
    threads: int = 1,
) -> tuple[list[AblationRow], dict[str, list[FoldReport]]]:
    """One row per variant id, each evaluated with the same stratified folds.

    A variant is a baseline of ``baselines.BASELINES`` or else a network
    variant, which ``TrainRunConfig.validate`` checks. Network variants run
    the full k-fold protocol; their (variant, fold) trainings form one job
    list, run on ``threads`` worker processes when threads > 1 (see
    ``trainer.run_fold_jobs``). The default of 1 trains in this process. The
    eda_only variant reports F1 = 0.0: its classification head receives no
    gradient, so there is no trained classifier to score. Returns the table
    plus the per-variant fold reports so callers can reuse them without
    retraining.
    """
    folds = stratified_kfold(data, cfg.k, cfg.seed)
    networks = [v for v in variants if v not in BASELINES]
    jobs = fold_jobs(data, folds, [replace(cfg, variant=v) for v in networks], model_cfg)
    results = run_fold_jobs(jobs, threads)
    k = len(folds)
    fold_reports = {v: [r for r, _ in results[i * k : (i + 1) * k]] for i, v in enumerate(networks)}
    baseline = baseline_rows(data, folds, [v for v in variants if v in BASELINES])
    rows: list[AblationRow] = []
    for v in variants:
        if v in baseline:
            rows.append(AblationRow(v, *baseline[v]))
            continue
        reports = fold_reports[v]
        rmse = float(np.mean([r.regression.rmse for r in reports]))
        r_mean = float(np.mean([r.regression.pearson_r for r in reports]))
        f1 = float(np.mean([r.classification.f1 for r in reports]))
        if v == "eda_only":
            f1 = 0.0  # classification head never trained in this variant
        rows.append(AblationRow(v, rmse, f1, r_mean))
    return rows, fold_reports


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = [",".join(ABLATION_COLUMNS)]
    for row in rows:
        lines.append(
            f"{row.variant},{_fmt(row.eda_rmse)},{_fmt(row.emotion_f1)},{_fmt(row.pearson_r)}"
        )
    return "\n".join(lines) + "\n"


def comparison_csv(rows: list[AblationRow]) -> str:
    """Multi-task vs single-task comparison data: the network task variants."""
    keep = [r for r in rows if r.variant in ("full", "eda_only", "emotion_only")]
    return ablation_csv(keep)


# ---------------------------------------------------------------------------
# plain-text rendering for the console report
# ---------------------------------------------------------------------------


def render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt_row(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [fmt_row(header), fmt_row(["-" * w for w in widths])]
    out += [fmt_row(r) for r in rows]
    return "\n".join(out)


def render_csv_file(path: str | Path) -> str:
    """Re-render an emitted CSV as an aligned text table, numbers to 4 significant digits."""
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = text[0].split(",")
    rows = []
    for line in text[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(f"{float(cell):.4g}")
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return render_table(header, rows)
