"""Fold aggregation, ablation harness and the CSV tables of a run.

All tables mirror the protocol's layouts: per-fold metrics plus a mean row,
an ablation table of network variants and classical baselines, per-epoch
loss curves, per-fold physics parameters, and the averaged row-normalized
confusion matrix. Each ``*_csv`` function builds its rows and hands them to
``data.csv_text``, which writes every cell; the CLI then writes the text
with ``data.write_text_atomic``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import BASELINES, baseline_rows
from .data import Dataset, csv_text, read_text, stratified_kfold
from .errors import ContractError, DataFormatError
from .evaluation import normalized_confusion
from .model import ModelConfig
from .objective import VARIANTS
from .trainer import FoldReport, TrainRunConfig, fold_jobs, run_fold_jobs


# ---------------------------------------------------------------------------
# fold-wise metrics table
# ---------------------------------------------------------------------------

METRICS_COLUMNS = ["fold", "eda_rmse", "eda_mae", "eda_r", "accuracy", "precision", "recall", "f1"]


def aggregate_folds(reports: list[FoldReport]) -> list[list]:
    """Rows of METRICS_COLUMNS cells: folds 1..k, then the arithmetic "mean" row."""
    if not reports:
        raise ContractError("need at least one fold report")
    rows = []
    for r in reports:
        reg, cls = r.regression, r.classification
        row = [str(r.fold), reg.rmse, reg.mae, reg.pearson_r]
        rows.append(row + [cls.accuracy, cls.precision, cls.recall, cls.f1])
    return rows + [["mean", *np.mean([row[1:] for row in rows], axis=0).tolist()]]


def metrics_csv(reports: list[FoldReport]) -> str:
    return csv_text(METRICS_COLUMNS, aggregate_folds(reports))


def curves_csv(reports: list[FoldReport]) -> str:
    rows = [
        [tr.epoch + 1, r.fold, tr.l_eda, tr.l_emotion, tr.l_physics, tr.lambda_eff]
        for r in reports
        for tr in r.traces
    ]
    return csv_text(["epoch", "fold", "l_eda", "l_emotion", "l_physics", "lambda_eff"], rows)


def params_csv(reports: list[FoldReport]) -> str:
    rows = [[r.fold, r.physics.alpha0, *r.physics.beta, r.physics.gamma] for r in reports]
    return csv_text(["fold", "alpha0", "beta1", "beta2", "beta3", "gamma"], rows)


def confusion_csv(reports: list[FoldReport]) -> str:
    cm = normalized_confusion([r.classification for r in reports])
    return csv_text(["true_label", "pred_0", "pred_1"], [[label, *cm[label]] for label in (0, 1)])


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
    variant of ``objective.VARIANTS``, which ``TrainRunConfig`` checks.
    Network variants run the full k-fold protocol, all of them as one stack
    of networks per fold (see ``trainer.run_folds``); with every variant,
    each fold is a job of its own (see ``trainer.fold_jobs``). The jobs run
    on ``threads`` worker processes when threads > 1 (see
    ``trainer.run_fold_jobs``), so more threads than folds gain nothing.
    The default of 1 trains in this process. The F1 of a
    variant whose ``VARIANTS`` row leaves out the emotion term (eda_only)
    reports 0.0, as its classifier is never trained. Returns the table plus
    the per-variant fold reports so callers can reuse them without
    retraining.
    """
    folds = stratified_kfold(data, cfg.k, cfg.seed)
    cfgs = {v: replace(cfg, variant=v) for v in variants if v not in BASELINES}
    jobs = fold_jobs(data, folds, list(cfgs.values()), model_cfg, threads) if cfgs else []
    stacks = run_fold_jobs(jobs, threads)
    fold_reports = {v: [stack[i][0] for stack in stacks] for i, v in enumerate(cfgs)}
    names = [v for v in variants if v in BASELINES]
    baseline = baseline_rows(data, folds, names, model_cfg.threshold)
    rows: list[AblationRow] = []
    for v in variants:
        if v in baseline:
            rows.append(AblationRow(v, *baseline[v]))
            continue
        reports = fold_reports[v]
        rmse = float(np.mean([r.regression.rmse for r in reports]))
        r_mean = float(np.mean([r.regression.pearson_r for r in reports]))
        f1 = float(np.mean([r.classification.f1 for r in reports]))
        rows.append(AblationRow(v, rmse, f1 if VARIANTS[v].emotion else 0.0, r_mean))
    return rows, fold_reports


def ablation_csv(rows: list[AblationRow]) -> str:
    return csv_text(ABLATION_COLUMNS, [astuple(row) for row in rows])


def comparison_csv(rows: list[AblationRow]) -> str:
    """Multi-task vs single-task comparison data: the network variants whose
    ``VARIANTS`` entry keeps the physics term (full, eda_only, emotion_only)."""
    return ablation_csv([r for r in rows if r.variant in VARIANTS and VARIANTS[r.variant].physics])


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
    """Re-render an emitted CSV as an aligned text table, numbers to 4 significant digits.

    An unreadable or empty file, or a row whose cell count differs from the
    header's, raises ``DataFormatError``.
    """
    text = read_text(path, DataFormatError).strip().splitlines()
    if not text:
        raise DataFormatError(f"empty file {path}: missing header row")
    header = text[0].split(",")
    rows = []
    for rownum, line in enumerate(text[1:], start=1):
        found = line.split(",")
        if len(found) != len(header):
            raise DataFormatError(f"expected {len(header)} cells, found {len(found)} in {path}", row=rownum)
        cells = []
        for cell in found:
            try:
                cells.append(f"{float(cell):.4g}")
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return render_table(header, rows)
