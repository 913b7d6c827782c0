"""Regression and classification metrics.

Conventions (both documented because the source protocol leaves them open):
a probability exactly at the threshold classifies as positive, and a
Pearson r, precision or recall with a zero denominator reports 0 rather than
NaN, so tables always render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class RegressionMetrics:
    rmse: float
    mae: float
    pearson_r: float


@dataclass
class ClassificationMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tn: int
    fp: int
    fn: int
    tp: int


def regression_metrics(pred: np.ndarray, target: np.ndarray) -> RegressionMetrics:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size < 2:
        raise ContractError("regression metrics need equal-length vectors of size >= 2")
    d = pred - target
    rmse = float(np.sqrt(np.mean(d * d)))
    mae = float(np.mean(np.abs(d)))
    pc = pred - pred.mean()
    tc = target - target.mean()
    denom = np.sqrt((pc @ pc) * (tc @ tc))
    if denom == 0.0:
        return RegressionMetrics(rmse, mae, 0.0)
    return RegressionMetrics(rmse, mae, float((pc @ tc) / denom))


def classification_metrics(
    prob: np.ndarray, label: np.ndarray, threshold: float = 0.5
) -> ClassificationMetrics:
    prob = np.asarray(prob, dtype=np.float64)
    label = np.asarray(label)
    if prob.shape != label.shape or prob.size == 0:
        raise ContractError("classification metrics need equal-length nonempty vectors")
    if not 0.0 < threshold < 1.0:
        raise ContractError("threshold must lie in (0, 1)")
    pred = prob >= threshold  # tie at threshold counts as positive
    pos = label == 1
    tp = int(np.sum(pred & pos))
    tn = int(np.sum(~pred & ~pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    n = prob.size
    accuracy = (tp + tn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return ClassificationMetrics(accuracy, precision, recall, f1, tn, fp, fn, tp)


def normalized_confusion(cm_list: list[ClassificationMetrics]) -> np.ndarray:
    """Row-normalized 2x2 confusion averaged over folds.

    Rows are true classes, columns predicted; each row of the per-fold
    matrix is divided by that true class's count before averaging, i.e.
    entries are proportions of predictions within each true class.
    """
    if not cm_list:
        raise ContractError("need at least one fold")
    acc = np.zeros((2, 2))
    for m in cm_list:
        neg = m.tn + m.fp
        pos = m.fn + m.tp
        rows = np.array(
            [
                [m.tn / neg if neg else 0.0, m.fp / neg if neg else 0.0],
                [m.fn / pos if pos else 0.0, m.tp / pos if pos else 0.0],
            ]
        )
        acc += rows
    return acc / len(cm_list)
