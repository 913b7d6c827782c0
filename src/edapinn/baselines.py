"""Classical comparators: closed-form ridge regression and logistic regression.

Both consume the same normalized design block (time column + emotion
features) and the same fold splits as the network, so ablation rows are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid
from .data import Dataset, apply_normalizer, fit_normalizer
from .errors import ContractError, NumericError
from .evaluation import classification_metrics, regression_metrics


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_features,)
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.intercept

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.predict(x))


def ridge_fit(
    x: np.ndarray, y: np.ndarray, ridge_lambda: float = 0.0, fit_intercept: bool = True
) -> LinearModel:
    """Exact solve of (X'X + lambda I) w = X'y; the intercept is unpenalized
    (handled by centering, which is equivalent for an unpenalized offset)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ContractError("ridge_fit needs X of shape (n, d) and y of shape (n,)")
    if ridge_lambda < 0:
        raise ContractError("ridge lambda must be >= 0")
    if fit_intercept:
        x_mean = x.mean(axis=0)
        y_mean = float(y.mean())
        xc = x - x_mean
        yc = y - y_mean
    else:
        x_mean = np.zeros(x.shape[1])
        y_mean = 0.0
        xc, yc = x, y
    gram = xc.T @ xc + ridge_lambda * np.eye(x.shape[1])
    if ridge_lambda == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericError(
                f"singular or near-singular normal equations (condition {cond:.3e}); "
                "use ridge_lambda > 0"
            )
    w = np.linalg.solve(gram, xc.T @ yc)
    intercept = y_mean - float(x_mean @ w) if fit_intercept else 0.0
    return LinearModel(w, intercept)


def logistic_fit(
    x: np.ndarray, labels: np.ndarray, steps: int = 2000, lr: float = 0.1
) -> LinearModel:
    """Full-batch gradient descent on mean BCE with a sigmoid link, zero init."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ContractError("labels must be 0 or 1")
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(steps):
        p = sigmoid(x @ w + b)
        err = (p - labels) / n
        w = w - lr * (x.T @ err)
        b = b - lr * float(err.sum())
    return LinearModel(w, b)


@dataclass
class BaselineRow:
    name: str
    eda_rmse: float
    emotion_f1: float
    pearson_r: float


def baseline_rows(
    data: Dataset,
    folds: list[tuple[np.ndarray, np.ndarray]],
    which: tuple[str, ...] = ("ridge", "logistic"),
    ridge_lambda: float = 1e-6,
) -> list[BaselineRow]:
    """Mean metrics per baseline over the given folds, in ablation-table
    format. Each baseline fills only its own task's columns; the other task
    reports 0.0 (no trained predictor), matching the convention used for
    single-task network variants."""
    rows = []
    for name in which:
        if name not in ("ridge", "logistic"):
            raise ContractError(f"unknown baseline {name!r}")
        rmses, rs, f1s = [], [], []
        for tr_idx, va_idx in folds:
            train, valid = data.subset(tr_idx), data.subset(va_idx)
            norm = fit_normalizer(train)
            train_n = apply_normalizer(norm, train)
            valid_n = apply_normalizer(norm, valid)
            if name == "ridge":
                fitted = ridge_fit(train_n.inputs, train_n.y, ridge_lambda)
                pred = fitted.predict(valid_n.inputs)
                m = regression_metrics(pred, valid_n.y)
                rmses.append(m.rmse)
                rs.append(m.pearson_r)
            else:
                fitted = logistic_fit(train_n.inputs, train_n.label.astype(np.float64))
                prob = fitted.predict_proba(valid_n.inputs)
                m = classification_metrics(prob, valid_n.label)
                f1s.append(m.f1)
        if name == "ridge":
            rows.append(BaselineRow("ridge", float(np.mean(rmses)), 0.0, float(np.mean(rs))))
        else:
            rows.append(BaselineRow("logistic", 0.0, float(np.mean(f1s)), 0.0))
    return rows
