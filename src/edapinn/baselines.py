"""Classical comparators: closed-form ridge regression and logistic regression.

Both consume the same normalized design block (time column + emotion
features) and the same fold splits as the network, so ablation rows are
directly comparable. ``BASELINES`` maps each name, in table order, to its
(eda_rmse, emotion_f1, pearson_r) on one normalized split. A baseline fills
only its own task's columns; the other task reports 0.0 (no trained
predictor), the convention of the single-task network variants.
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


def ridge_fit(x: np.ndarray, y: np.ndarray, ridge_lambda: float = 0.0) -> LinearModel:
    """Exact solve of (Xc'Xc + lambda I) w = Xc'yc on the centered Xc, yc;
    the intercept is unpenalized (centering is equivalent for an
    unpenalized offset)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ContractError("ridge_fit needs X of shape (n, d) and y of shape (n,)")
    if ridge_lambda < 0:
        raise ContractError("ridge lambda must be >= 0")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + ridge_lambda * np.eye(x.shape[1])
    if ridge_lambda == 0.0:
        cond = np.linalg.cond(gram)
        if not np.isfinite(cond) or cond > 1e12:
            raise NumericError(
                f"singular or near-singular normal equations (condition {cond:.3e}); "
                "use ridge_lambda > 0"
            )
    w = np.linalg.solve(gram, xc.T @ yc)
    return LinearModel(w, y_mean - float(x_mean @ w))


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


RIDGE_LAMBDA = 1e-6  # keeps the normal equations solvable on collinear folds


def _ridge_scores(train: Dataset, valid: Dataset) -> tuple[float, float, float]:
    fitted = ridge_fit(train.inputs, train.y, RIDGE_LAMBDA)
    m = regression_metrics(fitted.predict(valid.inputs), valid.y)
    return m.rmse, 0.0, m.pearson_r


def _logistic_scores(train: Dataset, valid: Dataset) -> tuple[float, float, float]:
    fitted = logistic_fit(train.inputs, train.label.astype(np.float64))
    return 0.0, classification_metrics(fitted.predict_proba(valid.inputs), valid.label).f1, 0.0


BASELINES = {"ridge": _ridge_scores, "logistic": _logistic_scores}


def baseline_rows(
    data: Dataset, folds: list[tuple[np.ndarray, np.ndarray]], names: list[str]
) -> dict[str, tuple[float, float, float]]:
    """The mean (eda_rmse, emotion_f1, pearson_r) of each named baseline over
    the given folds, in one pass: every fold is normalized once, on its
    training part, for all of them."""
    scores: dict[str, list[tuple[float, float, float]]] = {name: [] for name in names}
    for tr_idx, va_idx in folds:
        train, valid = data.subset(tr_idx), data.subset(va_idx)
        norm = fit_normalizer(train)
        train_n, valid_n = apply_normalizer(norm, train), apply_normalizer(norm, valid)
        for name in names:
            scores[name].append(BASELINES[name](train_n, valid_n))
    return {name: tuple(float(np.mean(col)) for col in zip(*s)) for name, s in scores.items()}
