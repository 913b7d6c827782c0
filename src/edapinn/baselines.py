"""Classical comparators: ridge regression, an exact solve at the fixed
``RIDGE_LAMBDA``, and logistic regression, fitted by Newton's method to its
optimum under the same penalty.

Both score the networks' own prepared folds (``trainer.prepare_folds``):
the same splits, normalized by the same normalizers, fitted on the
normalized design block (time column + emotion features), so ablation rows
are directly comparable. ``BASELINES`` maps each name, in table order, to
its (eda_rmse, emotion_f1, pearson_r) on one normalized split. A baseline fills
only its own task's columns; the other task reports 0.0 (no trained
predictor), the convention of the single-task network variants. The
logistic row is a linear classifier of the stress label; its F1 thresholds
the probabilities at ``model.threshold``, as the network rows do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid
from .data import Dataset
from .errors import ContractError, NumericError
from .evaluation import classification_metrics, regression_metrics
from .trainer import Fold


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_features,)
    intercept: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.intercept

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return sigmoid(self.predict(x))


RIDGE_LAMBDA = 1e-6  # keeps ridge solvable on collinear folds and gives logistic a finite optimum


def ridge_fit(x: np.ndarray, y: np.ndarray) -> LinearModel:
    """Exact solve of (Xc'Xc + ``RIDGE_LAMBDA`` I) w = Xc'yc on the centered
    Xc, yc; the intercept is unpenalized (centering is equivalent for an
    unpenalized offset)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ContractError("ridge_fit needs X of shape (n, d) and y of shape (n,)")
    x_mean = x.mean(axis=0)
    y_mean = float(y.mean())
    xc = x - x_mean
    w = np.linalg.solve(xc.T @ xc + RIDGE_LAMBDA * np.eye(x.shape[1]), xc.T @ (y - y_mean))
    return LinearModel(w, y_mean - float(x_mean @ w))


NEWTON_TOL = 1e-10  # a step below this fraction of the coefficients' size ends the fit
NEWTON_MAX_ITER = 50  # benchmark folds take about 10, separable or one-class inputs about 17


def logistic_fit(x: np.ndarray, labels: np.ndarray) -> LinearModel:
    """Newton's method (IRLS) from zero on mean BCE with a sigmoid link plus
    ``RIDGE_LAMBDA / 2`` times the squared norm of all coefficients, the
    intercept included. The penalty gives every input, separable and
    one-class ones too, one finite optimum; a fit that has not reached it
    within ``NEWTON_MAX_ITER`` solves raises ``NumericError``."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0 or labels.shape != (len(x),):
        raise ContractError("logistic_fit needs X of shape (n, d) with n >= 1 and labels of shape (n,)")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ContractError("labels must be 0 or 1")
    a = np.column_stack([x, np.ones(len(x))])
    ridge = RIDGE_LAMBDA * np.eye(a.shape[1])
    coef = np.zeros(a.shape[1])
    for _ in range(NEWTON_MAX_ITER):
        p = sigmoid(a @ coef)
        grad = a.T @ (p - labels) / len(a) + RIDGE_LAMBDA * coef
        hess = (a.T * (p * (1.0 - p))) @ a / len(a) + ridge
        step = np.linalg.solve(hess, grad)
        coef -= step
        if np.max(np.abs(step)) <= NEWTON_TOL * max(1.0, np.max(np.abs(coef))):
            return LinearModel(coef[:-1], float(coef[-1]))
    raise NumericError(f"logistic fit did not converge in {NEWTON_MAX_ITER} Newton steps")


def _ridge_scores(train: Dataset, valid: Dataset, threshold: float) -> tuple[float, float, float]:
    fitted = ridge_fit(train.inputs, train.y)
    m = regression_metrics(fitted.predict(valid.inputs), valid.y)
    return m.rmse, 0.0, m.pearson_r


def _logistic_scores(train: Dataset, valid: Dataset, threshold: float) -> tuple[float, float, float]:
    fitted = logistic_fit(train.inputs, train.label.astype(np.float64))
    f1 = classification_metrics(fitted.predict_proba(valid.inputs), valid.label, threshold).f1
    return 0.0, f1, 0.0


BASELINES = {"ridge": _ridge_scores, "logistic": _logistic_scores}


def baseline_rows(folds: list[Fold], names: list[str], threshold: float) -> dict[str, tuple[float, float, float]]:
    """The mean (eda_rmse, emotion_f1, pearson_r) of each named baseline over
    the prepared folds, each fitted on a fold's normalized training part and
    scored on its normalized validation part. ``threshold`` classifies the
    logistic probabilities, as ``model.threshold`` does the network's."""
    scores = {name: [BASELINES[name](fold.train, fold.valid, threshold) for fold in folds] for name in names}
    return {name: tuple(float(np.mean(col)) for col in zip(*s)) for name, s in scores.items()}
