"""Classical comparators: ridge regression, an exact solve, and logistic
regression, fitted by Newton's method to its penalized optimum.

Both consume the same normalized design block (time column + emotion
features) and the same fold splits as the network, so ablation rows are
directly comparable. ``BASELINES`` maps each name, in table order, to its
(eda_rmse, emotion_f1, pearson_r) on one normalized split. A baseline fills
only its own task's columns; the other task reports 0.0 (no trained
predictor), the convention of the single-task network variants. The
logistic row is a linear classifier of the stress label; its F1 thresholds
the probabilities at ``model.threshold``, as the network rows do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import sigmoid
from .data import Dataset, apply_normalizer, fit_normalizer
from .errors import ContractError, NumericError
from .evaluation import classification_metrics, regression_metrics
from .trainer import require_fold_rows


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


RIDGE_LAMBDA = 1e-6  # keeps ridge solvable on collinear folds and gives logistic a finite optimum
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
    fitted = ridge_fit(train.inputs, train.y, RIDGE_LAMBDA)
    m = regression_metrics(fitted.predict(valid.inputs), valid.y)
    return m.rmse, 0.0, m.pearson_r


def _logistic_scores(train: Dataset, valid: Dataset, threshold: float) -> tuple[float, float, float]:
    fitted = logistic_fit(train.inputs, train.label.astype(np.float64))
    f1 = classification_metrics(fitted.predict_proba(valid.inputs), valid.label, threshold).f1
    return 0.0, f1, 0.0


BASELINES = {"ridge": _ridge_scores, "logistic": _logistic_scores}


def baseline_rows(
    data: Dataset, folds: list[tuple[np.ndarray, np.ndarray]], names: list[str], threshold: float
) -> dict[str, tuple[float, float, float]]:
    """The mean (eda_rmse, emotion_f1, pearson_r) of each named baseline over
    the given folds, in one pass: every fold is normalized once, on its
    training part, for all of them. ``threshold`` classifies the logistic
    probabilities, as ``model.threshold`` does the network's. Folds are
    numbered from 1; a split too small to score raises ``ConfigError``, as
    in training (``trainer.require_fold_rows``)."""
    scores: dict[str, list[tuple[float, float, float]]] = {name: [] for name in names}
    for i, (tr_idx, va_idx) in enumerate(folds, start=1):
        train, valid = data.subset(tr_idx), data.subset(va_idx)
        norm = fit_normalizer(train)
        train_n, valid_n = apply_normalizer(norm, train), apply_normalizer(norm, valid)
        require_fold_rows(train, valid, i)
        for name in names:
            scores[name].append(BASELINES[name](train_n, valid_n, threshold))
    return {name: tuple(float(np.mean(col)) for col in zip(*s)) for name, s in scores.items()}
