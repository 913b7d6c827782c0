"""Ridge and logistic baselines: exact solves, optimality, descent behavior."""

import numpy as np
import pytest

from edapinn.baselines import BASELINES, baseline_rows, logistic_fit, ridge_fit
from edapinn.data import SynthSpec, stratified_kfold, synth_generate, Dataset
from edapinn.errors import NumericError
from edapinn.objective import bce
from edapinn.rng import Pcg32


def test_ridge_exact_interpolation_no_intercept():
    # points on a line through the origin: slope 1, fitted intercept 0
    x = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    model = ridge_fit(x, y, 0.0)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)
    assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_ridge_shrinkage_five_sixths():
    # on the centered data the closed form is (Xc'Xc + lam)^-1 Xc'yc: for
    # X = (1, 2)^T, y = (1, 2), Xc'Xc = Xc'yc = 1/2, so lam = 1 gives 1/3 and
    # the unpenalized intercept 3/2 - 3/2 * 1/3 = 1; lam = 1/10 gives 5/6
    x = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    model = ridge_fit(x, y, 1.0)
    assert model.weights[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert model.intercept == pytest.approx(1.0, abs=1e-12)
    model = ridge_fit(x, y, 0.1)
    assert model.weights[0] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert model.intercept == pytest.approx(1.5 - 1.5 * 5.0 / 6.0, abs=1e-12)


def test_ridge_zero_targets_zero_weights():
    rng = Pcg32(1)
    x = rng.normal(40).reshape(10, 4)
    for lam in (0.0, 0.5, 3.0):
        model = ridge_fit(x, np.zeros(10), lam)
        assert np.allclose(model.weights, 0.0, atol=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_ridge_normal_equation_residual():
    rng = Pcg32(3)
    x = rng.normal(200).reshape(50, 4)
    y = rng.normal(50)
    for lam in (0.0, 0.1, 10.0):
        model = ridge_fit(x, y, lam)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        resid = (xc.T @ xc + lam * np.eye(4)) @ model.weights - xc.T @ yc
        assert np.max(np.abs(resid)) <= 1e-8


def test_ridge_perturbation_never_improves_objective():
    rng = Pcg32(5)
    x = rng.normal(120).reshape(30, 4)
    y = rng.normal(30)
    lam = 0.3
    model = ridge_fit(x, y, lam)

    def objective(w, b):
        r = y - x @ w - b
        return r @ r + lam * (w @ w)

    base = objective(model.weights, model.intercept)
    for i in range(4):
        for delta in (1e-3, -1e-3):
            w = model.weights.copy()
            w[i] += delta
            assert objective(w, model.intercept) >= base


def test_ridge_singular_without_regularization():
    x = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])  # rank 1 once centered
    with pytest.raises(NumericError):
        ridge_fit(x, np.arange(5.0), 0.0)
    # with a ridge term the solve goes through
    ridge_fit(x, np.arange(5.0), 1e-3)


def test_logistic_separable_data_perfect_accuracy():
    x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])[:, None]
    labels = np.concatenate([np.zeros(20), np.ones(20)])
    model = logistic_fit(x, labels, steps=4000, lr=0.1)
    prob = model.predict_proba(x)
    assert np.all((prob >= 0.5) == (labels == 1))


def test_logistic_symmetric_data_zero_intercept():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    model = logistic_fit(x, labels, steps=5000, lr=0.1)
    assert abs(model.intercept) <= 1e-6


def test_logistic_all_positive_labels_probabilities_rise():
    rng = Pcg32(7)
    x = rng.normal(30).reshape(30, 1)
    labels = np.ones(30)
    last = None
    for steps in (10, 100, 1000):
        model = logistic_fit(x, labels, steps=steps, lr=0.1)
        p = model.predict_proba(x).mean()
        if last is not None:
            assert p > last
        last = p


def test_logistic_descent_monotone_bce():
    rng = Pcg32(9)
    x = rng.normal(200).reshape(50, 4)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    labels = (rng.random(50) < 0.5).astype(float)
    losses = []
    w = np.zeros(4)
    b = 0.0
    for _ in range(200):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        losses.append(bce(z, labels))
        err = (p - labels) / 50
        w = w - 0.1 * (x.T @ err)
        b = b - 0.1 * float(err.sum())
    assert all(a >= b_ for a, b_ in zip(losses, losses[1:]))


def test_baseline_rows_shapes_and_sanity():
    data, _ = synth_generate(SynthSpec(n=600, seed=11))
    folds = stratified_kfold(data, 3, seed=1)
    rows = baseline_rows(data, folds, list(BASELINES))
    assert list(rows) == ["ridge", "logistic"]
    (ridge_rmse, ridge_f1, ridge_r), (logistic_rmse, logistic_f1, logistic_r) = rows.values()
    assert ridge_rmse > 0 and ridge_f1 == 0.0 and 0.0 < ridge_r <= 1.0
    assert 0.0 < logistic_f1 < 1.0
    assert logistic_rmse == 0.0 and logistic_r == 0.0
    # one pass over the folds gives each baseline the row it gets alone
    assert baseline_rows(data, folds, ["logistic"])["logistic"] == rows["logistic"]


def test_ridge_exact_on_affine_truth():
    # when the target is exactly affine in the inputs the fit is exact, and
    # the baseline's tiny ridge term keeps it so on the normalized inputs
    rng = Pcg32(13)
    n = 200
    t = rng.uniform(0, 1, n)
    e = rng.normal(3 * n).reshape(n, 3)
    y = 0.3 * t + e @ np.array([0.5, -0.2, 0.1]) + 0.7
    x = np.column_stack([t, e])
    exact = ridge_fit(x, y, 0.0)
    assert np.max(np.abs(exact.predict(x) - y)) <= 1e-12
    data = Dataset(t, e, y, (rng.random(n) < 0.5).astype(np.int64))
    folds = stratified_kfold(data, 3, seed=2)
    rmse, _, r = baseline_rows(data, folds, ["ridge"])["ridge"]
    assert rmse <= 1e-8
    assert r == pytest.approx(1.0, abs=1e-12)
