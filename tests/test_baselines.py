"""Ridge and logistic baselines: exact solves and optimality."""

import numpy as np
import pytest

from edapinn.baselines import BASELINES, RIDGE_LAMBDA, baseline_rows, logistic_fit, ridge_fit
from edapinn.data import Dataset, SynthSpec, apply_normalizer, fit_normalizer, stratified_kfold, synth_generate
from edapinn.evaluation import classification_metrics
from edapinn.model import ModelConfig
from edapinn.errors import ContractError
from edapinn.reporting import ablation_table
from edapinn.rng import Pcg32
from edapinn.trainer import TrainRunConfig, prepare_folds


def test_ridge_exact_interpolation_no_intercept():
    # points on a line through the origin: slope 1 and intercept 0, shrunk by
    # the ridge term to the closed form 1/2 / (1/2 + lam) and 3/2 (1 - slope)
    x = np.array([[1.0], [2.0]])
    y = np.array([1.0, 2.0])
    model = ridge_fit(x, y)
    slope = 0.5 / (0.5 + RIDGE_LAMBDA)
    assert model.weights[0] == pytest.approx(slope, abs=1e-15)
    assert model.intercept == pytest.approx(1.5 * (1.0 - slope), abs=1e-15)
    assert abs(model.weights[0] - 1.0) <= 2.0 * RIDGE_LAMBDA and abs(model.intercept) <= 3.0 * RIDGE_LAMBDA


def test_ridge_shrinkage_five_sixths():
    # on the centered data the closed form is (Xc'Xc + lam)^-1 Xc'yc: for
    # X = (0, s)^T and y = X, Xc'Xc = Xc'yc = s^2 / 2, so s^2 = lam gives 1/3
    # and s^2 = 10 lam gives 5/6, with the unpenalized intercept s/2 (1 - w)
    for s2, w in ((RIDGE_LAMBDA, 1.0 / 3.0), (10.0 * RIDGE_LAMBDA, 5.0 / 6.0)):
        s = np.sqrt(s2)
        x = np.array([[0.0], [s]])
        model = ridge_fit(x, x[:, 0])
        assert model.weights[0] == pytest.approx(w, rel=1e-12)
        assert model.intercept == pytest.approx(s / 2.0 * (1.0 - w), rel=1e-12)


def test_ridge_zero_targets_zero_weights():
    rng = Pcg32(1)
    x = rng.normal(40).reshape(10, 4)
    model = ridge_fit(x, np.zeros(10))
    assert np.allclose(model.weights, 0.0, atol=1e-12)
    assert model.intercept == pytest.approx(0.0, abs=1e-12)


def test_ridge_normal_equation_residual():
    rng = Pcg32(3)
    x = rng.normal(200).reshape(50, 4)
    y = rng.normal(50)
    model = ridge_fit(x, y)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    resid = (xc.T @ xc + RIDGE_LAMBDA * np.eye(4)) @ model.weights - xc.T @ yc
    assert np.max(np.abs(resid)) <= 1e-8


def test_ridge_perturbation_never_improves_objective():
    rng = Pcg32(5)
    x = rng.normal(120).reshape(30, 4)
    y = rng.normal(30)
    model = ridge_fit(x, y)

    def objective(w, b):
        r = y - x @ w - b
        return r @ r + RIDGE_LAMBDA * (w @ w)

    base = objective(model.weights, model.intercept)
    for i in range(4):
        for delta in (1e-3, -1e-3):
            w = model.weights.copy()
            w[i] += delta
            assert objective(w, model.intercept) >= base


def test_logistic_separable_data_perfect_accuracy():
    x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])[:, None]
    labels = np.concatenate([np.zeros(20), np.ones(20)])
    model = logistic_fit(x, labels)
    prob = model.predict_proba(x)
    assert np.all((prob >= 0.5) == (labels == 1))


def test_logistic_symmetric_data_zero_intercept():
    x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    labels = np.array([0.0, 0.0, 1.0, 1.0])
    model = logistic_fit(x, labels)
    assert abs(model.intercept) <= 1e-6


def penalized_gradient(model, x, labels):
    """The gradient of mean BCE + RIDGE_LAMBDA / 2 * |(w, b)|^2, the
    objective ``logistic_fit`` minimizes."""
    a = np.column_stack([x, np.ones(len(x))])
    coef = np.append(model.weights, model.intercept)
    p = 1.0 / (1.0 + np.exp(-(a @ coef)))
    return a.T @ (p - labels) / len(x) + RIDGE_LAMBDA * coef


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_logistic_fit_is_stationary_for_the_penalized_objective(seed):
    rng = Pcg32(seed)
    x = rng.normal(800).reshape(200, 4)
    labels = (rng.random(200) < 1.0 / (1.0 + np.exp(-x @ np.array([1.0, -0.5, 0.3, 0.0])))).astype(float)
    model = logistic_fit(x, labels)
    assert np.max(np.abs(penalized_gradient(model, x, labels))) <= 1e-10


@pytest.mark.parametrize("label", [0.0, 1.0])
def test_logistic_one_class_labels_give_finite_weights(label):
    # without the penalty the optimum would lie at infinity
    rng = Pcg32(7)
    x = rng.normal(30).reshape(30, 1)
    labels = np.full(30, label)
    model = logistic_fit(x, labels)
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.intercept)
    prob = model.predict_proba(x)
    assert np.all(prob > 0.5) if label == 1.0 else np.all(prob < 0.5)
    assert np.max(np.abs(penalized_gradient(model, x, labels))) <= 1e-10


@pytest.mark.parametrize(
    "x, labels",
    [
        (np.zeros((4, 2)), np.array([0.0, 1.0, 2.0, 1.0])),
        (np.zeros((4, 2)), np.array([0.0, 1.0, 0.5, 1.0])),
        (np.zeros(4), np.array([0.0, 1.0, 0.0, 1.0])),
        (np.zeros((4, 2)), np.array([0.0, 1.0, 0.0])),
        (np.zeros((4, 2)), np.array([[0.0, 1.0, 0.0, 1.0]])),
        (np.zeros((0, 2)), np.zeros(0)),
    ],
    ids=["label_2", "label_half", "x_1d", "labels_short", "labels_2d", "empty"],
)
def test_logistic_bad_labels_or_shapes_raise_contract_error(x, labels):
    with pytest.raises(ContractError):
        logistic_fit(x, labels)


def test_baseline_rows_shapes_and_sanity():
    data, _ = synth_generate(SynthSpec(n=600, seed=11))
    folds = prepare_folds((data.subset(tr), data.subset(va)) for tr, va in stratified_kfold(data, 3, seed=1))
    rows = baseline_rows(folds, list(BASELINES), 0.5)
    assert list(rows) == ["ridge", "logistic"]
    (ridge_rmse, ridge_f1, ridge_r), (logistic_rmse, logistic_f1, logistic_r) = rows.values()
    assert ridge_rmse > 0 and ridge_f1 == 0.0 and 0.0 < ridge_r <= 1.0
    assert 0.0 < logistic_f1 < 1.0
    assert logistic_rmse == 0.0 and logistic_r == 0.0
    # one pass over the folds gives each baseline the row it gets alone
    assert baseline_rows(folds, ["logistic"], 0.5)["logistic"] == rows["logistic"]


def test_ridge_exact_on_affine_truth():
    # when the target is exactly affine in the inputs the fit is exact but
    # for the ridge term, which moves the coefficients by at most
    # lam |w| / eigmin(Xc'Xc), about 4e-8 here, and less on the normalized inputs
    rng = Pcg32(13)
    n = 200
    t = rng.uniform(0, 1, n)
    e = rng.normal(3 * n).reshape(n, 3)
    y = 0.3 * t + e @ np.array([0.5, -0.2, 0.1]) + 0.7
    x = np.column_stack([t, e])
    fit = ridge_fit(x, y)
    assert np.max(np.abs(fit.predict(x) - y)) <= 1e-7
    data = Dataset(t, e, y, (rng.random(n) < 0.5).astype(np.int64))
    folds = prepare_folds((data.subset(tr), data.subset(va)) for tr, va in stratified_kfold(data, 3, seed=2))
    rmse, _, r = baseline_rows(folds, ["ridge"], 0.5)["ridge"]
    assert rmse <= 1e-8
    assert r == pytest.approx(1.0, abs=1e-12)


def test_logistic_row_thresholds_at_model_threshold():
    """The logistic F1 of ``ablate`` classifies at ``model.threshold``, the
    threshold of the network rows, not at a fixed 0.5."""
    data, _ = synth_generate(SynthSpec(n=400, seed=3))
    cfg = TrainRunConfig(seed=3)
    folds = stratified_kfold(data, cfg.k, cfg.seed)
    f1 = {}
    for threshold in (0.5, 0.9):
        rows, _ = ablation_table(data, ["logistic"], ModelConfig(threshold=threshold), cfg)
        f1[threshold] = rows[0].emotion_f1
        by_hand = []
        for tr_idx, va_idx in folds:
            norm = fit_normalizer(data.subset(tr_idx))
            train, valid = (apply_normalizer(norm, data.subset(i)) for i in (tr_idx, va_idx))
            prob = logistic_fit(train.inputs, train.label.astype(float)).predict_proba(valid.inputs)
            by_hand.append(classification_metrics(prob, valid.label, threshold).f1)
        assert f1[threshold] == float(np.mean(by_hand))
    assert f1[0.9] != f1[0.5]
