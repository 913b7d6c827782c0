"""Metric definitions against brute-force recounts and algebraic properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edapinn.errors import ContractError
from edapinn.evaluation import (
    classification_metrics,
    normalized_confusion,
    regression_metrics,
)
from edapinn.objective import mse
from edapinn.rng import Pcg32


def test_identity_prediction():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    assert m.rmse == 0.0 and m.mae == 0.0 and m.pearson_r == 1.0


def test_pearson_frozen_example():
    # cov = 4.0, each variance 5.0 -> r = 4/5
    m = regression_metrics(np.array([1.0, 3.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert m.pearson_r == pytest.approx(0.8, abs=1e-12)


def test_pearson_antisymmetry_under_negation():
    rng = Pcg32(1)
    pred, target = rng.normal(20), rng.normal(20)
    m = regression_metrics(pred, target)
    neg = regression_metrics(-pred, target)
    assert neg.pearson_r == pytest.approx(-m.pearson_r, abs=1e-12)
    assert neg.rmse != m.rmse or np.allclose(pred, -pred)


def test_constant_target_undefined_marker():
    m = regression_metrics(np.array([1.0, 2.0, 3.0]), np.array([5.0, 5.0, 5.0]))
    assert m.pearson_r == 0.0  # undefined, renders as 0


@given(
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-50, max_value=50),
)
@settings(max_examples=30)
def test_pearson_affine_invariance(scale, shift):
    rng = Pcg32(7)
    pred, target = rng.normal(25), rng.normal(25)
    base = regression_metrics(pred, target).pearson_r
    assert regression_metrics(scale * pred + shift, target).pearson_r == pytest.approx(
        base, abs=1e-12
    )


def test_rmse_squared_equals_mse_cross_module():
    rng = Pcg32(11)
    pred, target = rng.normal(40), rng.normal(40)
    m = regression_metrics(pred, target)
    assert abs(m.rmse**2 - mse(pred, target)) <= 1e-12
    assert m.rmse >= m.mae


def test_perfect_classification():
    prob = np.array([0.9, 0.9, 0.1, 0.1])
    label = np.array([1, 1, 0, 0])
    m = classification_metrics(prob, label, 0.5)
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_half_right_confusion():
    prob = np.array([0.9, 0.9, 0.1, 0.1])
    label = np.array([1, 0, 1, 0])
    m = classification_metrics(prob, label, 0.5)
    assert (m.tp, m.fp, m.fn, m.tn) == (1, 1, 1, 1)
    assert (m.accuracy, m.precision, m.recall, m.f1) == (0.5, 0.5, 0.5, 0.5)


def test_all_negative_predictions_zero_by_convention():
    prob = np.array([0.1, 0.2, 0.3])
    label = np.array([1, 0, 1])
    m = classification_metrics(prob, label, 0.5)
    assert m.precision == 0.0
    assert m.recall == 0.0


def test_tie_at_threshold_goes_positive():
    m = classification_metrics(np.array([0.5, 0.49]), np.array([1, 1]), 0.5)
    assert m.tp == 1 and m.fn == 1


def test_brute_force_recount_200_instances():
    rng = Pcg32(13).derive("recount")
    for _ in range(200):
        n = 2 + int(rng.next_u32() % 50)
        prob = rng.random(n)
        label = (rng.random(n) < 0.5).astype(np.int64)
        m = classification_metrics(prob, label, 0.5)
        cells = [[0, 0], [0, 0]]
        for j in range(n):
            cells[int(label[j])][int(prob[j] >= 0.5)] += 1
        assert (m.tn, m.fp, m.fn, m.tp) == (cells[0][0], cells[0][1], cells[1][0], cells[1][1])
        assert m.tn + m.fp + m.fn + m.tp == n


def test_threshold_monotonicity_of_recall():
    rng = Pcg32(17)
    prob = rng.random(200)
    label = (rng.random(200) < 0.4).astype(np.int64)
    recalls = [
        classification_metrics(prob, label, th).recall for th in np.linspace(0.05, 0.95, 19)
    ]
    assert all(a >= b for a, b in zip(recalls, recalls[1:]))


def test_f1_harmonic_mean_property():
    rng = Pcg32(19)
    prob = rng.random(100)
    label = (rng.random(100) < 0.5).astype(np.int64)
    m = classification_metrics(prob, label, 0.5)
    if m.precision > 0 and m.recall > 0:
        assert m.f1 == pytest.approx(
            2 * m.precision * m.recall / (m.precision + m.recall), abs=1e-15
        )


def test_normalized_confusion_rows_sum_to_one():
    rng = Pcg32(23)
    ms = []
    for k in range(3):
        prob = rng.random(60)
        label = (rng.random(60) < 0.5).astype(np.int64)
        ms.append(classification_metrics(prob, label, 0.5))
    cm = normalized_confusion(ms)
    assert np.allclose(cm.sum(axis=1), 1.0, atol=1e-12)


def test_contract_errors():
    with pytest.raises(ContractError):
        regression_metrics(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ContractError):
        classification_metrics(np.array([0.5]), np.array([1]), threshold=1.5)
