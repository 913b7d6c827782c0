"""Loss components: point values, breakdown identity, algebraic properties."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edapinn.errors import ContractError
from edapinn.data import Dataset, SynthSpec, synth_generate
from edapinn.model import ModelConfig, init_model
from edapinn.objective import (
    VARIANTS,
    PhysicsParams,
    bce,
    loss_gradients,
    mse,
    physics_loss,
    physics_residual,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class FakePreds:
    def __init__(self, y_eda, dydt, z_emotion):
        self.y_eda = np.asarray(y_eda, dtype=float)
        self.dydt = np.asarray(dydt, dtype=float)
        self.z_emotion = np.asarray(z_emotion, dtype=float)
        self.p_emotion = 1.0 / (1.0 + np.exp(-self.z_emotion))


def objective_on(preds, y, labels, e, phys, variant="full", lambda_floor=0.0):
    """``loss_gradients`` of ``preds`` against these targets, with ``phys``
    as the model's physics and ``lambda_floor`` as its floor."""
    batch = Dataset(np.zeros(len(y)), np.asarray(e, dtype=float), np.asarray(y, dtype=float),
                    np.asarray(labels).astype(np.int64))
    params = init_model(ModelConfig(hidden=[1], lambda_floor=lambda_floor))
    for f in fields(PhysicsParams):
        params.views[f"physics.{f.name}"][...] = getattr(phys, f.name)
    return loss_gradients(preds, batch, params, variant)


# ---------------------------------------------------------------------------
# mse / bce
# ---------------------------------------------------------------------------


def test_mse_point_values():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 12.5
    with pytest.raises(ContractError):
        mse(np.array([]), np.array([]))


@given(st.lists(finite_floats, min_size=1, max_size=20))
def test_mse_sign_flip_invariance(vals):
    pred = np.array(vals)
    target = np.zeros_like(pred)
    assert mse(pred, target) == mse(-pred, -target)
    assert mse(pred, target) >= 0.0


def test_bce_point_values():
    # bce takes logits: z = 0 is p = 1/2, z = log(9) is p = 0.9
    labels = np.array([0.0, 1.0, 0.0, 1.0])
    assert bce(np.zeros(4), labels) == pytest.approx(np.log(2.0), rel=1e-12)
    assert bce(np.array([np.log(9.0)]), np.array([1.0])) == pytest.approx(0.10536051565782628, rel=1e-12)
    # confident predictions cost next to nothing when right, |z| when wrong
    assert 0.0 <= bce(np.array([-40.0, 40.0]), np.array([0.0, 1.0])) <= 1e-17
    assert bce(np.array([40.0]), np.array([0.0])) == pytest.approx(40.0, rel=1e-15)


def test_bce_rejects_bad_labels():
    with pytest.raises(ContractError):
        bce(np.array([0.5]), np.array([2.0]))


# ---------------------------------------------------------------------------
# physics residual and loss
# ---------------------------------------------------------------------------


def test_residual_direct_substitution():
    phys = PhysicsParams(1.0, np.array([0.1, 0.2, 0.3]), 1.0)
    r = physics_residual(np.array([0.2]), np.array([0.5]), np.ones((1, 3)), phys)
    assert r[0] == pytest.approx(0.1, abs=1e-15)


def test_residual_zero_for_zero_inputs():
    phys = PhysicsParams(1.0, np.array([0.1, 0.2, 0.3]), 1.0)
    r = physics_residual(np.zeros(4), np.zeros(4), np.zeros((4, 3)), phys)
    assert not np.any(r)


def test_residual_vanishes_on_analytic_solution():
    spec = SynthSpec(n=500, noise=0.0, seed=7)
    data, dydt = synth_generate(spec)
    r = physics_residual(dydt, data.y, data.e, spec.physics())
    assert np.max(np.abs(r)) <= 1e-10


def test_residual_linearity_in_parameters_and_signals():
    rngv = np.random.default_rng(3)
    dydt, y = rngv.normal(size=10), rngv.normal(size=10)
    e = rngv.normal(size=(10, 3))
    p1 = PhysicsParams(0.7, np.array([0.1, 0.2, 0.3]), 1.3)
    p2 = PhysicsParams(1.9, np.array([-0.5, 0.4, 0.2]), 0.4)
    padd = PhysicsParams(p1.alpha0 + p2.alpha0, p1.beta + p2.beta, p1.gamma + p2.gamma)
    r1 = physics_residual(dydt, y, e, p1)
    r2 = physics_residual(dydt, y, e, p2)
    radd = physics_residual(dydt, y, e, padd)
    assert np.allclose(radd, r1 + r2, atol=1e-12)
    # linear in the signals as well
    r_scaled = physics_residual(2 * dydt, 2 * y, 2 * e, p1)
    assert np.allclose(r_scaled, 2 * r1, atol=1e-12)


@given(st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=30)
def test_gauge_scaling_property(c):
    rngv = np.random.default_rng(5)
    dydt, y = rngv.normal(size=8), rngv.normal(size=8)
    e = rngv.normal(size=(8, 3))
    p = PhysicsParams(0.9, np.array([0.3, -0.2, 0.5]), 1.1)
    scaled = PhysicsParams(c * p.alpha0, c * p.beta, c * p.gamma)
    r = physics_residual(dydt, y, e, p)
    rs = physics_residual(dydt, y, e, scaled)
    assert np.allclose(rs, c * r, rtol=1e-9, atol=1e-12)
    assert physics_loss(rs) == pytest.approx(c * c * physics_loss(r), rel=1e-9)


def test_physics_loss_values():
    assert physics_loss(np.zeros(5)) == 0.0
    assert physics_loss(np.array([0.1])) == pytest.approx(0.01, rel=1e-14)
    r = np.array([0.3, -0.7, 1.1])
    assert physics_loss(r) == physics_loss(-r)


# ---------------------------------------------------------------------------
# loss breakdown
# ---------------------------------------------------------------------------


def test_breakdown_identity_on_random_inputs():
    rngv = np.random.default_rng(11)
    n = 50
    preds = FakePreds(rngv.normal(size=n), rngv.normal(size=n), rngv.uniform(-4.6, 4.6, n))
    y = rngv.normal(size=n)
    labels = (rngv.uniform(size=n) < 0.5).astype(float)
    e = rngv.normal(size=(n, 3))
    phys = PhysicsParams(0.8, np.array([0.2, 0.1, -0.3]), 1.2, rho=0.5)
    bd, _ = objective_on(preds, y, labels, e, phys, lambda_floor=1e-3)
    # recompute components independently
    assert bd.l_eda == pytest.approx(np.mean((preds.y_eda - y) ** 2), rel=1e-12)
    r = phys.gamma * preds.dydt + phys.alpha0 * preds.y_eda - e @ phys.beta
    assert bd.l_physics == pytest.approx(np.mean(r * r), rel=1e-12)
    assert bd.total == pytest.approx(bd.l_eda + bd.l_emotion + bd.lambda_eff * bd.l_physics, rel=1e-15)


def test_perfect_predictions_on_residual_free_data():
    spec = SynthSpec(n=200, noise=0.0, seed=13)
    data, dydt = synth_generate(spec)
    preds = FakePreds(data.y, dydt, np.where(data.label == 1, 40.0, -40.0))
    bd, _ = objective_on(preds, data.y, data.label, data.e, spec.physics())
    assert bd.l_eda <= 1.1e-7
    assert bd.l_emotion <= 1.1e-7
    assert bd.l_physics <= 1.1e-7


def test_lambda_floor_and_frozen_zero():
    preds = FakePreds([0.5], [0.1], [np.log(1.5)])  # p = 0.6
    y, labels, e = np.array([0.4]), np.array([1.0]), np.ones((1, 3))
    low_rho = PhysicsParams(1.0, np.array([0.1, 0.1, 0.1]), 1.0, rho=-20.0)
    bd, _ = objective_on(preds, y, labels, e, low_rho, lambda_floor=1e-3)
    assert bd.lambda_eff == 1e-3
    bd0, _ = objective_on(preds, y, labels, e, low_rho, lambda_floor=0.0)
    assert bd0.total == pytest.approx(bd0.l_eda + bd0.l_emotion, abs=1e-9)


def test_loss_gradient_variant_switches():
    rngv = np.random.default_rng(17)
    n = 10
    preds = FakePreds(rngv.normal(size=n), rngv.normal(size=n), rngv.uniform(-1.4, 1.4, n))
    y = rngv.normal(size=n)
    labels = (rngv.uniform(size=n) < 0.5).astype(float)
    e = rngv.normal(size=(n, 3))
    phys = PhysicsParams(1.0, np.array([0.1, 0.1, 0.1]), 1.0)
    for variant, (use_eda, use_emotion, use_physics) in VARIANTS.items():
        _, lg = objective_on(preds, y, labels, e, phys, variant)
        assert np.any(lg.adj_y) == (use_eda or use_physics), variant
        assert np.any(lg.adj_z) == use_emotion, variant
        for trained_by_physics in (lg.adj_dydt, lg.d_alpha0, lg.d_rho):
            assert np.any(trained_by_physics) == use_physics, variant
        assert lg.d_rho >= 0.0  # physics loss can only push lambda down
