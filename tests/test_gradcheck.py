"""The gradient checker itself: catches corruption, honors zero cases."""

import numpy as np
import pytest

import edapinn.gradcheck as gradcheck_mod
from edapinn.data import Dataset
from edapinn.gradcheck import check_gradients
from edapinn.errors import ContractError
from edapinn.model import ModelConfig, blocks, init_model, stack
from edapinn.rng import Pcg32
from edapinn.suites import suite_gradient_check


def make_batch(n, seed):
    rng = Pcg32(seed).derive("batch")
    return Dataset(
        rng.normal(n),
        rng.normal(3 * n).reshape(n, 3),
        0.5 + 0.3 * rng.normal(n),
        (rng.random(n) < 0.5).astype(np.int64),
    )


def test_seeded_net_passes_at_tolerance():
    params = init_model(ModelConfig(hidden=[8, 8], seed=11))
    report = check_gradients(params, make_batch(16, 11))
    assert report.passed
    assert report.max_rel_error <= 1e-6
    assert set(report.block_errors) == {
        "layer0.w", "layer0.bn_scale", "layer0.bn_shift",
        "layer1.w", "layer1.bn_scale", "layer1.bn_shift",
        "head_reg.w", "head_reg.b", "head_cls.w", "head_cls.b",
        "physics.alpha0", "physics.beta", "physics.gamma", "physics.rho",
    }


def test_corrupted_gradient_is_caught(monkeypatch):
    params = init_model(ModelConfig(hidden=[8, 8], seed=13))
    real = gradcheck_mod.batch_gradients

    def corrupted(params, *args):
        breakdown, grad, preds = real(params, *args)
        blocks(grad, params.config)["layer1.w"][...] += 0.1
        return breakdown, grad, preds

    monkeypatch.setattr(gradcheck_mod, "batch_gradients", corrupted)
    report = check_gradients(params, make_batch(16, 13))
    assert not report.passed
    assert report.worst_block == "layer1.w"


def test_gradient_below_fd_resolution_passes_and_a_small_error_is_still_caught(monkeypatch):
    # seed 40's layer0.bn_shift[5] gradient is -1.13e-5; analytic and FD
    # differ by 1.2e-11, below FD's round-off floor eps * |loss| / step
    assert suite_gradient_check(40).passed
    real = gradcheck_mod.batch_gradients

    def scaled(params, *args):
        breakdown, grad, preds = real(params, *args)
        blocks(grad, params.config)["layer0.bn_shift"][...] *= 1.0 + 1e-5
        return breakdown, grad, preds

    monkeypatch.setattr(gradcheck_mod, "batch_gradients", scaled)
    result = suite_gradient_check(40)
    assert not result.passed
    assert "layer0.bn_shift" in result.detail


def test_gradient_suite_states_the_tolerance_it_runs_at(monkeypatch):
    assert suite_gradient_check(1).detail.endswith(", tol 1e-6)")
    monkeypatch.setattr(gradcheck_mod, "TOL", 3e-6)
    assert suite_gradient_check(1).detail.endswith(", tol 3e-6)")


def test_zero_network_zero_targets_regression_gradients_vanish():
    params = init_model(ModelConfig(hidden=[8, 8], seed=15, dropout=0.0))
    for name in ("layer0.w", "layer1.w", "head_reg.w", "head_cls.w"):
        params.views[name][:] = 0.0
    batch = make_batch(12, 15)
    batch.y[:] = 0.0  # targets match the zero network's output exactly

    import edapinn.model as model_mod
    from edapinn import objective as obj

    preds = model_mod.forward_batch(params, batch, "train")
    _, lg = obj.loss_gradients(preds, batch, params, "no_physics")
    grad = model_mod.backward(params, preds.caches, lg)
    grads = blocks(grad, params.config)
    # the classifier's bias alone sees the BCE's own gradient, mean(sigmoid(0) - label)
    assert grads.pop("head_cls.b")[0] == pytest.approx(np.mean(0.5 - batch.label), abs=1e-15)
    for name, g in grads.items():
        assert not np.any(g), name


def test_stack_passes_and_a_wrong_member_gradient_is_caught(monkeypatch):
    params = stack([init_model(ModelConfig(hidden=[6, 5], seed=17))], 3)
    params.theta[0, 1:] += 0.1 * Pcg32(18).normal(2 * params.theta.shape[-1]).reshape(2, -1)
    batch = make_batch(12, 17)
    report = check_gradients(params, batch)
    assert report.passed and len(report.block_errors) == 14
    real = gradcheck_mod.batch_gradients

    def corrupted(*args):
        breakdown, grad, preds = real(*args)
        blocks(grad, params.config)["head_cls.w"][0, 2, 3] *= 1.0 + 1e-3  # the last member only
        return breakdown, grad, preds

    monkeypatch.setattr(gradcheck_mod, "batch_gradients", corrupted)
    report = check_gradients(params, batch)
    assert not report.passed and report.worst_block == "head_cls.w"


def test_stack_over_folds_passes_and_a_wrong_member_gradient_is_caught(monkeypatch):
    inits = [init_model(ModelConfig(hidden=[5, 4], seed=s)) for s in (21, 22)]
    params = stack(inits, 2)
    params.theta[:, 1] += 0.1 * Pcg32(23).normal(2 * params.theta.shape[-1]).reshape(2, -1)
    batch = make_batch(10, 21)
    report = check_gradients(params, batch)
    assert report.passed and len(report.block_errors) == 14
    real = gradcheck_mod.batch_gradients

    def corrupted(*args):
        breakdown, grad, preds = real(*args)
        blocks(grad, params.config)["layer1.bn_shift"][1, 0, 2] *= 1.0 + 1e-3  # fold 2, variant 1
        return breakdown, grad, preds

    monkeypatch.setattr(gradcheck_mod, "batch_gradients", corrupted)
    report = check_gradients(params, batch)
    assert not report.passed and report.worst_block == "layer1.bn_shift"


def test_small_batch_rejected():
    params = init_model(ModelConfig(seed=17))
    with pytest.raises(ContractError):
        check_gradients(params, make_batch(1, 17))


def test_frozen_lambda_drops_rho_from_blocks():
    params = init_model(ModelConfig(hidden=[4, 4], seed=19, lambda_frozen=True))
    before = params.theta.copy()
    report = check_gradients(params, make_batch(8, 19))
    assert report.passed
    assert "physics.rho" not in report.block_errors
    assert params.theta.tobytes() == before.tobytes()  # every perturbation undone
