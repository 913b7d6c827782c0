"""Adam, the epoch loop, fold protocol, lambda dynamics and recovery."""

import numpy as np
import pytest
from dataclasses import replace

from edapinn.data import Dataset, SynthSpec, apply_normalizer, fit_normalizer, synth_generate
from edapinn.errors import ConfigError
from edapinn.model import ModelConfig, init_model, trainable_blocks
from edapinn.objective import PhysicsParams, physics_residual
from edapinn.rng import Pcg32
from edapinn.trainer import (
    TrainRunConfig,
    adam_step,
    batch_gradients,
    init_adam,
    physics_least_squares,
    recover_physics,
    run_fold,
    run_kfold,
    train_epoch,
)


def small_synth(n=240, seed=3, noise=0.01):
    return synth_generate(SynthSpec(n=n, seed=seed, noise=noise))[0]


def quick_cfg(**kw):
    defaults = dict(epochs=3, batch_size=64, seed=5)
    defaults.update(kw)
    return TrainRunConfig(**defaults)


def quick_model(**kw):
    defaults = dict(hidden=[12, 12], seed=7)
    defaults.update(kw)
    return ModelConfig(**defaults)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    params = init_model(quick_model())
    blocks = trainable_blocks(params)
    opt = init_adam(blocks)
    zero = {k: np.zeros_like(v) for k, v in blocks.items()}
    _, updated = adam_step(opt, params, zero)
    for k, v in trainable_blocks(updated).items():
        assert np.array_equal(v, blocks[k])


def test_adam_first_step_is_signed_lr():
    params = init_model(quick_model())
    blocks = trainable_blocks(params)
    opt = init_adam(blocks, lr=0.001)
    grads = {k: np.full_like(v, 0.25) for k, v in blocks.items()}
    _, updated = adam_step(opt, params, grads)
    new_blocks = trainable_blocks(updated)
    for k in blocks:
        step = blocks[k] - new_blocks[k]
        assert np.allclose(step, 0.001, rtol=1e-6)


def test_adam_reference_recurrence_on_quadratic():
    # independent oracle: the textbook Adam recurrence written out directly,
    # minimizing f(w) = w^2 from w = 1 at lr = 0.1
    w, m, v = 1.0, 0.0, 0.0
    for t in range(1, 101):
        g = 2.0 * w
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w -= 0.1 * (m / (1 - 0.9**t)) / ((v / (1 - 0.999**t)) ** 0.5 + 1e-8)
    assert abs(w) < 0.05

    # the implementation walks the same trajectory (alpha0 plays w; every
    # other block gets zero gradients and must stay put)
    params = init_model(quick_model())
    params.physics.alpha0 = 1.0
    opt = init_adam(trainable_blocks(params), lr=0.1)
    for _ in range(100):
        grads = {k: np.zeros_like(val) for k, val in trainable_blocks(params).items()}
        grads["physics.alpha0"] = np.array([2.0 * params.physics.alpha0])
        opt, params = adam_step(opt, params, grads)
    assert params.physics.alpha0 == pytest.approx(w, abs=1e-12)


def test_adam_shape_mismatch_rejected():
    from edapinn.errors import ContractError

    params = init_model(quick_model())
    opt = init_adam(trainable_blocks(params))
    bad = {k: np.zeros_like(v) for k, v in trainable_blocks(params).items()}
    bad.pop("head_reg.b")
    with pytest.raises(ContractError):
        adam_step(opt, params, bad)


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------


def test_no_physics_variant_records_zero_lambda():
    data = small_synth()
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(), norm)
    cfg = quick_cfg(variant="no_physics")
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    for epoch in range(2):
        params, opt, trace = train_epoch(params, opt, nd, cfg, rng, epoch)
        assert trace.lambda_eff == 0.0


def test_single_sample_epoch_equals_one_adam_step():
    data = small_synth(n=40)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data).subset(np.array([3]))
    cfg = quick_cfg(batch_size=8)
    params = init_model(quick_model(dropout=0.0), norm)
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    stepped, _, _ = train_epoch(params.copy(), opt, nd, cfg, rng, 0)
    _, grads, _ = batch_gradients(params, nd, cfg, None)
    opt2 = init_adam(trainable_blocks(params), cfg.lr)
    _, manual = adam_step(opt2, params, grads)
    for k, v in trainable_blocks(stepped).items():
        assert np.allclose(v, trainable_blocks(manual)[k], atol=1e-15)


def test_variant_containment_classification_head_frozen_under_eda_only():
    data = small_synth()
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(), norm)
    before = params.head_cls.w.copy()
    cfg = quick_cfg(variant="eda_only")
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    for epoch in range(3):
        params, opt, _ = train_epoch(params, opt, nd, cfg, rng, epoch)
    assert np.array_equal(params.head_cls.w, before)
    assert np.array_equal(params.head_cls.b, np.zeros(1))


def test_variant_containment_regression_head_frozen_under_emotion_only_lambda_zero():
    data = small_synth()
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(), norm)
    before_w = params.head_reg.w.copy()
    cfg = quick_cfg(variant="emotion_only", emotion_only_no_physics=True)
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    for epoch in range(3):
        params, opt, _ = train_epoch(params, opt, nd, cfg, rng, epoch)
    assert np.array_equal(params.head_reg.w, before_w)
    # with physics retained, the regression head does move
    params2 = init_model(quick_model(), norm)
    cfg2 = quick_cfg(variant="emotion_only")
    opt2 = init_adam(trainable_blocks(params2), cfg2.lr)
    params2, _, _ = train_epoch(params2, opt2, nd, cfg2, Pcg32(cfg2.seed), 0)
    assert not np.array_equal(params2.head_reg.w, before_w)


def test_saturated_wrong_classifier_keeps_its_gradient():
    # a confidently wrong head (logit ~20 on all-negative labels) must still
    # be pushed back: BCE on logits has gradient sigmoid(z) - label, which
    # saturates at 1 instead of vanishing, and its loss is not capped
    data = small_synth(n=64)
    nd = apply_normalizer(fit_normalizer(data), data)
    nd.label[:] = 0
    params = init_model(quick_model(dropout=0.0))
    params.head_cls.b[:] = 20.0
    cfg = quick_cfg(variant="emotion_only", emotion_only_no_physics=True)
    breakdown, grads, preds = batch_gradients(params, nd, cfg, None)
    assert grads["head_cls.b"][0] == pytest.approx(1.0, abs=1e-6)
    assert breakdown.l_emotion > 17.0  # a clipped BCE would stop at -log(1e-7) = 16.1
    assert breakdown.l_emotion == pytest.approx(np.mean(np.logaddexp(0.0, preds.z_emotion)), rel=1e-12)


def test_training_step_evaluates_sigmoid_once_per_layer(monkeypatch):
    from edapinn import autodiff, objective

    real, calls = autodiff.sigmoid, []

    def counting(x):
        calls.append(np.shape(x))
        return real(x)

    monkeypatch.setattr(autodiff, "sigmoid", counting)
    monkeypatch.setattr(objective, "sigmoid", counting)
    data = small_synth(n=64)
    params = init_model(quick_model())
    batch_gradients(params, apply_normalizer(fit_normalizer(data), data), quick_cfg(), Pcg32(1))
    # one per swish layer (the backward reuses it), p = sigmoid(z), d lambda / d rho
    assert calls == [(64, 12), (64, 12), (64,), ()]


def test_single_step_descent_probability():
    # one Adam step on a fixed batch with pinned dropout masks should not
    # increase that batch's own loss for lr <= 1e-3 (>= 99% of seeds)
    from edapinn.model import draw_dropout_masks
    import edapinn.model as model_mod
    from edapinn import objective as obj

    data = small_synth(n=64, seed=21)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    cfg = quick_cfg(batch_size=64, lr=1e-3)
    wins = 0
    trials = 100
    for s in range(trials):
        params = init_model(quick_model(seed=1000 + s), norm)
        masks = draw_dropout_masks(params, len(nd), Pcg32(s).derive("mask"))
        before, grads, _ = batch_gradients(params, nd, cfg, None, masks)
        labels = nd.label.astype(float)
        opt = init_adam(trainable_blocks(params), cfg.lr)
        _, stepped = adam_step(opt, params, grads)
        preds2 = model_mod.forward_batch(stepped, nd, "train", dropout_masks=masks)
        after = obj.total_loss(preds2, nd.y, labels, nd.e, stepped.physics, params.config.lambda_floor)
        wins += after.total <= before.total
    assert wins >= 99


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_noiseless_benchmark_fit_below_1e3():
    # 50 epochs, full variant, N=2000 noiseless: the deterministic network
    # (dropout off; dropout only adds sampling noise around this fit) drives
    # the training-split regression loss under 1e-3
    from edapinn.data import apply_normalizer as apply_n, stratified_kfold as skf
    from edapinn.model import forward_batch
    from edapinn.objective import mse as mse_fn
    from edapinn.data import SynthSpec as SS

    data, _ = synth_generate(SS(noise=0.0))
    tr_idx, va_idx = skf(data, 5, TrainRunConfig().seed)[0]
    report, params = run_fold(
        data.subset(tr_idx), data.subset(va_idx),
        TrainRunConfig(), ModelConfig(dropout=0.0),
    )
    train_n = apply_n(params.normalizer, data.subset(tr_idx))
    fit = mse_fn(forward_batch(params, train_n, "eval").y_eda, train_n.y)
    assert fit < 1e-3


@pytest.mark.slow
def test_full_variant_beats_no_physics_on_residual():
    # on residual-free data the full variant's converged physics loss stays
    # at or below the residual a physics-blind run leaves behind
    data = small_synth(n=600, seed=43, noise=0.0)
    cfg = TrainRunConfig(epochs=15, batch_size=128, seed=43)
    full, _ = run_fold(data.subset(np.arange(480)), data.subset(np.arange(480, 600)),
                       cfg, quick_model(hidden=[32, 32]))
    blind, _ = run_fold(data.subset(np.arange(480)), data.subset(np.arange(480, 600)),
                        replace(cfg, variant="no_physics"), quick_model(hidden=[32, 32]))
    assert full.traces[-1].l_physics <= blind.traces[-1].l_physics


def test_memorizable_dataset_train_equals_valid():
    # duplicating the training split as validation must reproduce the
    # training-set correlation: same data, same eval-mode forward
    from edapinn.evaluation import regression_metrics as rm
    from edapinn.model import forward_batch
    from edapinn.data import apply_normalizer as apply_n

    data = small_synth(n=300, seed=9, noise=0.0)
    report, params = run_fold(data, data, quick_cfg(epochs=25), quick_model(dropout=0.0))
    train_n = apply_n(params.normalizer, data)
    train_r = rm(forward_batch(params, train_n, "eval").y_eda, train_n.y).pearson_r
    assert abs(report.regression.pearson_r - train_r) <= 0.005


def test_fixed_seed_reproducible_fold_report():
    data = small_synth()
    a, _ = run_fold(data.subset(np.arange(0, 200)), data.subset(np.arange(200, 240)),
                    quick_cfg(), quick_model())
    b, _ = run_fold(data.subset(np.arange(0, 200)), data.subset(np.arange(200, 240)),
                    quick_cfg(), quick_model())
    assert a.regression == b.regression
    assert a.classification == b.classification
    for ta, tb in zip(a.traces, b.traces):
        assert (ta.l_eda, ta.l_emotion, ta.l_physics, ta.lambda_eff) == (
            tb.l_eda, tb.l_emotion, tb.l_physics, tb.lambda_eff)
        assert np.array_equal(ta.beta, tb.beta)


def test_kfold_shapes_and_aggregate():
    data = small_synth(n=250, seed=11)
    reports, models = run_kfold(data, 5, quick_cfg(), quick_model())
    assert [r.fold for r in reports] == [1, 2, 3, 4, 5]
    assert len(models) == 5
    for r in reports:
        assert len(r.traces) == 3


def test_kfold_threads_match_sequential():
    data = small_synth(n=200, seed=13)
    seq, _ = run_kfold(data, 4, quick_cfg(epochs=2), quick_model())
    par, _ = run_kfold(data, 4, quick_cfg(epochs=2), quick_model(), threads=4)
    for a, b in zip(seq, par):
        assert a.regression == b.regression
        assert a.classification == b.classification


def test_kfold_rejects_k_above_minority_count():
    data = small_synth(n=60, seed=15)
    data.label[:] = 0
    data.label[:3] = 1
    with pytest.raises(ConfigError):
        run_kfold(data, 5, quick_cfg(), quick_model())


def test_invalid_variant_rejected():
    with pytest.raises(ConfigError):
        quick_cfg(variant="bogus").validate()
    with pytest.raises(ConfigError):
        quick_cfg(lr=float("nan")).validate()


# ---------------------------------------------------------------------------
# lambda dynamics
# ---------------------------------------------------------------------------


def test_lambda_monotone_decay_with_zero_floor():
    data = small_synth(n=200, seed=17)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(lambda_floor=0.0), norm)
    cfg = quick_cfg(epochs=10)
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    lams = []
    for epoch in range(10):
        params, opt, trace = train_epoch(params, opt, nd, cfg, rng, epoch)
        if trace.l_physics > 0:
            lams.append(trace.lambda_eff)
    assert all(a >= b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 0.1  # strictly collapsed from its 0.1 start


def test_lambda_floor_holds():
    data = small_synth(n=200, seed=19)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(lambda_floor=1e-3), norm)
    params.physics.rho = -12.0  # softplus(rho) far below the floor
    cfg = quick_cfg(epochs=3)
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    for epoch in range(3):
        params, opt, trace = train_epoch(params, opt, nd, cfg, rng, epoch)
        assert trace.lambda_eff >= 1e-3


def test_lambda_frozen_excludes_rho():
    data = small_synth(n=120, seed=23)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(lambda_frozen=True), norm)
    rho_before = params.physics.rho
    cfg = quick_cfg(epochs=2)
    opt = init_adam(trainable_blocks(params), cfg.lr)
    rng = Pcg32(cfg.seed)
    for epoch in range(2):
        params, opt, _ = train_epoch(params, opt, nd, cfg, rng, epoch)
    assert params.physics.rho == rho_before


# ---------------------------------------------------------------------------
# physics recovery
# ---------------------------------------------------------------------------


def recovery_inputs(seed=29, n=1500):
    spec = SynthSpec(n=n, noise=0.0, seed=seed)
    data, dydt = synth_generate(spec)
    return spec, data, dydt


def test_recovery_fixed_point_at_truth():
    spec, data, dydt = recovery_inputs()
    truth = spec.physics()
    result = recover_physics(dydt, data.y, data.e, spec.gamma, init=truth, steps=50)
    assert result.final_loss <= 1e-18
    assert result.params.alpha0 == pytest.approx(spec.alpha0, rel=1e-6)


def test_recovery_from_fifty_percent_perturbation():
    spec, data, dydt = recovery_inputs()
    result = recover_physics(dydt, data.y, data.e, spec.gamma, init_perturbation=0.5, steps=5000)
    assert result.converged
    rec = np.concatenate([[result.params.alpha0], result.params.beta])
    ora = np.concatenate([[result.oracle.alpha0], result.oracle.beta])
    assert np.max(np.abs(rec - ora) / np.abs(ora)) <= 0.01
    # and the oracle itself sits at the generating parameters
    assert result.oracle.alpha0 == pytest.approx(spec.alpha0, rel=1e-8)
    assert np.allclose(result.oracle.beta, spec.beta, rtol=1e-8)


def test_recovery_gauge_respecting_rescale_leaves_params_unchanged():
    # scaling e and y jointly while preserving the dynamics: multiply both
    # e and y (and dy/dt) by c; the residual scales by c, its minimizer in
    # (alpha0, beta) is unchanged
    spec, data, dydt = recovery_inputs(seed=31)
    c = 3.7
    base = physics_least_squares(dydt, data.y, data.e, spec.gamma)
    scaled = physics_least_squares(c * dydt, c * data.y, c * data.e, spec.gamma)
    assert scaled.alpha0 == pytest.approx(base.alpha0, rel=1e-9)
    assert np.allclose(scaled.beta, base.beta, rtol=1e-9)


def test_recovery_reports_nonconvergence():
    spec, data, dydt = recovery_inputs(seed=37, n=400)
    result = recover_physics(dydt, data.y, data.e, spec.gamma,
                             init_perturbation=5.0, steps=3, lr=1e-6)
    assert not result.converged
    assert result.final_loss > result.oracle_loss


def test_residual_free_data_supports_recovery_premise():
    spec, data, dydt = recovery_inputs(seed=41, n=500)
    r = physics_residual(dydt, data.y, data.e, spec.physics())
    assert np.max(np.abs(r)) <= 1e-10


def test_divergent_run_aborts_with_batch_index():
    from edapinn.errors import NumericError

    data = small_synth(n=200, seed=3)
    with pytest.raises(NumericError) as exc:
        run_fold(
            data.subset(np.arange(160)), data.subset(np.arange(160, 200)),
            quick_cfg(lr=1e120, batch_size=64), quick_model(hidden=[16, 16]),
        )
    assert "batch" in str(exc.value) and "epoch" in str(exc.value)
