"""Adam, the epoch loop, fold protocol, lambda dynamics and recovery."""

import concurrent.futures
import ctypes
import glob
import json
import multiprocessing
import pickle
import resource
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import edapinn.trainer as trainer_mod
from edapinn.autodiff import make_dropout_mask
from edapinn.baselines import BASELINES
from edapinn.data import Dataset, SynthSpec, apply_normalizer, fit_normalizer, synth_generate
from edapinn.errors import ConfigError, ContractError, DataFormatError, NumericError
from edapinn.model import ModelConfig, ModelParams, blocks, checkpoint_text, init_model, stack
from edapinn.objective import VARIANTS, PhysicsParams
from edapinn.reporting import ablation_csv, ablation_table, curves_csv, metrics_csv, params_csv
from edapinn.rng import Pcg32
from edapinn.suites import suite_recovery
from edapinn.trainer import (
    Fold,
    TrainRunConfig,
    adam_step,
    batch_gradients,
    batch_loss,
    init_adam,
    physics_least_squares,
    prepare_folds,
    run_fold,
    run_folds,
    run_kfold,
    train_epoch,
    train_folds,
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


def train_one_fold(net, data, cfg, epochs=1):
    """``epochs`` epochs of ``net`` as a one-fold, one-variant stack on the
    normalized split ``data``, as fold 1: the trained network and its epoch
    traces."""
    params = stack([net], 1)
    opt, fold, traces = init_adam(params, cfg.lr), Fold(1, net.normalizer, data, data), []
    for epoch in range(epochs):
        epoch_traces = train_epoch(params, opt, [fold], [cfg], epoch)
        traces.append(epoch_traces[0][0])
    return ModelParams(params.theta[0, 0], params.running[0, 0], net.normalizer, net.config), traces


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_move():
    params = init_model(quick_model())
    before = params.theta.copy()
    opt = init_adam(params)
    adam_step(opt, params, np.zeros_like(params.theta))
    assert np.array_equal(params.theta, before)
    assert opt.t == 1


def test_adam_first_step_is_signed_lr():
    params = init_model(quick_model())
    before = params.theta.copy()
    adam_step(init_adam(params, lr=0.001), params, np.full_like(params.theta, 0.25))
    assert np.allclose(before - params.theta, 0.001, rtol=1e-6)


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
    # other number gets zero gradients and must stay put)
    params = init_model(quick_model())
    params.physics.alpha0[...] = 1.0
    others = params.theta.copy()
    opt = init_adam(params, lr=0.1)
    for _ in range(100):
        grad = np.zeros_like(params.theta)
        blocks(grad, params.config)["physics.alpha0"][...] = 2.0 * params.physics.alpha0
        adam_step(opt, params, grad)
    assert params.physics.alpha0 == pytest.approx(w, abs=1e-12)
    moved = params.theta != others
    assert moved.sum() == 1 and blocks(moved, params.config)["physics.alpha0"]


def test_adam_shape_mismatch_rejected():
    from edapinn.errors import ContractError

    params = init_model(quick_model())
    opt = init_adam(params)
    with pytest.raises(ContractError):
        adam_step(opt, params, np.zeros(params.theta.size - 1))


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------


def test_no_physics_variant_records_zero_lambda():
    data = small_synth()
    norm = fit_normalizer(data)
    _, traces = train_one_fold(init_model(quick_model(), norm), apply_normalizer(norm, data),
                               quick_cfg(variant="no_physics"), epochs=2)
    assert [trace.lambda_eff for trace in traces] == [0.0, 0.0]


def test_single_sample_epoch_equals_one_adam_step():
    data = small_synth(n=40)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data).subset(np.array([3]))
    cfg = quick_cfg(batch_size=8)
    stepped, _ = train_one_fold(init_model(quick_model(dropout=0.0), norm), nd, cfg)
    manual = stack([init_model(quick_model(dropout=0.0), norm)], 1)
    _, grad, _ = batch_gradients(manual, nd, ["full"], None)
    adam_step(init_adam(manual, cfg.lr), manual, grad)
    assert np.allclose(stepped.theta, manual.theta[0, 0], atol=1e-15)


@pytest.mark.parametrize("rows, sizes", [(129, [129]), (136, [128, 8]), (260, [128, 132])])
def test_small_final_batch_joins_the_previous_one(monkeypatch, rows, sizes):
    real, seen = trainer_mod.batch_gradients, []

    def recording(params, batch, *args):
        seen.append(len(batch))
        return real(params, batch, *args)

    monkeypatch.setattr(trainer_mod, "batch_gradients", recording)
    data = small_synth(n=rows)
    nd = apply_normalizer(fit_normalizer(data), data)
    train_one_fold(init_model(quick_model()), nd, quick_cfg(batch_size=128))
    assert seen == sizes


def test_variant_containment_classification_head_frozen_under_eda_only():
    data = small_synth()
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(), norm)
    before = params.views["head_cls.w"].copy()
    params, _ = train_one_fold(params, nd, quick_cfg(variant="eda_only"), epochs=3)
    assert np.array_equal(params.views["head_cls.w"], before)
    assert np.array_equal(params.views["head_cls.b"], np.zeros(1))


def test_emotion_only_moves_the_regression_head_through_physics():
    # emotion_only drops the EDA supervision but keeps the physics term,
    # whose residual reaches the regression head
    data = small_synth()
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(), norm)
    before_w = params.views["head_reg.w"].copy()
    params, _ = train_one_fold(params, nd, quick_cfg(variant="emotion_only"))
    assert not np.array_equal(params.views["head_reg.w"], before_w)


def test_saturated_wrong_classifier_keeps_its_gradient():
    # a confidently wrong head (logit ~20 on all-negative labels) must still
    # be pushed back: BCE on logits has gradient sigmoid(z) - label, which
    # saturates at 1 instead of vanishing, and its loss is not capped
    data = small_synth(n=64)
    nd = apply_normalizer(fit_normalizer(data), data)
    nd.label[:] = 0
    params = stack([init_model(quick_model(dropout=0.0))], 1)
    params.views["head_cls.b"][:] = 20.0
    breakdown, grad, preds = batch_gradients(params, nd, ["emotion_only"], None)
    assert blocks(grad, params.config)["head_cls.b"][0, 0, 0] == pytest.approx(1.0, abs=1e-6)
    assert breakdown.l_emotion > 17.0  # a clipped BCE would stop at -log(1e-7) = 16.1
    assert breakdown.l_emotion == pytest.approx(np.mean(np.logaddexp(0.0, preds.z_emotion)), rel=1e-12)


def test_training_step_evaluates_sigmoid_once_per_layer(monkeypatch):
    from edapinn import autodiff, objective

    real, calls = autodiff.sigmoid, []

    def counting(x, out=None):
        calls.append(np.shape(x))
        return real(x, out)

    monkeypatch.setattr(autodiff, "sigmoid", counting)
    monkeypatch.setattr(objective, "sigmoid", counting)
    data = small_synth(n=64)
    params = stack([init_model(quick_model())], 1)
    batch_gradients(params, apply_normalizer(fit_normalizer(data), data), ["full"], [Pcg32(1)])
    # one per swish layer (the backward reuses it), p = sigmoid(z), d lambda / d rho
    assert calls == [(1, 1, 64, 12), (1, 1, 64, 12), (1, 1, 64), (1, 1)]


def test_training_step_evaluates_the_objective_once(monkeypatch):
    # the loss breakdown and the adjoints come from one residual
    from edapinn import objective

    real, calls = objective.physics_residual, []

    def counting(*args):
        calls.append(args[0].shape[-1])
        return real(*args)

    monkeypatch.setattr(objective, "physics_residual", counting)
    data = small_synth(n=64)
    params = stack([init_model(quick_model())], 1)
    batch_gradients(params, apply_normalizer(fit_normalizer(data), data), ["full"], [Pcg32(1)])
    assert calls == [64]


def test_batch_loss_on_fresh_streams_repeats_and_masks_in_layer_order():
    # the gradient checker relies on this: a stream derived afresh for every
    # evaluation pins the dropout masks, one per hidden layer, in layer order
    data = small_synth(n=64, seed=21)
    nd = apply_normalizer(fit_normalizer(data), data)
    params = stack([init_model(quick_model(hidden=[12, 9, 6], dropout=0.3))], 1)

    def stream():
        return Pcg32(params.config.seed).derive("gradcheck")

    first, _, preds = batch_loss(params, nd, ["full"], [stream()])
    second, _, _ = batch_loss(params, nd, ["full"], [stream()])
    assert first.total.tobytes() == second.total.tobytes()
    rng = stream()
    for width, cache in zip(params.config.hidden, preds.caches.layers):
        expected = make_dropout_mask((len(nd), width), 0.3, rng)
        assert np.array_equal(cache.dropout_mask, expected[None, None])
    breakdown, _, _ = batch_gradients(params, nd, ["full"], [stream()])
    assert breakdown.total.tobytes() == first.total.tobytes()


def test_single_step_descent_probability():
    # one Adam step on a fixed batch, with the same dropout masks before and
    # after, should not increase that batch's own loss for lr <= 1e-3
    # (>= 99% of seeds)
    data = small_synth(n=64, seed=21)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    cfg = quick_cfg(batch_size=64, lr=1e-3)
    wins = 0
    trials = 100
    for s in range(trials):
        params = stack([init_model(quick_model(seed=1000 + s), norm)], 1)
        before, grad, _ = batch_gradients(params, nd, ["full"], [Pcg32(s).derive("mask")])
        adam_step(init_adam(params, cfg.lr), params, grad)
        after, _, _ = batch_loss(params, nd, ["full"], [Pcg32(s).derive("mask")])
        wins += bool(after.total <= before.total)
    assert wins >= 99


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


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


def test_fold_report_and_traces_are_detached_snapshots():
    data = small_synth()
    report, params = run_fold(data.subset(np.arange(0, 200)), data.subset(np.arange(200, 240)),
                              quick_cfg(), quick_model())
    first, last = report.traces[0], report.traces[-1]
    for trace in (first, last):
        assert type(trace.alpha0) is float and type(trace.gamma) is float
    assert first.alpha0 != last.alpha0 and first.gamma != last.gamma
    phys = report.physics
    snapshot = (phys.alpha0, phys.beta.copy(), phys.gamma, phys.rho)
    assert snapshot[0] == last.alpha0 and snapshot[2] == last.gamma
    params.theta[:] = 123.0
    assert all(type(x) is float for x in (phys.alpha0, phys.gamma, phys.rho))
    assert (phys.alpha0, phys.gamma, phys.rho) == (snapshot[0], snapshot[2], snapshot[3])
    assert np.array_equal(phys.beta, snapshot[1])


def test_stacked_fold_equals_one_run_fold_per_variant_bit_for_bit():
    # 132 training rows in batches of 64: the 4-row tail joins the second batch
    data = small_synth(n=200, seed=13)
    train, valid = data.subset(np.arange(132)), data.subset(np.arange(132, 200))
    cfgs = [quick_cfg(epochs=3, batch_size=64, variant=v) for v in VARIANTS]
    model_cfg = quick_model(dropout=0.2)
    stacked = run_folds(prepare_folds([(train, valid)]), cfgs, model_cfg)[0]
    assert len(stacked) == len(cfgs)
    for cfg, (report, params) in zip(cfgs, stacked):
        alone_report, alone = run_fold(train, valid, cfg, model_cfg)
        assert params.theta.shape == alone.theta.shape
        assert params.theta.tobytes() == alone.theta.tobytes()
        assert params.running.tobytes() == alone.running.tobytes()  # every layer's mean and var
        assert len(report.traces) == 3
        assert pickle.dumps(report.traces) == pickle.dumps(alone_report.traces)
        assert pickle.dumps(report) == pickle.dumps(alone_report)
        assert checkpoint_text(params) == checkpoint_text(alone)


def test_folds_and_variants_stack_equals_one_run_fold_each_bit_for_bit(monkeypatch):
    # 135/136/137 training rows in batches of 64: batch 0 steps the whole
    # stack; batch 1 is 71/64/64 rows (fold 1's 7-row tail joins it), so
    # fold 1 steps alone and folds 2-3 as one slice; batch 2, 8/9 rows, only
    # folds 2 and 3 have, each alone; from then on the folds' Adam step
    # counts differ
    data = small_synth(n=480, seed=21)
    splits = [(data.subset(np.arange(160 * i, 160 * i + 135 + i)),
               data.subset(np.arange(160 * i + 135 + i, 160 * (i + 1)))) for i in range(3)]
    cfgs = [quick_cfg(epochs=3, batch_size=64, variant=v) for v in ("full", "emotion_only")]
    model_cfg = quick_model(dropout=0.2)
    prepared = prepare_folds(splits)
    real, steps = trainer_mod.batch_gradients, []

    def recording(params, batch, variant, rng):
        steps.append((params.theta.shape[:-1], batch.t.shape[:-1], np.shape(rng)))
        return real(params, batch, variant, rng)

    with monkeypatch.context() as m:
        m.setattr(trainer_mod, "batch_gradients", recording)
        stacked = run_folds(prepared, cfgs, model_cfg)
    # every step is a slice of the stack: (F_s, V) networks, one (F_s, 1) batch, F_s streams
    assert steps == [((f, 2), (f, 1), (f,)) for f in [3, 1, 2, 1, 1]] * 3
    assert len(stacked) == 3
    for number, pairs in enumerate(stacked, start=1):
        assert len(pairs) == 2
        for cfg, (report, params) in zip(cfgs, pairs):
            # the stack of this fold alone, prepared with its number
            alone_report, alone = run_folds(prepared[number - 1 : number], [cfg], model_cfg)[0][0]
            assert params.theta.shape == alone.theta.shape
            assert params.theta.tobytes() == alone.theta.tobytes()
            assert params.running.tobytes() == alone.running.tobytes()  # every layer's mean and var
            assert report.fold == number and len(report.traces) == 3
            assert pickle.dumps(report.traces) == pickle.dumps(alone_report.traces)
            assert pickle.dumps(report) == pickle.dumps(alone_report)
            assert checkpoint_text(params) == checkpoint_text(alone)


@pytest.mark.parametrize(
    "k, variants, threads, sizes",
    [(5, 1, 1, [3, 2]), (5, 1, 2, [3, 2]), (5, 4, 1, [1] * 5), (5, 4, 2, [1] * 5),
     (3, 1, 64, [1, 1, 1]), (3, 2, 2, [2, 1]), (4, 1, 1, [4])],
)
def test_fold_jobs_deal_the_folds_in_order_into_few_stacks(monkeypatch, k, variants, threads, sizes):
    """``train_folds`` deals the folds into stacks, one ``run_folds`` call each."""
    data = small_synth(n=200, seed=13)
    splits = trainer_mod.stratified_kfold(data, k, 5)
    cfgs = [quick_cfg(variant=v) for v in list(VARIANTS)[:variants]]
    prepared = prepare_folds((data.subset(tr), data.subset(va)) for tr, va in splits)

    def stack_numbers(folds, cfgs, model_cfg):
        """Each fold's result, for every config: the fold numbers of its stack."""
        return [[[fold.number for fold in folds]] * len(cfgs)] * len(folds)

    monkeypatch.setattr(trainer_mod, "run_folds", stack_numbers)  # forked workers inherit the patch
    ends = np.cumsum([0] + sizes)
    stacks = [list(range(a + 1, b + 1)) for a, b in zip(ends, ends[1:])]
    assert stacks[-1][-1] == k
    assert train_folds(prepared, cfgs, quick_model(), threads) == [[s for s in stacks for _ in s]] * variants


def test_ablation_normalizes_each_fold_once(monkeypatch):
    """The networks and the baselines share the prepared folds: one
    ``fit_normalizer`` per fold, wherever the name was imported."""
    real, calls = fit_normalizer, []

    def counting(train):
        calls.append(len(train))
        return real(train)

    for module in [m for name, m in sys.modules.items() if name.startswith("edapinn")]:
        if getattr(module, "fit_normalizer", None) is real:
            monkeypatch.setattr(module, "fit_normalizer", counting)
    variants = [*VARIANTS, *BASELINES]
    ablation_table(small_synth(n=400), variants, quick_model(), quick_cfg(epochs=1, k=5), threads=1)
    assert len(calls) == 5


def test_stack_configs_may_differ_in_their_variant_alone():
    data = small_synth(n=120)
    with pytest.raises(ContractError):
        run_folds(prepare_folds([(data, data)]), [quick_cfg(), quick_cfg(epochs=4)], quick_model())
    with pytest.raises(ContractError):
        run_folds(prepare_folds([(data, data)]), [], quick_model())


def test_numeric_failure_in_a_stack_names_its_variant():
    data = small_synth(n=128)
    [fold] = prepare_folds([(data, data)])
    norm = fold.normalizer
    cfgs = [quick_cfg(variant=v) for v in ("full", "no_physics", "eda_only")]
    params = stack([init_model(quick_model(dropout=0.0), norm)], 3)
    params.views["layer1.w"][0, 1, 0, 0] = np.inf
    with pytest.raises(NumericError) as caught:
        train_epoch(params, init_adam(params), [fold], cfgs, 4)
    expected = "epoch 4, batch 0, fold 1, variant no_physics: non-finite activations after hidden layer 1"
    assert str(caught.value) == expected
    assert caught.value.model == 1
    params = stack([init_model(quick_model(dropout=0.0), norm)], 3)
    params.views["head_reg.b"][0, 2] = 1e200  # finite outputs whose squared error overflows
    with pytest.raises(NumericError) as caught:
        train_epoch(params, init_adam(params), [fold], cfgs, 0)
    assert str(caught.value).startswith("epoch 0, batch 0, fold 1, variant eda_only: non-finite loss (l_eda=inf")
    assert caught.value.model == 2


def test_numeric_failure_in_a_stack_over_folds_names_its_fold_and_variant():
    data = small_synth(n=256)
    parts = [data.subset(np.arange(128)), data.subset(np.arange(128, 256))]
    folds = [replace(fold, number=n) for n, fold in zip((4, 5), prepare_folds([(p, p) for p in parts]))]
    cfgs = [quick_cfg(variant=v) for v in ("full", "no_physics")]
    inits = [init_model(quick_model(dropout=0.2, seed=s)) for s in (7, 8)]
    params = stack(inits, 2)
    params.views["layer1.w"][1, 1, 0, 0] = np.inf
    with pytest.raises(NumericError) as caught:
        train_epoch(params, init_adam(params), folds, cfgs, 3)
    expected = "epoch 3, batch 0, fold 5, variant no_physics: non-finite activations after hidden layer 1"
    assert str(caught.value) == expected
    assert caught.value.model == 3
    # 128 and 120 rows in one batch each: the folds step as two slices of one
    # fold, and fold 5's third variant has finite outputs whose squared error overflows
    folds[1] = replace(folds[1], train=folds[1].train.subset(np.arange(120)))
    cfgs = [quick_cfg(batch_size=128, variant=v) for v in ("full", "no_physics", "eda_only")]
    params = stack([init_model(quick_model(dropout=0.0, seed=s)) for s in (7, 8)], 3)
    params.views["head_reg.b"][1, 2] = 1e200
    with pytest.raises(NumericError) as caught:
        train_epoch(params, init_adam(params), folds, cfgs, 0)
    assert str(caught.value).startswith("epoch 0, batch 0, fold 5, variant eda_only: non-finite loss (l_eda=inf")
    assert caught.value.model == 5


def test_an_overflowing_adam_second_moment_names_its_network():
    """A gradient past about 1e154 squares to inf in Adam's v, which would
    freeze its number for the rest of the run; the step fails instead,
    naming the first such network, and no network of the stack steps."""
    data = small_synth(n=128)
    [fold] = prepare_folds([(data, data)])
    net = init_model(quick_model(hidden=[8, 8], lambda_floor=1e300), fold.normalizer)
    for variants, model in ((("full", "no_physics", "eda_only"), 0), (("no_physics", "eda_only"), 1)):
        params = stack([net], len(variants))
        before = params.theta.copy()
        with pytest.raises(NumericError) as caught:
            train_epoch(params, init_adam(params), [fold], [quick_cfg(variant=v) for v in variants], 0)
        where = f"epoch 0, batch 0, fold 1, variant {variants[model]}"
        assert str(caught.value) == f"{where}: non-finite Adam second moment (the squared gradient overflows)"
        assert caught.value.model == model
        assert np.array_equal(params.theta, before)


def test_train_runs_under_the_heap_setting():
    trainer_mod._steady_heap.cache_clear()
    data = small_synth(n=200)
    run_fold(data.subset(np.arange(160)), data.subset(np.arange(160, 200)), quick_cfg(epochs=1), quick_model())
    assert trainer_mod._steady_heap.cache_info().currsize == 1


def _epoch_minor_faults() -> list[int]:
    """The minor page faults of each epoch of a 6-epoch ``run_fold``, counted
    in the calling process, whose ``trainer.train_epoch`` it replaces for
    good: a process of its own runs it."""
    real, faults = trainer_mod.train_epoch, []

    def counting(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = real(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    trainer_mod.train_epoch = counting
    data = small_synth(n=600)
    run_fold(data.subset(np.arange(512)), data.subset(np.arange(512, 600)),
             quick_cfg(epochs=6, batch_size=128), quick_model(hidden=[64, 64]))
    return faults


def test_training_steps_fault_no_fresh_pages_after_the_heap_setting():
    """Counted in a fresh interpreter, whose heap no other test has shaped: a
    forked child would also fault on each page it first writes of the heap
    it shares with this process, and how many it writes depends on the tests
    that ran before."""
    code = (
        "import json, sys; sys.path[:0] = json.loads(sys.argv[1]); "
        f"from {__name__} import _epoch_minor_faults; print(json.dumps(_epoch_minor_faults()))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, json.dumps(sys.path)], capture_output=True, text=True, timeout=300
    )
    assert child.returncode == 0, child.stderr[-2000:]
    faults = json.loads(child.stdout)
    # 5 epochs of 4 steps; without the setting each step faults in 100-300 pages
    assert len(faults) == 6 and sum(faults[1:]) <= 3 * 5 * 4


def test_kfold_shapes_and_aggregate():
    data = small_synth(n=250, seed=11)
    reports, models = run_kfold(data, quick_cfg(), quick_model())
    assert [r.fold for r in reports] == [1, 2, 3, 4, 5]
    assert len(models) == 5
    for r in reports:
        assert len(r.traces) == 3


def child_pids() -> set[str]:
    """Live children of this process, read from every thread's children list."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            pids.update(Path(path).read_text().split())
        except FileNotFoundError:  # the thread ended after the glob
            pass
    return pids


def assert_no_children():
    assert multiprocessing.active_children() == []
    assert child_pids() == set()


def fold_outputs(reports, models) -> list[str]:
    return [metrics_csv(reports), curves_csv(reports), params_csv(reports)] + [
        checkpoint_text(m) for m in models
    ]


def test_kfold_worker_processes_match_sequential_byte_for_byte():
    data = small_synth(n=200, seed=13)
    seq = fold_outputs(*run_kfold(data, quick_cfg(epochs=2, k=4), quick_model()))
    par = fold_outputs(*run_kfold(data, quick_cfg(epochs=2, k=4), quick_model(), threads=2))
    assert_no_children()
    assert len(par) == 3 + 4
    assert par == seq


def test_ablation_worker_processes_match_sequential_byte_for_byte():
    data = small_synth(n=200, seed=13)
    variants = ["full", "no_physics", "eda_only", "emotion_only", "ridge"]
    outputs = {}
    for threads in (1, 2):
        rows, reports = ablation_table(data, variants, quick_model(), quick_cfg(epochs=2, k=3), threads)
        assert_no_children()
        outputs[threads] = [ablation_csv(rows)] + [
            table(reports[v]) for v in variants[:4] for table in (metrics_csv, curves_csv, params_csv)
        ]
    assert outputs[2] == outputs[1]


@pytest.mark.parametrize(
    "error",
    [NumericError("loss went non-finite"), ConfigError("bad knob"), DataFormatError("bad cell", row=3)],
    ids=["numeric", "config", "data"],
)
@pytest.mark.parametrize("entry", ["run_kfold", "ablation_table"])
def test_worker_failure_keeps_its_type_and_leaves_no_process(monkeypatch, error, entry):
    real = trainer_mod.run_folds

    def failing(folds, cfg, model_cfg):
        if 2 in [fold.number for fold in folds]:
            raise error
        return real(folds, cfg, model_cfg)

    monkeypatch.setattr(trainer_mod, "run_folds", failing)  # forked workers inherit the patch
    data = small_synth(n=200, seed=13)
    with pytest.raises(type(error)) as caught:
        if entry == "run_kfold":
            run_kfold(data, quick_cfg(epochs=1, k=3), quick_model(), threads=2)
        else:
            ablation_table(data, ["full", "eda_only"], quick_model(), quick_cfg(epochs=1, k=3), 2)
    assert type(caught.value) is type(error)
    assert str(caught.value) == str(error)
    assert getattr(caught.value, "row", None) == getattr(error, "row", None)
    assert_no_children()


def test_pool_gets_one_worker_per_job_at_most(monkeypatch):
    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs stacks in-process."""

        def __init__(self, max_workers, mp_context, initializer):
            assert mp_context.get_start_method() == "fork"
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    data = small_synth(n=200, seed=13)
    run_kfold(data, quick_cfg(epochs=1, k=3), quick_model(), threads=64)
    run_kfold(data, quick_cfg(epochs=1, k=3), quick_model(), threads=2)
    run_kfold(data, quick_cfg(epochs=1, k=3), quick_model(), threads=1)  # in-process, no pool
    ablation_table(data, ["full", "eda_only", "ridge"], quick_model(), quick_cfg(epochs=1, k=3), 64)
    ablation_table(data, ["ridge"], quick_model(), quick_cfg(epochs=1, k=3), 64)  # no stacks, no pool
    assert sizes == [3, 2, 3]  # an ablation stack is a fold that trains its variants together


def blas_threads() -> list[int]:
    """The thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    counts = []
    for path in sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}):
        lib = ctypes.CDLL(path)
        for name in trainer_mod.BLAS_THREAD_SETTERS:
            getter = getattr(lib, name.replace("_set_", "_get_"), None)
            if getter is not None:
                counts.append(getter())
    return counts


def test_workers_run_blas_on_one_thread(monkeypatch):
    before = blas_threads()
    if not before:
        pytest.skip("no OpenBLAS loaded")
    monkeypatch.setattr(trainer_mod, "run_folds", lambda folds, *rest: [[(blas_threads(), None)]] * len(folds))
    seen, _ = run_kfold(small_synth(n=200, seed=13), quick_cfg(k=3), quick_model(), threads=2)
    assert seen == [[1] * len(before)] * 3
    assert blas_threads() == before  # this process keeps its own setting


def test_kfold_rejects_k_above_minority_count():
    data = small_synth(n=60, seed=15)
    data.label[:] = 0
    data.label[:3] = 1
    with pytest.raises(ConfigError):
        run_kfold(data, quick_cfg(), quick_model())


def test_invalid_variant_rejected():
    with pytest.raises(ConfigError):
        quick_cfg(variant="bogus")
    with pytest.raises(ConfigError):
        quick_cfg(lr=float("nan"))


def test_invalid_train_config_cannot_be_built():
    with pytest.raises(ConfigError, match="epochs"):
        replace(quick_cfg(), epochs=0)
    # batch-norm statistics over fewer rows blow the loss up
    with pytest.raises(ConfigError, match="batch size must be >= 8, got 7"):
        replace(quick_cfg(), batch_size=7)
    with pytest.raises(FrozenInstanceError):
        quick_cfg().epochs = 0


# ---------------------------------------------------------------------------
# lambda dynamics
# ---------------------------------------------------------------------------


def test_lambda_monotone_decay_with_zero_floor():
    data = small_synth(n=200, seed=17)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    _, traces = train_one_fold(init_model(quick_model(lambda_floor=0.0), norm), nd, quick_cfg(), epochs=10)
    lams = [trace.lambda_eff for trace in traces if trace.l_physics > 0]
    assert all(a >= b for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 0.1  # strictly collapsed from its 0.1 start


def test_lambda_floor_holds():
    data = small_synth(n=200, seed=19)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(lambda_floor=1e-3), norm)
    params.physics.rho[...] = -12.0  # softplus(rho) far below the floor
    _, traces = train_one_fold(params, nd, quick_cfg(), epochs=3)
    assert all(trace.lambda_eff >= 1e-3 for trace in traces)


def test_lambda_frozen_excludes_rho():
    data = small_synth(n=120, seed=23)
    norm = fit_normalizer(data)
    nd = apply_normalizer(norm, data)
    params = init_model(quick_model(lambda_frozen=True), norm)
    rho_before = float(params.physics.rho)
    params, _ = train_one_fold(params, nd, quick_cfg(), epochs=2)
    assert params.physics.rho == rho_before


# ---------------------------------------------------------------------------
# physics recovery
# ---------------------------------------------------------------------------


def recovery_inputs(seed=29, n=1500):
    spec = SynthSpec(n=n, noise=0.0, seed=seed)
    data, dydt = synth_generate(spec)
    return spec, data, dydt


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


def test_recovery_suite_fails_a_solver_off_by_one_part_in_a_billion(monkeypatch):
    assert suite_recovery(5).passed

    def off(dydt, y, e, gamma):
        p = physics_least_squares(dydt, y, e, gamma)
        return PhysicsParams(p.alpha0, p.beta * (1.0 + 1e-9), p.gamma)

    monkeypatch.setattr(trainer_mod, "physics_least_squares", off)
    result = suite_recovery(5)
    assert not result.passed and result.figure == pytest.approx(1e-9, rel=1e-3)


def test_divergent_run_aborts_with_batch_index():
    data = small_synth(n=200, seed=3)
    with pytest.raises(NumericError) as exc:
        run_fold(
            data.subset(np.arange(160)), data.subset(np.arange(160, 200)),
            quick_cfg(lr=1e120, batch_size=64), quick_model(hidden=[16, 16]),
        )
    assert "batch" in str(exc.value) and "epoch" in str(exc.value)
