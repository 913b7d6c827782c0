"""Self-contained verification suites: the one implementation of each oracle.

Each suite pits an implementation path against an independent oracle:
analytic gradients vs central finite differences, the dual tangent channel
vs finite differences in t, the closed-form ODE solution vs classic RK4,
synthetic data vs the residual definition, gradient-descent recovery vs the
normal-equations solution, and the metric implementations vs brute-force
recounts. Results carry a measured figure plus the pass verdict; nothing
raises on failure.

Two callers run them, each with nothing but a seed. The ``check`` command
runs every suite at the given seed. The acceptance gate (criteria 2-6, 8 and
9 of ``tests/test_acceptance.py``) runs one suite per criterion at the
criterion's seed and adds its own tolerance and time bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import gradcheck
from . import model as model_mod
from .data import (
    Dataset,
    SynthSpec,
    ode_solution,
    rk4_integrate,
    stratified_kfold,
    synth_generate,
)
from .evaluation import ClassificationMetrics, classification_metrics, regression_metrics
from .model import ModelConfig, init_model
from .objective import PhysicsParams, mse, physics_residual
from .rng import Pcg32
from .trainer import recover_physics


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time, set by run_all_suites
    figure: float = math.nan  # the measured number the verdict rests on


def _random_batch(n: int, seed: int) -> Dataset:
    rng = Pcg32(seed).derive("suite-batch")
    t = rng.normal(n)
    e = rng.normal(3 * n).reshape(n, 3)
    y = 0.5 + 0.25 * rng.normal(n)
    label = (rng.random(n) < 0.5).astype(np.int64)
    return Dataset(t, e, y, label)


def suite_gradient_check(seed: int = 1) -> SuiteResult:
    params = init_model(ModelConfig(hidden=[8, 8], seed=seed))
    batch = _random_batch(16, seed)
    report = gradcheck.check_gradients(params, batch)
    tol = np.format_float_scientific(gradcheck.TOL, trim="-", exp_digits=1)
    return SuiteResult(
        "gradient-check",
        report.passed,
        f"max rel error {report.max_rel_error:.3e} (worst block {report.worst_block}, tol {tol})",
        figure=report.max_rel_error,
    )


def suite_tangent_check(seed: int = 1) -> SuiteResult:
    """Dual-channel d(EDA)/dt vs central finite differences in t, eval mode."""
    n, tol = 100, 1e-5
    params = init_model(ModelConfig(hidden=[16, 16], seed=seed))
    rng = Pcg32(seed).derive("tangent")
    t = rng.normal(n)
    e = rng.normal(3 * n).reshape(n, 3)
    # populate running statistics so eval mode is nontrivial
    warm = model_mod.forward(params, t, e, "train", [rng.derive("warm")])
    model_mod.commit_batchnorm(params, warm.caches)
    preds = model_mod.forward(params, t, e, "eval")
    h = 1e-6
    up = model_mod.forward(params, t + h, e, "eval").y_eda
    dn = model_mod.forward(params, t - h, e, "eval").y_eda
    fd = (up - dn) / (2 * h)
    rel = np.abs(preds.dydt - fd) / np.maximum.reduce(
        [np.abs(preds.dydt), np.abs(fd), np.full(n, 1e-8)]
    )
    worst = float(rel.max())
    return SuiteResult(
        "tangent-check",
        worst <= tol,
        f"max rel error {worst:.3e} over {n} samples (tol {tol:g})",
        figure=worst,
    )


def suite_ode_oracle(seed: int = 1) -> SuiteResult:
    """Closed form vs RK4, plus the fourth-order halving check.

    A draw with decay rate k = alpha0 / gamma takes max(1000, ceil(k / 0.01))
    steps: at a fixed step of 1e-3, RK4's own error passes 1e-8 once k is large.
    """
    rng = Pcg32(seed).derive("ode")
    e_mix = np.array([0.5, 0.3, 0.2])
    worst = 0.0
    for _ in range(20):
        phys = PhysicsParams(
            rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0, 3), rng.uniform(0.1, 10.0)
        )
        y0 = rng.uniform(0.1, 10.0)
        steps = max(1000, math.ceil(phys.alpha0 / phys.gamma / 0.01))
        grid = np.linspace(0.0, 1.0, steps + 1)
        err = float(np.max(np.abs(rk4_integrate(phys, e_mix, y0, grid) - ode_solution(phys, e_mix, y0, grid))))
        worst = max(worst, err)
    # halving check in a stiffness regime where truncation dominates roundoff
    stiff = PhysicsParams(8.0, np.array([4.0, 3.0, 3.0]), 0.4)
    y0 = 0.1
    grid1 = np.linspace(0.0, 1.0, 1001)
    grid2 = np.linspace(0.0, 1.0, 2001)
    e1 = float(np.max(np.abs(rk4_integrate(stiff, e_mix, y0, grid1) - ode_solution(stiff, e_mix, y0, grid1))))
    e2 = float(np.max(np.abs(rk4_integrate(stiff, e_mix, y0, grid2) - ode_solution(stiff, e_mix, y0, grid2))))
    ratio = e1 / e2 if e2 > 0 else float("inf")
    ok = worst <= 1e-8 and e1 <= 1e-8 and ratio >= 12.0
    return SuiteResult(
        "ode-oracle",
        ok,
        f"max abs error {worst:.3e} over 20 draws (tol 1e-8); halving ratio {ratio:.1f}x (need >= 12)",
        figure=worst,
    )


def suite_residual_free(seed: int = 1) -> SuiteResult:
    spec = SynthSpec(n=10000, noise=0.0, seed=seed)
    data, dydt = synth_generate(spec)
    r = physics_residual(dydt, data.y, data.e, spec.physics())
    worst = float(np.max(np.abs(r)))
    return SuiteResult(
        "residual-free-synthesis",
        worst <= 1e-10,
        f"max |residual| {worst:.3e} over 10000 noise-free samples (tol 1e-10)",
        figure=worst,
    )


def suite_recovery(seed: int = 1) -> SuiteResult:
    """+50% perturbed (alpha0, beta) must return to the least-squares oracle."""
    spec = SynthSpec(n=2000, noise=0.0, seed=seed)
    data, dydt = synth_generate(spec)
    result = recover_physics(dydt, data.y, data.e, spec.gamma)
    rec = np.concatenate([[result.params.alpha0], result.params.beta])
    ora = np.concatenate([[result.oracle.alpha0], result.oracle.beta])
    worst = float(np.max(np.abs(rec - ora) / np.abs(ora)))
    return SuiteResult(
        "physics-recovery",
        result.converged and worst <= 0.01,
        f"max component deviation from least-squares oracle {worst:.2%} (tol 1%)",
        figure=worst,
    )


def suite_metric_oracles(seed: int = 1) -> SuiteResult:
    """Metrics vs brute-force recounts; rmse^2 vs the objective's mse.

    The figure counts the mismatching instances; the detail names the first.
    """
    rng = Pcg32(seed).derive("metrics")
    mismatches, detail = 0, "all brute-force recounts matched"
    for i in range(200):
        n = 2 + int(rng.next_u32() % 40)
        prob = rng.random(n)
        label = (rng.random(n) < 0.5).astype(np.int64)
        m = classification_metrics(prob, label, 0.5)
        tp = sum(1 for j in range(n) if prob[j] >= 0.5 and label[j] == 1)
        tn = sum(1 for j in range(n) if prob[j] < 0.5 and label[j] == 0)
        fp = sum(1 for j in range(n) if prob[j] >= 0.5 and label[j] == 0)
        fn = sum(1 for j in range(n) if prob[j] < 0.5 and label[j] == 1)
        acc = (tp + tn) / n
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        pred = rng.normal(n)
        target = rng.normal(n)
        rm = regression_metrics(pred, target)
        brute_rmse = (sum((pred[j] - target[j]) ** 2 for j in range(n)) / n) ** 0.5
        brute_mae = sum(abs(pred[j] - target[j]) for j in range(n)) / n
        if m != ClassificationMetrics(acc, prec, rec, f1, tn, fp, fn, tp):
            what = "classification mismatch"
        elif abs(rm.rmse**2 - mse(pred, target)) > 1e-12:
            what = "rmse^2 != mse"
        elif abs(rm.rmse - brute_rmse) > 1e-12 or abs(rm.mae - brute_mae) > 1e-12:
            what = "regression mismatch"
        else:
            continue
        detail = detail if mismatches else f"{what} on instance {i}"
        mismatches += 1
    return SuiteResult("metric-oracles", mismatches == 0, f"{detail} (200 instances)", figure=mismatches)


def suite_stratification(seed: int = 1) -> SuiteResult:
    rng = Pcg32(seed).derive("strat")
    worst = 0.0
    for _ in range(50):
        n = 60 + int(rng.next_u32() % 500)
        frac = 0.2 + 0.6 * rng.random()
        label = (rng.random(n) < frac).astype(np.int64)
        if label.sum() < 5 or (1 - label).sum() < 5:
            label[:5] = 1
            label[5:10] = 0
        data = Dataset(np.arange(n, dtype=float), np.zeros((n, 3)), np.zeros(n), label)
        for _, va in stratified_kfold(data, 5, int(rng.next_u32())):
            for cls in (0, 1):
                exact = np.sum(label == cls) / 5
                got = np.sum(label[va] == cls)
                worst = max(worst, abs(got - exact))
    return SuiteResult(
        "stratification",
        worst <= 1.0,
        f"max deviation from exact proportionality {worst:.2f} samples (tol 1)",
        figure=worst,
    )


ALL_SUITES = (
    suite_gradient_check,
    suite_tangent_check,
    suite_ode_oracle,
    suite_residual_free,
    suite_recovery,
    suite_metric_oracles,
    suite_stratification,
)


def run_all_suites(seed: int = 1) -> list[SuiteResult]:
    results = []
    for suite in ALL_SUITES:
        t0 = time.perf_counter()
        results.append(suite(seed))
        results[-1].seconds = time.perf_counter() - t0
    return results
