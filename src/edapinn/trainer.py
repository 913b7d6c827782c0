"""Adam optimization, the per-batch training loop, folds and recovery.

A run's variant is a name the trainer hands to the objective, which owns
the loss terms each variant trains (``objective.VARIANTS``).

One fold trains in one process so accumulation order is deterministic;
(seed, data, config) fully determine every recorded trace value. The
variants of one fold share its init, shuffles and dropout masks, so
``run_fold`` trains them as one stack of networks (``model.stack``): one
forward, one backward and one Adam step per batch serve every variant,
and only the objective runs per model, each with its own variant. Each
network of the stack gets the numbers, byte for byte, that it gets when
trained alone. Distinct folds use independently derived RNG streams, so
the jobs of a run, one per fold, may run on worker processes (``threads``
of them) with results identical, byte for byte, to the sequential run.

``run_fold_jobs`` also keeps the process's heap steady: it raises glibc's
trim and mmap thresholds once, so that the step's arrays, which a stack
makes larger, are reused instead of being mapped and faulted in anew.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model as model_mod
from . import objective as obj
from .data import Dataset, apply_normalizer, fit_normalizer, stratified_kfold
from .errors import ConfigError, ContractError, NumericError
from .evaluation import (
    ClassificationMetrics,
    RegressionMetrics,
    classification_metrics,
    regression_metrics,
)
from .model import ModelConfig, ModelParams, forward_batch, init_model
from .objective import VARIANTS, PhysicsParams
from .rng import Pcg32, derive_seed

# a final batch of fewer rows joins the one before it: batch-norm statistics
# over 1-3 rows blow the physics loss and its gradient up (after 5 epochs, 1 row
# gave 2.4e7 and 6.1e7, 8 rows 0.75 and 5.9), poisoning Adam's second moments
MIN_FINAL_BATCH = 8


@dataclass(frozen=True)
class TrainRunConfig:
    epochs: int = 50
    batch_size: int = 128
    variant: str = "full"
    seed: int = 1
    lr: float = 0.001
    k: int = 5

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {tuple(VARIANTS)}")
        if not 0 < self.lr < np.inf:  # also rejects NaN
            raise ConfigError("learning rate must be finite and positive")
        if self.k < 2:
            raise ConfigError("k must be >= 2")


@dataclass
class EpochTrace:
    epoch: int
    l_eda: float
    l_emotion: float
    l_physics: float
    lambda_eff: float
    alpha0: float
    beta: np.ndarray
    gamma: float


@dataclass
class FoldReport:
    fold: int
    regression: RegressionMetrics
    classification: ClassificationMetrics
    physics: PhysicsParams
    traces: list[EpochTrace]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001


def init_adam(params: ModelParams, lr: float = 0.001) -> AdamState:
    """Zero moments shaped like ``params.theta``."""
    return AdamState(np.zeros_like(params.theta), np.zeros_like(params.theta), lr=lr)


def adam_step(state: AdamState, params: ModelParams, grad: np.ndarray) -> AdamState:
    """Bias-corrected Adam on all of ``params.theta`` in place; returns the new state.

    A number whose gradient is always zero (a frozen rho) steps by exactly 0.0.
    """
    if grad.shape != params.theta.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match theta {params.theta.shape}")
    t = state.t + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    params.theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return replace(state, m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# per-batch loss and gradient
# ---------------------------------------------------------------------------

# one config, or one per model of a stack
Configs = TrainRunConfig | Sequence[TrainRunConfig]


def _model_configs(cfg: Configs, params: ModelParams) -> list[TrainRunConfig]:
    """The config of every member of ``params``: one config serves them all,
    a sequence gives one per member, in order."""
    count = len(model_mod.members(params))
    cfgs = [cfg] * count if isinstance(cfg, TrainRunConfig) else list(cfg)
    if len(cfgs) != count:
        raise ContractError(f"{len(cfgs)} configs for a stack of {count} models")
    return cfgs


def _stacked(parts: list):
    """One dataclass of ``parts``' type whose fields stack theirs on a new leading axis."""
    return type(parts[0])(*(np.array([getattr(p, f.name) for p in parts]) for f in fields(parts[0])))


def batch_loss(
    params: ModelParams, batch: Dataset, cfg: Configs, rng: Pcg32 | None
) -> tuple[obj.LossBreakdown, obj.LossGrads, model_mod.Predictions]:
    """The variant's objective on the train-mode forward of one normalized
    batch, dropout masks drawn from ``rng`` (None at a zero rate): the loss,
    its adjoints and the predictions, for training and the gradient checker.

    A stack runs the objective per member, each under its own config's
    variant; its loss and adjoints carry the leading model axis.
    """
    preds = forward_batch(params, batch, "train", rng)
    if params.theta.ndim == 1:
        return *obj.loss_gradients(preds, batch, params, cfg.variant), preds
    parts = [
        obj.loss_gradients(
            replace(preds, y_eda=preds.y_eda[i], dydt=preds.dydt[i],
                    z_emotion=preds.z_emotion[i], p_emotion=preds.p_emotion[i]),
            batch, one, c.variant,
        )
        for i, (one, c) in enumerate(zip(model_mod.members(params), _model_configs(cfg, params)))
    ]
    return _stacked([p[0] for p in parts]), _stacked([p[1] for p in parts]), preds


def batch_gradients(
    params: ModelParams, batch: Dataset, cfg: Configs, rng: Pcg32 | None
) -> tuple[obj.LossBreakdown, np.ndarray, model_mod.Predictions]:
    """Forward, loss and backward for one normalized batch under the
    variant's objective: the loss, its gradient laid out as ``params.theta``
    and the predictions, for Adam and the gradient checker."""
    breakdown, lg, preds = batch_loss(params, batch, cfg, rng)
    return breakdown, model_mod.backward(params, preds.caches, lg), preds


def train_epoch(
    params: ModelParams,
    opt: AdamState,
    data: Dataset,
    cfg: Configs,
    rng: Pcg32,
    epoch: int = 0,
) -> tuple[AdamState, EpochTrace | list[EpochTrace]]:
    """One pass that trains ``params`` in place: seeded shuffle, contiguous
    batches, with a final batch of fewer than ``MIN_FINAL_BATCH`` rows joined
    to the one before it. Returns the new optimizer state and the epoch's
    trace, one per member for a stack. The batch size comes from the first
    config; a numeric failure names the epoch, batch and variant."""
    cfgs = _model_configs(cfg, params)
    n = len(data)
    order = rng.derive(f"shuffle:{epoch}").permutation(n)
    dropout_rng = rng.derive(f"dropout:{epoch}")
    sums = np.zeros((3, len(cfgs)))
    bounds = list(range(0, n, cfgs[0].batch_size)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < MIN_FINAL_BATCH:
        del bounds[-2]
    for batch_no, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        idx = order[start:stop]
        batch = data.subset(idx)
        # non-finites are detected explicitly (per-layer and on the loss), so
        # numpy's overflow chatter on an already-diverged step is suppressed
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                breakdown, grad, preds = batch_gradients(params, batch, cfg, dropout_rng)
            except NumericError as exc:
                where = f"epoch {epoch}, batch {batch_no}, variant {cfgs[exc.model or 0].variant}"
                raise NumericError(f"{where}: {exc}", model=exc.model) from exc
            losses = np.array([breakdown.l_eda, breakdown.l_emotion, breakdown.l_physics]).reshape(3, -1)
            bad = ~np.isfinite(np.atleast_1d(breakdown.total))
            if bad.any():
                i = int(np.argmax(bad))
                raise NumericError(
                    f"epoch {epoch}, batch {batch_no}, variant {cfgs[i].variant}: non-finite loss "
                    f"(l_eda={losses[0, i]:g}, l_emotion={losses[1, i]:g}, l_physics={losses[2, i]:g})",
                    model=i,
                )
            opt = adam_step(opt, params, grad)
        model_mod.commit_batchnorm(params, preds.caches)
        sums += len(idx) * losses
    means = sums / n
    traces = []
    for i, (one, c) in enumerate(zip(model_mod.members(params), cfgs)):
        phys = one.physics
        lambda_eff = phys.lambda_eff(one.config.lambda_floor) if VARIANTS[c.variant][2] else 0.0
        traces.append(EpochTrace(
            epoch,
            float(means[0, i]),
            float(means[1, i]),
            float(means[2, i]),
            lambda_eff,
            float(phys.alpha0),
            phys.beta.copy(),
            float(phys.gamma),
        ))
    return opt, traces[0] if params.theta.ndim == 1 else traces


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


def run_fold(
    train: Dataset,
    valid: Dataset,
    cfg: Configs,
    model_cfg: ModelConfig,
    fold_index: int = 1,
) -> tuple[FoldReport, ModelParams] | list[tuple[FoldReport, ModelParams]]:
    """Train on one split and evaluate on its validation part.

    The normalizer is fitted on the training split only; validation flows
    through it unchanged (targets may leave [0, 1]). Returns the report and
    the trained model. Given a sequence of configs that differ in their
    variant alone, it trains one network per config as one stack and
    returns one (report, model) pair per config, in order; one config is
    the stack of one.
    """
    cfgs = [cfg] if isinstance(cfg, TrainRunConfig) else list(cfg)
    if not cfgs or len({replace(c, variant="full") for c in cfgs}) != 1:
        raise ContractError("a stack needs configs that differ in their variant alone")
    norm = fit_normalizer(train)
    train_n = apply_normalizer(norm, train)
    valid_n = apply_normalizer(norm, valid)
    mcfg = replace(model_cfg, seed=derive_seed(model_cfg.seed, f"fold:{fold_index}"))
    params = model_mod.stack(init_model(mcfg, norm), len(cfgs))
    opt = init_adam(params, lr=cfgs[0].lr)
    rng = Pcg32(cfgs[0].seed).derive(f"fold:{fold_index}")
    traces = []
    for epoch in range(cfgs[0].epochs):
        opt, epoch_traces = train_epoch(params, opt, train_n, cfgs, rng, epoch)
        traces.append(epoch_traces)
    results = []
    for i, one in enumerate(model_mod.members(params)):
        preds = forward_batch(one, valid_n, "eval")
        reg = regression_metrics(preds.y_eda, valid_n.y)
        cls = classification_metrics(preds.p_emotion, valid_n.label, model_cfg.threshold)
        report = FoldReport(fold_index, reg, cls, one.physics.copy(), [t[i] for t in traces])
        results.append((report, one))
    return results[0] if isinstance(cfg, TrainRunConfig) else results


FoldJob = tuple[Dataset, Dataset, Configs, ModelConfig, int]


def fold_jobs(
    data: Dataset,
    splits: list[tuple[np.ndarray, np.ndarray]],
    cfg: Configs,
    model_cfg: ModelConfig,
) -> list[FoldJob]:
    """The ``run_fold`` arguments of every split, folds numbered from 1: one
    job per fold, which trains every config of ``cfg`` as one stack."""
    return [
        (data.subset(tr_idx), data.subset(va_idx), cfg, model_cfg, fold)
        for fold, (tr_idx, va_idx) in enumerate(splits, start=1)
    ]


def _run_job(job: FoldJob):
    return run_fold(*job)


# the thread-count setter of OpenBLAS, under each name its builds export
BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Pool initializer: pin every OpenBLAS loaded in this worker to one thread.

    The workers already fill the cores, and BLAS threads of their own spin
    against each other (on 2 cores, unpinned workers made criterion 7 at
    threads=2 twice as slow as one process). A forked worker never rereads
    ``OPENBLAS_NUM_THREADS``, so the setter is called through ctypes.
    Without ``/proc`` or an OpenBLAS, nothing changes.
    """
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return
    for path in {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


# glibc's mallopt parameter numbers (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


@functools.cache
def _steady_heap() -> None:
    """Keep training's arrays on a heap that glibc neither trims nor maps afresh.

    By default glibc serves a block of 128 KiB or more with mmap, and hands
    the free top of its heap back to the system beyond a threshold that
    follows those blocks. A step's arrays reach that size (a (2, 128, 64)
    float64 batch is 128 KiB; a stack of four is 512 KiB), so every step
    faulted fresh zero pages in. Trim and mmap thresholds of 256 MiB and
    4 MiB keep them on a heap that is reused. Runs at most once per process;
    forked workers inherit the setting. Off glibc, nothing changes.
    """
    import ctypes

    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, 256 << 20)
    mallopt(M_MMAP_THRESHOLD, 4 << 20)


def run_fold_jobs(jobs: list[FoldJob], threads: int = 1) -> list:
    """``run_fold`` over every job, results in job order.

    ``threads`` is the number of worker processes, capped at the number of
    jobs; with one, the jobs run in this process, in order. Each worker
    runs OpenBLAS on one thread. The pool lives inside this call: every
    worker has exited when it returns or raises, and a job's exception
    reaches the caller with its type and message (a worker that dies
    raises ``concurrent.futures.process.BrokenProcessPool``). The heap
    setting of ``_steady_heap`` is made first.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    _steady_heap()
    workers = min(threads, len(jobs))
    if workers <= 1:
        return [_run_job(job) for job in jobs]
    # imported here: the pool's modules add about 30 ms to every cold start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork: a worker inherits the loaded package instead of importing it, and
    # the method starts no resource tracker or forkserver that outlives the pool
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
        return list(pool.map(_run_job, jobs))


def run_kfold(
    data: Dataset,
    cfg: TrainRunConfig,
    model_cfg: ModelConfig,
    threads: int = 1,
) -> tuple[list[FoldReport], list[ModelParams]]:
    """Stratified ``cfg.k``-fold driver; fold indices are 1-based as reported.

    With threads > 1, folds train on that many worker processes (see
    ``run_fold_jobs``); every fold owns derived RNG streams and results are
    collected in fold order, so the output is identical to the sequential run.
    """
    splits = stratified_kfold(data, cfg.k, cfg.seed)
    results = run_fold_jobs(fold_jobs(data, splits, cfg, model_cfg), threads)
    return [r for r, _ in results], [m for _, m in results]


# ---------------------------------------------------------------------------
# physics-parameter recovery on noise-free trajectories
# ---------------------------------------------------------------------------


@dataclass
class RecoveryResult:
    params: PhysicsParams
    oracle: PhysicsParams
    final_loss: float
    oracle_loss: float
    converged: bool


def physics_least_squares(
    dydt: np.ndarray, y: np.ndarray, e: np.ndarray, gamma: float
) -> PhysicsParams:
    """Exact minimizer of the physics loss over (alpha0, beta) at fixed gamma.

    The residual is linear in (alpha0, beta), so the minimum solves the
    normal equations of the design [y, -e] against -gamma * dydt.
    """
    a = np.column_stack([y, -e])
    rhs = -gamma * dydt
    sol = np.linalg.solve(a.T @ a, a.T @ rhs)
    return PhysicsParams(float(sol[0]), sol[1:4].copy(), gamma)


def recover_physics(
    dydt: np.ndarray,
    y: np.ndarray,
    e: np.ndarray,
    gamma: float,
    init_perturbation: float = 0.5,
    steps: int = 5000,
) -> RecoveryResult:
    """Plain gradient descent on the physics loss over (alpha0, beta) alone,
    started from the normal-equations oracle scaled by ``1 + init_perturbation``.

    gamma is gauge-fixed to break the joint scale invariance of
    (alpha0, beta, gamma). Columns are rms-scaled (a diagonal preconditioner)
    and the step size comes from the preconditioned quadratic's spectrum, so
    the least-squares parameters are an exact fixed point and descent is
    monotone. The result reports the oracle alongside; non-convergence after
    the step budget (some component more than 1% off the oracle) is flagged,
    not silenced.
    """
    oracle = physics_least_squares(dydt, y, e, gamma)
    theta = np.concatenate([[oracle.alpha0], oracle.beta]) * (1.0 + init_perturbation)
    a = np.column_stack([y, -e])
    forcing = gamma * dydt
    n = y.shape[0]
    scale = np.sqrt(np.mean(a * a, axis=0))
    scale[scale == 0.0] = 1.0
    a_s = a / scale
    eigs = np.linalg.eigvalsh(2.0 * (a_s.T @ a_s) / n)
    lr = 2.0 / (eigs[-1] + max(eigs[0], 0.0))
    theta_s = theta * scale
    for _ in range(steps):
        r = a_s @ theta_s + forcing
        grad = 2.0 * (a_s.T @ r) / n
        theta_s = theta_s - lr * grad
    theta = theta_s / scale
    recovered = PhysicsParams(float(theta[0]), theta[1:4].copy(), gamma)
    final_loss = float(np.mean((a @ theta + forcing) ** 2))
    oracle_vec = np.concatenate([[oracle.alpha0], oracle.beta])
    rel = np.abs(theta - oracle_vec) / np.maximum(np.abs(oracle_vec), 1e-12)
    # non-convergence is reported, never silenced: the flag plus the oracle
    # comparison make the diagnosis explicit for the caller
    converged = bool(np.all(rel <= 0.01))
    return RecoveryResult(
        recovered,
        oracle,
        final_loss,
        float(np.mean((a @ oracle_vec + forcing) ** 2)),
        converged,
    )
