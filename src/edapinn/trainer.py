"""Adam optimization, the per-batch training loop, folds and recovery.

A run's variant is a name the trainer hands to the objective, which owns
the loss terms each variant trains (``objective.VARIANTS``).

One fold trains in one process so accumulation order is deterministic;
(seed, data, config) fully determine every recorded trace value. Distinct
folds use independently derived RNG streams, so a list of (variant, fold)
jobs may run on worker processes (``threads`` of them) with results
identical, byte for byte, to the sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def batch_loss(
    params: ModelParams, batch: Dataset, cfg: TrainRunConfig, rng: Pcg32 | None
) -> tuple[obj.LossBreakdown, obj.LossGrads, model_mod.Predictions]:
    """The variant's objective on the train-mode forward of one normalized
    batch, dropout masks drawn from ``rng`` (None at a zero rate): the loss,
    its adjoints and the predictions, for training and the gradient checker."""
    preds = forward_batch(params, batch, "train", rng)
    return *obj.loss_gradients(preds, batch, params, cfg.variant), preds


def batch_gradients(
    params: ModelParams, batch: Dataset, cfg: TrainRunConfig, rng: Pcg32 | None
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
    cfg: TrainRunConfig,
    rng: Pcg32,
    epoch: int = 0,
) -> tuple[AdamState, EpochTrace]:
    """One pass that trains ``params`` in place: seeded shuffle, contiguous
    batches, with a final batch of fewer than ``MIN_FINAL_BATCH`` rows joined
    to the one before it. Returns the new optimizer state and the epoch's
    trace."""
    n = len(data)
    order = rng.derive(f"shuffle:{epoch}").permutation(n)
    dropout_rng = rng.derive(f"dropout:{epoch}")
    sums = np.zeros(3)
    use_physics = VARIANTS[cfg.variant][2]
    bounds = list(range(0, n, cfg.batch_size)) + [n]
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
                raise NumericError(f"epoch {epoch}, batch {batch_no}: {exc}") from exc
            if not np.isfinite(breakdown.total):
                raise NumericError(
                    f"epoch {epoch}, batch {batch_no}: non-finite loss "
                    f"(l_eda={breakdown.l_eda:g}, l_emotion={breakdown.l_emotion:g}, "
                    f"l_physics={breakdown.l_physics:g})"
                )
            opt = adam_step(opt, params, grad)
        model_mod.commit_batchnorm(params, preds.caches)
        w = len(idx)
        sums += w * np.array([breakdown.l_eda, breakdown.l_emotion, breakdown.l_physics])
    means = sums / n
    lambda_eff = params.physics.lambda_eff(params.config.lambda_floor) if use_physics else 0.0
    trace = EpochTrace(
        epoch,
        float(means[0]),
        float(means[1]),
        float(means[2]),
        lambda_eff,
        float(params.physics.alpha0),
        params.physics.beta.copy(),
        float(params.physics.gamma),
    )
    return opt, trace


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


def run_fold(
    train: Dataset,
    valid: Dataset,
    cfg: TrainRunConfig,
    model_cfg: ModelConfig,
    fold_index: int = 1,
) -> tuple[FoldReport, ModelParams]:
    """Train on one split and evaluate on its validation part.

    The normalizer is fitted on the training split only; validation flows
    through it unchanged (targets may leave [0, 1]). Returns the report and
    the trained model.
    """
    norm = fit_normalizer(train)
    train_n = apply_normalizer(norm, train)
    valid_n = apply_normalizer(norm, valid)
    mcfg = replace(model_cfg, seed=derive_seed(model_cfg.seed, f"fold:{fold_index}"))
    params = init_model(mcfg, norm)
    opt = init_adam(params, lr=cfg.lr)
    rng = Pcg32(cfg.seed).derive(f"fold:{fold_index}")
    traces = []
    for epoch in range(cfg.epochs):
        opt, trace = train_epoch(params, opt, train_n, cfg, rng, epoch)
        traces.append(trace)
    preds = forward_batch(params, valid_n, "eval")
    reg = regression_metrics(preds.y_eda, valid_n.y)
    cls = classification_metrics(preds.p_emotion, valid_n.label, model_cfg.threshold)
    return FoldReport(fold_index, reg, cls, params.physics.copy(), traces), params


FoldJob = tuple[Dataset, Dataset, TrainRunConfig, ModelConfig, int]


def fold_jobs(
    data: Dataset,
    splits: list[tuple[np.ndarray, np.ndarray]],
    cfgs: list[TrainRunConfig],
    model_cfg: ModelConfig,
) -> list[FoldJob]:
    """The ``run_fold`` arguments of every (config, split) pair, config-major,
    folds numbered from 1. The configs share one copy of each split's rows."""
    parts = [(data.subset(tr_idx), data.subset(va_idx)) for tr_idx, va_idx in splits]
    return [
        (train, valid, cfg, model_cfg, fold)
        for cfg in cfgs
        for fold, (train, valid) in enumerate(parts, start=1)
    ]


def _run_job(job: FoldJob) -> tuple[FoldReport, ModelParams]:
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


def run_fold_jobs(jobs: list[FoldJob], threads: int = 1) -> list[tuple[FoldReport, ModelParams]]:
    """``run_fold`` over every job, results in job order.

    ``threads`` is the number of worker processes, capped at the number of
    jobs; with one, the jobs run in this process, in order. Each worker
    runs OpenBLAS on one thread. The pool lives inside this call: every
    worker has exited when it returns or raises, and a job's exception
    reaches the caller with its type and message.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
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
    results = run_fold_jobs(fold_jobs(data, splits, [cfg], model_cfg), threads)
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
