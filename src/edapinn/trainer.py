"""Adam optimization, the per-batch training loop, folds, and the physics solve.

A run's variant is a name the trainer hands to the objective, which owns
the loss terms each variant trains (``objective.VARIANTS``).

Training has one shape: a stack of networks (``model.stack``) with leading
axes (folds, variants), ``theta`` of shape ``(F, V, P)``. ``run_folds``
trains several folds, each with every variant of the run, as one stack:
one forward, one backward and one Adam step per batch serve them all, or,
where the folds' batches differ in size, one per run of adjacent folds
whose batches agree, on a slice of the stack (``train_epoch``). The
variants of a fold share its normalizer, init, shuffles and dropout masks,
and the objective gives each its own terms; each fold keeps its own
normalizer, init and streams. So every network of the stack gets the
numbers, byte for byte, that it gets when trained alone (``run_fold``, the
stack of one fold and one variant). Each fold trains in one process, so
accumulation order is deterministic; (seed, data, config) fully determine
every recorded trace value. Every fold is prepared once, before any
training (``prepare_folds``), for the stacks and the baselines alike, and
its number keys its init and streams wherever it trains.
``train_folds`` is the one way prepared folds train, for ``train``,
``kfold`` and ``ablate`` alike. It deals the folds into as few stacks as
fill ``threads`` worker processes without a stack holding more networks
than one fold of every variant, and runs them in this process or on a
pool; since every fold has its own derived RNG streams, the results are
identical, byte for byte, however the folds are dealt and wherever the
stacks run. It also keeps the process's heap steady: it raises glibc's
trim and mmap thresholds once, so that the step's arrays, which a stack
makes larger, are reused instead of being mapped and faulted in anew.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import model as model_mod
from . import objective as obj
from .data import Dataset, Normalizer, apply_normalizer, fit_normalizer, stratified_kfold
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

# no batch has fewer rows: the batch size may not be smaller, and a final batch
# of fewer rows joins the one before it. Batch-norm statistics over 1-3 rows
# blow the physics loss and its gradient up (after 5 epochs, 1 row gave 2.4e7
# and 6.1e7, 8 rows 0.75 and 5.9), poisoning Adam's second moments
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
            raise ConfigError("epochs must be >= 1", "epochs")
        if self.batch_size < MIN_FINAL_BATCH:
            raise ConfigError(
                f"batch size must be >= {MIN_FINAL_BATCH}, got {self.batch_size}", "batch_size"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}, expected one of {tuple(VARIANTS)}", "variant"
            )
        if not 0 < self.lr < np.inf:  # also rejects NaN
            raise ConfigError("learning rate must be finite and positive", "lr")
        if self.k < 2:
            raise ConfigError("k must be >= 2", "k")


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
    t: np.ndarray  # steps taken, one count per network: theta.shape[:-1]
    lr: float = 0.001


def init_adam(params: ModelParams, lr: float = 0.001) -> AdamState:
    """Zero moments shaped like ``params.theta``, no steps taken."""
    theta = params.theta
    return AdamState(np.zeros_like(theta), np.zeros_like(theta), np.zeros(theta.shape[:-1], np.int64), lr)


def _bias_correction(beta: float, t: np.ndarray) -> np.ndarray:
    """1 - beta**t of every network's step count, each power as Python
    computes it for one network, shaped to broadcast over its numbers."""
    return np.array([1.0 - beta ** int(k) for k in t.flat]).reshape(t.shape + (1,))


def adam_step(state: AdamState, params: ModelParams, grad: np.ndarray) -> None:
    """Bias-corrected Adam on all of ``params.theta`` in place, the moments
    and step counts of ``state`` too.

    Every network of a stack counts its own steps, so stacked folds that
    have taken different numbers of steps still step as one. A number whose
    gradient is always zero (a frozen rho) steps by exactly 0.0. A second
    moment that is not finite (a gradient past about 1e154 overflows its
    square, and the number would never step again) raises ``NumericError``
    naming the first such network of the stack, before theta steps.
    """
    if grad.shape != params.theta.shape:
        raise ContractError(f"gradient shape {grad.shape} does not match theta {params.theta.shape}")
    state.t += 1
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    finite = np.isfinite(v).reshape(-1, v.shape[-1]).all(axis=1)
    if not finite.all():
        message = "non-finite Adam second moment (the squared gradient overflows)"
        raise NumericError(message, model=int(np.argmin(finite)))
    c1 = _bias_correction(ADAM_BETA1, state.t)
    c2 = _bias_correction(ADAM_BETA2, state.t)
    theta = params.theta  # a field of a frozen model, updated in place
    theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# per-batch loss and gradient
# ---------------------------------------------------------------------------


def batch_loss(
    params: ModelParams, batch: Dataset, variants: Sequence[str], rng: Sequence[Pcg32] | None
) -> tuple[obj.LossBreakdown, obj.LossGrads, model_mod.Predictions]:
    """The objective of ``variants`` (see ``objective.loss_gradients``) on the
    train-mode forward of a stack on one normalized batch, dropout masks
    drawn from ``rng``, one stream per fold (None at a zero rate): the loss
    and its adjoints, with the stack's leading axes, and the predictions."""
    preds = forward_batch(params, batch, "train", rng)
    return *obj.loss_gradients(preds, batch, params, variants), preds


def batch_gradients(
    params: ModelParams, batch: Dataset, variants: Sequence[str], rng: Sequence[Pcg32] | None
) -> tuple[obj.LossBreakdown, np.ndarray, model_mod.Predictions]:
    """Forward, loss and backward of a stack on one normalized batch, as
    ``batch_loss`` takes them: the loss, its gradient laid out as
    ``params.theta`` and the predictions, for Adam and the gradient checker."""
    breakdown, lg, preds = batch_loss(params, batch, variants, rng)
    return breakdown, model_mod.backward(params, preds.caches, lg), preds


def _batch_bounds(n: int, batch_size: int) -> list[int]:
    """Contiguous batch bounds over ``n`` rows, a final batch of fewer than
    ``MIN_FINAL_BATCH`` rows joined to the one before it."""
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and n - bounds[-2] < MIN_FINAL_BATCH:
        del bounds[-2]
    return bounds


def _fold_batch(parts: list[Dataset]) -> Dataset:
    """Equal-sized batches of several folds as one, on a fold axis and a
    unit variant axis in front of the rows: t of shape ``(F, 1, n)``."""
    return Dataset(*(np.stack([getattr(p, f.name) for p in parts])[:, None] for f in fields(Dataset)))


def train_epoch(
    params: ModelParams,
    opt: AdamState,
    folds: Sequence[Fold],
    cfgs: Sequence[TrainRunConfig],
    epoch: int,
) -> list[list[EpochTrace]]:
    """One pass that trains a stack over prepared folds, ``params`` with
    ``theta`` of shape ``(F, V, P)``, and ``opt`` in place; returns the
    epoch's traces, per fold, then per variant. Fold f trains on
    ``folds[f].train`` with the stream ``Pcg32(cfgs[0].seed)`` derives for
    its number; variant v trains under ``cfgs[v]``, the batch size from the
    first config.

    Each fold shuffles its rows and draws its masks from its own stream and
    cuts contiguous batches, a final batch of fewer than ``MIN_FINAL_BATCH``
    rows joined to the one before it. For each batch number, every run of
    adjacent folds whose batches have one size steps as one slice of the
    stack, ``theta[s]`` with ``opt``'s rows and the folds' streams; a fold
    without that batch takes no step. Where every fold's batch has one
    size, the run is the whole stack. So every network steps as it does
    alone. A numeric failure names the epoch, batch, fold and variant.
    """
    variants = [c.variant for c in cfgs]
    rngs = [Pcg32(cfgs[0].seed).derive(f"fold:{fold.number}") for fold in folds]
    orders = [r.derive(f"shuffle:{epoch}").permutation(len(fold.train)) for r, fold in zip(rngs, folds)]
    dropout = [r.derive(f"dropout:{epoch}") for r in rngs]
    bounds = [_batch_bounds(len(fold.train), cfgs[0].batch_size) for fold in folds]
    sums = np.zeros((3,) + params.theta.shape[:-1])

    def step(batch_no: int, s: slice) -> None:
        """One step of folds ``s``, a slice of the stack and of ``opt`` (views
        of their memory), on their batch ``batch_no``; adds each network's
        loss components times the rows to ``sums``."""

        def failure(model, message):
            model += s.start * len(variants)  # its index in the whole stack
            f, v = divmod(model, len(variants))
            where = f"epoch {epoch}, batch {batch_no}, fold {folds[f].number}, variant {variants[v]}"
            return NumericError(f"{where}: {message}", model=model)

        net = ModelParams(params.theta[s], params.running[s], params.normalizer, params.config)
        state = AdamState(opt.m[s], opt.v[s], opt.t[s], opt.lr)
        batch = _fold_batch([
            folds[f].train.subset(orders[f][bounds[f][batch_no] : bounds[f][batch_no + 1]])
            for f in range(s.start, s.stop)
        ])
        # non-finites are detected explicitly (per layer, on the loss and in
        # Adam's second moment), so numpy's overflow chatter is suppressed
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                breakdown, grad, preds = batch_gradients(net, batch, variants, dropout[s])
                losses = np.array([breakdown.l_eda, breakdown.l_emotion, breakdown.l_physics])
                bad = ~np.isfinite(np.ravel(breakdown.total))
                if bad.any():
                    i = int(np.argmax(bad))
                    l_eda, l_emotion, l_physics = losses.reshape(3, -1)[:, i]
                    raise NumericError(
                        f"non-finite loss (l_eda={l_eda:g}, l_emotion={l_emotion:g}, l_physics={l_physics:g})", i
                    )
                adam_step(state, net, grad)
            except NumericError as exc:
                raise failure(exc.model, exc) from exc
        model_mod.commit_batchnorm(net, preds.caches)
        sums[:, s] += len(batch) * losses

    for batch_no in range(max(map(len, bounds)) - 1):
        # a fold without this batch has size 0; each run of folds whose
        # batches share a size steps as one slice of the stack
        sizes = [b[batch_no + 1] - b[batch_no] if batch_no + 1 < len(b) else 0 for b in bounds]
        edges = [f for f in range(1, len(sizes)) if sizes[f] != sizes[f - 1]]
        for s in map(slice, [0] + edges, edges + [len(sizes)]):
            if sizes[s.start]:
                step(batch_no, s)

    means = sums / np.array([len(fold.train) for fold in folds])[:, None]
    phys, floor = params.physics, params.config.lambda_floor
    traces = []
    for f in range(len(folds)):
        fold_traces = []
        for v, variant in enumerate(variants):
            # one network's scalars, so its lambda is computed as it is alone
            one = PhysicsParams(phys.alpha0[f, v], phys.beta[f, v], phys.gamma[f, v], phys.rho[f, v])
            lambda_eff = float(one.lambda_eff(floor)) if VARIANTS[variant].physics else 0.0
            l_eda, l_emotion, l_physics = (float(m) for m in means[:, f, v])
            fold_traces.append(EpochTrace(
                epoch, l_eda, l_emotion, l_physics, lambda_eff, float(one.alpha0), one.beta.copy(), float(one.gamma)
            ))
        traces.append(fold_traces)
    return traces


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fold:
    """A fold ready to train and score: its number, the normalizer fitted on
    its training rows, and its training and validation parts scaled by it."""

    number: int
    normalizer: Normalizer
    train: Dataset
    valid: Dataset


def prepare_folds(splits: Iterable[tuple[Dataset, Dataset]]) -> list[Fold]:
    """The (train, valid) splits as folds numbered from 1. Each
    normalizes on its training part (validation targets may leave [0, 1])
    wholly before the next, so a faulty column raises one ``ConfigError``
    however the folds are later dealt into stacks. Then a split of fewer than
    ``MIN_FINAL_BATCH`` rows raises ``ConfigError``: training needs a batch,
    and the metrics of a few rows read as a result that is none (the
    Pearson r of two rows is always 1 or -1)."""
    folds = []
    for number, (train, valid) in enumerate(splits, start=1):
        norm = fit_normalizer(train)
        folds.append(Fold(number, norm, apply_normalizer(norm, train), apply_normalizer(norm, valid)))
    needs = {"train": "training rows; a batch needs", "valid": "validation rows; its metrics need"}
    for fold in folds:  # after the column checks: a faulty column stays faulty at any k
        for part, need in needs.items():
            if (rows := len(getattr(fold, part))) < MIN_FINAL_BATCH:
                raise ConfigError(f"fold {fold.number} has {rows} {need} at least {MIN_FINAL_BATCH}")
    return folds


def run_folds(
    folds: Sequence[Fold], cfgs: Sequence[TrainRunConfig], model_cfg: ModelConfig
) -> list[list[tuple[FoldReport, ModelParams]]]:
    """Train on each prepared fold's training part and evaluate on its
    validation part, every fold and every config as one stack of networks,
    ``theta`` of shape ``(F, V, P)`` (see ``train_epoch``); the configs may
    differ in their variant alone.

    Each fold inits its networks from the seed derived for its number and
    shuffles and draws masks from its own stream (``train_epoch``), so
    every network gets, byte for byte, the numbers it gets when trained
    alone. Returns, per fold in order, the report and the trained model of
    each config, in order: a view of the stack's memory with its fold's
    normalizer and seeded config.
    """
    if not cfgs or len({replace(c, variant="full") for c in cfgs}) != 1:
        raise ContractError("a stack needs configs that differ in their variant alone")
    if not folds:
        raise ContractError("a stack needs at least one fold")
    seeded = [replace(model_cfg, seed=derive_seed(model_cfg.seed, f"fold:{fold.number}")) for fold in folds]
    params = model_mod.stack([init_model(c, fold.normalizer) for c, fold in zip(seeded, folds)], len(cfgs))
    opt = init_adam(params, lr=cfgs[0].lr)
    traces = [train_epoch(params, opt, folds, cfgs, epoch) for epoch in range(cfgs[0].epochs)]
    results = []
    for f, (fold, seeded_cfg) in enumerate(zip(folds, seeded)):
        pairs = []
        for v in range(len(cfgs)):
            one = ModelParams(params.theta[f, v], params.running[f, v], fold.normalizer, seeded_cfg)
            preds = forward_batch(one, fold.valid, "eval")
            reg = regression_metrics(preds.y_eda, fold.valid.y)
            cls = classification_metrics(preds.p_emotion, fold.valid.label, model_cfg.threshold)
            report = FoldReport(fold.number, reg, cls, one.physics.copy(), [t[f][v] for t in traces])
            pairs.append((report, one))
        results.append(pairs)
    return results


def run_fold(
    train: Dataset, valid: Dataset, cfg: TrainRunConfig, model_cfg: ModelConfig
) -> tuple[FoldReport, ModelParams]:
    """Train on one split and evaluate on its validation part: the stack of
    one fold, prepared as fold 1 (``prepare_folds``), and one config, in
    this process under the heap setting (``train_folds``). Returns the
    report and the trained model."""
    [[pair]] = train_folds(prepare_folds([(train, valid)]), [cfg], model_cfg)
    return pair


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


def _run_stack(*task):  # the pool's task: looks ``run_folds`` up when it runs
    return run_folds(*task)


def train_folds(
    folds: list[Fold], cfgs: Sequence[TrainRunConfig], model_cfg: ModelConfig, threads: int = 1
) -> list[list[tuple[FoldReport, ModelParams]]]:
    """Train every prepared fold under every config (``run_folds``) and
    return, per config in order, the (report, model) of every fold, in
    fold order. The heap setting of ``_steady_heap`` is made first.

    The k folds are dealt, in order, into
    ``max(min(threads, k), ceil(k * V / len(VARIANTS)))`` stacks whose
    sizes differ by at most one, V being the number of configs. So the
    stacks fill ``threads`` workers, and no stack holds more networks than
    one fold of every variant. The cap bounds memory, not time: a
    network-epoch costs about the same in a larger stack (14.3 ms at one
    fold of 4 variants, 14.7 ms at 5 folds of 4), but a process's peak RSS
    grows with it (40.1 MB against 62.1 MB at 3 epochs).

    ``threads`` is the number of worker processes, capped at the number of
    stacks; with one, the stacks train in this process, in order. Each
    worker runs OpenBLAS on one thread. The pool lives inside this call:
    every worker has exited when it returns or raises, and a stack's
    exception reaches the caller with its type and message (a worker that
    dies raises ``concurrent.futures.process.BrokenProcessPool``).
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    _steady_heap()
    k = len(folds)
    count = max(min(threads, k), math.ceil(k * len(cfgs) / len(VARIANTS)))
    stacks = [[folds[i] for i in stack] for stack in np.array_split(np.arange(k), count)]
    tasks = (stacks, [cfgs] * count, [model_cfg] * count)
    workers = min(threads, count)
    if workers <= 1:
        results = list(map(_run_stack, *tasks))
    else:
        # imported here: the pool's modules add about 30 ms to every cold start
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: a worker inherits the loaded package instead of importing it, and
        # the method starts no resource tracker or forkserver that outlives the pool
        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork, initializer=_one_blas_thread) as pool:
            results = list(pool.map(_run_stack, *tasks))
    return [list(pairs) for pairs in zip(*(fold for stack in results for fold in stack))]


def run_kfold(
    data: Dataset,
    cfg: TrainRunConfig,
    model_cfg: ModelConfig,
    threads: int = 1,
) -> tuple[list[FoldReport], list[ModelParams]]:
    """Stratified ``cfg.k``-fold driver; fold indices are 1-based as reported.

    Every fold is prepared (``prepare_folds``) before any trains. The folds
    train as a few stacks, on ``threads`` worker processes when threads > 1
    (``train_folds``); every fold owns derived RNG streams and results are
    collected in fold order, so the output is identical, byte for byte, to
    that of one fold at a time.
    """
    folds = prepare_folds((data.subset(tr), data.subset(va)) for tr, va in stratified_kfold(data, cfg.k, cfg.seed))
    [pairs] = train_folds(folds, [cfg], model_cfg, threads)
    return [r for r, _ in pairs], [m for _, m in pairs]


# ---------------------------------------------------------------------------
# the physics parameters a trajectory determines
# ---------------------------------------------------------------------------


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
