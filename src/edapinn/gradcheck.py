"""Finite-difference validation of the analytic gradients.

Checks every trainable block of every variant's objective (the terms of
EDA MSE + emotion BCE + lambda * physics penalty its ``VARIANTS`` row
trains), including the path through d(EDA)/dt, on the stack ``ablate``
trains: one fold of every variant. The analytic side is the trainer's own
``batch_gradients`` and every loss value its ``batch_loss``, so the check
covers the code that training runs. Each evaluation draws the fold's
dropout masks from a freshly derived ``Pcg32(seed).derive("gradcheck")``,
so all apply the same masks and the checked function is deterministic;
batch-norm runs in train mode, so the finite differences see the batch
statistics' dependence on the perturbed weights, exactly as the analytic
backward does. Each coordinate is perturbed in every network at once,
through the named views ``model.blocks`` gives of the stack's ``theta``,
and restored after its evaluations; each network's own objective gives its
finite difference, so one sweep checks every variant. The step is ``STEP``
and the relative tolerance ``TOL``, one setting for every check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .data import Dataset
from .errors import ContractError
from .model import ModelParams
from .objective import VARIANTS
from .rng import Pcg32
from .trainer import batch_gradients, batch_loss

EPS = float(np.finfo(np.float64).eps)
STEP = 1e-5  # the central difference's step; the Richardson estimate takes twice it
TOL = 1e-6  # the relative error a coordinate may show beyond what FD can resolve


@dataclass
class GradCheckReport:
    block_errors: dict[str, float]
    max_rel_error: float
    worst_block: str
    passed: bool


def check_gradients(params: ModelParams, batch: Dataset) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each coordinate's FD value f carries an error of its own, estimated as
    e = |f - f2| / 3 (truncation: the Richardson difference against f2, the
    FD at twice ``STEP``) + eps * |loss| / ``STEP`` (round-off). The error
    of a coordinate is |a - f| / (max(|a|, |f|, 1e-8) + e / TOL), so it
    passes when |a - f| <= TOL * max(|a|, |f|, 1e-8) + e: a difference FD
    cannot resolve fails no coordinate, and any larger one is held to the
    relative ``TOL``. The report carries the per-block maximum over the
    variants. Never raises on mismatch - the pass flag carries the verdict.
    ``params``, one network, is not touched: a stack raises ``ContractError``.
    """
    if len(batch) < 2:
        raise ContractError("gradient check needs a batch of size >= 2")
    if params.theta.ndim != 1:
        raise ContractError(f"gradient check takes one network, got a stack of {params.theta.shape[:-1]}")
    net = model_mod.stack([params], len(VARIANTS))
    trains = np.array(list(VARIANTS.values())).T[:, None, :]  # (term, fold, variant)

    def run(step):  # the trainer's step on the stack, the fold's masks drawn afresh
        return step(net, batch, list(VARIANTS), [Pcg32(params.config.seed).derive("gradcheck")])

    def objective() -> np.ndarray:
        """Each network's own objective: an untrained term, even an inf, adds nothing."""
        b = run(batch_loss)[0]
        return np.where(trains, [b.l_eda, b.l_emotion, b.lambda_eff * b.l_physics], 0.0).sum(axis=0)

    analytic = run(batch_gradients)[1]
    grads = model_mod.blocks(analytic, params.config)
    views = model_mod.blocks(net.theta, params.config)
    if params.config.lambda_frozen:  # a frozen lambda is a constant of the objective
        del views["physics.rho"]
    block_errors: dict[str, float] = {}
    for name, view in views.items():
        rels = []
        for i in np.ndindex(view.shape[2:]):
            i = (...,) + i  # the coordinate in every network of the stack
            orig = view[i].copy()
            losses = []
            for h in (STEP, -STEP, 2.0 * STEP, -2.0 * STEP):
                view[i] = orig + h
                losses.append(objective())
            view[i] = orig
            lp, lm, lp2, lm2 = losses
            a = grads[name][i]
            fd = (lp - lm) / (2.0 * STEP)
            fd2 = (lp2 - lm2) / (4.0 * STEP)
            fd_error = np.abs(fd - fd2) / 3.0 + EPS * np.maximum(np.abs(lp), np.abs(lm)) / STEP
            rel = np.abs(a - fd) / (np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-8) + fd_error / TOL)
            rels.append(rel.max())
        block_errors[name] = float(np.max(rels))
    # numpy's max and argmax keep a NaN, so a NaN error fails the check
    worst_block = list(block_errors)[int(np.argmax(list(block_errors.values())))]
    max_rel = block_errors[worst_block]
    return GradCheckReport(block_errors, max_rel, worst_block, max_rel <= TOL)
