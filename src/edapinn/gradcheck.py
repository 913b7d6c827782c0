"""Finite-difference validation of the analytic gradients.

Checks every trainable block of the full objective (EDA MSE + emotion BCE +
lambda * physics penalty), including the path through d(EDA)/dt. The
analytic side is the trainer's own ``batch_gradients`` and every loss value
its ``batch_loss``, under the ``full`` variant, so the check covers the code
that training runs. Each evaluation draws its dropout masks from a freshly
derived ``Pcg32(seed).derive("gradcheck")``, so all apply the same masks and
the checked function is deterministic; batch-norm runs in train mode, so the
finite differences see the batch statistics' dependence on the perturbed
weights, exactly as the analytic backward does. Each coordinate is perturbed
in place through the named views ``model.blocks`` gives of ``params.theta``
and restored after its evaluations; the step is ``STEP`` and the relative
tolerance ``TOL``, one setting for every check. The
verification suites check a single network; a stack is checked as one
function, the sum of its networks' losses, whose gradient is each
network's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .data import Dataset
from .errors import ContractError
from .model import ModelParams
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
    relative ``TOL``. The report carries the per-block maximum. Never raises
    on mismatch - the pass flag carries the verdict. ``params`` is left as
    it was passed in.
    """
    if len(batch) < 2:
        raise ContractError("gradient check needs a batch of size >= 2")

    def mask_stream() -> Pcg32:
        return Pcg32(params.config.seed).derive("gradcheck")

    _, analytic, _ = batch_gradients(params, batch, "full", mask_stream())
    grads = model_mod.blocks(analytic, params.config)
    views = model_mod.blocks(params.theta, params.config)
    if params.config.lambda_frozen:  # a frozen lambda is a constant of the objective
        del views["physics.rho"]
    block_errors: dict[str, float] = {}
    for name, view in views.items():
        worst = 0.0
        for i in np.ndindex(view.shape):
            orig = view[i]
            losses = []
            for h in (STEP, -STEP, 2.0 * STEP, -2.0 * STEP):
                view[i] = orig + h
                losses.append(np.sum(batch_loss(params, batch, "full", mask_stream())[0].total))
            view[i] = orig
            lp, lm, lp2, lm2 = losses
            a = grads[name][i]
            fd = (lp - lm) / (2.0 * STEP)
            fd2 = (lp2 - lm2) / (4.0 * STEP)
            fd_error = abs(fd - fd2) / 3.0 + EPS * max(abs(lp), abs(lm)) / STEP
            rel = abs(a - fd) / (max(abs(a), abs(fd), 1e-8) + fd_error / TOL)
            worst = max(worst, rel)
        block_errors[name] = worst
    worst_block = max(block_errors, key=block_errors.get)
    max_rel = block_errors[worst_block]
    return GradCheckReport(block_errors, max_rel, worst_block, max_rel <= TOL)
