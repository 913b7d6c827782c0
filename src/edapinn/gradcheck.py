"""Finite-difference validation of the analytic gradients.

Checks every trainable block of the full objective (EDA MSE + emotion BCE +
lambda * physics penalty), including the path through d(EDA)/dt. The
analytic side is the trainer's own ``batch_gradients`` under the ``full``
variant, so the check covers the code that training runs. Dropout
masks are materialized once and pinned for every evaluation so the checked
function is deterministic; batch-norm runs in train mode, so the finite
differences see the batch statistics' dependence on the perturbed weights,
exactly as the analytic backward does. Each coordinate is perturbed in
place through the named views ``model.blocks`` gives of ``params.theta``
and restored after its two evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from . import objective as obj
from .data import Dataset
from .errors import ContractError
from .model import ModelParams
from .rng import Pcg32
from .trainer import TrainRunConfig, batch_gradients

EPS = float(np.finfo(np.float64).eps)


@dataclass
class GradCheckReport:
    block_errors: dict[str, float]
    max_rel_error: float
    worst_block: str
    passed: bool


def _loss_value(params: ModelParams, batch: Dataset, masks) -> float:
    preds = model_mod.forward_batch(params, batch, "train", dropout_masks=masks)
    breakdown, _ = obj.loss_gradients(
        preds,
        batch.y,
        batch.label.astype(np.float64),
        batch.e,
        params.physics,
        lambda_floor=params.config.lambda_floor,
    )
    return breakdown.total


def check_gradients(
    params: ModelParams,
    batch: Dataset,
    step: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Each coordinate's FD value f carries an error of its own, estimated as
    e = |f - f2| / 3 (truncation: the Richardson difference against f2, the
    FD at twice ``step``) + eps * |loss| / ``step`` (round-off). The error
    of a coordinate is |a - f| / (max(|a|, |f|, 1e-8) + e / tol), so it
    passes when |a - f| <= tol * max(|a|, |f|, 1e-8) + e: a difference FD
    cannot resolve fails no coordinate, and any larger one is held to the
    relative ``tol``. The report carries the per-block maximum. Never raises
    on mismatch - the pass flag carries the verdict. ``params`` is left as
    it was passed in.
    """
    if len(batch) < 2:
        raise ContractError("gradient check needs a batch of size >= 2")
    masks = None
    if params.config.dropout > 0.0:
        masks = model_mod.draw_dropout_masks(
            params, len(batch), Pcg32(params.config.seed).derive("gradcheck")
        )
    _, analytic, _ = batch_gradients(params, batch, TrainRunConfig(), None, masks)
    grads = model_mod.blocks(analytic, params.config)
    views = model_mod.blocks(params.theta, params.config)
    if params.config.lambda_frozen:  # a frozen lambda is a constant of the objective
        del views["physics.rho"]
    block_errors: dict[str, float] = {}
    for name, view in views.items():
        worst = 0.0
        flat = view.reshape(-1)
        a_flat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            losses = []
            for h in (step, -step, 2.0 * step, -2.0 * step):
                flat[i] = orig + h
                losses.append(_loss_value(params, batch, masks))
            flat[i] = orig
            lp, lm, lp2, lm2 = losses
            fd = (lp - lm) / (2.0 * step)
            fd2 = (lp2 - lm2) / (4.0 * step)
            fd_error = abs(fd - fd2) / 3.0 + EPS * max(abs(lp), abs(lm)) / step
            rel = abs(a_flat[i] - fd) / (max(abs(a_flat[i]), abs(fd), 1e-8) + fd_error / tol)
            worst = max(worst, rel)
        block_errors[name] = worst
    worst_block = max(block_errors, key=block_errors.get)
    max_rel = block_errors[worst_block]
    return GradCheckReport(block_errors, max_rel, worst_block, max_rel <= tol)
