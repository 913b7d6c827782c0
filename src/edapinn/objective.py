"""Loss components and the composite training objective.

The total objective combines an EDA regression loss (MSE), an emotion
classification loss (BCE on the head's logit z, computed as
log(1 + exp(z)) - label * z, so it is never clipped and its gradient
sigmoid(z) - label never vanishes on a confidently wrong prediction) and a
physics penalty: the mean squared residual of the first-order EDA model

    r_i = gamma * (dy/dt)_i + alpha0 * y_i - beta . e_i

weighted by a learnable non-negative multiplier lambda = softplus(rho),
clamped below by a configurable floor. Plain gradient flow on that
multiplier only ever shrinks it (the penalty is non-negative), which is why
the floor and an optional freeze exist; the trainer records the lambda
trajectory rather than hiding the collapse.

``VARIANTS`` is the one table of the terms each network variant trains,
and ``loss_gradients`` the one place the objective is evaluated: one call
returns the unweighted loss breakdown and the adjoints of the variant's
terms, from one residual. Like the primitives (``autodiff``), every function
here reduces over the rows, the last axis, and broadcasts the leading axes
of a stack of models: a (folds, variants) stack's outputs ``(F, V, n)``
against its batch's targets ``(F, 1, n)``, with one variant per index of the
stack's last model axis.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .autodiff import sigmoid, softplus
from .errors import ContractError

if TYPE_CHECKING:  # avoid runtime import cycles with data.py and model.py
    from .data import Dataset
    from .model import ModelParams, Predictions

class Terms(NamedTuple):
    """Which loss terms a network variant trains."""

    eda: bool
    emotion: bool
    physics: bool


# the network variants and the loss terms each trains
VARIANTS = {
    "full": Terms(eda=True, emotion=True, physics=True),
    "no_physics": Terms(eda=True, emotion=True, physics=False),
    "eda_only": Terms(eda=True, emotion=False, physics=True),
    "emotion_only": Terms(eda=False, emotion=True, physics=True),
}


@dataclass(frozen=True)
class PhysicsParams:
    """Trainable physics quantities of the EDA model.

    alpha0: decay coefficient (1 / time-proxy units)
    beta:   weights for (PANAS_mean, SAM_valence, SAM_arousal)
    gamma:  time-sensitivity scalar
    rho:    unconstrained parameter; the physics-loss weight is
            max(softplus(rho), lambda_floor)
    In a ``ModelParams`` the fields are views of ``theta``, with a leading
    model axis in a stack; ``copy`` gives the floats of a single model.
    """

    alpha0: float = 1.0
    beta: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.1, 0.1]))
    gamma: float = 1.0
    rho: float = float(np.log(np.expm1(0.1)))  # softplus(rho) = 0.1

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64))
        if self.beta.shape[-1:] != (3,):
            raise ContractError(f"beta must be a 3-vector, got shape {self.beta.shape}")

    def lambda_eff(self, floor: float = 0.0):
        """max(softplus(rho), floor), one per model of a stack."""
        return np.maximum(softplus(self.rho), floor)

    def copy(self) -> "PhysicsParams":
        return PhysicsParams(float(self.alpha0), self.beta.copy(), float(self.gamma), float(self.rho))


@dataclass
class LossBreakdown:
    l_eda: np.ndarray  # one per network of the stack
    l_emotion: np.ndarray
    l_physics: np.ndarray
    lambda_eff: np.ndarray
    total: np.ndarray


def _row_mean(a: np.ndarray):
    """The mean over the last axis: a float of a vector, else an array."""
    m = np.mean(a, axis=-1)
    return float(m) if m.ndim == 0 else m


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b over the last axis, per leading index, as ``a @ b`` of vectors computes it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rows_match(a: np.ndarray, b: np.ndarray) -> bool:
    """Nonempty rows of one length."""
    return a.ndim >= 1 and a.shape[-1:] == b.shape[-1:] and a.size > 0


def mse(pred: np.ndarray, target: np.ndarray):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if not _rows_match(pred, target):
        raise ContractError("mse needs equal-length nonempty vectors")
    d = pred - target
    return _row_mean(d * d)


def bce(logit: np.ndarray, label: np.ndarray):
    """Mean binary cross-entropy of sigmoid(logit) against 0/1 labels."""
    z = np.asarray(logit, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if not _rows_match(z, label):
        raise ContractError("bce needs equal-length nonempty vectors")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise ContractError("labels must be 0 or 1")
    return _row_mean(np.logaddexp(0.0, z) - label * z)


def physics_residual(
    dydt: np.ndarray,
    y: np.ndarray,
    e: np.ndarray,
    phys: PhysicsParams,
) -> np.ndarray:
    """Pointwise violation of the first-order EDA dynamics."""
    dydt = np.asarray(dydt, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if e.ndim < 2 or e.shape[-1] != 3:
        raise ContractError(f"e must be (n, 3), got {e.shape}")
    if dydt.shape != y.shape or not _rows_match(y, e[..., 0]):
        raise ContractError("dydt, y and e must share the sample dimension")
    gamma, alpha0 = np.asarray(phys.gamma)[..., None], np.asarray(phys.alpha0)[..., None]
    return gamma * dydt + alpha0 * y - (e @ phys.beta[..., :, None])[..., 0]


def physics_loss(residual: np.ndarray):
    residual = np.asarray(residual, dtype=np.float64)
    if residual.size == 0:
        raise ContractError("physics_loss needs a nonempty residual vector")
    return _row_mean(residual * residual)


@dataclass
class LossGrads:
    """Adjoints of the (variant-weighted) objective wrt model outputs and physics."""

    adj_y: np.ndarray
    adj_dydt: np.ndarray
    adj_z: np.ndarray
    d_alpha0: np.ndarray
    d_beta: np.ndarray
    d_gamma: np.ndarray
    d_rho: np.ndarray


def loss_gradients(
    preds: "Predictions", batch: "Dataset", params: "ModelParams", variants: Sequence[str]
) -> tuple[LossBreakdown, LossGrads]:
    """The loss breakdown of ``preds`` on one normalized ``batch`` and the
    exact gradients of the terms of L_eda + L_emotion + lambda*L_physics that
    each network's ``VARIANTS`` row trains, from one residual.

    ``variants`` names one per index of the stack's last model axis (another
    count, or a network with no model axis, raises ``ContractError``), and
    lambda, its floor and its freeze come from ``params``. Every component is
    always computed, and the breakdown is the unweighted one, so
    total == l_eda + l_emotion + lambda_eff * l_physics holds by definition.
    Every field carries the stack's leading axes, and each model's numbers
    are those it gets alone, bit for bit.
    """
    if params.theta.shape[:-1][-1:] != (len(variants),):
        raise ContractError(f"{len(variants)} variants for a stack of {params.theta.shape[:-1]} networks")
    use_eda, use_emotion, use_physics = _variant_flags(tuple(variants))
    phys, floor = params.physics, params.config.lambda_floor
    n = len(batch)
    y = np.asarray(preds.y_eda, dtype=np.float64)
    dydt = np.asarray(preds.dydt, dtype=np.float64)
    p = np.asarray(preds.p_emotion, dtype=np.float64)
    labels = batch.label.astype(np.float64)

    l_eda = mse(y, batch.y)
    l_emotion = bce(preds.z_emotion, labels)
    r = physics_residual(dydt, y, batch.e, phys)
    l_phys = physics_loss(r)
    lam = phys.lambda_eff(floor)
    breakdown = LossBreakdown(l_eda, l_emotion, l_phys, lam, l_eda + l_emotion + lam * l_phys)

    # each term's adjoint is built once; a term a model does not train adds
    # nothing, not even a NaN of its own
    rows = (..., None)  # a per-model value against the rows
    adj_r = np.where(use_physics[rows], (2.0 / n) * lam[rows] * r, 0.0)  # d(lambda * L_physics)/dr
    adj_y = np.where(use_eda[rows], (2.0 / n) * (y - batch.y), 0.0)
    adj_y += adj_r * phys.alpha0[rows]
    adj_z = np.where(use_emotion[rows], (p - labels) / n, 0.0)
    d_beta = -(adj_r[..., None, :] @ batch.e)[..., 0, :]
    trains_rho = use_physics & (not params.config.lambda_frozen) & (softplus(phys.rho) > floor)
    d_rho = np.where(trains_rho, l_phys * sigmoid(phys.rho), 0.0)
    d_alpha0, d_gamma = _dot(adj_r, y), _dot(adj_r, dydt)
    return breakdown, LossGrads(adj_y, adj_r * phys.gamma[rows], adj_z, d_alpha0, d_beta, d_gamma, d_rho)


@functools.cache
def _variant_flags(variants: tuple[str, ...]) -> np.ndarray:
    """The (eda, emotion, physics) flags of each variant, shaped (3, V), read-only."""
    flags = np.array([VARIANTS[v] for v in variants]).T
    flags.setflags(write=False)
    return flags
