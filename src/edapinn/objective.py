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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import sigmoid, softplus, softplus_inv
from .errors import ContractError

if TYPE_CHECKING:  # avoid a runtime import cycle with model.py
    from .model import Predictions


@dataclass
class PhysicsParams:
    """Trainable physics quantities of the EDA model.

    alpha0: decay coefficient (1 / time-proxy units)
    beta:   weights for (PANAS_mean, SAM_valence, SAM_arousal)
    gamma:  time-sensitivity scalar
    rho:    unconstrained parameter; the physics-loss weight is
            max(softplus(rho), lambda_floor)
    """

    alpha0: float = 1.0
    beta: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.1, 0.1]))
    gamma: float = 1.0
    rho: float = softplus_inv(0.1)

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.beta.shape != (3,):
            raise ContractError(f"beta must be a 3-vector, got shape {self.beta.shape}")

    def lambda_eff(self, floor: float = 0.0) -> float:
        return max(softplus(self.rho), floor)

    def copy(self) -> "PhysicsParams":
        return PhysicsParams(self.alpha0, self.beta.copy(), self.gamma, self.rho)


@dataclass
class LossBreakdown:
    l_eda: float
    l_emotion: float
    l_physics: float
    lambda_eff: float
    total: float


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape or pred.size == 0:
        raise ContractError("mse needs equal-length nonempty vectors")
    d = pred - target
    return float(np.mean(d * d))


def bce(logit: np.ndarray, label: np.ndarray) -> float:
    """Mean binary cross-entropy of sigmoid(logit) against 0/1 labels."""
    z = np.asarray(logit, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if z.shape != label.shape or z.size == 0:
        raise ContractError("bce needs equal-length nonempty vectors")
    if not np.all((label == 0.0) | (label == 1.0)):
        raise ContractError("labels must be 0 or 1")
    return float(np.mean(np.logaddexp(0.0, z) - label * z))


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
    if e.ndim != 2 or e.shape[1] != 3:
        raise ContractError(f"e must be (n, 3), got {e.shape}")
    if not (dydt.shape == y.shape == (e.shape[0],)):
        raise ContractError("dydt, y and e must share the sample dimension")
    return phys.gamma * dydt + phys.alpha0 * y - e @ phys.beta


def physics_loss(residual: np.ndarray) -> float:
    residual = np.asarray(residual, dtype=np.float64)
    if residual.size == 0:
        raise ContractError("physics_loss needs a nonempty residual vector")
    return float(np.mean(residual * residual))


def total_loss(
    preds: "Predictions",
    y_true: np.ndarray,
    labels: np.ndarray,
    e: np.ndarray,
    phys: PhysicsParams,
    lambda_floor: float = 0.0,
) -> LossBreakdown:
    """Full loss breakdown; every component is always computed.

    Ablation variants reweight components in the trainer's gradient step;
    the breakdown reported here is the unweighted one so that
    total == l_eda + l_emotion + lambda_eff * l_physics holds by definition.
    """
    l_eda = mse(preds.y_eda, y_true)
    l_emotion = bce(preds.z_emotion, labels)
    l_phys = physics_loss(physics_residual(preds.dydt, preds.y_eda, e, phys))
    lam = phys.lambda_eff(lambda_floor)
    return LossBreakdown(l_eda, l_emotion, l_phys, lam, l_eda + l_emotion + lam * l_phys)


@dataclass
class LossGrads:
    """Adjoints of the (variant-weighted) objective wrt model outputs and physics."""

    adj_y: np.ndarray
    adj_dydt: np.ndarray
    adj_z: np.ndarray
    d_alpha0: float
    d_beta: np.ndarray
    d_gamma: float
    d_rho: float


def loss_gradients(
    preds: "Predictions",
    y_true: np.ndarray,
    labels: np.ndarray,
    e: np.ndarray,
    phys: PhysicsParams,
    *,
    use_eda: bool = True,
    use_emotion: bool = True,
    use_physics: bool = True,
    lambda_floor: float = 0.0,
    lambda_frozen: bool = False,
) -> LossGrads:
    """Exact gradients of  w_eda*L_eda + w_emo*L_emotion + lambda*L_physics."""
    n = y_true.shape[0]
    y = np.asarray(preds.y_eda, dtype=np.float64)
    dydt = np.asarray(preds.dydt, dtype=np.float64)
    p = np.asarray(preds.p_emotion, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)

    adj_y = np.zeros(n)
    adj_dydt = np.zeros(n)
    adj_z = np.zeros(n)
    d_alpha0 = 0.0
    d_beta = np.zeros(3)
    d_gamma = 0.0
    d_rho = 0.0

    if use_eda:
        adj_y += 2.0 * (y - y_true) / n

    if use_emotion:
        adj_z += (p - labels) / n

    if use_physics:
        r = physics_residual(dydt, y, e, phys)
        lam = phys.lambda_eff(lambda_floor)
        adj_y += lam * 2.0 * r * phys.alpha0 / n
        adj_dydt += lam * 2.0 * r * phys.gamma / n
        d_alpha0 = lam * 2.0 * float(r @ y) / n
        d_gamma = lam * 2.0 * float(r @ dydt) / n
        d_beta = -lam * 2.0 * (r @ e) / n
        if not lambda_frozen and softplus(phys.rho) > lambda_floor:
            d_rho = physics_loss(r) * float(sigmoid(phys.rho))

    return LossGrads(adj_y, adj_dydt, adj_z, d_alpha0, d_beta, d_gamma, d_rho)
