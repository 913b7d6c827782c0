"""Dual-channel dense primitives with exact reverse-mode gradients.

Every primitive propagates a batch of (value, tangent) pairs where the
tangent is the per-sample derivative of the value with respect to the scalar
time input. Because the training loss consumes both channels (the physics
residual needs d(EDA)/dt), each primitive's backward returns

    adj_input_value   = J^T @ adj_value + (d[J @ xdot]/dx)^T @ adj_tangent
    adj_input_tangent = J^T @ adj_tangent

so nonlinear primitives carry their second derivative. Each backward returns
a plain tuple of exactly what the model reads: ``(adj_value, adj_tangent)``,
followed by ``dw`` for the affine map and by ``(d_scale, d_shift)`` for
batch-norm. ``affine_weight_grad`` gives ``dw`` alone, for the first layer,
whose input needs no adjoint. The affine map has no bias (the model adds the
regression head's own), and dropout's cache is the mask it applied. Swish
evaluates its sigmoid once per forward call and caches sigma and s'(x); its
backward builds s''(x) from the cached sigma. ``sigmoid`` is the package's
one logistic function. All math is float64; matrices are plain 2-D numpy
arrays (batch x width, row-major).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import Pcg32


@dataclass
class DualBatch:
    """Batch of values paired with their derivative along the time input."""

    value: np.ndarray
    tangent: np.ndarray

    def __post_init__(self):
        if self.value.shape != self.tangent.shape:
            raise ContractError(
                f"value shape {self.value.shape} != tangent shape {self.tangent.shape}"
            )


def sigmoid(x):
    """1 / (1 + exp(-x)) of a scalar or an array, as 0.5 * (1 + tanh(x / 2)):
    no masks, no overflow, exactly 0 and 1 far out in the tails."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x: float) -> float:
    if x > 30.0:
        return float(x)
    return float(np.log1p(np.exp(x)))


def softplus_inv(y: float) -> float:
    """Inverse of softplus; y must be > 0."""
    if y <= 0:
        raise ContractError("softplus_inv requires y > 0")
    if y > 30.0:
        return float(y)
    return float(np.log(np.expm1(y)))


# ---------------------------------------------------------------------------
# affine: y = x @ W
# ---------------------------------------------------------------------------


@dataclass
class AffineCache:
    x_value: np.ndarray
    x_tangent: np.ndarray
    w: np.ndarray


def affine_forward(x: DualBatch, w: np.ndarray):
    if x.value.shape[1] != w.shape[0]:
        raise ContractError(
            f"affine fan-in mismatch: input width {x.value.shape[1]}, W rows {w.shape[0]}"
        )
    out = DualBatch(x.value @ w, x.tangent @ w)
    return out, AffineCache(x.value, x.tangent, w)


def affine_weight_grad(cache: AffineCache, adj_value: np.ndarray, adj_tangent: np.ndarray):
    """The weight gradient alone, for a layer whose input needs no adjoint."""
    return cache.x_value.T @ adj_value + cache.x_tangent.T @ adj_tangent


def affine_backward(cache: AffineCache, adj_value: np.ndarray, adj_tangent: np.ndarray):
    adj_x_value = adj_value @ cache.w.T
    adj_x_tangent = adj_tangent @ cache.w.T
    return adj_x_value, adj_x_tangent, affine_weight_grad(cache, adj_value, adj_tangent)


# ---------------------------------------------------------------------------
# swish activation
# ---------------------------------------------------------------------------


@dataclass
class SwishCache:
    x_value: np.ndarray
    x_tangent: np.ndarray
    sigma: np.ndarray
    d1: np.ndarray  # s'(x) = sigma * (1 + x * (1 - sigma))


def swish_forward(x: DualBatch):
    s = sigmoid(x.value)
    d1 = s * (1.0 + x.value * (1.0 - s))
    out = DualBatch(x.value * s, d1 * x.tangent)
    return out, SwishCache(x.value, x.tangent, s, d1)


def swish_backward(cache: SwishCache, adj_value: np.ndarray, adj_tangent: np.ndarray):
    """Uses s''(x) = sigma * (1 - sigma) * (2 + x * (1 - 2 sigma)) from the cached sigma."""
    s, d1 = cache.sigma, cache.d1
    d2 = s * (1.0 - s) * (2.0 + cache.x_value * (1.0 - 2.0 * s))
    adj_x_value = d1 * adj_value + d2 * cache.x_tangent * adj_tangent
    adj_x_tangent = d1 * adj_tangent
    return adj_x_value, adj_x_tangent


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------
#
# Train mode normalizes with the batch's own (population) statistics. The
# tangent channel treats mu and var as constants so d(EDA)/dt stays a
# per-sample quantity; the backward pass nevertheless differentiates the
# *actual computed function*, which includes the tangent output's dependence
# on var(x), so analytic gradients match finite differences exactly. Only a
# train-mode forward has a backward: eval mode never trains.


@dataclass
class BatchNormCache:
    scale: np.ndarray
    x_centered: np.ndarray
    x_tangent: np.ndarray
    istd: np.ndarray
    new_running_mean: np.ndarray | None
    new_running_var: np.ndarray | None


def batchnorm_forward(
    x: DualBatch,
    scale: np.ndarray,
    shift: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.9,
):
    if mode == "train":
        mu = x.value.mean(axis=0)
        x_centered = x.value - mu
        var = (x_centered * x_centered).mean(axis=0)  # what x.value.var(axis=0) computes
        new_rm = momentum * running_mean + (1.0 - momentum) * mu
        new_rv = momentum * running_var + (1.0 - momentum) * var
    elif mode == "eval":
        x_centered = x.value - running_mean
        var = running_var
        new_rm = None
        new_rv = None
    else:
        raise ContractError(f"unknown batch-norm mode {mode!r}")
    istd = 1.0 / np.sqrt(var + eps)
    out = DualBatch(
        scale * (x_centered * istd) + shift,
        scale * istd * x.tangent,
    )
    cache = BatchNormCache(scale, x_centered, x.tangent, istd, new_rm, new_rv)
    return out, cache


def batchnorm_backward(cache: BatchNormCache, adj_value: np.ndarray, adj_tangent: np.ndarray):
    if cache.new_running_mean is None:
        raise ContractError("batch-norm backward needs the cache of a train-mode forward")
    g, istd = cache.scale, cache.istd
    xc, xt = cache.x_centered, cache.x_tangent
    n = xc.shape[0]
    x_hat = xc * istd

    adj_scale = (adj_value * x_hat).sum(axis=0) + (adj_tangent * xt * istd).sum(axis=0)
    adj_shift = adj_value.sum(axis=0)

    # value channel: standard batch-norm gradient through mu and var
    dxhat = adj_value * g
    dvar = (dxhat * xc).sum(axis=0) * (-0.5) * istd**3
    dmu = -(dxhat.sum(axis=0)) * istd
    adj_x_value = dxhat * istd + dvar * (2.0 / n) * xc + dmu / n
    # tangent channel: output g*istd*xt depends on x through var(x)
    s_t = (adj_tangent * xt).sum(axis=0)
    adj_x_value = adj_x_value - (g * s_t / n) * istd**3 * xc
    adj_x_tangent = adj_tangent * (g * istd)
    return adj_x_value, adj_x_tangent, adj_scale, adj_shift


# ---------------------------------------------------------------------------
# inverted dropout: one mask per forward call, shared by value and tangent
# ---------------------------------------------------------------------------


def make_dropout_mask(shape: tuple[int, int], rate: float, rng: Pcg32) -> np.ndarray:
    """Inverted-dropout mask: keep where a uniform draw is ``>= rate``, scaled
    by ``1 / (1 - rate)``; ``Pcg32.random_ge`` decides the comparison without
    forming the uniforms, with the same result and draw count as ``random``."""
    keep = rng.random_ge(shape[0] * shape[1], rate).reshape(shape)
    return keep.astype(np.float64) / (1.0 - rate)


def dropout_forward(x: DualBatch, rate: float, mode: str, rng: Pcg32 | None = None):
    """The batch masked by a fresh draw from ``rng`` and the mask applied, or
    ``x`` itself and ``None`` when dropout is off (eval mode or a zero rate)."""
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ContractError("train-mode dropout needs an rng")
    mask = make_dropout_mask(x.value.shape, rate, rng)
    return DualBatch(x.value * mask, x.tangent * mask), mask


def dropout_backward(mask: np.ndarray | None, adj_value: np.ndarray, adj_tangent: np.ndarray):
    if mask is None:
        return adj_value, adj_tangent
    return adj_value * mask, adj_tangent * mask
