"""Dual-channel dense primitives with exact reverse-mode gradients.

A dual batch is one float64 array of shape ``(2, n, width)``: the values at
``[0]`` and, at ``[1]``, their per-sample derivatives with respect to the
scalar time input (the tangents). Every forward takes one such array and
returns one; every backward takes the adjoint of its output, an array of the
same shape, and returns the adjoint of its input,

    adj_input[0] = J^T @ adj[0] + (d[J @ xdot]/dx)^T @ adj[1]
    adj_input[1] = J^T @ adj[1]

so nonlinear primitives carry their second derivative, because the training
loss reads both channels (the physics residual needs d(EDA)/dt). The affine
map and dropout are linear and act on both channels in one expression;
swish and batch-norm treat the channels apart. The affine backward also
returns ``dw`` and batch-norm's ``(d_scale, d_shift)``; ``affine_weight_grad``
gives ``dw`` alone, for the first layer, whose input needs no adjoint. The
affine map has no bias (the model adds the regression head's own), and
dropout's cache is the mask it applied. Swish evaluates its sigmoid once per
forward call and caches sigma and s'(x); its backward builds s''(x) from the
cached sigma. ``sigmoid`` is the package's one logistic function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import Pcg32


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
    x: np.ndarray
    w: np.ndarray


def affine_forward(x: np.ndarray, w: np.ndarray):
    if x.shape[-1] != w.shape[0]:
        raise ContractError(f"affine fan-in mismatch: input width {x.shape[-1]}, W rows {w.shape[0]}")
    return x @ w, AffineCache(x, w)


def affine_weight_grad(cache: AffineCache, adj: np.ndarray):
    """The weight gradient alone, for a layer whose input needs no adjoint."""
    return (cache.x.swapaxes(-1, -2) @ adj).sum(axis=0)


def affine_backward(cache: AffineCache, adj: np.ndarray):
    return adj @ cache.w.T, affine_weight_grad(cache, adj)


# ---------------------------------------------------------------------------
# swish activation
# ---------------------------------------------------------------------------


@dataclass
class SwishCache:
    x: np.ndarray
    sigma: np.ndarray
    d1: np.ndarray  # s'(x) = sigma * (1 + x * (1 - sigma))


def swish_forward(x: np.ndarray):
    v, t = x
    s = sigmoid(v)
    d1 = s * (1.0 + v * (1.0 - s))
    return np.stack([v * s, d1 * t]), SwishCache(x, s, d1)


def swish_backward(cache: SwishCache, adj: np.ndarray):
    """Uses s''(x) = sigma * (1 - sigma) * (2 + x * (1 - 2 sigma)) from the cached sigma."""
    (v, t), (av, at) = cache.x, adj
    s, d1 = cache.sigma, cache.d1
    d2 = s * (1.0 - s) * (2.0 + v * (1.0 - 2.0 * s))
    return np.stack([d1 * av + d2 * t * at, d1 * at])


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
    x: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.9,
):
    v, t = x
    if mode == "train":
        mu = v.mean(axis=0)
        x_centered = v - mu
        var = (x_centered * x_centered).mean(axis=0)  # what v.var(axis=0) computes
        new_rm = momentum * running_mean + (1.0 - momentum) * mu
        new_rv = momentum * running_var + (1.0 - momentum) * var
    elif mode == "eval":
        x_centered = v - running_mean
        var = running_var
        new_rm = None
        new_rv = None
    else:
        raise ContractError(f"unknown batch-norm mode {mode!r}")
    istd = 1.0 / np.sqrt(var + eps)
    out = np.stack([scale * (x_centered * istd) + shift, scale * istd * t])
    return out, BatchNormCache(scale, x_centered, t, istd, new_rm, new_rv)


def batchnorm_backward(cache: BatchNormCache, adj: np.ndarray):
    if cache.new_running_mean is None:
        raise ContractError("batch-norm backward needs the cache of a train-mode forward")
    g, istd = cache.scale, cache.istd
    xc, xt = cache.x_centered, cache.x_tangent
    av, at = adj
    n = xc.shape[0]
    x_hat = xc * istd

    adj_scale = (av * x_hat).sum(axis=0) + (at * xt * istd).sum(axis=0)
    adj_shift = av.sum(axis=0)

    # value channel: standard batch-norm gradient through mu and var
    dxhat = av * g
    dvar = (dxhat * xc).sum(axis=0) * (-0.5) * istd**3
    dmu = -(dxhat.sum(axis=0)) * istd
    adj_x_value = dxhat * istd + dvar * (2.0 / n) * xc + dmu / n
    # tangent channel: output g*istd*xt depends on x through var(x)
    s_t = (at * xt).sum(axis=0)
    adj_x_value = adj_x_value - (g * s_t / n) * istd**3 * xc
    return np.stack([adj_x_value, at * (g * istd)]), adj_scale, adj_shift


# ---------------------------------------------------------------------------
# inverted dropout: one mask per forward call, shared by value and tangent
# ---------------------------------------------------------------------------


def make_dropout_mask(shape: tuple[int, int], rate: float, rng: Pcg32) -> np.ndarray:
    """Inverted-dropout mask: keep where a uniform draw is ``>= rate``, scaled
    by ``1 / (1 - rate)``; ``Pcg32.random_ge`` decides the comparison without
    forming the uniforms, with the same result and draw count as ``random``."""
    keep = rng.random_ge(shape[0] * shape[1], rate).reshape(shape)
    return keep.astype(np.float64) / (1.0 - rate)


def dropout_forward(x: np.ndarray, rate: float, mode: str, rng: Pcg32 | None = None):
    """The batch masked by a fresh draw from ``rng`` and the mask applied, or
    ``x`` itself and ``None`` when dropout is off (eval mode or a zero rate)."""
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ContractError("train-mode dropout needs an rng")
    mask = make_dropout_mask(x.shape[1:], rate, rng)
    return x * mask, mask


def dropout_backward(mask: np.ndarray | None, adj: np.ndarray):
    return adj if mask is None else adj * mask
