"""Dual-channel dense primitives with exact reverse-mode gradients.

A dual batch is one float64 array of shape ``(..., 2, n, width)``: the
values at ``[..., 0, :, :]`` and, at ``[..., 1, :, :]``, their per-sample
derivatives with respect to the scalar time input (the tangents). Leading
axes index a stack of models: every primitive reduces over the rows (axis
-2), builds its output on axis -3 and broadcasts a parameter vector ``p``
over the rows as ``p[..., None, :]``, so one code path serves one model,
with parameters of shape ``(width,)``, and a stack of F folds of V
variants, with parameters of shape ``(F, V, width)``, whose input
``(F, 1, 2, n, 4)`` holds one batch per fold and broadcasts over the
variants. Every forward takes one such array
and returns one; every backward takes the adjoint of its output, an array of
the same shape, and returns the adjoint of its input,

    adj_input[0] = J^T @ adj[0] + (d[J @ xdot]/dx)^T @ adj[1]
    adj_input[1] = J^T @ adj[1]

so nonlinear primitives carry their second derivative, because the training
loss reads both channels (the physics residual needs d(EDA)/dt). The affine
map and dropout are linear and act on both channels in one expression;
swish and batch-norm treat the channels apart and write them straight into
their output. The affine backward also returns ``dw`` (summed over the
channel axis, -3) and batch-norm's ``(d_scale, d_shift)``;
``affine_weight_grad`` gives ``dw`` alone, for the first layer, whose input
needs no adjoint. The affine map has no bias (the model adds the regression
head's own), and dropout's cache is its mask, one draw per fold from the
fold's stream: ``(n, width)`` for one network, ``(F, 1, n, width)`` for a
stack. Swish evaluates its sigmoid once per forward call, in its output's
buffer, and caches s'(x) and s''(x) times the input's tangent, both built
from it; batch-norm caches x_hat = (v - mu) * istd, which its forward builds
anyway, and a view of the input's tangent, and its backward is the compact
gradient on x_hat (Ioffe & Szegedy, arXiv:1502.03167). In eval mode, which
never trains, neither keeps what only a backward reads.
``sigmoid``, of arrays, is the package's one logistic function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import Pcg32


def sigmoid(x: np.ndarray, out=None):
    """1 / (1 + exp(-x)) of an array, elementwise, as 0.5 * (1 + tanh(x / 2)):
    no masks, no overflow, exactly 0 and 1 far out in the tails. Built in
    one array, ``out`` when given, with no temporaries."""
    s = np.multiply(x, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softplus(x):
    """log(1 + exp(x)) elementwise, exactly x above 30; a number gives a 0-d array."""
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


# ---------------------------------------------------------------------------
# affine: y = x @ W
# ---------------------------------------------------------------------------


@dataclass
class AffineCache:
    x: np.ndarray
    w: np.ndarray


def affine_forward(x: np.ndarray, w: np.ndarray):
    """``x @ w`` for ``w`` of shape ``(..., fan_in, fan_out)``, one per model."""
    if x.shape[-1] != w.shape[-2]:
        raise ContractError(f"affine fan-in mismatch: input width {x.shape[-1]}, W rows {w.shape[-2]}")
    w = w[..., None, :, :]  # broadcast over the channel axis
    return x @ w, AffineCache(x, w)


def affine_weight_grad(cache: AffineCache, adj: np.ndarray):
    """The weight gradient alone, for a layer whose input needs no adjoint."""
    return (cache.x.swapaxes(-1, -2) @ adj).sum(axis=-3)


def affine_backward(cache: AffineCache, adj: np.ndarray):
    return adj @ np.ascontiguousarray(cache.w.swapaxes(-1, -2)), affine_weight_grad(cache, adj)


# ---------------------------------------------------------------------------
# swish activation
# ---------------------------------------------------------------------------


@dataclass
class SwishCache:
    d1: np.ndarray  # s'(x) = sigma * (1 + x * (1 - sigma))
    # s''(x) * xdot, the input tangent's weight in the value adjoint, with
    # s''(x) = sigma * (1 - sigma) * (2 + x * (1 - 2 sigma))
    d2_tangent: np.ndarray


def _channels(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and tangent channels of a dual batch ``(..., 2, n, width)``."""
    return x[..., 0, :, :], x[..., 1, :, :]


def _empty_dual(shape: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """A new dual batch whose channels have ``shape``, and those channels:
    outputs are written into them, with no stacking copy."""
    out = np.empty(shape[:-2] + (2,) + shape[-2:])
    return out, _channels(out)


def swish_forward(x: np.ndarray, mode: str = "train"):
    """Caches s'(x) and s''(x) * xdot, both from one sigmoid, built in the
    output's tangent channel; eval mode, which never trains, caches nothing."""
    v, t = _channels(x)
    out, (out_v, out_t) = _empty_dual(v.shape)
    s = sigmoid(v, out=out_t)
    one_minus_s = 1.0 - s
    d1 = np.multiply(v, one_minus_s)
    d1 += 1.0
    d1 *= s
    cache = None
    if mode == "train":
        # s * (1 - s) * (2 + v * (1 - 2 s)) * t, left to right
        d2_tangent = np.multiply(s, 2.0)
        np.subtract(1.0, d2_tangent, out=d2_tangent)
        d2_tangent *= v
        d2_tangent += 2.0
        one_minus_s *= s
        one_minus_s *= d2_tangent
        d2_tangent = np.multiply(one_minus_s, t, out=one_minus_s)
        cache = SwishCache(d1, d2_tangent)
    np.multiply(v, s, out=out_v)
    np.multiply(d1, t, out=out_t)  # s is spent
    return out, cache


def swish_backward(cache: SwishCache, adj: np.ndarray):
    d1, d2_tangent = cache.d1, cache.d2_tangent
    av, at = _channels(adj)
    out, (out_v, out_t) = _empty_dual(d1.shape)
    np.multiply(d1, av, out=out_v)
    out_v += d2_tangent * at
    np.multiply(d1, at, out=out_t)
    return out


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------
#
# Train mode normalizes with the batch's own (population) statistics. The
# tangent channel treats mu and var as constants so d(EDA)/dt stays a
# per-sample quantity; the backward pass nevertheless differentiates the
# *actual computed function*, which includes the tangent output's dependence
# on var(x), so analytic gradients match finite differences exactly. With
# the row sums s_v = sum(av), s_vx = sum(av * x_hat) and s_t = sum(at * xt),
# d_scale = s_vx + istd * s_t, d_shift = s_v, adj_t = g * istd * at and
# adj_v = g * istd * (av - s_v / n - x_hat * d_scale / n).
# Only a train-mode forward has a backward: eval mode never trains. The
# cache keeps scale and istd with a row axis, shaped (..., 1, width).


@dataclass
class BatchNormCache:
    scale: np.ndarray
    x_hat: np.ndarray
    x_tangent: np.ndarray | None
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
    v, t = _channels(x)
    if mode == "train":
        mu = v.mean(axis=-2)
        x_hat = v - mu[..., None, :]
        var = (x_hat * x_hat).mean(axis=-2)  # what v.var(axis=-2) computes
        new_rm = momentum * running_mean + (1.0 - momentum) * mu
        new_rv = momentum * running_var + (1.0 - momentum) * var
    elif mode == "eval":
        x_hat = v - running_mean[..., None, :]
        var = running_var
        new_rm = new_rv = None
    else:
        raise ContractError(f"unknown batch-norm mode {mode!r}")
    scale, shift = scale[..., None, :], shift[..., None, :]
    istd = 1.0 / np.sqrt(var[..., None, :] + eps)
    x_hat *= istd
    out, (out_v, out_t) = _empty_dual(v.shape)
    np.multiply(x_hat, scale, out=out_v)
    out_v += shift
    np.multiply(scale * istd, t, out=out_t)
    return out, BatchNormCache(scale, x_hat, t if mode == "train" else None, istd, new_rm, new_rv)


def batchnorm_backward(cache: BatchNormCache, adj: np.ndarray):
    if cache.new_running_mean is None:
        raise ContractError("batch-norm backward needs the cache of a train-mode forward")
    g, istd, x_hat = cache.scale, cache.istd, cache.x_hat
    av, at = _channels(adj)
    n = x_hat.shape[-2]
    adj_shift = av.sum(axis=-2, keepdims=True)
    adj_scale = (av * x_hat).sum(axis=-2, keepdims=True)
    adj_scale += istd * (at * cache.x_tangent).sum(axis=-2, keepdims=True)
    g_istd = g * istd
    out, (out_v, out_t) = _empty_dual(x_hat.shape)
    np.multiply(x_hat, adj_scale / n, out=out_v)
    np.subtract(av, adj_shift / n, out=out_t)  # out_t as scratch
    np.subtract(out_t, out_v, out=out_v)
    out_v *= g_istd
    np.multiply(at, g_istd, out=out_t)
    return out, adj_scale[..., 0, :], adj_shift[..., 0, :]


# ---------------------------------------------------------------------------
# inverted dropout: one mask per forward call, shared by value and tangent
# ---------------------------------------------------------------------------


def make_dropout_mask(shape: tuple[int, int], rate: float, rng: Pcg32) -> np.ndarray:
    """Inverted-dropout mask: keep where a uniform draw is ``>= rate``, scaled
    by ``1 / (1 - rate)``; ``Pcg32.random_ge`` decides the comparison without
    forming the uniforms, with the same result and draw count as ``random``."""
    keep = rng.random_ge(shape[0] * shape[1], rate).reshape(shape)
    return keep * (1.0 / (1.0 - rate))


def dropout_forward(x: np.ndarray, rate: float, mode: str, rng: Sequence[Pcg32] | None = None):
    """The batch masked by a fresh ``(n, width)`` draw from each stream of
    ``rng``, one per fold (a single network is one fold), and the mask
    applied, or ``x`` itself and ``None`` when dropout is off (eval mode or
    a zero rate). A stack's mask, ``(F, 1, ..., n, width)``, is shared
    along its axes after the first.
    """
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ContractError("train-mode dropout needs an rng")
    models = x.shape[:-3]
    if len(rng) != (models[0] if models else 1):
        raise ContractError(f"dropout needs one stream per fold, got {len(rng)} for a stack of {models}")
    mask = np.stack([make_dropout_mask(x.shape[-2:], rate, r) for r in rng])
    mask = mask.reshape(models[:1] + (1,) * (len(models) - 1) + x.shape[-2:])
    return x * mask[..., None, :, :], mask


def dropout_backward(mask: np.ndarray | None, adj: np.ndarray):
    return adj if mask is None else adj * mask[..., None, :, :]
