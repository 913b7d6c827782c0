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
head's own), and dropout's cache is the mask it applied, one
``(n, width)`` draw shared by every model of a stack, or one per fold,
``(F, 1, n, width)``. Swish evaluates its sigmoid once per forward call, in
its output's buffer, and caches s'(x) and s''(x) times the input's tangent,
both built from it; batch-norm caches a copy of its input's tangent rather
than the input, twice its size. Both keep a stack's step small, and in eval
mode, which never trains, neither builds what only a backward reads.
``sigmoid`` is the package's one logistic function.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .rng import Pcg32


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)) of a scalar or an array, as 0.5 * (1 + tanh(x / 2)):
    no masks, no overflow, exactly 0 and 1 far out in the tails. Built in
    one array, ``out`` when given, with no temporaries."""
    if np.ndim(x) == 0 and out is None:
        return 0.5 * (1.0 + np.tanh(0.5 * x))
    s = np.multiply(x, 0.5, out=out)
    np.tanh(s, out=s)
    s += 1.0
    s *= 0.5
    return s


def softplus(x):
    """log(1 + exp(x)), exactly x above 30: a float of a scalar, elementwise of an array."""
    if np.ndim(x) == 0:
        return float(x) if x > 30.0 else float(np.log1p(np.exp(x)))
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


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
    """``x @ w`` for ``w`` of shape ``(..., fan_in, fan_out)``, one per model."""
    if x.shape[-1] != w.shape[-2]:
        raise ContractError(f"affine fan-in mismatch: input width {x.shape[-1]}, W rows {w.shape[-2]}")
    w = w[..., None, :, :]  # broadcast over the channel axis
    return x @ w, AffineCache(x, w)


def affine_weight_grad(cache: AffineCache, adj: np.ndarray):
    """The weight gradient alone, for a layer whose input needs no adjoint."""
    return (cache.x.swapaxes(-1, -2) @ adj).sum(axis=-3)


def affine_backward(cache: AffineCache, adj: np.ndarray):
    return adj @ cache.w.swapaxes(-1, -2), affine_weight_grad(cache, adj)


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
# on var(x), so analytic gradients match finite differences exactly. Only a
# train-mode forward has a backward: eval mode never trains. The cache keeps
# scale and istd with a row axis, shaped (..., 1, width).


@dataclass
class BatchNormCache:
    scale: np.ndarray
    x_centered: np.ndarray
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
        x_centered = v - mu[..., None, :]
        var = (x_centered * x_centered).mean(axis=-2)  # what v.var(axis=-2) computes
        new_rm = momentum * running_mean + (1.0 - momentum) * mu
        new_rv = momentum * running_var + (1.0 - momentum) * var
    elif mode == "eval":
        x_centered = v - running_mean[..., None, :]
        var = running_var
        new_rm = None
        new_rv = None
    else:
        raise ContractError(f"unknown batch-norm mode {mode!r}")
    scale, shift = scale[..., None, :], shift[..., None, :]
    istd = 1.0 / np.sqrt(var[..., None, :] + eps)
    out, (out_v, out_t) = _empty_dual(v.shape)
    np.add(scale * (x_centered * istd), shift, out=out_v)
    np.multiply(scale * istd, t, out=out_t)
    # a copy of the tangent lets the input, twice its size, go; eval mode,
    # which never trains, copies nothing
    x_tangent = t.copy() if mode == "train" else None
    return out, BatchNormCache(scale, x_centered, x_tangent, istd, new_rm, new_rv)


def batchnorm_backward(cache: BatchNormCache, adj: np.ndarray):
    if cache.new_running_mean is None:
        raise ContractError("batch-norm backward needs the cache of a train-mode forward")
    g, istd = cache.scale, cache.istd
    xc, xt = cache.x_centered, cache.x_tangent
    av, at = _channels(adj)
    n = xc.shape[-2]

    at_xt = at * xt
    # tangent channel: output g*istd*xt depends on x through var(x)
    s_t = at_xt.sum(axis=-2, keepdims=True)
    at_xt *= istd
    adj_scale = (av * (xc * istd)).sum(axis=-2) + at_xt.sum(axis=-2)
    adj_shift = av.sum(axis=-2)

    # value channel: standard batch-norm gradient through mu and var, built
    # in place from dxhat = av * g, term by term, to keep the step's memory small
    out, (out_v, out_t) = _empty_dual(xc.shape)
    dxhat = np.multiply(av, g, out=out_v)
    dvar = (dxhat * xc).sum(axis=-2, keepdims=True) * (-0.5) * istd**3
    dmu = -(dxhat.sum(axis=-2, keepdims=True)) * istd
    out_v *= istd
    out_v += dvar * (2.0 / n) * xc
    out_v += dmu / n
    out_v -= (g * s_t / n) * istd**3 * xc
    np.multiply(at, g * istd, out=out_t)
    return out, adj_scale, adj_shift


# ---------------------------------------------------------------------------
# inverted dropout: one mask per forward call, shared by value and tangent
# ---------------------------------------------------------------------------


def make_dropout_mask(shape: tuple[int, int], rate: float, rng: Pcg32) -> np.ndarray:
    """Inverted-dropout mask: keep where a uniform draw is ``>= rate``, scaled
    by ``1 / (1 - rate)``; ``Pcg32.random_ge`` decides the comparison without
    forming the uniforms, with the same result and draw count as ``random``."""
    keep = rng.random_ge(shape[0] * shape[1], rate).reshape(shape)
    return np.where(keep, 1.0 / (1.0 - rate), 0.0)


def dropout_forward(x: np.ndarray, rate: float, mode: str, rng: Pcg32 | Sequence[Pcg32] | None = None):
    """The batch masked by a fresh ``(n, width)`` draw from ``rng``, the same
    for every model of a stack, and the mask applied, or ``x`` itself and
    ``None`` when dropout is off (eval mode or a zero rate).

    A sequence of streams, one per index of the stack's first axis (one per
    fold), draws one mask from each, in order: the mask has shape
    ``(F, 1, ..., n, width)`` and is shared along the stack's other axes.
    """
    if mode == "eval" or rate == 0.0:
        return x, None
    if rng is None:
        raise ContractError("train-mode dropout needs an rng")
    if isinstance(rng, Pcg32):
        mask = make_dropout_mask(x.shape[-2:], rate, rng)
    else:
        shape = (len(rng),) + (1,) * (x.ndim - 4) + x.shape[-2:]
        mask = np.stack([make_dropout_mask(x.shape[-2:], rate, r) for r in rng]).reshape(shape)
    return x * mask[..., None, :, :], mask


def dropout_backward(mask: np.ndarray | None, adj: np.ndarray):
    return adj if mask is None else adj * mask[..., None, :, :]
