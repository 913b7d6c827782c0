"""Dual-channel dense primitives with exact reverse-mode gradients.

A dual batch is one float64 array of shape ``(..., 2, n, width)``: the
values at ``[..., 0, :, :]`` and, at ``[..., 1, :, :]``, their per-sample
derivatives with respect to the scalar time input (the tangents). Leading
axes index a stack of models: every primitive reduces over the rows (axis
-2), builds its output on axis -3 and broadcasts a parameter vector ``p``
over the rows as ``p[..., None, :]``, so one code path serves one model,
with parameters of shape ``(width,)``, and a stack of F folds of V
variants, with parameters of shape ``(F, V, width)``, whose input
``(F, 1, ...)`` holds one batch per fold and broadcasts over the
variants. Every forward takes one such array and every backward the
adjoint of its output, an array of the same shape, which it turns into the
adjoint of its input,

    adj_input[0] = J^T @ adj[0] + (d[J @ xdot]/dx)^T @ adj[1]
    adj_input[1] = J^T @ adj[1]

so nonlinear primitives carry their second derivative, because the training
loss reads both channels (the physics residual needs d(EDA)/dt). The affine
map and dropout are linear and act on both channels in one expression;
swish and batch-norm treat the channels apart. The affine backward also
returns ``dw`` (summed over the channel axis, -3) and batch-norm's
``(d_scale, d_shift)``. The affine map has no bias (the model adds the
regression head's own). The first hidden block, ``input_block_forward``,
is the affine map and batch-norm of the network input ``(..., n, 4)``,
taken in its four columns (batch statistics from their 4 x 4 covariance);
its backward gives ``(dw, d_scale, d_shift)`` and no input adjoint.

Who owns which array: the affine map and the input block write a new
array, and the affine map caches its input and weights, which it never
writes. Batch-norm, swish and dropout
write their output into the array they are given and return it, and their
backwards write the input's adjoint into the adjoint they are given and
return it, so a hidden block trains in the affine output's buffer and in
the adjoint it receives. The caller owns those arrays (``model.forward`` and
``model.backward`` own every one of a pass), and a caller that still needs
an input after the call passes a copy. A cache holds only arrays of its
own, which its backward spends as scratch, so a backward runs once per
forward:

- swish: s'(x) and s''(x) times the input's tangent, both built from one
  sigmoid;
- batch-norm: the centred input v - mu, the factor scale * istd that scales
  both channels, istd, and a copy of the input's tangent; its backward is
  the compact gradient (Ioffe & Szegedy, arXiv:1502.03167) on the centred
  input;
- the input block: the centred input, (n, 4), the covariance times the
  weights, factor, istd and the weights, nothing of n rows by width; its
  backward only reads its adjoint;
- dropout: its mask, one draw per fold from the fold's stream: ``(n, width)``
  for one network, ``(F, 1, n, width)`` for a stack.

In eval mode, which never trains, swish and dropout cache nothing and
the caches of batch-norm and of the input block are empty.
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


def affine_backward(cache: AffineCache, adj: np.ndarray):
    dw = (cache.x.swapaxes(-1, -2) @ adj).sum(axis=-3)
    return adj @ np.ascontiguousarray(cache.w.swapaxes(-1, -2)), dw


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


def swish_forward(x: np.ndarray, mode: str = "train"):
    """Writes swish into ``x`` and returns it. Caches s'(x) and s''(x) * xdot,
    both from one sigmoid; eval mode, which never trains, caches nothing."""
    v, t = _channels(x)
    d1 = sigmoid(v)  # s, until it becomes s'(x) = s (1 + v (1 - s))
    d2_tangent = np.subtract(1.0, d1)  # 1 - s, until it becomes s''(x) * t
    q = np.multiply(v, d2_tangent)  # v (1 - s)
    v *= d1  # the value, v s
    d2_tangent *= d1  # s (1 - s)
    q += 1.0
    d1 *= q
    if mode == "train":
        q += 1.0
        q -= v  # 2 + v (1 - 2 s)
        d2_tangent *= q
        d2_tangent *= t
    t *= d1
    return x, SwishCache(d1, d2_tangent) if mode == "train" else None


def swish_backward(cache: SwishCache, adj: np.ndarray):
    """Writes the input's adjoint into ``adj`` and returns it; spends the cache."""
    d1, d2_tangent = cache.d1, cache.d2_tangent
    av, at = _channels(adj)
    d2_tangent *= at
    av *= d1
    av += d2_tangent
    at *= d1
    return adj


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------
#
# Train mode normalizes with the batch's own (population) statistics. The
# tangent channel treats mu and var as constants so d(EDA)/dt stays a
# per-sample quantity; the backward pass nevertheless differentiates the
# *actual computed function*, which includes the tangent output's dependence
# on var(x), so analytic gradients match finite differences exactly. With
# the centred input c = v - mu, x_hat = c * istd and the row sums
# s_v = sum(av), s_vc = sum(av * c) and s_t = sum(at * xt),
# d_scale = istd * (s_vc + s_t), d_shift = s_v, adj_t = g * istd * at and
# adj_v = g * istd * (av - (s_v + c * istd * d_scale) / n).
# The row sums, the forward's mu and var among them, are products with a
# vector of ones, one BLAS call each. Only a train-mode forward has a
# backward: eval mode never trains,
# and its cache holds nothing. The cache keeps g * istd with a row axis,
# shaped (..., 1, width), and istd without, shaped (..., width).


@dataclass
class BatchNormCache:
    new_running_mean: np.ndarray | None = None
    new_running_var: np.ndarray | None = None
    centred: np.ndarray | None = None  # v - mu
    factor: np.ndarray | None = None  # scale * istd
    istd: np.ndarray | None = None
    x_tangent: np.ndarray | None = None  # a copy of the input's tangent


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
    """Writes the normalized batch into ``x`` and returns it with its cache."""
    v, t = _channels(x)
    if mode == "train":
        ones = np.ones(v.shape[-2])
        mu = ones @ v / len(ones)
        centred = v - mu[..., None, :]
        var = ones @ np.multiply(centred, centred, out=v) / len(ones)
        new_rm = momentum * running_mean + (1.0 - momentum) * mu
        new_rv = momentum * running_var + (1.0 - momentum) * var
    elif mode == "eval":
        centred = np.subtract(v, running_mean[..., None, :], out=v)
        var = running_var
    else:
        raise ContractError(f"unknown batch-norm mode {mode!r}")
    istd = 1.0 / np.sqrt(var + eps)
    factor = (scale * istd)[..., None, :]
    np.multiply(centred, factor, out=v)
    v += shift[..., None, :]
    cache = BatchNormCache(new_rm, new_rv, centred, factor, istd, t.copy()) if mode == "train" else BatchNormCache()
    t *= factor
    return x, cache


def batchnorm_backward(cache: BatchNormCache, adj: np.ndarray):
    """Writes the input's adjoint into ``adj`` and returns it with
    ``(d_scale, d_shift)``; spends the cache."""
    if cache.centred is None:
        raise ContractError("batch-norm backward needs the cache of a train-mode forward")
    centred, istd, scratch = cache.centred, cache.istd, cache.x_tangent
    av, at = _channels(adj)
    ones = np.ones(centred.shape[-2])  # row sums as products with it, one BLAS call each
    d_shift = ones @ av
    d_scale = ones @ np.multiply(scratch, at, out=scratch)
    d_scale += ones @ np.multiply(av, centred, out=scratch)
    d_scale *= istd
    centred *= (istd * d_scale / len(ones))[..., None, :]
    centred += (d_shift / len(ones))[..., None, :]
    av -= centred
    av *= cache.factor
    at *= cache.factor
    return adj, d_scale, d_shift


# ---------------------------------------------------------------------------
# the first hidden block: affine map and batch-norm of the network input
# ---------------------------------------------------------------------------
#
# The input X, (..., n, 4), has the tangent e0 in every row, so X W has the
# tangent W[0] and its batch statistics live in X's columns: with
# X_c = X - 1^T X / n and C = X_c^T X_c / n, its mean is (1^T X / n) W and
# its variance colsum((C W) * W), clamped at 0, below which collinear input
# can round it. The values are X_c (W * factor) + shift; with P = X_c^T av,
# d_scale = istd * (colsum(W * P) + s_t * W[0]) and
# dW = factor * (P - (C W) * istd * d_scale), plus factor * s_t in W[0].
# C W is clipped to Cauchy-Schwarz's |(C W)_kj| <= sqrt(C_kk var_j), which
# only rounding crosses, so a column rounded to variance 0 gets no gradient
# of size C W / var^(3/2). Eval mode keeps the generic block's arithmetic.


@dataclass
class InputBlockCache:
    new_running_mean: np.ndarray
    new_running_var: np.ndarray
    centred: np.ndarray  # X_c, (..., n, 4)
    cov_w: np.ndarray  # C W, clipped
    factor: np.ndarray  # scale * istd
    istd: np.ndarray
    w: np.ndarray


def input_block_forward(
    x: np.ndarray,
    w: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
    momentum: float = 0.9,
):
    """The affine map and batch-norm of the network input ``x``, ``(..., n, 4)``:
    the dual batch, a new array, and its cache."""
    n = x.shape[-2]
    out = np.empty(np.broadcast_shapes(x.shape[:-2], w.shape[:-2]) + (2, n, w.shape[-1]))
    v = out[..., 0, :, :]
    if mode != "train":  # the generic block, whose batch-norm refuses an unknown mode
        np.matmul(x, w, out=v)
        out[..., 1, :, :] = w[..., None, 0, :]
        return batchnorm_forward(out, scale, shift, running_mean, running_var, mode, eps)
    m = np.ones(n) @ x / n
    centred = x - m[..., None, :]
    cov = centred.swapaxes(-1, -2) @ centred / n
    cov_w = cov @ w
    var = np.maximum((cov_w * w).sum(axis=-2), 0.0)
    bound = np.sqrt(cov.diagonal(0, -2, -1)[..., :, None] * var[..., None, :])
    np.clip(cov_w, -bound, bound, out=cov_w)
    istd = 1.0 / np.sqrt(var + eps)
    factor = scale * istd
    np.matmul(centred, w * factor[..., None, :], out=v)
    v += shift[..., None, :]
    out[..., 1, :, :] = (w[..., 0, :] * factor)[..., None, :]
    new_rm = momentum * running_mean + (1.0 - momentum) * (m[..., None, :] @ w)[..., 0, :]
    new_rv = momentum * running_var + (1.0 - momentum) * var
    return out, InputBlockCache(new_rm, new_rv, centred, cov_w, factor, istd, w)


def input_block_backward(cache: InputBlockCache, adj: np.ndarray):
    """``(dw, d_scale, d_shift)`` from the adjoint of the block's output, which it only reads."""
    if not isinstance(cache, InputBlockCache):
        raise ContractError("the input block's backward needs the cache of a train-mode forward")
    w, istd = cache.w, cache.istd
    av, at = _channels(adj)
    ones = np.ones(av.shape[-2])
    d_shift, s_t = ones @ av, ones @ at
    dw = cache.centred.swapaxes(-1, -2) @ av  # P
    d_scale = (w * dw).sum(axis=-2) + s_t * w[..., 0, :]
    d_scale *= istd
    dw -= cache.cov_w * (istd * d_scale)[..., None, :]
    dw[..., 0, :] += s_t
    dw *= cache.factor[..., None, :]
    return dw, d_scale, d_shift


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
    """``x`` masked in place by a fresh ``(n, width)`` draw from each stream
    of ``rng``, one per fold (a single network is one fold), and the mask
    applied, or ``x`` untouched and ``None`` when dropout is off (eval mode
    or a zero rate). A stack's mask, ``(F, 1, ..., n, width)``, is shared
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
    x *= mask[..., None, :, :]
    return x, mask


def dropout_backward(mask: np.ndarray | None, adj: np.ndarray):
    """Masks ``adj`` in place and returns it."""
    if mask is not None:
        adj *= mask[..., None, :, :]
    return adj
