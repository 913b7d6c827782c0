"""Primitive-level exactness: tangents and adjoints against finite differences.

The finite-difference oracles here are written directly against the
primitives' value functions; they never reuse the analytic derivative code
they validate.
"""

import warnings

import numpy as np
import pytest

from edapinn.autodiff import (
    affine_backward,
    affine_forward,
    affine_weight_grad,
    batchnorm_backward,
    batchnorm_forward,
    dropout_backward,
    dropout_forward,
    make_dropout_mask,
    sigmoid,
    swish_backward,
    swish_forward,
)
from edapinn.errors import ContractError
from edapinn.rng import Pcg32

REL_TOL_TANGENT = 1e-5
REL_TOL_GRAD = 1e-6


def rel_err(a, b, floor=1e-8):
    return np.max(np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)]))


def rand(shape, seed):
    return Pcg32(seed).normal(int(np.prod(shape))).reshape(shape)


def dual(value, tangent):
    """A dual batch: the values at [0], their time tangents at [1]."""
    return np.stack([value, tangent])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def swish_value(v):
    return v / (1.0 + np.exp(-v))


def masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# spec'd point values
# ---------------------------------------------------------------------------


def test_sigmoid_matches_masked_reference():
    x = np.linspace(-60.0, 60.0, 1_200_001)
    assert np.max(np.abs(sigmoid(x) - masked_sigmoid(x))) <= 3e-16


def test_sigmoid_saturates_exactly_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_swish_at_origin():
    out, _ = swish_forward(dual(np.zeros((1, 1)), np.ones((1, 1))))
    assert out[0, 0, 0] == 0.0
    assert out[1, 0, 0] == 0.5  # s'(0) = sigma(0) = 1/2


def test_swish_tangent_at_one_matches_central_difference():
    # frozen from (s(1+h) - s(1-h)) / 2h with h = 1e-6
    out, _ = swish_forward(dual(np.ones((1, 1)), np.ones((1, 1))))
    assert out[1, 0, 0] == pytest.approx(0.9276705118714867, abs=1e-9)


def test_affine_identity_passthrough():
    x = dual(rand((6, 4), 1), rand((6, 4), 2))
    out, cache = affine_forward(x, np.eye(4))
    assert np.array_equal(out, x)
    adj, _ = affine_backward(cache, x)
    assert np.array_equal(adj, x)


def test_zero_adjoints_give_zero_everywhere():
    x = dual(rand((5, 3), 3), rand((5, 3), 4))
    _, cache = affine_forward(x, rand((3, 2), 5))
    adj, dw = affine_backward(cache, np.zeros((2, 5, 2)))
    for arr in (adj, dw):
        assert not np.any(arr)


# ---------------------------------------------------------------------------
# tangent exactness per primitive
# ---------------------------------------------------------------------------


def fd_tangent(f, xv, xt, h=1e-6):
    return (f(xv + h * xt) - f(xv - h * xt)) / (2.0 * h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swish_tangent_exactness(seed):
    xv, xt = rand((8, 5), seed), rand((8, 5), seed + 100)
    out, _ = swish_forward(dual(xv, xt))
    assert rel_err(out[1], fd_tangent(swish_value, xv, xt)) <= REL_TOL_TANGENT


def test_affine_tangent_exactness():
    xv, xt = rand((8, 4), 10), rand((8, 4), 11)
    w = rand((4, 3), 12)
    out, _ = affine_forward(dual(xv, xt), w)
    assert rel_err(out[1], fd_tangent(lambda v: v @ w, xv, xt)) <= REL_TOL_TANGENT


def test_batchnorm_tangent_frozen_statistics():
    # the tangent channel must differentiate with mu, var held constant
    xv, xt = rand((16, 4), 20), rand((16, 4), 21)
    g, s = rand((4,), 22) + 2.0, rand((4,), 23)
    out, _ = batchnorm_forward(dual(xv, xt), g, s, np.zeros(4), np.ones(4), "train")
    mu = xv.mean(axis=0)
    var = xv.var(axis=0)

    def bn_frozen(v):
        return g * (v - mu) / np.sqrt(var + 1e-5) + s

    assert rel_err(out[1], fd_tangent(bn_frozen, xv, xt)) <= REL_TOL_TANGENT


# ---------------------------------------------------------------------------
# backward exactness: scalar loss sum(value) + sum(tangent), random 3-layer chain
# ---------------------------------------------------------------------------


def chain_loss(xv, xt, w1, w2, g, s):
    # a fresh stream in the same state draws the same dropout mask every call
    x = dual(xv, xt)
    x, _ = affine_forward(x, w1)
    x, _ = batchnorm_forward(x, g, s, np.zeros(w1.shape[1]), np.ones(w1.shape[1]), "train")
    x, _ = swish_forward(x)
    x, _ = dropout_forward(x, 0.25, "train", [Pcg32(36)])
    x, _ = affine_forward(x, w2)
    return x[0].sum() + x[1].sum()


def test_three_layer_chain_parameter_gradients_match_fd():
    n, d, h_w, o = 6, 4, 5, 2
    xv, xt = rand((n, d), 30), rand((n, d), 31)
    w1, w2 = rand((d, h_w), 32) * 0.7, rand((h_w, o), 33) * 0.7
    g, s = rand((h_w,), 34) + 2.0, rand((h_w,), 35)
    mask = (Pcg32(36).random(n * h_w).reshape(n, h_w) >= 0.25) / 0.75

    # analytic pass
    x = dual(xv, xt)
    x, c1 = affine_forward(x, w1)
    x, c2 = batchnorm_forward(x, g, s, np.zeros(h_w), np.ones(h_w), "train")
    x, c3 = swish_forward(x)
    x, applied = dropout_forward(x, 0.25, "train", [Pcg32(36)])
    assert np.array_equal(applied, mask)
    x, c5 = affine_forward(x, w2)
    adj, dw2 = affine_backward(c5, np.ones((2, n, o)))
    adj = dropout_backward(applied, adj)
    adj = swish_backward(c3, adj)
    adj, dg, ds = batchnorm_backward(c2, adj)
    (av, at), dw1 = affine_backward(c1, adj)

    h = 1e-5
    for arr, ana in [(w1, dw1), (w2, dw2), (g, dg), (s, ds), (xv, av), (xt, at)]:
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = arr[i]
            arr[i] = old + h
            lp = chain_loss(xv, xt, w1, w2, g, s)
            arr[i] = old - h
            lm = chain_loss(xv, xt, w1, w2, g, s)
            arr[i] = old
            fd[i] = (lp - lm) / (2 * h)
        assert rel_err(ana, fd) <= REL_TOL_GRAD


def test_backward_additive_in_adjoints():
    xv, xt = rand((7, 3), 40), rand((7, 3), 41)
    _, cache = swish_forward(dual(xv, xt))
    a1, a2 = dual(rand((7, 3), 42), rand((7, 3), 44)), dual(rand((7, 3), 43), rand((7, 3), 45))
    summed = swish_backward(cache, a1) + swish_backward(cache, a2)
    assert np.allclose(swish_backward(cache, a1 + a2), summed, atol=1e-12)


# ---------------------------------------------------------------------------
# structural behavior
# ---------------------------------------------------------------------------


def test_dropout_same_mask_on_both_channels():
    x = dual(np.ones((4, 6)), np.full((4, 6), 2.0))
    out, mask = dropout_forward(x, 0.5, "train", rng=[Pcg32(1).derive("d")])
    kept = out[0] != 0
    assert np.array_equal(kept, mask != 0)
    assert np.array_equal(kept, out[1] != 0)
    assert np.allclose(out[0][kept], 2.0)  # inverted scaling by 1/keep
    assert np.allclose(out[1][kept], 4.0)
    # eval mode is the identity and consumes no rng
    out_eval, no_mask = dropout_forward(x, 0.5, "eval")
    assert out_eval is x and no_mask is None


def test_batchnorm_eval_uses_running_stats():
    x = dual(rand((8, 3), 60), rand((8, 3), 61))
    rm, rv = np.array([1.0, -2.0, 0.5]), np.array([4.0, 9.0, 1.0])
    out, cache = batchnorm_forward(x, np.ones(3), np.zeros(3), rm, rv, "eval")
    expected = (x[0] - rm) / np.sqrt(rv + 1e-5)
    assert np.allclose(out[0], expected, atol=1e-12)
    assert cache.new_running_mean is None


def test_batchnorm_backward_rejects_an_eval_mode_cache():
    # only a train-mode forward is ever differentiated: eval mode never trains
    x = dual(rand((8, 3), 62), rand((8, 3), 63))
    _, cache = batchnorm_forward(x, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), "eval")
    with pytest.raises(ContractError):
        batchnorm_backward(cache, np.ones((2, 8, 3)))


def test_shape_mismatch_raises_contract_error():
    with pytest.raises(ContractError):
        affine_forward(dual(np.zeros((2, 3)), np.zeros((2, 3))), np.zeros((4, 2)))


@pytest.mark.parametrize("models, mask_shape", [((), (4, 6)), ((3, 2), (3, 1, 4, 6))], ids=["network", "stack"])
def test_dropout_needs_one_stream_per_fold(models, mask_shape):
    # a single network is one fold; a (folds, variants) stack draws one mask per fold
    x = np.ones(models + (2, 4, 6))
    folds = models[0] if models else 1
    for wrong in (folds - 1, folds + 1):
        with pytest.raises(ContractError, match="one stream per fold"):
            dropout_forward(x, 0.5, "train", [Pcg32(s) for s in range(wrong)])
    _, mask = dropout_forward(x, 0.5, "train", [Pcg32(s) for s in range(folds)])
    assert mask.shape == mask_shape


def test_deterministic_forward_same_seed():
    x = dual(rand((4, 4), 80), rand((4, 4), 81))
    o1, _ = dropout_forward(x, 0.3, "train", rng=[Pcg32(99).derive("mask")])
    o2, _ = dropout_forward(x, 0.3, "train", rng=[Pcg32(99).derive("mask")])
    assert np.array_equal(o1, o2)


# ---------------------------------------------------------------------------
# stacking both channels into one array changes no number
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, fan_in, fan_out", [(128, 4, 64), (128, 64, 64), (128, 64, 1), (7, 4, 64)])
def test_stacked_affine_equals_per_channel_matmuls_bit_for_bit(n, fan_in, fan_out):
    # the training shapes: first hidden layer, later hidden layers, the head;
    # a numpy or BLAS build on which the stacked matmul rounds differently
    # would change every output of the package, so it must fail here
    v, t = rand((n, fan_in), 90), rand((n, fan_in), 91)
    av, at = rand((n, fan_out), 92), rand((n, fan_out), 93)
    w = rand((fan_in, fan_out), 94)
    out, cache = affine_forward(dual(v, t), w)
    assert same_bits(out[0], v @ w) and same_bits(out[1], t @ w)
    adj, dw = affine_backward(cache, dual(av, at))
    assert same_bits(adj[0], av @ w.T) and same_bits(adj[1], at @ w.T)
    assert same_bits(dw, v.T @ av + t.T @ at)
    assert same_bits(affine_weight_grad(cache, dual(av, at)), dw)


def test_dropout_applies_one_mask_to_both_channels_bit_for_bit():
    x = dual(rand((128, 64), 95), rand((128, 64), 96))
    out, mask = dropout_forward(x, 0.1, "train", [Pcg32(97)])
    assert same_bits(mask, make_dropout_mask((128, 64), 0.1, Pcg32(97)))
    assert same_bits(out[0], x[0] * mask) and same_bits(out[1], x[1] * mask)
    adj = dropout_backward(mask, x)
    assert same_bits(adj[0], x[0] * mask) and same_bits(adj[1], x[1] * mask)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.3, 0.5])
def test_dropout_mask_equals_scaled_keep_flags_bit_for_bit(rate):
    # the mask is the keep flags times 1 / (1 - rate); dividing the 0/1
    # flags by the keep probability gives the same bits
    keep = Pcg32(98).random_ge(128 * 64, rate).reshape(128, 64)
    mask = make_dropout_mask((128, 64), rate, Pcg32(98))
    assert same_bits(mask, keep.astype(np.float64) / (1.0 - rate))
    assert mask.dtype == np.float64 and 0 < np.count_nonzero(mask) < mask.size
