"""Primitive-level exactness: tangents and adjoints against finite differences.

The finite-difference oracles here are written directly against the
primitives' value functions; they never reuse the analytic derivative code
they validate.
"""

import warnings

import numpy as np
import pytest

from edapinn.autodiff import (
    DualBatch,
    affine_backward,
    affine_forward,
    batchnorm_backward,
    batchnorm_forward,
    dropout_backward,
    dropout_forward,
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
        assert [sigmoid(-1000.0), sigmoid(0.0), sigmoid(1000.0)] == [0.0, 0.5, 1.0]
    assert out.tolist() == [0.0, 0.5, 1.0]


def test_sigmoid_of_a_float_is_a_scalar():
    out = sigmoid(0.25)
    assert np.ndim(out) == 0 and isinstance(out, float)
    assert out == pytest.approx(1.0 / (1.0 + np.exp(-0.25)), rel=1e-15)


def test_swish_at_origin():
    out, _ = swish_forward(DualBatch(np.zeros((1, 1)), np.ones((1, 1))))
    assert out.value[0, 0] == 0.0
    assert out.tangent[0, 0] == 0.5  # s'(0) = sigma(0) = 1/2


def test_swish_tangent_at_one_matches_central_difference():
    # frozen from (s(1+h) - s(1-h)) / 2h with h = 1e-6
    out, _ = swish_forward(DualBatch(np.ones((1, 1)), np.ones((1, 1))))
    assert out.tangent[0, 0] == pytest.approx(0.9276705118714867, abs=1e-9)


def test_affine_identity_passthrough():
    x = DualBatch(rand((6, 4), 1), rand((6, 4), 2))
    out, cache = affine_forward(x, np.eye(4), np.zeros(4))
    assert np.array_equal(out.value, x.value)
    assert np.array_equal(out.tangent, x.tangent)
    av, at, _ = affine_backward(cache, x.value, x.tangent)
    assert np.array_equal(av, x.value)
    assert np.array_equal(at, x.tangent)


def test_zero_adjoints_give_zero_everywhere():
    x = DualBatch(rand((5, 3), 3), rand((5, 3), 4))
    w, b = rand((3, 2), 5), rand((2,), 6)
    _, cache = affine_forward(x, w, b)
    av, at, (dw, db) = affine_backward(cache, np.zeros((5, 2)), np.zeros((5, 2)))
    for arr in (av, at, dw, db):
        assert not np.any(arr)


# ---------------------------------------------------------------------------
# tangent exactness per primitive
# ---------------------------------------------------------------------------


def fd_tangent(f, xv, xt, h=1e-6):
    return (f(xv + h * xt) - f(xv - h * xt)) / (2.0 * h)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_swish_tangent_exactness(seed):
    xv, xt = rand((8, 5), seed), rand((8, 5), seed + 100)
    out, _ = swish_forward(DualBatch(xv, xt))
    assert rel_err(out.tangent, fd_tangent(swish_value, xv, xt)) <= REL_TOL_TANGENT


def test_affine_tangent_exactness():
    xv, xt = rand((8, 4), 10), rand((8, 4), 11)
    w, b = rand((4, 3), 12), rand((3,), 13)
    out, _ = affine_forward(DualBatch(xv, xt), w, b)
    assert rel_err(out.tangent, fd_tangent(lambda v: v @ w + b, xv, xt)) <= REL_TOL_TANGENT


def test_batchnorm_tangent_frozen_statistics():
    # the tangent channel must differentiate with mu, var held constant
    xv, xt = rand((16, 4), 20), rand((16, 4), 21)
    g, s = rand((4,), 22) + 2.0, rand((4,), 23)
    out, _ = batchnorm_forward(DualBatch(xv, xt), g, s, np.zeros(4), np.ones(4), "train")
    mu = xv.mean(axis=0)
    var = xv.var(axis=0)

    def bn_frozen(v):
        return g * (v - mu) / np.sqrt(var + 1e-5) + s

    assert rel_err(out.tangent, fd_tangent(bn_frozen, xv, xt)) <= REL_TOL_TANGENT


# ---------------------------------------------------------------------------
# backward exactness: scalar loss sum(value) + sum(tangent), random 3-layer chain
# ---------------------------------------------------------------------------


def chain_loss(xv, xt, w1, w2, g, s, mask):
    x = DualBatch(xv, xt)
    x, _ = affine_forward(x, w1, np.zeros(w1.shape[1]))
    x, _ = batchnorm_forward(x, g, s, np.zeros(w1.shape[1]), np.ones(w1.shape[1]), "train")
    x, _ = swish_forward(x)
    x, _ = dropout_forward(x, 0.25, "train", mask=mask)
    x, _ = affine_forward(x, w2, np.zeros(w2.shape[1]))
    return x.value.sum() + x.tangent.sum()


def test_three_layer_chain_parameter_gradients_match_fd():
    n, d, h_w, o = 6, 4, 5, 2
    xv, xt = rand((n, d), 30), rand((n, d), 31)
    w1, w2 = rand((d, h_w), 32) * 0.7, rand((h_w, o), 33) * 0.7
    g, s = rand((h_w,), 34) + 2.0, rand((h_w,), 35)
    mask = (Pcg32(36).random(n * h_w).reshape(n, h_w) >= 0.25) / 0.75

    # analytic pass
    x = DualBatch(xv, xt)
    x, c1 = affine_forward(x, w1, np.zeros(h_w))
    x, c2 = batchnorm_forward(x, g, s, np.zeros(h_w), np.ones(h_w), "train")
    x, c3 = swish_forward(x)
    x, c4 = dropout_forward(x, 0.25, "train", mask=mask)
    x, c5 = affine_forward(x, w2, np.zeros(o))
    av, at = np.ones((n, o)), np.ones((n, o))
    av, at, (dw2, _) = affine_backward(c5, av, at)
    av, at, _ = dropout_backward(c4, av, at)
    av, at, _ = swish_backward(c3, av, at)
    av, at, (dg, ds) = batchnorm_backward(c2, av, at)
    av, at, (dw1, _) = affine_backward(c1, av, at)

    h = 1e-5
    for arr, ana in [(w1, dw1), (w2, dw2), (g, dg), (s, ds), (xv, av), (xt, at)]:
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            old = arr[i]
            arr[i] = old + h
            lp = chain_loss(xv, xt, w1, w2, g, s, mask)
            arr[i] = old - h
            lm = chain_loss(xv, xt, w1, w2, g, s, mask)
            arr[i] = old
            fd[i] = (lp - lm) / (2 * h)
        assert rel_err(ana, fd) <= REL_TOL_GRAD


def test_backward_additive_in_adjoints():
    xv, xt = rand((7, 3), 40), rand((7, 3), 41)
    _, cache = swish_forward(DualBatch(xv, xt))
    a1, a2 = rand((7, 3), 42), rand((7, 3), 43)
    b1, b2 = rand((7, 3), 44), rand((7, 3), 45)
    v_sum, t_sum, _ = swish_backward(cache, a1 + a2, b1 + b2)
    v1, t1, _ = swish_backward(cache, a1, b1)
    v2, t2, _ = swish_backward(cache, a2, b2)
    assert np.allclose(v_sum, v1 + v2, atol=1e-12)
    assert np.allclose(t_sum, t1 + t2, atol=1e-12)


# ---------------------------------------------------------------------------
# structural behavior
# ---------------------------------------------------------------------------


def test_dropout_same_mask_on_both_channels():
    x = DualBatch(np.ones((4, 6)), np.full((4, 6), 2.0))
    out, cache = dropout_forward(x, 0.5, "train", rng=Pcg32(1).derive("d"))
    kept = out.value != 0
    assert np.array_equal(kept, out.tangent != 0)
    assert np.allclose(out.value[kept], 2.0)  # inverted scaling by 1/keep
    assert np.allclose(out.tangent[kept], 4.0)
    # eval mode is the identity and consumes no rng
    out_eval, _ = dropout_forward(x, 0.5, "eval")
    assert np.array_equal(out_eval.value, x.value)


def test_batchnorm_eval_uses_running_stats():
    x = DualBatch(rand((8, 3), 60), rand((8, 3), 61))
    rm, rv = np.array([1.0, -2.0, 0.5]), np.array([4.0, 9.0, 1.0])
    out, cache = batchnorm_forward(x, np.ones(3), np.zeros(3), rm, rv, "eval")
    expected = (x.value - rm) / np.sqrt(rv + 1e-5)
    assert np.allclose(out.value, expected, atol=1e-12)
    assert cache.new_running_mean is None


def test_shape_mismatch_raises_contract_error():
    with pytest.raises(ContractError):
        DualBatch(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ContractError):
        affine_forward(DualBatch(np.zeros((2, 3)), np.zeros((2, 3))), np.zeros((4, 2)), np.zeros(2))


def test_deterministic_forward_same_seed():
    x = DualBatch(rand((4, 4), 80), rand((4, 4), 81))
    o1, _ = dropout_forward(x, 0.3, "train", rng=Pcg32(99).derive("mask"))
    o2, _ = dropout_forward(x, 0.3, "train", rng=Pcg32(99).derive("mask"))
    assert np.array_equal(o1.value, o2.value)
    assert np.array_equal(o1.tangent, o2.tangent)
