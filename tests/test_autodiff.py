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
    batchnorm_backward,
    batchnorm_forward,
    dropout_backward,
    dropout_forward,
    input_block_backward,
    input_block_forward,
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

    def cache():  # a backward spends its cache and its adjoint: each call gets fresh ones
        return swish_forward(dual(xv, xt))[1]

    a1, a2 = dual(rand((7, 3), 42), rand((7, 3), 44)), dual(rand((7, 3), 43), rand((7, 3), 45))
    summed = swish_backward(cache(), a1.copy()) + swish_backward(cache(), a2.copy())
    assert np.allclose(swish_backward(cache(), a1 + a2), summed, atol=1e-12)


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
    out, cache = batchnorm_forward(x.copy(), np.ones(3), np.zeros(3), rm, rv, "eval")
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
    o1, _ = dropout_forward(x.copy(), 0.3, "train", rng=[Pcg32(99).derive("mask")])
    o2, _ = dropout_forward(x.copy(), 0.3, "train", rng=[Pcg32(99).derive("mask")])
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


@pytest.mark.parametrize("models", [(), (1, 4), (3, 1)], ids=["network", "stack-1x4", "stack-3x1"])
@pytest.mark.parametrize("n", [64, 128])
def test_head_product_and_contiguous_transpose_equal_the_matmuls_bit_for_bit(models, n):
    # the training shapes: batches of 128 rows and a fold's last batch of 64
    # (below about 19 rows OpenBLAS's small-matrix kernel rounds a transposed
    # and a contiguous operand apart in the last bit)
    for fan_in in (4, 64):
        w = rand(models + (fan_in, 64), 100)
        _, cache = affine_forward(rand(models + (2, n, fan_in), 101), w)
        adj = rand(models + (2, n, 64), 102)
        assert same_bits(affine_backward(cache, adj)[0], adj @ w[..., None, :, :].swapaxes(-1, -2))


def term_by_term_batchnorm_backward(x, g, adj, eps=1e-5):
    """The batch-norm gradient built term by term through mu and var from the
    raw input, the tangent output's dependence on var(x) included."""
    (v, xt), (av, at) = np.moveaxis(x, -3, 0), np.moveaxis(adj, -3, 0)
    n, g = v.shape[-2], g[..., None, :]
    xc = v - v.mean(axis=-2, keepdims=True)
    istd = 1.0 / np.sqrt((xc * xc).mean(axis=-2, keepdims=True) + eps)
    s_t = (at * xt).sum(axis=-2, keepdims=True)
    d_scale = (av * xc * istd).sum(axis=-2) + (at * xt * istd).sum(axis=-2)
    dxhat = av * g
    dvar = (dxhat * xc).sum(axis=-2, keepdims=True) * -0.5 * istd**3
    dmu = -dxhat.sum(axis=-2, keepdims=True) * istd
    adj_v = dxhat * istd + dvar * 2.0 * xc / n + dmu / n - g * s_t / n * istd**3 * xc
    return np.stack([adj_v, at * g * istd], axis=-3), d_scale, av.sum(axis=-2)


@pytest.mark.parametrize("models", [(), (1, 4), (3, 1)], ids=["network", "stack-1x4", "stack-3x1"])
@pytest.mark.parametrize("n", [8, 128])
def test_compact_batchnorm_backward_matches_the_term_by_term_form(models, n):
    width = 64
    x = np.stack([rand(models + (n, width), 110) * 3.0 + 1.0, rand(models + (n, width), 111)], axis=-3)
    adj = np.stack([rand(models + (n, width), 112), rand(models + (n, width), 113)], axis=-3)
    g, s = rand(models + (width,), 114), rand(models + (width,), 115)
    assert (g < 0).any() and (adj[..., 1, :, :] != 0).all()
    _, cache = batchnorm_forward(x.copy(), g, s, np.zeros(models + (width,)), np.ones(models + (width,)), "train")
    for got, want in zip(batchnorm_backward(cache, adj.copy()), term_by_term_batchnorm_backward(x, g, adj)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_dropout_applies_one_mask_to_both_channels_bit_for_bit():
    x = dual(rand((128, 64), 95), rand((128, 64), 96))
    out, mask = dropout_forward(x.copy(), 0.1, "train", [Pcg32(97)])
    assert same_bits(mask, make_dropout_mask((128, 64), 0.1, Pcg32(97)))
    assert same_bits(out[0], x[0] * mask) and same_bits(out[1], x[1] * mask)
    adj = dropout_backward(mask, x.copy())
    assert same_bits(adj[0], x[0] * mask) and same_bits(adj[1], x[1] * mask)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.3, 0.5])
def test_dropout_mask_equals_scaled_keep_flags_bit_for_bit(rate):
    # the mask is the keep flags times 1 / (1 - rate); dividing the 0/1
    # flags by the keep probability gives the same bits
    keep = Pcg32(98).random_ge(128 * 64, rate).reshape(128, 64)
    mask = make_dropout_mask((128, 64), rate, Pcg32(98))
    assert same_bits(mask, keep.astype(np.float64) / (1.0 - rate))
    assert mask.dtype == np.float64 and 0 < np.count_nonzero(mask) < mask.size


# ---------------------------------------------------------------------------
# the in-place contract: a block trains in the buffers it is given
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("models", [(), (3, 2)], ids=["network", "stack"])
def test_each_primitive_returns_the_array_it_was_given(models):
    n, width = 16, 8

    def x():
        return np.stack([rand(models + (n, width), 120), rand(models + (n, width), 121)], axis=-3)

    g, s = rand(models + (width,), 122), rand(models + (width,), 123)
    stats = np.zeros(models + (width,)), np.ones(models + (width,))
    streams = [Pcg32(f) for f in range(models[0] if models else 1)]
    for mode in ("train", "eval"):
        for name, call in [
            ("batchnorm_forward", lambda a: batchnorm_forward(a, g, s, *stats, mode)[0]),
            ("swish_forward", lambda a: swish_forward(a, mode)[0]),
            ("dropout_forward", lambda a: dropout_forward(a, 0.25, mode, streams)[0]),
        ]:
            given = x()
            assert call(given) is given, (name, mode)
    bn_cache = batchnorm_forward(x(), g, s, *stats, "train")[1]
    sw_cache = swish_forward(x(), "train")[1]
    mask = dropout_forward(x(), 0.25, "train", streams)[1]
    for name, call in [
        ("batchnorm_backward", lambda a: batchnorm_backward(bn_cache, a)[0]),
        ("swish_backward", lambda a: swish_backward(sw_cache, a)),
        ("dropout_backward", lambda a: dropout_backward(mask, a)),
    ]:
        given = x()
        assert call(given) is given, name


def test_caches_share_no_memory_with_the_array_returned():
    # a cache holds arrays of its own: the whole batch-norm input, value
    # channel included, does not stay alive until the backward for its tangent
    x = dual(rand((16, 8), 124), rand((16, 8), 125))
    out, bn = batchnorm_forward(x, rand((8,), 126), rand((8,), 127), np.zeros(8), np.ones(8), "train")
    for name in ("centred", "factor", "istd", "x_tangent", "new_running_mean", "new_running_var"):
        assert not np.shares_memory(getattr(bn, name), out), name
    out, sw = swish_forward(out, "train")
    assert not np.shares_memory(sw.d1, out) and not np.shares_memory(sw.d2_tangent, out)


def term_by_term_swish(x, adj):
    """Swish's output and input adjoint, each derivative written out from
    the exp-based sigmoid."""
    (v, t), (av, at) = np.moveaxis(x, -3, 0), np.moveaxis(adj, -3, 0)
    s = 1.0 / (1.0 + np.exp(-v))
    d1 = s + v * s * (1.0 - s)
    d2 = 2.0 * s * (1.0 - s) + v * s * (1.0 - s) * (1.0 - 2.0 * s)
    return np.stack([v * s, d1 * t], axis=-3), np.stack([d1 * av + d2 * t * at, d1 * at], axis=-3)


def term_by_term_batchnorm_forward(x, g, s, eps=1e-5):
    """Batch-norm's output from the batch's own mean and variance, and the
    tangent scaled with them held constant."""
    v, t = np.moveaxis(x, -3, 0)
    mu, var = v.mean(axis=-2, keepdims=True), v.var(axis=-2, keepdims=True)
    g, s = g[..., None, :], s[..., None, :]
    return np.stack([g * (v - mu) / np.sqrt(var + eps) + s, g * t / np.sqrt(var + eps)], axis=-3)


@pytest.mark.parametrize("models", [(), (1, 4), (3, 1)], ids=["network", "stack-1x4", "stack-3x1"])
@pytest.mark.parametrize("n", [8, 128])
def test_compact_swish_and_batchnorm_forward_match_term_by_term_references(models, n):
    # batch-norm's backward has its own test above
    width = 64
    x = np.stack([rand(models + (n, width), 130) * 3.0 + 1.0, rand(models + (n, width), 131)], axis=-3)
    adj = np.stack([rand(models + (n, width), 132), rand(models + (n, width), 133)], axis=-3)
    g, s = rand(models + (width,), 134), rand(models + (width,), 135)
    assert (g < 0).any() and (adj[..., 1, :, :] != 0).all()

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    out, cache = swish_forward(x.copy(), "train")
    want_out, want_adj = term_by_term_swish(x, adj)
    close(out, want_out)
    close(swish_backward(cache, adj.copy()), want_adj)
    stats = np.zeros(models + (width,)), np.ones(models + (width,))
    out, _ = batchnorm_forward(x.copy(), g, s, *stats, "train")
    close(out, term_by_term_batchnorm_forward(x, g, s))


# ---------------------------------------------------------------------------
# the first hidden block against the generic affine -> batch-norm chain
# ---------------------------------------------------------------------------


E0 = np.array([1.0, 0.0, 0.0, 0.0])  # the network input's tangent: the time column's


def generic_input_block(x, w, g, s, stats, mode, adj, eps=1e-5):
    """The affine map and batch-norm of the dual input with e0 tangents,
    and in train mode their gradients, through the generic primitives."""
    out, c_aff = affine_forward(np.stack([x, np.broadcast_to(E0, x.shape)], axis=-3), w)
    out, c_bn = batchnorm_forward(out, g, s, *stats, mode, eps=eps)
    if mode == "eval":
        return out, c_bn
    adj_in, d_scale, d_shift = batchnorm_backward(c_bn, adj.copy())
    return out, c_bn, affine_backward(c_aff, adj_in)[1], d_scale, d_shift


@pytest.mark.parametrize("models", [(), (1, 4), (3, 1)], ids=["network", "stack-1x4", "stack-3x1"])
@pytest.mark.parametrize("n", [8, 128])
def test_input_block_matches_the_generic_affine_and_batchnorm_chain(models, n):
    width, batch = 64, models[:1] + (1,) * (len(models) > 1)  # a stack's batch broadcasts over its variants
    x = rand(batch + (n, 4), 140) * np.array([1.0, 2.0, 0.5, 3.0]) + np.array([0.3, -1.0, 2.0, 0.0])
    w = rand(models + (4, width), 141)
    g, s = rand(models + (width,), 142), rand(models + (width,), 143)
    stats = rand(models + (width,), 144), 0.5 + np.abs(rand(models + (width,), 145))
    adj = np.stack([rand(models + (n, width), 146), rand(models + (n, width), 147)], axis=-3)
    assert (g < 0).any() and (adj[..., 1, :, :] != 0).all()

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    out, cache = input_block_forward(x, w, g, s, *stats, "train")
    want_out, want_cache, want_dw, want_d_scale, want_d_shift = generic_input_block(x, w, g, s, stats, "train", adj)
    close(out, want_out)
    close(cache.new_running_mean, want_cache.new_running_mean)
    close(cache.new_running_var, want_cache.new_running_var)
    given = adj.copy()
    dw, d_scale, d_shift = input_block_backward(cache, given)
    assert same_bits(given, adj)  # the adjoint is read, not written
    close(dw, want_dw)
    close(d_scale, want_d_scale)
    close(d_shift, want_d_shift)

    out, cache = input_block_forward(x, w, g, s, *stats, "eval")
    assert same_bits(out, generic_input_block(x, w, g, s, stats, "eval", adj)[0])
    with pytest.raises(ContractError):
        input_block_backward(cache, adj)


def test_input_block_cache_holds_nothing_of_the_output_size():
    x, w = rand((128, 4), 150), rand((4, 64), 151)
    out, cache = input_block_forward(x, w, np.ones(64), np.zeros(64), np.zeros(64), np.ones(64), "train")
    for name in ("new_running_mean", "new_running_var", "centred", "cov_w", "factor", "istd"):
        array = getattr(cache, name)
        assert array.size < 128 * 64 and not np.shares_memory(array, out), name


def test_input_block_on_collinear_input_with_a_tiny_epsilon_stays_finite():
    # the emotion columns are multiples of t, so the input's covariance has
    # rank 1; W's first 8 columns are moved into its null space, where the
    # variance taken from the covariance rounds to about +-1e-16, below zero
    # in some, and the other 8 stay random. The clamp keeps NaN out of the
    # forward, and the clipped C W keeps the gradients of the columns at
    # variance 0 finite
    t = rand((32,), 160)
    x = t[:, None] * np.array([1.0, 3.0, -0.7, 1.3])
    w = rand((4, 16), 161)
    w[:, :8] -= np.outer(x[0], x[0] @ w[:, :8]) / (x[0] @ x[0])
    centred = x - x.mean(axis=0)
    assert (((centred.T @ centred @ w) * w).sum(axis=0) < 0).any()  # the clamp is needed
    g, s = rand((16,), 162), rand((16,), 163)
    out, cache = input_block_forward(x, w, g, s, np.zeros(16), np.ones(16), "train", eps=1e-300)
    adj = np.stack([rand((32, 16), 164), rand((32, 16), 165)])
    grads = input_block_backward(cache, adj)
    for name, array in [("output", out), ("dw", grads[0]), ("d_scale", grads[1]), ("d_shift", grads[2])]:
        assert np.isfinite(array).all(), name
