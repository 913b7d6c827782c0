"""Model behavior: init, forward semantics, head sharing, checkpoint records."""

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edapinn.autodiff import softplus
from edapinn.data import Dataset, Normalizer, SynthSpec, fit_normalizer, synth_generate
from edapinn.errors import ConfigError
from edapinn.model import (
    CHECKPOINT_VERSION,
    ModelConfig,
    ModelParams,
    block_shapes,
    blocks,
    checkpoint_text,
    commit_batchnorm,
    forward,
    forward_batch,
    init_model,
    running_shapes,
    stack,
)
from edapinn.rng import Pcg32


def random_inputs(n, seed):
    rng = Pcg32(seed)
    return rng.normal(n), rng.normal(3 * n).reshape(n, 3)


def test_init_deterministic_and_shapes():
    cfg = ModelConfig(hidden=[64, 64], seed=4)
    a = init_model(cfg)
    b = init_model(cfg)
    assert a.views["layer0.w"].shape == (4, 64)
    assert a.views["layer1.w"].shape == (64, 64)
    assert a.views["head_reg.w"].shape == (64, 1)
    for i in range(2):
        assert np.array_equal(a.views[f"layer{i}.w"], b.views[f"layer{i}.w"])
    assert np.array_equal(a.views["head_cls.w"], b.views["head_cls.w"])


def test_initial_lambda_is_point_one():
    params = init_model(ModelConfig(seed=1))
    assert softplus(params.physics.rho) == pytest.approx(0.1, abs=1e-12)
    assert params.physics.alpha0 == 1.0
    assert np.array_equal(params.physics.beta, [0.1, 0.1, 0.1])
    assert params.physics.gamma == 1.0


def test_invalid_config_rejected():
    with pytest.raises(ConfigError):
        init_model(ModelConfig(hidden=[]))
    with pytest.raises(ConfigError):
        init_model(ModelConfig(dropout=1.0))
    with pytest.raises(ConfigError):
        init_model(ModelConfig(threshold=0.0))
    with pytest.raises(ConfigError):
        init_model(ModelConfig(lambda_floor=-0.1))
    with pytest.raises(ConfigError):
        init_model(ModelConfig(lambda_floor=float("nan")))
    with pytest.raises(ConfigError):
        init_model(ModelConfig(bn_eps=float("nan")))


def test_invalid_config_cannot_be_built():
    with pytest.raises(ConfigError, match="dropout rate"):
        dataclasses.replace(ModelConfig(), dropout=1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ModelConfig().dropout = 1.5


def test_zero_weight_network_outputs():
    params = init_model(ModelConfig(hidden=[8, 8], seed=2, dropout=0.0))
    for name in ("layer0.w", "layer1.w", "head_reg.w", "head_cls.w"):
        params.views[name][:] = 0.0
    t, e = random_inputs(12, 3)
    preds = forward(params, t, e, "eval")
    assert not np.any(preds.y_eda)
    assert not np.any(preds.dydt)
    assert np.allclose(preds.p_emotion, 0.5)


def test_dual_channel_matches_finite_difference_in_t():
    params = init_model(ModelConfig(hidden=[32, 32], seed=5, dropout=0.0))
    t, e = random_inputs(64, 6)
    warm = forward(params, t, e, "train")  # populate running stats
    commit_batchnorm(params, warm.caches)
    preds = forward(params, t, e, "eval")
    h = 1e-6
    fd = (forward(params, t + h, e, "eval").y_eda - forward(params, t - h, e, "eval").y_eda) / (2 * h)
    rel = np.abs(preds.dydt - fd) / np.maximum.reduce([np.abs(preds.dydt), np.abs(fd), np.full(64, 1e-8)])
    assert rel.max() <= 1e-5


def test_head_sharing_isolation():
    cfg = ModelConfig(hidden=[8, 8], seed=7, dropout=0.0)
    t, e = random_inputs(10, 8)
    base = forward(init_model(cfg), t, e, "eval")
    bumped = init_model(cfg)
    bumped.views["head_reg.w"][...] += 0.37
    after = forward(bumped, t, e, "eval")
    assert np.array_equal(after.p_emotion, base.p_emotion)
    assert not np.array_equal(after.y_eda, base.y_eda)
    bumped2 = init_model(cfg)
    bumped2.views["head_cls.w"][...] += 0.37
    after2 = forward(bumped2, t, e, "eval")
    assert np.array_equal(after2.y_eda, base.y_eda)
    assert np.array_equal(after2.dydt, base.dydt)
    assert not np.array_equal(after2.p_emotion, base.p_emotion)


def test_eval_forward_is_pure():
    params = init_model(ModelConfig(seed=9))
    t, e = random_inputs(16, 10)
    a = forward(params, t, e, "eval")
    b = forward(params, t, e, "eval")
    assert np.array_equal(a.y_eda, b.y_eda)
    assert np.array_equal(a.dydt, b.dydt)
    assert np.array_equal(a.p_emotion, b.p_emotion)


def test_eval_forward_keeps_no_caches_and_has_no_backward():
    import tracemalloc

    from edapinn.errors import ContractError
    from edapinn.model import backward
    from edapinn.objective import loss_gradients

    params = init_model(ModelConfig(seed=9))  # two hidden layers of 64
    t, e = random_inputs(400, 10)
    forward(params, t, e, "eval")  # numpy's one-time allocations out of the way
    tracemalloc.start()
    try:
        preds = forward(params, t, e, "eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert preds.caches is None
    # one (2, 400, 64) activation is 409.6 kB; keeping every layer's backward
    # caches peaked at 7.6 of them, a layer's working set alone at 5.2
    assert peak <= 6 * (2 * 400 * 64 * 8)
    batch = Dataset(t, e, np.zeros(400), np.zeros(400, dtype=np.int64))
    net = stack([params], 1)
    preds = forward(net, t, e, "eval")
    _, lg = loss_gradients(preds, batch, net, ["full"])
    with pytest.raises(ContractError):
        backward(net, preds.caches, lg)


def test_train_mode_dropout_needs_rng():
    params = init_model(ModelConfig(seed=13))
    t, e = random_inputs(8, 14)
    from edapinn.errors import ContractError

    with pytest.raises(ContractError):
        forward(params, t, e, "train")


def test_blocks_pack_unpack_roundtrip():
    params = init_model(ModelConfig(hidden=[8, 4], seed=15))
    views = blocks(params.theta, params.config)
    assert list(views) == list(block_shapes(params.config))
    assert [v.shape for v in views.values()] == list(block_shapes(params.config).values())
    assert params.theta.size == sum(v.size for v in views.values())
    assert np.shares_memory(views["layer1.bn_shift"], params.views["layer1.bn_shift"])
    assert np.shares_memory(views["physics.rho"], params.physics.rho)
    running = [params.views[name] for name in running_shapes(params.config)]
    assert all(np.shares_memory(view, params.running) for view in running)
    assert params.running.size == sum(v.size for v in running)
    # construction copies nothing; a model built on copies owns a new theta
    assert ModelParams(params.theta, params.running, None, params.config).views["layer0.w"].base is params.theta
    rebuilt = ModelParams(params.theta.copy(), params.running.copy(), None, params.config)
    assert np.array_equal(rebuilt.theta, params.theta)
    assert not np.shares_memory(rebuilt.theta, params.theta)
    t, e = random_inputs(6, 16)
    assert np.array_equal(forward(params, t, e, "eval").y_eda, forward(rebuilt, t, e, "eval").y_eda)
    # a frozen lambda keeps rho in theta; only its gradient is zero
    frozen = ModelConfig(hidden=[8, 4], seed=15, lambda_frozen=True)
    assert "physics.rho" in block_shapes(frozen)


def test_writes_through_views_reach_theta_and_rebinding_raises():
    params = init_model(ModelConfig(hidden=[8, 4], seed=15))
    params.views["head_reg.w"][2, 0] = 7.5
    params.physics.rho[...] = -3.0
    params.physics.beta[1] = 0.25
    params.views["layer1.bn_running_var"][3] = 2.5
    views = blocks(params.theta, params.config)
    assert views["head_reg.w"][2, 0] == 7.5
    assert views["physics.rho"] == -3.0 and params.physics.lambda_eff() == softplus(-3.0)
    assert views["physics.beta"][1] == 0.25
    assert params.running[8 + 8 + 4 + 3] == 2.5  # layer0's mean and var, then layer1's mean
    params.theta[:] = 0.5
    assert np.all(params.views["layer0.w"] == 0.5) and params.physics.alpha0 == 0.5
    with pytest.raises(TypeError):
        params.views["head_reg.w"] = np.zeros((4, 1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.physics.rho = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.running = np.zeros_like(params.running)
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.views = {}


def test_unpickled_model_keeps_its_parts_on_theta():
    norm = fit_normalizer(synth_generate(SynthSpec(n=50, seed=3))[0])
    params = init_model(ModelConfig(hidden=[8, 4], seed=15), norm)
    copy = pickle.loads(pickle.dumps(params))
    assert checkpoint_text(copy) == checkpoint_text(params)
    copy.views["layer0.w"][0, 0] = 7.5
    copy.physics.rho[...] = -3.0
    copy.views["layer0.bn_running_mean"][0] = 4.5
    assert copy.theta[0] == 7.5
    assert blocks(copy.theta, copy.config)["physics.rho"] == -3.0
    assert copy.running[0] == 4.5
    assert params.theta[0] != 7.5  # the copy owns a new theta
    assert params.running[0] != 4.5  # and new running statistics


def test_bn_momentum_sets_the_committed_running_statistics():
    for m in (0.0, 0.9):
        params = init_model(ModelConfig(hidden=[8], seed=3, dropout=0.0, bn_momentum=m))
        mean, var = params.views["layer0.bn_running_mean"], params.views["layer0.bn_running_var"]
        mean[...] = np.linspace(-1.0, 1.0, 8)
        var[...] = np.linspace(0.5, 2.0, 8)
        old_mean, old_var = mean.copy(), var.copy()
        running = params.running
        t, e = random_inputs(32, 4)
        commit_batchnorm(params, forward(params, t, e, "train").caches)
        x = np.column_stack([t, e]) @ params.views["layer0.w"] + np.zeros(8)
        assert params.running is running and params.views["layer0.bn_running_mean"] is mean  # in place
        assert np.array_equal(mean, m * old_mean + (1.0 - m) * x.mean(axis=0))
        assert np.array_equal(var, m * old_var + (1.0 - m) * x.var(axis=0))


def test_bn_eps_is_the_batch_norm_epsilon_of_a_train_forward():
    params = init_model(ModelConfig(hidden=[8], seed=3, dropout=0.0, bn_eps=0.5))
    t, e = random_inputs(32, 4)
    bn = forward(params, t, e, "train").caches.layers[0].bn
    x = np.column_stack([t, e]) @ params.views["layer0.w"]
    expected = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + 0.5)
    np.testing.assert_allclose(bn.x_hat, expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def exact(stored, array):
    """A checkpoint's stored numbers equal ``array``'s, bit for bit."""
    assert np.array(stored, dtype=np.float64).tobytes() == np.ravel(array).tobytes()


def test_checkpoint_roundtrip_fresh_model():
    data = Dataset(*random_inputs(30, 17), Pcg32(18).uniform(0, 1, 30), np.zeros(30, dtype=np.int64))
    data.label[:15] = 1
    norm = fit_normalizer(data)
    params = init_model(ModelConfig(hidden=[8, 8], seed=19), norm)
    doc = json.loads(checkpoint_text(params))
    assert len(doc["layers"]) == 2
    for i, entry in enumerate(doc["layers"]):
        exact(entry["w"], params.views[f"layer{i}.w"])
        exact(entry["bn_running_var"], params.views[f"layer{i}.bn_running_var"])
    exact(doc["physics"]["rho"], params.physics.rho)
    exact(doc["normalizer"]["input_mean"], params.normalizer.input_mean)
    assert ModelConfig(**doc["config"]) == params.config


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def checkpointed_models(draw):
    cfg = ModelConfig(
        hidden=draw(st.lists(st.integers(1, 16), min_size=1, max_size=3)),
        lambda_frozen=draw(st.booleans()),
    )
    norm = None
    if draw(st.booleans()):
        y_min, y_max = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
        std = arrays(np.float64, 4, elements=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
        norm = Normalizer(draw(arrays(np.float64, 4, elements=FINITE)), draw(std), y_min, y_max)
    params = init_model(cfg, norm)
    params.theta[:] = draw(arrays(np.float64, params.theta.size, elements=FINITE))
    for i, width in enumerate(cfg.hidden):
        params.views[f"layer{i}.bn_running_mean"][:] = draw(arrays(np.float64, width, elements=FINITE))
        params.views[f"layer{i}.bn_running_var"][:] = draw(arrays(np.float64, width, elements=FINITE))
    return params


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(checkpointed_models())
def test_any_checkpoint_round_trips_bitwise(params):
    """The record loses nothing: every block of ``theta``, every running
    statistic, the normalizer and the config read back bit for bit."""
    doc = json.loads(checkpoint_text(params))
    assert doc["format_version"] == CHECKPOINT_VERSION
    for name, view in blocks(params.theta, params.config).items():
        part, key = name.split(".")
        exact((doc["layers"][int(part[len("layer"):])] if part.startswith("layer") else doc[part])[key], view)
    assert len(doc["layers"]) == len(params.config.hidden)
    for i, entry in enumerate(doc["layers"]):
        exact(entry["bn_running_mean"], params.views[f"layer{i}.bn_running_mean"])
        exact(entry["bn_running_var"], params.views[f"layer{i}.bn_running_var"])
        assert entry["w_shape"] == list(params.views[f"layer{i}.w"].shape)
    if params.normalizer is None:
        assert doc["normalizer"] is None
    else:
        for f in dataclasses.fields(Normalizer):
            exact(doc["normalizer"][f.name], getattr(params.normalizer, f.name))
    assert ModelConfig(**doc["config"]) == params.config


def test_checkpoint_byte_determinism(tmp_path):
    params = init_model(ModelConfig(seed=23))
    assert checkpoint_text(params) == checkpoint_text(init_model(ModelConfig(seed=23)))
    # pins the bytes of format "1"
    small = init_model(ModelConfig(hidden=[8, 8], seed=23))
    digest = hashlib.sha256(checkpoint_text(small).encode()).hexdigest()
    assert digest == "ba6b0e3d5a8efb0eba97943ede1b42f7261e22c2b586d0198967cc240996237c"
    small = dataclasses.replace(small, normalizer=fit_normalizer(synth_generate(SynthSpec(n=50, seed=3))[0]))
    digest = hashlib.sha256(checkpoint_text(small).encode()).hexdigest()
    assert digest == "a2b6291dc4c70be9be03a4321d0fe8b3dd8570d6f817bfc35486ffd32dda4c16"


def test_nonfinite_activation_names_layer():
    from edapinn.errors import NumericError

    params = init_model(ModelConfig(hidden=[8, 8], seed=27, dropout=0.0))
    params.views["layer1.w"][0, 0] = np.inf
    t, e = random_inputs(6, 28)
    with pytest.raises(NumericError) as exc:
        forward(params, t, e, "eval")
    assert "layer 1" in str(exc.value)
