"""Model behavior: init, forward semantics, head sharing, checkpoints."""

import hashlib
import json

import numpy as np
import pytest

from edapinn.autodiff import softplus
from edapinn.data import Dataset, SynthSpec, fit_normalizer, synth_generate
from edapinn.errors import CheckpointSchemaError, CheckpointVersionError, ConfigError
from edapinn.model import (
    ModelConfig,
    checkpoint_text,
    commit_batchnorm,
    forward,
    forward_batch,
    init_model,
    load_checkpoint,
    trainable_blocks,
    with_blocks,
)
from edapinn.rng import Pcg32


def random_inputs(n, seed):
    rng = Pcg32(seed)
    return rng.normal(n), rng.normal(3 * n).reshape(n, 3)


def test_init_deterministic_and_shapes():
    cfg = ModelConfig(hidden=[64, 64], seed=4)
    a = init_model(cfg)
    b = init_model(cfg)
    assert a.layers[0].w.shape == (4, 64)
    assert a.layers[1].w.shape == (64, 64)
    assert a.head_reg.w.shape == (64, 1)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)
    assert np.array_equal(a.head_cls.w, b.head_cls.w)


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


def test_zero_weight_network_outputs():
    params = init_model(ModelConfig(hidden=[8, 8], seed=2, dropout=0.0))
    for layer in params.layers:
        layer.w[:] = 0.0
    params.head_reg.w[:] = 0.0
    params.head_cls.w[:] = 0.0
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
    params = init_model(ModelConfig(hidden=[8, 8], seed=7, dropout=0.0))
    t, e = random_inputs(10, 8)
    base = forward(params, t, e, "eval")
    bumped = params.copy()
    bumped.head_reg.w = bumped.head_reg.w + 0.37
    after = forward(bumped, t, e, "eval")
    assert np.array_equal(after.p_emotion, base.p_emotion)
    assert not np.array_equal(after.y_eda, base.y_eda)
    bumped2 = params.copy()
    bumped2.head_cls.w = bumped2.head_cls.w + 0.37
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


def test_train_mode_dropout_needs_rng():
    params = init_model(ModelConfig(seed=13))
    t, e = random_inputs(8, 14)
    from edapinn.errors import ContractError

    with pytest.raises(ContractError):
        forward(params, t, e, "train")


def test_blocks_pack_unpack_roundtrip():
    params = init_model(ModelConfig(hidden=[8, 4], seed=15))
    blocks = trainable_blocks(params)
    assert "physics.rho" in blocks
    rebuilt = with_blocks(params, blocks)
    t, e = random_inputs(6, 16)
    a = forward(params, t, e, "eval")
    b = forward(rebuilt, t, e, "eval")
    assert np.array_equal(a.y_eda, b.y_eda)
    frozen = init_model(ModelConfig(hidden=[8, 4], seed=15, lambda_frozen=True))
    assert "physics.rho" not in trainable_blocks(frozen)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_fresh_model(tmp_path):
    data = Dataset(*random_inputs(30, 17), Pcg32(18).uniform(0, 1, 30), np.zeros(30, dtype=np.int64))
    data.label[:15] = 1
    norm = fit_normalizer(data)
    params = init_model(ModelConfig(hidden=[8, 8], seed=19), norm)
    path = tmp_path / "m.ckpt.json"
    path.write_text(checkpoint_text(params))
    loaded = load_checkpoint(path)
    for la, lb in zip(params.layers, loaded.layers):
        assert np.array_equal(la.w, lb.w)
        assert np.array_equal(la.bn_running_var, lb.bn_running_var)
    assert loaded.physics.rho == params.physics.rho
    assert np.array_equal(loaded.normalizer.input_mean, params.normalizer.input_mean)
    assert loaded.config == params.config


def test_checkpoint_roundtrip_preserves_predictions_bitwise(tmp_path):
    norm = fit_normalizer(synth_generate(SynthSpec(n=50, seed=20))[0])
    params = init_model(ModelConfig(hidden=[16, 16], seed=21, dropout=0.0), norm)
    t, e = random_inputs(40, 22)
    warm = forward(params, t, e, "train")
    commit_batchnorm(params, warm.caches)
    path = tmp_path / "m.ckpt.json"
    path.write_text(checkpoint_text(params))
    loaded = load_checkpoint(path)
    assert checkpoint_text(loaded) == path.read_text()
    a = forward(params, t, e, "eval")
    b = forward(loaded, t, e, "eval")
    assert np.array_equal(a.y_eda, b.y_eda)
    assert np.array_equal(a.dydt, b.dydt)
    assert np.array_equal(a.p_emotion, b.p_emotion)


def test_checkpoint_byte_determinism(tmp_path):
    params = init_model(ModelConfig(seed=23))
    assert checkpoint_text(params) == checkpoint_text(init_model(ModelConfig(seed=23)))
    # pins the bytes of format "1"
    small = init_model(ModelConfig(hidden=[8, 8], seed=23))
    digest = hashlib.sha256(checkpoint_text(small).encode()).hexdigest()
    assert digest == "ba6b0e3d5a8efb0eba97943ede1b42f7261e22c2b586d0198967cc240996237c"
    small.normalizer = fit_normalizer(synth_generate(SynthSpec(n=50, seed=3))[0])
    digest = hashlib.sha256(checkpoint_text(small).encode()).hexdigest()
    assert digest == "a2b6291dc4c70be9be03a4321d0fe8b3dd8570d6f817bfc35486ffd32dda4c16"


def test_checkpoint_version_and_schema_errors(tmp_path):
    params = init_model(ModelConfig(seed=25))
    path = tmp_path / "m.ckpt.json"
    path.write_text(checkpoint_text(params))
    # older version-1 files carry the retired residual_on_raw_features key;
    # the loader ignores keys it does not read
    old = json.loads(path.read_text())
    old["config"]["residual_on_raw_features"] = False
    path.write_text(json.dumps(old))
    assert load_checkpoint(path).config == params.config
    doc = path.read_text().replace('"format_version": "1"', '"format_version": "0"')
    path.write_text(doc)
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)
    path.write_text('{"format_version": "1", "config": {}}')
    with pytest.raises(CheckpointSchemaError):
        load_checkpoint(path)
    from edapinn.errors import CheckpointReadError

    path.write_text("not json at all{{{")
    with pytest.raises(CheckpointReadError):
        load_checkpoint(path)
    with pytest.raises(CheckpointReadError):
        load_checkpoint(tmp_path / "missing.json")


_NORMALIZER = {"input_mean": [0.0] * 4, "input_std": [1.0] * 4, "y_min": 0.2, "y_max": 1.5}


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: doc["layers"][0]["bn_scale"].pop(),
        lambda doc: _set(doc, ["physics", "alpha0"], float("nan")),
        lambda doc: _set(doc, ["head_cls", "b"], []),
        lambda doc: doc["layers"].pop(),
        lambda doc: _set(doc, ["physics", "beta"], [0.1, 0.1]),
        lambda doc: _set(doc, ["config", "dropout"], 2.0),
        lambda doc: _set(doc, ["config", "lambda_floor"], float("nan")),
        lambda doc: _set(doc, ["config", "hidden"], [1000000, 1000000]),
        lambda doc: _set(doc, ["config", "hidden"], [1000000, 8]),
        lambda doc: _set(doc, ["normalizer"], dict(_NORMALIZER, input_std=[1.0, 0.0, 1.0, 1.0])),
        lambda doc: _set(doc, ["normalizer"], dict(_NORMALIZER, y_max=0.2)),
    ],
    ids=[
        "bn_scale_truncated", "alpha0_nan", "head_cls_b_empty", "layer_dropped", "beta_2_vector",
        "dropout_2", "lambda_floor_nan", "hidden_1e6_1e6", "hidden_1e6_8",
        "normalizer_std_zero", "normalizer_y_flat",
    ],
)
def test_corrupt_checkpoint_raises_schema_error(tmp_path, corrupt):
    doc = json.loads(checkpoint_text(init_model(ModelConfig(hidden=[8, 8], seed=29))))
    corrupt(doc)
    path = tmp_path / "m.ckpt.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointSchemaError):
        load_checkpoint(path)


def test_nonfinite_activation_names_layer():
    from edapinn.errors import NumericError

    params = init_model(ModelConfig(hidden=[8, 8], seed=27, dropout=0.0))
    params.layers[1].w[0, 0] = np.inf
    t, e = random_inputs(6, 28)
    with pytest.raises(NumericError) as exc:
        forward(params, t, e, "eval")
    assert "layer 1" in str(exc.value)
