"""The multi-task network: shared trunk, regression and classification heads.

The input block is the scalar time proxy followed by the three emotion
features, passed through hidden blocks of
affine -> batch-norm -> swish -> dropout. Hidden affines carry no bias: the
batch-norm shift directly behind them plays that role, and a bias there
would have an identically-zero training gradient (batch centering removes
it), which would poison finite-difference gradient validation. The
regression head is a dual-channel affine with bias, so it emits y and
dy/dt. The classification head computes only the value z = x @ w + b, a
logit: no loss reads dz/dt, so it carries no tangent and keeps no cache of
its own; its backward reads its input from the regression head's cache.
The objective takes its BCE on z and hands the adjoint d(loss)/dz straight
back to that head, so a confidently wrong logit still gets its full
gradient. The probability sigmoid(z) is reported for thresholding and
metrics only.

The time column's tangent is seeded to 1 and the emotion columns' to 0, so
the dual channel carries d(EDA)/dt with respect to the (normalized) time
proxy of each sample.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import DualBatch
from .data import Normalizer
from .errors import (
    CheckpointReadError,
    CheckpointSchemaError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    NumericError,
)
from .objective import PhysicsParams
from .rng import Pcg32

CHECKPOINT_VERSION = "1"
INPUT_WIDTH = 4  # 1 time column + 3 emotion features
_INPUT_TANGENT = np.array([1.0, 0.0, 0.0, 0.0])  # d(input)/dt per column


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    dropout: float = 0.1
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9
    seed: int = 1
    threshold: float = 0.5
    lambda_floor: float = 1e-3
    lambda_frozen: bool = False

    def validate(self) -> None:
        """Reject out-of-range values; NaN and infinite ones fail every range."""
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ConfigError("hidden widths must be a nonempty list of counts >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("classification threshold must lie in (0, 1)")
        if not 0.0 <= self.lambda_floor < np.inf:
            raise ConfigError("lambda floor must be finite and >= 0")
        if not 0.0 < self.bn_eps < np.inf:
            raise ConfigError("batch-norm epsilon must be finite and positive")
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ConfigError("batch-norm momentum must lie in [0, 1)")


@dataclass
class HiddenLayer:
    w: np.ndarray
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_running_mean: np.ndarray
    bn_running_var: np.ndarray


@dataclass
class Head:
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelParams:
    layers: list[HiddenLayer]
    head_reg: Head
    head_cls: Head
    physics: PhysicsParams
    normalizer: Normalizer | None
    config: ModelConfig

    def copy(self) -> "ModelParams":
        return ModelParams(
            [
                HiddenLayer(
                    l.w.copy(),
                    l.bn_scale.copy(),
                    l.bn_shift.copy(),
                    l.bn_running_mean.copy(),
                    l.bn_running_var.copy(),
                )
                for l in self.layers
            ],
            Head(self.head_reg.w.copy(), self.head_reg.b.copy()),
            Head(self.head_cls.w.copy(), self.head_cls.b.copy()),
            self.physics.copy(),
            self.normalizer,
            self.config,
        )


@dataclass
class LayerCaches:
    affine: ad.AffineCache
    bn: ad.BatchNormCache
    swish: ad.SwishCache
    dropout: ad.DropoutCache


@dataclass
class ForwardCaches:
    layers: list[LayerCaches]
    reg_affine: ad.AffineCache  # also holds the classification head's input


@dataclass
class Predictions:
    y_eda: np.ndarray
    dydt: np.ndarray
    z_emotion: np.ndarray  # classification logit
    p_emotion: np.ndarray  # sigmoid(z_emotion)
    caches: ForwardCaches


def init_model(config: ModelConfig, normalizer: Normalizer | None = None) -> ModelParams:
    """Glorot-uniform weights, unit batch-norm, softplus(rho) = 0.1."""
    config.validate()
    rng = Pcg32(config.seed).derive("init")
    widths = [INPUT_WIDTH] + list(config.hidden)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, fan_in * fan_out).reshape(fan_in, fan_out)
        layers.append(
            HiddenLayer(w, np.ones(fan_out), np.zeros(fan_out), np.zeros(fan_out), np.ones(fan_out))
        )
    top = widths[-1]
    limit = np.sqrt(6.0 / (top + 1))
    head_reg = Head(rng.uniform(-limit, limit, top).reshape(top, 1), np.zeros(1))
    head_cls = Head(rng.uniform(-limit, limit, top).reshape(top, 1), np.zeros(1))
    return ModelParams(layers, head_reg, head_cls, PhysicsParams(), normalizer, config)


def draw_dropout_masks(params: ModelParams, n: int, rng: Pcg32) -> list[np.ndarray]:
    """Materialize one mask per hidden layer, as a train-mode forward would."""
    rate = params.config.dropout
    return [ad.make_dropout_mask((n, l.w.shape[1]), rate, rng) for l in params.layers]


def forward(
    params: ModelParams,
    t: np.ndarray,
    e: np.ndarray,
    mode: str = "eval",
    rng: Pcg32 | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> Predictions:
    """Dual-channel forward pass over a normalized batch.

    Train mode uses batch statistics and fresh dropout masks (from ``rng``
    unless ``dropout_masks`` pins them); eval mode uses running statistics,
    disables dropout and never consumes randomness.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if t.ndim != 1 or t.size == 0 or e.shape != (t.size, 3):
        raise ContractError(f"need t of shape (n,) and e of shape (n, 3), got {t.shape}, {e.shape}")
    cfg = params.config
    x = DualBatch(np.column_stack([t, e]), np.tile(_INPUT_TANGENT, (t.size, 1)))
    # divergence is reported through the explicit per-layer checks below;
    # numpy's warnings on the already-poisoned arithmetic are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layer_caches = []
        for i, layer in enumerate(params.layers):
            x, c_aff = ad.affine_forward(x, layer.w, np.zeros(layer.w.shape[1]))
            x, c_bn = ad.batchnorm_forward(
                x,
                layer.bn_scale,
                layer.bn_shift,
                layer.bn_running_mean,
                layer.bn_running_var,
                mode,
                eps=cfg.bn_eps,
                momentum=cfg.bn_momentum,
            )
            x, c_sw = ad.swish_forward(x)
            mask = dropout_masks[i] if dropout_masks is not None else None
            x, c_do = ad.dropout_forward(x, cfg.dropout, mode, rng, mask)
            if not np.all(np.isfinite(x.value)) or not np.all(np.isfinite(x.tangent)):
                raise NumericError(f"non-finite activations after hidden layer {i}")
            layer_caches.append(LayerCaches(c_aff, c_bn, c_sw, c_do))

        y_out, reg_cache = ad.affine_forward(x, params.head_reg.w, params.head_reg.b)
        z = (x.value @ params.head_cls.w + params.head_cls.b)[:, 0]
        if not np.all(np.isfinite(y_out.value)) or not np.all(np.isfinite(y_out.tangent)):
            raise NumericError("non-finite activations in the regression head")

    caches = ForwardCaches(layer_caches, reg_cache)
    return Predictions(y_out.value[:, 0], y_out.tangent[:, 0], z, ad.sigmoid(z), caches)


def forward_batch(
    params: ModelParams,
    batch,
    mode: str = "eval",
    rng: Pcg32 | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> Predictions:
    """Forward over a (normalized) Dataset."""
    return forward(params, batch.t, batch.e, mode, rng, dropout_masks)


def backward(
    params: ModelParams,
    caches: ForwardCaches,
    adj_y_value: np.ndarray,
    adj_y_tangent: np.ndarray,
    adj_z_value: np.ndarray,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every network block.

    The loss is described by its adjoints on the three model outputs:
    d(loss)/d(y_eda), d(loss)/d(dy/dt) and d(loss)/d(z_emotion), the
    classification logit. Physics parameters are handled by the objective
    module, not here.
    """
    grads: dict[str, np.ndarray] = {}

    av, at, (dw_reg, db_reg) = ad.affine_backward(
        caches.reg_affine, adj_y_value[:, None], adj_y_tangent[:, None]
    )
    grads["head_reg.w"] = dw_reg
    grads["head_reg.b"] = db_reg

    adj_z = adj_z_value[:, None]
    grads["head_cls.w"] = caches.reg_affine.x_value.T @ adj_z
    grads["head_cls.b"] = adj_z.sum(axis=0)

    adj_v = av + adj_z @ params.head_cls.w.T
    adj_t = at
    for i in reversed(range(len(params.layers))):
        c = caches.layers[i]
        adj_v, adj_t, _ = ad.dropout_backward(c.dropout, adj_v, adj_t)
        adj_v, adj_t, _ = ad.swish_backward(c.swish, adj_v, adj_t)
        adj_v, adj_t, (d_scale, d_shift) = ad.batchnorm_backward(c.bn, adj_v, adj_t)
        grads[f"layer{i}.bn_scale"] = d_scale
        grads[f"layer{i}.bn_shift"] = d_shift
        adj_v, adj_t, (dw, _db) = ad.affine_backward(c.affine, adj_v, adj_t)
        grads[f"layer{i}.w"] = dw
    return grads


def commit_batchnorm(params: ModelParams, caches: ForwardCaches) -> None:
    """Adopt the running statistics produced by a train-mode forward."""
    for layer, c in zip(params.layers, caches.layers):
        if c.bn.new_running_mean is not None:
            layer.bn_running_mean = c.bn.new_running_mean
            layer.bn_running_var = c.bn.new_running_var


# ---------------------------------------------------------------------------
# trainable-block packing (drives Adam and the gradient checker)
# ---------------------------------------------------------------------------


def trainable_blocks(params: ModelParams) -> dict[str, np.ndarray]:
    blocks: dict[str, np.ndarray] = {}
    for i, layer in enumerate(params.layers):
        blocks[f"layer{i}.w"] = layer.w
        blocks[f"layer{i}.bn_scale"] = layer.bn_scale
        blocks[f"layer{i}.bn_shift"] = layer.bn_shift
    blocks["head_reg.w"] = params.head_reg.w
    blocks["head_reg.b"] = params.head_reg.b
    blocks["head_cls.w"] = params.head_cls.w
    blocks["head_cls.b"] = params.head_cls.b
    blocks["physics.alpha0"] = np.array([params.physics.alpha0])
    blocks["physics.beta"] = params.physics.beta.copy()
    blocks["physics.gamma"] = np.array([params.physics.gamma])
    if not params.config.lambda_frozen:
        blocks["physics.rho"] = np.array([params.physics.rho])
    return blocks


def with_blocks(params: ModelParams, blocks: dict[str, np.ndarray]) -> ModelParams:
    """New ModelParams with block values replaced (running stats shared)."""
    out = params.copy()
    for i, layer in enumerate(out.layers):
        layer.w = blocks[f"layer{i}.w"]
        layer.bn_scale = blocks[f"layer{i}.bn_scale"]
        layer.bn_shift = blocks[f"layer{i}.bn_shift"]
    out.head_reg.w = blocks["head_reg.w"]
    out.head_reg.b = blocks["head_reg.b"]
    out.head_cls.w = blocks["head_cls.w"]
    out.head_cls.b = blocks["head_cls.b"]
    out.physics.alpha0 = float(blocks["physics.alpha0"][0])
    out.physics.beta = np.asarray(blocks["physics.beta"], dtype=np.float64)
    out.physics.gamma = float(blocks["physics.gamma"][0])
    if "physics.rho" in blocks:
        out.physics.rho = float(blocks["physics.rho"][0])
    return out


# ---------------------------------------------------------------------------
# checkpoint serialization: versioned JSON, byte-deterministic
# ---------------------------------------------------------------------------


def _plain(value):
    """A dataclass as a JSON-ready dict of its fields, arrays as flat lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value.ravel().tolist() if isinstance(value, np.ndarray) else value


def checkpoint_text(params: ModelParams) -> str:
    """Canonical serialized form; identical models give identical bytes.

    It holds every field of ``params``, each layer's ``w_shape`` and the version.
    """
    doc = _plain(params)
    doc["format_version"] = CHECKPOINT_VERSION
    for entry, layer in zip(doc["layers"], params.layers):
        entry["w_shape"] = list(layer.w.shape)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _scalar(val, kind: str, where: str):
    """A stored scalar of annotation ``kind``: float (finite; ints widen), int or bool."""
    types = {"float": (int, float), "int": int, "bool": bool}[kind]
    ok = isinstance(val, types) and isinstance(val, bool) == (kind == "bool")
    if not ok or not math.isfinite(val):
        raise CheckpointSchemaError(f"field {where!r} must be a finite {kind}")
    return float(val) if kind == "float" else val


def _array(val, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A stored flat list as a finite array of ``shape``, its length checked first."""
    if not isinstance(val, list) or len(val) != math.prod(shape):
        raise CheckpointSchemaError(f"field {where!r} must be a list of {math.prod(shape)} numbers")
    return np.array([_scalar(v, "float", where) for v in val]).reshape(shape)


def _read(cls, entry, where: str, vector: int = 0, **shapes):
    """A ``cls`` from its stored fields, each read by its annotation: an
    ``np.ndarray`` at ``shapes[name]`` or ``(vector,)``, else ints or a scalar."""
    if not isinstance(entry, dict):
        raise CheckpointSchemaError(f"field {where!r} must be an object")
    values = {}
    for f in fields(cls):
        val, name = entry[f.name], f"{where}.{f.name}"
        if f.type == "np.ndarray":
            values[f.name] = _array(val, shapes.get(f.name, (vector,)), name)
        elif f.type == "list[int]":
            values[f.name] = [_scalar(v, "int", name) for v in val]
        else:
            values[f.name] = _scalar(val, f.type, name)
    return cls(**values)


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint, checking every field against the stored config.

    Each array must be finite and hold exactly as many numbers as the shape
    the config implies (widths ``[4] + hidden``), the config must pass
    ``ModelConfig.validate``, and a stored normalizer must be invertible
    (every ``input_std`` > 0, ``y_max`` > ``y_min``); any mismatch raises
    ``CheckpointSchemaError``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckpointReadError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointReadError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CheckpointSchemaError("missing format_version field")
    if doc["format_version"] != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {doc['format_version']!r}, expected {CHECKPOINT_VERSION!r}"
        )
    try:
        cfg = _read(ModelConfig, doc["config"], "config")
        cfg.validate()
        if len(doc["layers"]) != len(cfg.hidden):
            raise CheckpointSchemaError(f"config implies {len(cfg.hidden)} hidden layers")
        widths = [INPUT_WIDTH] + cfg.hidden
        layers = []
        for i, (entry, shape) in enumerate(zip(doc["layers"], zip(widths[:-1], widths[1:]))):
            layers.append(_read(HiddenLayer, entry, f"layers[{i}]", shape[1], w=shape))
            if entry["w_shape"] != list(shape):
                raise CheckpointSchemaError(f"field 'layers[{i}].w_shape' must be {list(shape)}")
        head_reg = _read(Head, doc["head_reg"], "head_reg", 1, w=(widths[-1], 1))
        head_cls = _read(Head, doc["head_cls"], "head_cls", 1, w=(widths[-1], 1))
        physics = _read(PhysicsParams, doc["physics"], "physics", 3)
        norm = doc["normalizer"]
        if norm is not None:
            norm = _read(Normalizer, norm, "normalizer", INPUT_WIDTH)
            if not np.all(norm.input_std > 0.0):
                raise CheckpointSchemaError("field 'normalizer.input_std' must be positive")
            if not norm.y_max > norm.y_min:
                raise CheckpointSchemaError("field 'normalizer.y_max' must exceed 'normalizer.y_min'")
    except (KeyError, TypeError, OverflowError, ConfigError) as exc:
        raise CheckpointSchemaError(f"malformed checkpoint field: {exc}") from exc
    return ModelParams(layers, head_reg, head_cls, physics, norm, cfg)
