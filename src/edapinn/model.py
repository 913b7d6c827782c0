"""The multi-task network: shared trunk, regression and classification heads.

The input block is the scalar time proxy followed by the three emotion
features, passed through hidden blocks of
affine -> batch-norm -> swish -> dropout. Hidden affines carry no bias: the
batch-norm shift directly behind them plays that role, and a bias there
would have an identically-zero training gradient (batch centering removes
it), which would poison finite-difference gradient validation. The
regression head is the dual-channel affine x @ w plus its own bias, added
here, so it emits y and dy/dt (the bias has no tangent); ``backward`` takes
that bias's gradient as the sum of its adjoint. The classification head
computes only the value z = x @ w + b, a
logit: no loss reads dz/dt, so it carries no tangent and keeps no cache of
its own; its backward reads its input from the regression head's cache.
The objective takes its BCE on z and hands the adjoint d(loss)/dz straight
back to that head, so a confidently wrong logit still gets its full
gradient. The probability sigmoid(z) is reported for thresholding and
metrics only.

The time column's tangent is seeded to 1 and the emotion columns' to 0, so
the dual channel carries d(EDA)/dt with respect to the (normalized) time
proxy of each sample.

A network's numbers are two vectors, ``theta`` (trainable, laid out by
``block_shapes``) and ``running`` (batch-norm running statistics, laid out
by ``running_shapes``). Every part is named once, ``layerI.key`` or
``head_reg``/``head_cls``/``physics`` then the key; ``ModelParams.views``
holds a view of each, ``blocks`` names a gradient's parts alike, and every
function here reads and writes the parts by those names.

One ``forward`` and one ``backward`` serve a single network, which
evaluation runs, and the stack of networks that training and the gradient
checker run (``stack``): F folds of V variants of one config, ``theta``
of shape ``(F, V, P)`` and ``running`` of shape ``(F, V, R)``, so every view
carries the leading axes. Its batch holds one batch per fold, ``t`` of shape
``(F, 1, n)``, so the input is ``(F, 1, 2, n, 4)`` and broadcasts over the
variants; each fold draws its own dropout masks from its own stream,
``(F, 1, n, width)``, and the outputs are ``(F, V, n)``. A slice of a
stack's folds, ``ModelParams(p.theta[s], p.running[s], normalizer,
config)``, is a stack on a view of its memory, which training steps on a
batch that only those folds share.

A checkpoint (``checkpoint_text``) is a write-only record of one network:
versioned JSON of every part, the normalizer and the config, identical for
identical models.

Only a train-mode forward has a backward: an eval-mode forward keeps no
caches, so it holds no more than a layer's activations at a time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields, is_dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .data import Normalizer
from .errors import ConfigError, ContractError, NumericError
from .objective import LossGrads, PhysicsParams
from .rng import Pcg32

CHECKPOINT_VERSION = "1"
INPUT_WIDTH = 4  # 1 time column + 3 emotion features
_INPUT_TANGENT = np.array([1.0, 0.0, 0.0, 0.0])  # d(input)/dt per column


@dataclass(frozen=True)
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [64, 64])
    dropout: float = 0.1
    bn_eps: float = 1e-5
    bn_momentum: float = 0.9
    seed: int = 1
    threshold: float = 0.5
    lambda_floor: float = 1e-3
    lambda_frozen: bool = False

    def __post_init__(self):
        """Reject out-of-range values; NaN and infinite ones fail every range."""
        if not self.hidden or any(w < 1 for w in self.hidden):
            raise ConfigError("hidden widths must be a nonempty list of counts >= 1", "hidden")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout rate must lie in [0, 1)", "dropout")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("classification threshold must lie in (0, 1)", "threshold")
        if not 0.0 <= self.lambda_floor < np.inf:
            raise ConfigError("lambda floor must be finite and >= 0", "lambda_floor")
        if not 0.0 < self.bn_eps < np.inf:
            raise ConfigError("batch-norm epsilon must be finite and positive", "bn_eps")
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ConfigError("batch-norm momentum must lie in [0, 1)", "bn_momentum")


def block_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every trainable block, in their order within ``theta``.

    This is the one list of what training updates: each hidden layer's
    weights and batch-norm scale and shift, both heads' weights and biases,
    then the physics parameters (alpha0, gamma and rho are scalars).
    """
    widths = [INPUT_WIDTH] + list(config.hidden)
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        shapes[f"layer{i}.w"] = (fan_in, fan_out)
        shapes[f"layer{i}.bn_scale"] = shapes[f"layer{i}.bn_shift"] = (fan_out,)
    for head in ("head_reg", "head_cls"):
        shapes[f"{head}.w"] = (widths[-1], 1)
        shapes[f"{head}.b"] = (1,)
    shapes.update({"physics.alpha0": (), "physics.beta": (3,), "physics.gamma": (), "physics.rho": ()})
    return shapes


def running_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every batch-norm running statistic, in their order within ``running``."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, width in enumerate(config.hidden):
        shapes[f"layer{i}.bn_running_mean"] = shapes[f"layer{i}.bn_running_var"] = (width,)
    return shapes


def _views(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Named views of ``vector``, laid out by ``shapes`` along its last axis;
    those of an ``(M, N)`` array have shape ``(M,) + shape``."""
    views, start, models = {}, 0, vector.shape[:-1]
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vector[..., start : start + size].reshape(models + shape)
        start += size
    return views


def blocks(vector: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Named views of ``vector``, a parameter or gradient vector laid out as
    ``theta``; those of a stack's ``(M, P)`` array have shape ``(M,) + shape``."""
    return _views(vector, block_shapes(config))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """The numbers of one network, or of a stack of networks (see ``stack``).

    ``theta`` holds the trainable numbers, laid out by ``block_shapes``, and
    ``running`` the batch-norm running statistics, laid out by
    ``running_shapes``; in a stack both carry the same leading model axes.
    Construction copies neither. ``views`` maps every part's name to a view
    of one of them, and ``physics`` is built on the physics views (alpha0,
    gamma and rho 0-d ones): write through a view in place. The mapping is
    read-only and rebinding a field raises, so no part can come loose from
    its vector.
    """

    theta: np.ndarray
    running: np.ndarray
    normalizer: Normalizer | None
    config: ModelConfig
    views: Mapping[str, np.ndarray] = field(init=False, repr=False)
    physics: PhysicsParams = field(init=False, repr=False)

    def __post_init__(self):
        views = {**blocks(self.theta, self.config), **_views(self.running, running_shapes(self.config))}
        object.__setattr__(self, "views", MappingProxyType(views))
        physics = PhysicsParams(*(views[f"physics.{f.name}"] for f in fields(PhysicsParams)))
        object.__setattr__(self, "physics", physics)

    def __reduce__(self):
        # rebuilt through the constructor, so the views sit on the new arrays;
        # by default they would unpickle as detached copies
        return ModelParams, (self.theta, self.running, self.normalizer, self.config)


def stack(params: Sequence[ModelParams], models: int) -> ModelParams:
    """``models`` copies of each of ``params``, models of one config but for
    the seed (one per fold, say), as one stack: ``theta`` of shape
    ``(len(params), models, P)`` and ``running`` likewise.

    What ``forward`` and the objective read is the first model's config; the
    caller keeps each row's own config and normalizer.
    """
    theta, running = (
        np.repeat(np.stack([getattr(p, name) for p in params])[:, None], models, axis=1)
        for name in ("theta", "running")
    )
    return ModelParams(theta, running, params[0].normalizer, params[0].config)


class LayerCaches(NamedTuple):
    affine: ad.AffineCache
    bn: ad.BatchNormCache
    swish: ad.SwishCache
    dropout_mask: np.ndarray | None  # None when dropout was off


@dataclass
class ForwardCaches:
    """What one ``backward`` needs, which it spends, and apart from that the
    batch-norm running statistics of a train-mode forward, one (mean, var)
    pair per layer (none in eval mode), for ``commit_batchnorm``."""

    layers: list[LayerCaches]
    reg_affine: ad.AffineCache | None  # also holds the classification head's input
    running: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class Predictions:
    """Outputs of shape ``(n,)``, or the stack's leading axes then ``n``."""

    y_eda: np.ndarray
    dydt: np.ndarray
    z_emotion: np.ndarray  # classification logit
    p_emotion: np.ndarray  # sigmoid(z_emotion)
    caches: ForwardCaches | None  # None in eval mode, which has no backward


def _require_finite(a: np.ndarray, models: tuple[int, ...], where: str) -> None:
    """Raise ``NumericError`` unless ``a`` is all finite; for a stack of
    leading axes ``models`` the error carries the flat index over those axes,
    in C order (fold-major), of the first network that is not."""
    finite = np.isfinite(a)
    if not finite.all():
        model = int(np.argmin(finite.reshape(math.prod(models), -1).all(axis=1))) if models else None
        raise NumericError(f"non-finite activations {where}", model=model)


def init_model(config: ModelConfig, normalizer: Normalizer | None = None) -> ModelParams:
    """Glorot-uniform weights, unit batch-norm, softplus(rho) = 0.1."""
    rng = Pcg32(config.seed).derive("init")
    try:
        theta = np.zeros(sum(map(math.prod, block_shapes(config).values())))
    except ValueError as exc:  # numpy's refusal of a length or byte count past its index type
        raise MemoryError(f"hidden widths {config.hidden} need more numbers than numpy can hold in one array") from exc
    running = np.zeros(sum(map(math.prod, running_shapes(config).values())))  # fewer than theta
    params = ModelParams(theta, running, normalizer, config)
    views = params.views
    widths = [INPUT_WIDTH] + list(config.hidden)
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        views[f"layer{i}.w"][...] = rng.uniform(-limit, limit, fan_in * fan_out).reshape(fan_in, fan_out)
        views[f"layer{i}.bn_scale"][...] = views[f"layer{i}.bn_running_var"][...] = 1.0
    limit = np.sqrt(6.0 / (widths[-1] + 1))
    for head in ("head_reg", "head_cls"):
        views[f"{head}.w"][...] = rng.uniform(-limit, limit, widths[-1]).reshape(widths[-1], 1)
    initial = PhysicsParams()
    for f in fields(PhysicsParams):
        views[f"physics.{f.name}"][...] = getattr(initial, f.name)
    return params


def forward(
    params: ModelParams,
    t: np.ndarray,
    e: np.ndarray,
    mode: str = "eval",
    rng: Sequence[Pcg32] | None = None,
) -> Predictions:
    """Dual-channel forward pass over a normalized batch, of one model or of
    a stack.

    Train mode uses batch statistics and draws one dropout mask per hidden
    layer, in layer order, from each stream of ``rng``, one per fold (a
    single network is one fold), so streams in the same state give the
    same masks; eval mode uses running statistics, disables dropout, never
    consumes randomness and keeps no caches. A stack over folds takes ``t``
    of shape ``(F, 1, n)`` and ``e`` of shape ``(F, 1, n, 3)``.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if t.ndim < 1 or t.shape[-1] == 0 or e.shape != t.shape + (3,):
        raise ContractError(f"need t of shape (n,) and e of shape (n, 3), got {t.shape}, {e.shape}")
    cfg, views = params.config, params.views
    models = params.theta.shape[:-1]
    inputs = np.concatenate([t[..., None], e], axis=-1)
    x = np.stack([inputs, np.broadcast_to(_INPUT_TANGENT, inputs.shape)], axis=-3)
    # divergence is reported through the explicit per-layer checks below;
    # numpy's warnings on the already-poisoned arithmetic are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layer_caches = []
        for i in range(len(cfg.hidden)):
            x, c_aff = ad.affine_forward(x, views[f"layer{i}.w"])
            bn = [views[f"layer{i}.bn_{key}"] for key in ("scale", "shift", "running_mean", "running_var")]
            x, c_bn = ad.batchnorm_forward(x, *bn, mode, eps=cfg.bn_eps, momentum=cfg.bn_momentum)
            x, c_sw = ad.swish_forward(x, mode)
            x, mask = ad.dropout_forward(x, cfg.dropout, mode, rng)
            _require_finite(x, models, f"after hidden layer {i}")
            if mode == "train":
                layer_caches.append(LayerCaches(c_aff, c_bn, c_sw, mask))

        y_out, reg_cache = ad.affine_forward(x, views["head_reg.w"])
        y = (y_out[..., 0, :, :] + views["head_reg.b"][..., None, :])[..., 0]
        dydt = y_out[..., 1, :, 0]
        z = (x[..., 0, :, :] @ views["head_cls.w"] + views["head_cls.b"][..., None, :])[..., 0]
        _require_finite(np.stack([y, dydt], axis=-2), models, "in the regression head")

    caches = None
    if mode == "train":
        running = [(c.bn.new_running_mean, c.bn.new_running_var) for c in layer_caches]
        caches = ForwardCaches(layer_caches, reg_cache, running)
    return Predictions(y, dydt, z, ad.sigmoid(z), caches)


def forward_batch(params: ModelParams, batch, mode: str = "eval", rng: Sequence[Pcg32] | None = None) -> Predictions:
    """Forward over a (normalized) Dataset."""
    return forward(params, batch.t, batch.e, mode, rng)


def backward(params: ModelParams, caches: ForwardCaches, lg: LossGrads) -> np.ndarray:
    """Gradient of the objective wrt ``theta``, every block laid out as ``theta``.

    ``lg`` describes the objective by its adjoints on the three model outputs,
    d(loss)/d(y_eda), d(loss)/d(dy/dt) and d(loss)/d(z_emotion) (the
    classification logit), which flow back through the network, and by its
    derivatives wrt the physics parameters, which fill the physics slots.
    For a stack every field carries the leading model axis, and so does the
    gradient, shaped as ``params.theta``.

    ``caches`` is spent: each cache is dropped as soon as it has been used,
    so the step's memory falls as the backward proceeds instead of holding
    every layer's activations to the end; its running statistics stay. An
    eval-mode forward has none to give: ``None`` raises ``ContractError``.
    """
    if caches is None:
        raise ContractError("backward needs the caches of a train-mode forward")
    grad = np.zeros_like(params.theta)
    g = blocks(grad, params.config)
    for f in fields(PhysicsParams):
        g[f"physics.{f.name}"][...] = getattr(lg, f"d_{f.name}")

    adj_out = np.stack([lg.adj_y, lg.adj_dydt], axis=-2)[..., None]  # (..., 2, n, 1)
    head, caches.reg_affine = caches.reg_affine, None
    adj = adj_out * head.w.swapaxes(-1, -2)  # a k = 1 matmul is an outer product
    g["head_reg.w"][...] = ad.affine_weight_grad(head, adj_out)
    g["head_reg.b"][...] = adj_out[..., 0, :, :].sum(axis=-2)
    adj_z = lg.adj_z[..., None]
    g["head_cls.w"][...] = head.x[..., 0, :, :].swapaxes(-1, -2) @ adj_z
    g["head_cls.b"][...] = adj_z.sum(axis=-2)
    del head

    adj[..., 0, :, :] += adj_z @ params.views["head_cls.w"].swapaxes(-1, -2)
    while caches.layers:
        i = len(caches.layers) - 1
        affine, bn, swish, mask = caches.layers.pop()
        adj = ad.dropout_backward(mask, adj)
        adj = ad.swish_backward(swish, adj)
        del swish
        adj, d_scale, d_shift = ad.batchnorm_backward(bn, adj)
        del bn
        g[f"layer{i}.bn_scale"][...], g[f"layer{i}.bn_shift"][...] = d_scale, d_shift
        if i:
            adj, g[f"layer{i}.w"][...] = ad.affine_backward(affine, adj)
        else:  # the network input needs no adjoint
            g["layer0.w"][...] = ad.affine_weight_grad(affine, adj)
    return grad


def commit_batchnorm(params: ModelParams, caches: ForwardCaches) -> None:
    """Adopt, in place, the running statistics produced by a train-mode forward."""
    for i, (mean, var) in enumerate(caches.running):
        params.views[f"layer{i}.bn_running_mean"][...] = mean
        params.views[f"layer{i}.bn_running_var"][...] = var


# ---------------------------------------------------------------------------
# checkpoint serialization: versioned JSON, byte-deterministic, write-only
# ---------------------------------------------------------------------------


def _plain(value):
    """A dataclass as a JSON-ready dict of its constructor fields, arrays as
    flat lists and 0-d arrays as scalars."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.ravel().tolist() if value.ndim else value.item()
    return value


def checkpoint_text(params: ModelParams) -> str:
    """Canonical serialized form; identical models give identical bytes.

    It holds every part of ``views``, ``layerI.key`` under ``layers[I]`` with
    that layer's ``w_shape`` and every other part under its own name, then
    the normalizer, the config and the version.
    """
    layers = [{"w_shape": list(params.views[f"layer{i}.w"].shape)} for i in range(len(params.config.hidden))]
    doc = {"normalizer": _plain(params.normalizer), "config": _plain(params.config), "layers": layers}
    for name, view in params.views.items():
        part, key = name.split(".")
        entry = layers[int(part[len("layer") :])] if part.startswith("layer") else doc.setdefault(part, {})
        entry[key] = _plain(view)
    doc["format_version"] = CHECKPOINT_VERSION
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
