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

The trainable numbers live in one vector, ``ModelParams.theta``, laid out by
``block_shapes``; ``blocks`` names the views of it or of a gradient.

One ``forward`` and one ``backward`` serve a single network, which the
gradient checker and evaluation run, and the stack of networks that
training runs (``stack``): F folds of V variants of one config, ``theta``
of shape ``(F, V, P)``, every part of the model carrying the leading axes
(batch-norm running statistics ``(F, V, width)``). Its batch holds one
batch per fold, ``t`` of shape ``(F, 1, n)``, so the input is
``(F, 1, 2, n, 4)`` and broadcasts over the variants; each fold draws its
own dropout masks from its own stream, ``(F, 1, n, width)``, and the
outputs are ``(F, V, n)``. ``members`` gives the rows of a stack on views
of its memory: a fold's ``(V, P)`` stack, which steps alone on a batch of
shape ``(n,)`` that the other folds lack (a dual batch ``(V, 2, n, width)``,
masks drawn once per layer and shared), and its single networks.

A checkpoint (``checkpoint_text``) is a write-only record of one network:
versioned JSON of every field, identical for identical models.

Only a train-mode forward has a backward: an eval-mode forward keeps no
caches, so it holds no more than a layer's activations at a time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, is_dataclass
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


@dataclass(frozen=True)
class HiddenLayer:
    w: np.ndarray
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_running_mean: np.ndarray
    bn_running_var: np.ndarray


@dataclass(frozen=True)
class Head:
    w: np.ndarray
    b: np.ndarray


@dataclass
class ModelParams:
    """The network and its physics parameters; construction copies the
    trainable values into a new ``theta`` and rebuilds the frozen parts on
    views of it (alpha0, gamma and rho 0-d ones). Write through a view in
    place: rebinding one raises instead of detaching it from ``theta``.

    Parts whose arrays carry leading model axes make a stack: ``theta`` of
    shape ``(F, V, P)`` (see ``stack``), or ``(V, P)`` for one of its rows."""

    layers: list[HiddenLayer]
    head_reg: Head
    head_cls: Head
    physics: PhysicsParams
    normalizer: Normalizer | None
    config: ModelConfig
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    _members: list["ModelParams"] | None = field(default=None, init=False, repr=False, compare=False)
    # the config and normalizer of each row of a stack built from a list of models
    _rows: list[tuple[ModelConfig, Normalizer | None]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        models = np.shape(self.layers[0].w)[:-2]
        self.theta = np.empty(models + (sum(math.prod(s) for s in block_shapes(self.config).values()),))
        self._bind(lambda a: np.array(a, dtype=np.float64))

    def _bind(self, pick) -> None:
        """Rebuild the parts on views of ``theta``, filled with ``pick`` of
        their values; their other arrays become ``pick`` of theirs."""
        views = blocks(self.theta, self.config)
        self.layers = [_on_views(l, f"layer{i}", views, pick) for i, l in enumerate(self.layers)]
        self.head_reg = _on_views(self.head_reg, "head_reg", views, pick)
        self.head_cls = _on_views(self.head_cls, "head_cls", views, pick)
        self.physics = _on_views(self.physics, "physics", views, pick)

    def __reduce__(self):
        # a pickle rebuilds through the constructor, so the parts are views of
        # the new theta; by default they would unpickle as detached copies
        return ModelParams, (
            self.layers, self.head_reg, self.head_cls, self.physics, self.normalizer, self.config
        )


def _on_views(part, prefix: str, views: dict[str, np.ndarray], pick):
    """A copy of dataclass ``part`` whose trainable fields are the ``views``
    named ``prefix.field``, filled with ``pick`` of its values; its other
    arrays are ``pick`` of them."""
    values = {}
    for f in fields(part):
        value = pick(getattr(part, f.name))
        view = views.get(f"{prefix}.{f.name}")
        if view is not None:
            view[...] = value
            value = view
        values[f.name] = value
    return type(part)(**values)


def stack(params: Sequence[ModelParams], models: int) -> ModelParams:
    """``models`` copies of each of ``params``, models of one config but for
    the seed (one per fold, say), as one stack: every array of their parts
    gains two leading axes, the list's then the copies', and ``theta`` has
    shape ``(len(params), models, P)``.

    What ``forward`` and the objective read is the first model's config;
    each row keeps its own config and normalizer, which its ``members`` carry.
    """

    def tiled(same):
        """One part of every model, stacked."""
        return type(same[0])(**{
            f.name: np.stack([np.stack([getattr(q, f.name)] * models) for q in same]) for f in fields(same[0])
        })

    stacked = ModelParams(
        [tiled(layers) for layers in zip(*(p.layers for p in params))],
        tiled([p.head_reg for p in params]),
        tiled([p.head_cls for p in params]),
        tiled([p.physics for p in params]),
        params[0].normalizer,
        params[0].config,
    )
    stacked._rows = [(p.config, p.normalizer) for p in params]
    return stacked


def members(params: ModelParams) -> list[ModelParams]:
    """The models along the first axis of a stack: the per-fold stacks, of
    ``theta`` shape ``(V, P)``, of a stack over folds, and the single models
    of one of those.

    The members of a stack are built once, on views of their rows of its
    ``theta`` and running statistics, so each sees the stack's training as
    it happens and can be used as any model of its shape (a pickle of one
    owns its memory).
    """
    if params._members is None:
        params._members = []
        for i in range(len(params.theta)):
            one = object.__new__(ModelParams)  # bound below, not copied
            one.layers, one.head_reg, one.head_cls = params.layers, params.head_reg, params.head_cls
            one.physics, one.theta = params.physics, params.theta[i]
            one.config, one.normalizer = params._rows[i] if params._rows else (params.config, params.normalizer)
            one._members = one._rows = None
            one._bind(lambda a, i=i: a[i])
            params._members.append(one)
    return params._members


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


def blocks(vector: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Named views of ``vector``, a parameter or gradient vector laid out as
    ``theta``; those of a stack's ``(M, P)`` array have shape ``(M,) + shape``."""
    views, start, models = {}, 0, vector.shape[:-1]
    for name, shape in block_shapes(config).items():
        size = math.prod(shape)
        views[name] = vector[..., start : start + size].reshape(models + shape)
        start += size
    return views


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
    leading axes ``models`` the error carries the flat index, in the order of
    its members' members, of the first model that is not."""
    finite = np.isfinite(a)
    if not finite.all():
        model = int(np.argmin(finite.reshape(math.prod(models), -1).all(axis=1))) if models else None
        raise NumericError(f"non-finite activations {where}", model=model)


def init_model(config: ModelConfig, normalizer: Normalizer | None = None) -> ModelParams:
    """Glorot-uniform weights, unit batch-norm, softplus(rho) = 0.1."""
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


def forward(
    params: ModelParams,
    t: np.ndarray,
    e: np.ndarray,
    mode: str = "eval",
    rng: Pcg32 | None = None,
) -> Predictions:
    """Dual-channel forward pass over a normalized batch, of one model or of
    a stack.

    Train mode uses batch statistics and draws one dropout mask per hidden
    layer from ``rng``, in layer order, so two streams in the same state
    give the same masks; eval mode uses running statistics, disables
    dropout, never consumes randomness and keeps no caches. A stack over
    folds takes ``t`` of shape ``(F, 1, n)``, ``e`` of shape ``(F, 1, n, 3)``
    and one stream per fold.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    if t.ndim < 1 or t.shape[-1] == 0 or e.shape != t.shape + (3,):
        raise ContractError(f"need t of shape (n,) and e of shape (n, 3), got {t.shape}, {e.shape}")
    cfg = params.config
    models = params.theta.shape[:-1]
    inputs = np.concatenate([t[..., None], e], axis=-1)
    x = np.stack([inputs, np.broadcast_to(_INPUT_TANGENT, inputs.shape)], axis=-3)
    # divergence is reported through the explicit per-layer checks below;
    # numpy's warnings on the already-poisoned arithmetic are redundant
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        layer_caches = []
        for i, layer in enumerate(params.layers):
            x, c_aff = ad.affine_forward(x, layer.w)
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
            x, c_sw = ad.swish_forward(x, mode)
            x, mask = ad.dropout_forward(x, cfg.dropout, mode, rng)
            _require_finite(x, models, f"after hidden layer {i}")
            if mode == "train":
                layer_caches.append(LayerCaches(c_aff, c_bn, c_sw, mask))

        y_out, reg_cache = ad.affine_forward(x, params.head_reg.w)
        y = (y_out[..., 0, :, :] + params.head_reg.b[..., None, :])[..., 0]
        dydt = y_out[..., 1, :, 0]
        z = (x[..., 0, :, :] @ params.head_cls.w + params.head_cls.b[..., None, :])[..., 0]
        _require_finite(np.stack([y, dydt], axis=-2), models, "in the regression head")

    caches = None
    if mode == "train":
        running = [(c.bn.new_running_mean, c.bn.new_running_var) for c in layer_caches]
        caches = ForwardCaches(layer_caches, reg_cache, running)
    return Predictions(y, dydt, z, ad.sigmoid(z), caches)


def forward_batch(params: ModelParams, batch, mode: str = "eval", rng: Pcg32 | None = None) -> Predictions:
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
    g["physics.alpha0"][...] = lg.d_alpha0
    g["physics.beta"][...] = lg.d_beta
    g["physics.gamma"][...] = lg.d_gamma
    g["physics.rho"][...] = lg.d_rho

    adj_out = np.stack([lg.adj_y, lg.adj_dydt], axis=-2)[..., None]  # (..., 2, n, 1)
    head, caches.reg_affine = caches.reg_affine, None
    adj, g["head_reg.w"][...] = ad.affine_backward(head, adj_out)
    g["head_reg.b"][...] = adj_out[..., 0, :, :].sum(axis=-2)
    adj_z = lg.adj_z[..., None]
    g["head_cls.w"][...] = head.x[..., 0, :, :].swapaxes(-1, -2) @ adj_z
    g["head_cls.b"][...] = adj_z.sum(axis=-2)
    del head

    adj[..., 0, :, :] += adj_z @ params.head_cls.w.swapaxes(-1, -2)
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
    for layer, (mean, var) in zip(params.layers, caches.running):
        layer.bn_running_mean[...] = mean
        layer.bn_running_var[...] = var


# ---------------------------------------------------------------------------
# checkpoint serialization: versioned JSON, byte-deterministic, write-only
# ---------------------------------------------------------------------------


def _plain(value):
    """A dataclass as a JSON-ready dict of its constructor fields, arrays as
    flat lists and 0-d arrays as scalars."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist() if value.ndim else value.item()
    return value


def checkpoint_text(params: ModelParams) -> str:
    """Canonical serialized form; identical models give identical bytes.

    It holds every field of ``params``, each layer's ``w_shape`` and the version.
    """
    doc = _plain(params)
    doc["format_version"] = CHECKPOINT_VERSION
    for entry, layer in zip(doc["layers"], params.layers):
        entry["w_shape"] = list(layer.w.shape)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
