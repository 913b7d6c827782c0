"""Run configuration files: strict JSON with full defaults.

A minimal file ``{}`` is valid; every field falls back to its documented
default. Unknown keys are rejected before any computation starts, with the
full key path in the diagnostic. The single top-level seed derives every
stream seed (init, dropout, shuffling, synthesis), so one integer
reproduces an entire experiment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import ClusterSpec, SynthSpec
from .errors import ConfigError
from .model import ModelConfig
from .rng import derive_seed
from .trainer import TrainRunConfig

DEFAULT_ABLATION_VARIANTS = ["full", "no_physics", "eda_only", "emotion_only", "ridge", "logistic"]


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    train: TrainRunConfig
    input_path: str | None
    synth: SynthSpec
    output_dir: str
    ablate_variants: list[str] = field(default_factory=lambda: list(DEFAULT_ABLATION_VARIANTS))


def _expect_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where!r}")


def _get(section: dict, key: str, default, path: str, kind):
    if key not in section:
        return default
    val = section[key]
    where = f"{path}.{key}" if path else key
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if kind is int and isinstance(val, bool):
        raise ConfigError(f"config key {where!r} must be an integer")
    if not isinstance(val, kind):
        raise ConfigError(f"config key {where!r} has wrong type {type(val).__name__}")
    return val


def _vector3(section: dict, key: str, default, path: str) -> np.ndarray:
    if key not in section:
        return np.asarray(default, dtype=np.float64)
    val = section[key]
    where = f"{path}.{key}"
    if not isinstance(val, list) or len(val) != 3:
        raise ConfigError(f"config key {where!r} must be a list of 3 numbers")
    try:
        return np.array([float(v) for v in val])
    except (TypeError, ValueError):
        raise ConfigError(f"config key {where!r} must be a list of 3 numbers") from None


def _parse_cluster(section: dict, path: str, default: ClusterSpec) -> ClusterSpec:
    _expect_keys(section, {"mean", "std"}, path)
    return ClusterSpec(
        _vector3(section, "mean", default.mean, path),
        _vector3(section, "std", default.std, path),
    )


def _parse_synth(section: dict, path: str, seed: int) -> SynthSpec:
    defaults = SynthSpec()
    allowed = {
        "alpha0", "beta", "gamma", "n", "noise", "y0", "t_min", "t_max",
        "nonstress", "stress", "stress_fraction", "separation",
    }
    _expect_keys(section, allowed, path)
    return SynthSpec(
        alpha0=_get(section, "alpha0", defaults.alpha0, path, float),
        beta=_vector3(section, "beta", defaults.beta, path),
        gamma=_get(section, "gamma", defaults.gamma, path, float),
        n=_get(section, "n", defaults.n, path, int),
        noise=_get(section, "noise", defaults.noise, path, float),
        y0=_get(section, "y0", defaults.y0, path, float),
        t_min=_get(section, "t_min", defaults.t_min, path, float),
        t_max=_get(section, "t_max", defaults.t_max, path, float),
        nonstress=_parse_cluster(section.get("nonstress", {}), f"{path}.nonstress", defaults.nonstress),
        stress=_parse_cluster(section.get("stress", {}), f"{path}.stress", defaults.stress),
        stress_fraction=_get(section, "stress_fraction", defaults.stress_fraction, path, float),
        separation=_get(section, "separation", defaults.separation, path, float),
        seed=derive_seed(seed, "synth"),
    )


def parse_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _expect_keys(doc, {"seed", "model", "train", "data", "output", "ablate"}, "")
    seed = _get(doc, "seed", 1, "", int)
    if seed_override is not None:
        seed = seed_override

    msec = _get(doc, "model", {}, "", dict)
    _expect_keys(
        msec,
        {
            "hidden", "dropout", "bn_eps", "bn_momentum", "threshold",
            "lambda_floor", "lambda_frozen",
        },
        "model",
    )
    mdefault = ModelConfig()
    hidden = msec.get("hidden", mdefault.hidden)
    if not isinstance(hidden, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) for w in hidden
    ):
        raise ConfigError("config key 'model.hidden' must be a list of integers")
    model = ModelConfig(
        hidden=list(hidden),
        dropout=_get(msec, "dropout", mdefault.dropout, "model", float),
        bn_eps=_get(msec, "bn_eps", mdefault.bn_eps, "model", float),
        bn_momentum=_get(msec, "bn_momentum", mdefault.bn_momentum, "model", float),
        seed=derive_seed(seed, "model"),
        threshold=_get(msec, "threshold", mdefault.threshold, "model", float),
        lambda_floor=_get(msec, "lambda_floor", mdefault.lambda_floor, "model", float),
        lambda_frozen=_get(msec, "lambda_frozen", mdefault.lambda_frozen, "model", bool),
    )
    model.validate()

    tsec = _get(doc, "train", {}, "", dict)
    _expect_keys(
        tsec,
        {"epochs", "batch_size", "variant", "k", "lr", "emotion_only_no_physics"},
        "train",
    )
    tdefault = TrainRunConfig()
    train = TrainRunConfig(
        epochs=_get(tsec, "epochs", tdefault.epochs, "train", int),
        batch_size=_get(tsec, "batch_size", tdefault.batch_size, "train", int),
        variant=_get(tsec, "variant", tdefault.variant, "train", str),
        seed=derive_seed(seed, "train"),
        lr=_get(tsec, "lr", tdefault.lr, "train", float),
        k=_get(tsec, "k", tdefault.k, "train", int),
        emotion_only_no_physics=_get(
            tsec, "emotion_only_no_physics", tdefault.emotion_only_no_physics, "train", bool
        ),
    )
    train.validate()

    dsec = _get(doc, "data", {}, "", dict)
    _expect_keys(dsec, {"input", "synth"}, "data")
    input_path = _get(dsec, "input", None, "data", str) if "input" in dsec else None
    if input_path is not None and "synth" in dsec:
        raise ConfigError("config section 'data' must set either 'input' or 'synth', not both")
    synth = _parse_synth(dsec.get("synth", {}), "data.synth", seed)

    osec = _get(doc, "output", {}, "", dict)
    _expect_keys(osec, {"dir"}, "output")
    output_dir = _get(osec, "dir", "out", "output", str)

    asec = _get(doc, "ablate", {}, "", dict)
    _expect_keys(asec, {"variants"}, "ablate")
    variants = asec.get("variants", list(DEFAULT_ABLATION_VARIANTS))
    if not isinstance(variants, list) or not all(isinstance(v, str) for v in variants):
        raise ConfigError("config key 'ablate.variants' must be a list of strings")

    return RunConfig(seed, model, train, input_path, synth, output_dir, variants)


def load_config(path: str | Path | None, seed_override: int | None = None) -> RunConfig:
    """Parse a config file; a missing path means all defaults."""
    if path is None:
        return parse_config({}, seed_override)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, seed_override)
