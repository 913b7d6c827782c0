"""Run configuration files: strict JSON with full defaults.

A minimal file ``{}`` is valid; every field falls back to its documented
default. The keys of the ``model``, ``train`` and ``data.synth`` sections are
the fields of ``ModelConfig``, ``TrainRunConfig`` and ``SynthSpec`` (with
``ClusterSpec`` objects nested under ``nonstress`` and ``stress``), less their
derived ``seed``; each value must have the type of its field's default, and
numbers must be finite. ``ablate.variants`` lists the ablation rows: at
least one, each a network variant or a baseline, none twice. Unknown keys
and malformed values are rejected before any computation starts, with the
full key path in the diagnostic.
The single top-level seed, an integer in [0, 2**64) like ``--seed``, derives
every stream seed (init, dropout, shuffling, synthesis), so one integer
reproduces an entire experiment.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import BASELINES
from .data import SynthSpec, read_text
from .errors import ConfigError
from .model import ModelConfig
from .objective import VARIANTS
from .rng import derive_seed
from .trainer import TrainRunConfig


@dataclass
class RunConfig:
    seed: int
    model: ModelConfig
    train: TrainRunConfig
    input_path: str | None
    synth: SynthSpec
    output_dir: str
    ablate_variants: list[str]


def _value(val, default, where: str):
    """``val`` checked against the type of ``default``: ints widen to a float;
    an ``ndarray`` takes a list of as many numbers, a list one of its elements' type."""
    if isinstance(default, np.ndarray):
        if not isinstance(val, list) or len(val) != default.size:
            raise ConfigError(f"config key {where!r} must be a list of {default.size} numbers")
        return np.array([_value(v, 0.0, where) for v in val])
    if isinstance(default, list):
        kind = type(default[0])
        if not isinstance(val, list) or not all(type(v) is kind for v in val):
            plural = "integers" if kind is int else "strings"
            raise ConfigError(f"config key {where!r} must be a list of {plural}")
        return list(val)
    if isinstance(default, float) and isinstance(val, (int, float)) and not isinstance(val, bool):
        if not abs(val) <= sys.float_info.max:  # false for NaN, infinities and huge ints
            raise ConfigError(f"config key {where!r} must be a finite number")
        return float(val)
    if type(default) is int and isinstance(val, bool):
        raise ConfigError(f"config key {where!r} must be an integer")
    if type(val) is not type(default):
        raise ConfigError(f"config key {where!r} has wrong type {type(val).__name__}")
    return val


def _expect_keys(section, allowed, path: str) -> None:
    _value(section, {}, path)
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where!r}")


def _parse_section(section, default, path: str):
    """The dataclass ``default`` with the values of ``section`` read over it.

    The keys are its fields less the derived ``seed``; a dataclass field nests.
    A value the dataclass refuses is named by its key path.
    """
    _expect_keys(section, [f.name for f in fields(default) if f.name != "seed"], path)
    values = {}
    for key, val in section.items():
        where, old = f"{path}.{key}", getattr(default, key)
        read = _parse_section if is_dataclass(old) else _value
        values[key] = read(val, old, where)
    try:
        return replace(default, **values)
    except ConfigError as exc:
        if exc.field is None:
            raise
        raise ConfigError(f"config key '{path}.{exc.field}': {exc}") from None


def _seed(seed: int, where: str) -> int:
    """``seed`` if it is a u64: the streams take it modulo 2**64, so any
    other value would silently run as one of those."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where} must be an integer in [0, 2**64), got {seed}")
    return seed


def parse_config(doc: dict, seed_override: int | None = None) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _expect_keys(doc, {"seed", "model", "train", "data", "output", "ablate"}, "")
    seed = _seed(_value(doc.get("seed", 1), 1, "seed"), "config key 'seed'")
    if seed_override is not None:
        seed = _seed(seed_override, "--seed")

    model = _parse_section(
        doc.get("model", {}), ModelConfig(seed=derive_seed(seed, "model")), "model"
    )
    train = _parse_section(
        doc.get("train", {}), TrainRunConfig(seed=derive_seed(seed, "train")), "train"
    )

    dsec = doc.get("data", {})
    _expect_keys(dsec, {"input", "synth"}, "data")
    input_path = _value(dsec["input"], "", "data.input") if "input" in dsec else None
    if input_path is not None and "synth" in dsec:
        raise ConfigError("config section 'data' must set either 'input' or 'synth', not both")
    synth = _parse_section(
        dsec.get("synth", {}), SynthSpec(seed=derive_seed(seed, "synth")), "data.synth"
    )

    osec = doc.get("output", {})
    _expect_keys(osec, {"dir"}, "output")
    output_dir = _value(osec.get("dir", "out"), "out", "output.dir")

    asec = doc.get("ablate", {})
    _expect_keys(asec, {"variants"}, "ablate")
    known = [*VARIANTS, *BASELINES]
    variants = _value(asec.get("variants", known), known, "ablate.variants")
    if not variants or any(v not in known or v in variants[:i] for i, v in enumerate(variants)):
        raise ConfigError(f"config key 'ablate.variants' must list some of {known}, none twice")

    return RunConfig(seed, model, train, input_path, synth, output_dir, variants)


def load_config(path: str | Path | None, seed_override: int | None = None) -> RunConfig:
    """Parse a config file; a missing path means all defaults."""
    if path is None:
        return parse_config({}, seed_override)
    text = read_text(path, ConfigError, "config file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc, seed_override)
