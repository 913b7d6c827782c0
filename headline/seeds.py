"""Criterion 7 at more than one draw: the headline's figures per master seed.

Runs criterion 7's workload (the ablation table of ``CRITERION_7_VARIANTS``
on two worker processes) on its fixed draw (``SynthSpec()``,
``ModelConfig()``, ``TrainRunConfig()``) and at master seeds 1-12, each
trained as ``edapinn ablate --seed s`` trains with an empty config
(``parse_config({}, s)``). Each draw is judged by the acceptance gate's own
``criterion_7_figures``, so the conditions live in one place. Writes, per
draw, every criterion-7 figure, ``no_physics`` r, the seconds and the
verdict as JSON. About 5 s a draw on a 2-core machine; it is not part of
Tier-1.

Run from the root of a checkout::

    python3 headline/seeds.py seeds.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_acceptance import criterion_7_figures, criterion_7_run  # noqa: E402

from edapinn.config import parse_config  # noqa: E402
from edapinn.data import SynthSpec, synth_generate  # noqa: E402
from edapinn.model import ModelConfig  # noqa: E402
from edapinn.trainer import TrainRunConfig  # noqa: E402

MASTER_SEEDS = range(1, 13)


def draws():
    """(name, synth spec, model config, train config) of every draw, the fixed one first."""
    yield "fixed", SynthSpec(), ModelConfig(), TrainRunConfig()
    for seed in MASTER_SEEDS:
        cfg = parse_config({}, seed)
        yield f"seed {seed}", cfg.synth, cfg.model, cfg.train


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    results = {}
    for name, synth, model_cfg, train_cfg in draws():
        figures, ok = criterion_7_figures(*criterion_7_run(synth_generate(synth)[0], model_cfg, train_cfg))
        results[name] = {**figures, "verdict": "PASS" if ok else "FAIL"}
        print(f"{name}: {results[name]['verdict']} mean r {figures['mean_r']:.4f}", file=sys.stderr)
    args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
