#!/usr/bin/env python3
"""Walkthrough: stratified cross-validation and the ablation table.

Runs the fold protocol at a reduced scale (smaller dataset, fewer epochs,
so the whole script stays around a minute) and prints the fold-wise table
plus an ablation over task variants and classical baselines. The full-scale
protocol (2000 samples, 50 epochs) lives behind `edapinn kfold` and
`edapinn ablate`.
"""

import numpy as np

from edapinn import ModelConfig, SynthSpec, TrainRunConfig, run_kfold, synth_generate
from edapinn.baselines import BASELINES
from edapinn.objective import VARIANTS
from edapinn.reporting import METRICS_COLUMNS, ablation_table, aggregate_folds, render_table

data, _ = synth_generate(SynthSpec(n=800, seed=21))
cfg = TrainRunConfig(epochs=20, batch_size=128, seed=21, k=5)
model_cfg = ModelConfig(seed=21)

print("=== 5-fold cross-validation, full variant ===")
reports, _ = run_kfold(data, cfg, model_cfg)
rows = aggregate_folds(reports)
print(render_table(METRICS_COLUMNS, [[r[0]] + [f"{v:.4f}" for v in r[1:]] for r in rows]))

print()
print("per-fold physics parameters (stability across folds)")
for r in reports:
    p = r.physics
    print(f"  fold {r.fold}: alpha0={p.alpha0:.4f} beta=({p.beta[0]:.4f}, {p.beta[1]:.4f}, "
          f"{p.beta[2]:.4f}) gamma={p.gamma:.4f}")

print()
print("=== ablation: task variants vs classical baselines ===")
table, _ = ablation_table(data, [*VARIANTS, *BASELINES], model_cfg, cfg)
print(render_table(
    ["variant", "eda_rmse", "emotion_f1", "pearson_r"],
    [[t.variant, f"{t.eda_rmse:.4f}", f"{t.emotion_f1:.4f}", f"{t.pearson_r:.4f}"] for t in table],
))
print()
print("reading the table: eda_only reports F1 = 0 (its classification head is")
print("never trained); emotion_only still regresses EDA through the physics")
print("term alone, so its correlation trails the supervised variants.")
