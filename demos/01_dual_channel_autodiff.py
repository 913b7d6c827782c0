#!/usr/bin/env python3
"""Walkthrough: the dual-channel autodiff engine.

Every layer carries one array of shape (2, n, width): the values at [0] and
their tangents at [1], where a tangent is d(value)/dt with respect to the
scalar time input. The network's regression output therefore arrives
together with its exact time derivative, which is what the physics residual
consumes. The reverse pass differentiates the whole augmented computation,
so losses that read the tangent still get exact parameter gradients.
"""

import numpy as np

from edapinn import ModelConfig, check_gradients, forward, init_model
from edapinn.autodiff import swish_forward
from edapinn.data import Dataset
from edapinn.model import commit_batchnorm
from edapinn.rng import Pcg32

print("=== 1. Tangents through a single primitive ===")
x_value = np.array([[0.0], [1.0], [-2.0]])
x_tangent = np.ones((3, 1))  # seed d(x)/dt = 1
out, _ = swish_forward(np.stack([x_value, x_tangent]))
h = 1e-6


def swish(v):  # the value alone, written independently of the engine
    return v / (1.0 + np.exp(-v))


fd = (swish(x_value + h) - swish(x_value - h)) / (2 * h)
for i in range(3):
    print(
        f"  swish({x_value[i,0]:+.1f}): value={out[0,i,0]:+.5f} "
        f"tangent={out[1,i,0]:+.7f} central-diff={fd[i,0]:+.7f}"
    )

print()
print("=== 2. d(EDA)/dt out of the full network ===")
params = init_model(ModelConfig(hidden=[32, 32], seed=1, dropout=0.0))
rng = Pcg32(7)
t = rng.normal(200)
e = rng.normal(600).reshape(200, 3)
warm = forward(params, t, e, "train")  # one train pass fills running stats
commit_batchnorm(params, warm.caches)
preds = forward(params, t, e, "eval")
fd = (forward(params, t + h, e, "eval").y_eda - forward(params, t - h, e, "eval").y_eda) / (2 * h)
rel = np.abs(preds.dydt - fd) / np.maximum(np.abs(fd), 1e-8)
print(f"  dual-channel dydt vs finite differences over 200 samples:")
print(f"  max relative error = {rel.max():.3e}")

print()
print("=== 3. Every variant's objective, gradient-checked ===")
params = init_model(ModelConfig(hidden=[8, 8], seed=3))
batch = Dataset(
    rng.normal(16),
    rng.normal(48).reshape(16, 3),
    0.5 + 0.2 * rng.normal(16),
    (rng.random(16) < 0.5).astype(np.int64),
)
report = check_gradients(params, batch)
print(f"  analytic vs central differences across {len(report.block_errors)} parameter blocks of 4 variants")
print(f"  max relative error = {report.max_rel_error:.3e}  (worst: {report.worst_block})")
print(f"  passed at 1e-6: {report.passed}")
