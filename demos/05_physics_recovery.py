#!/usr/bin/env python3
"""Walkthrough: recovering the generating physics from trajectories.

The residual is linear in (alpha0, beta), but jointly rescaling
(alpha0, beta, gamma) preserves a zero residual, so the triple is only
identifiable up to scale. Fixing gamma breaks the gauge; the normal
equations of the physics loss then give (alpha0, beta) exactly, and on
noise-free data they return the generating parameters.
"""

import numpy as np

from edapinn import SynthSpec, synth_generate
from edapinn.objective import PhysicsParams, physics_loss, physics_residual
from edapinn.trainer import physics_least_squares

spec = SynthSpec(n=2000, noise=0.0, seed=33)
data, dydt = synth_generate(spec)
print(f"ground truth: alpha0={spec.alpha0}, beta={spec.beta.tolist()}, gamma={spec.gamma}")

print()
print("=== the scale gauge ===")
for c in (1.0, 2.0, 0.5):
    scaled = PhysicsParams(c * spec.alpha0, c * spec.beta, c * spec.gamma)
    loss = physics_loss(physics_residual(dydt, data.y, data.e, scaled))
    print(f"  (alpha0, beta, gamma) x {c}: physics loss = {loss:.3e}")
print("  every joint rescaling is residual-free, hence gamma is pinned below")

print()
print("=== least squares at the true gamma ===")
solved = physics_least_squares(dydt, data.y, data.e, spec.gamma)
print(f"  solved: alpha0={solved.alpha0:.15f}, beta={solved.beta.tolist()}")
print(f"  truth:  alpha0={spec.alpha0:.15f}, beta={spec.beta.tolist()}")
got = np.concatenate([[solved.alpha0], solved.beta])
truth = np.concatenate([[spec.alpha0], spec.beta])
print(f"  max relative error vs the truth: {np.max(np.abs(got - truth) / np.abs(truth)):.2e}")
