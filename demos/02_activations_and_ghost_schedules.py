#!/usr/bin/env python3
"""Soft neurons and the schedules that anneal them away.

Parametric swish x*sigmoid(beta*x) morphs from half-identity (beta=0)
through swish (beta=1) toward relu (beta -> inf). During the ghost phase
beta rises while the skip gate alpha falls; both hit their terminal
values at the first learning-rate milestone.
"""

import numpy as np

from sparselab import autodiff as ad
from sparselab.ghost import GhostConfig, SchedulePolicy, alpha_at, beta_at

xs = np.linspace(-4, 4, 9)
print("x:          ", np.round(xs, 2))
for beta in (0.0, 1.0, 4.0, 10.0, 1e6):
    vals = ad.pswish(ad.Tensor(xs), beta).data
    print(f"pswish b={beta:<7g}", np.round(vals, 3))
print("relu:       ", np.round(np.maximum(xs, 0), 3))
print("mish:       ", np.round(ad.mish(ad.Tensor(xs)).data, 3))

# worst-case gap to relu shrinks like ~0.2785/beta
for beta in (1.0, 10.0, 100.0):
    grid = np.linspace(-10, 10, 100001)
    gap = np.abs(ad.pswish(ad.Tensor(grid), beta).data - np.maximum(grid, 0)).max()
    print(f"max |pswish(b={beta:g}) - relu| = {gap:.5f}")

print("\nschedules toward the first milestone (t_end=30):")
print("epoch  beta(linear)  beta(cosine)  alpha")
for epoch in (0, 10, 15, 20, 29, 30, 45):
    print(f"{epoch:5d}  {beta_at(epoch, 30):12.3f}  "
          f"{beta_at(epoch, 30, shape='cosine'):12.3f}  {alpha_at(epoch, 30):5.3f}")

print("\nremoval policies at milestones (30, 45):")
for policy in ("ghost", "keep_forever", "ghost_at_second_decay", "abrupt_removal"):
    pol = SchedulePolicy(GhostConfig(policy=policy), (30, 45))
    desc = "  ".join(f"e{e}:a={pol.knobs(e)['alpha']:.2f}" for e in (0, 29, 30, 44, 45))
    print(f"{policy:22s} {desc}")
