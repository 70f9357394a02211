#!/usr/bin/env python3
"""Learned initialization rescaling on a sparse network.

One positive scalar per layer is tuned so a single simulated SGD step on
a fixed batch lowers the loss as much as possible. Scales multiply the
existing initialization; masked weights stay zero.
"""

import numpy as np

from sparselab import datasets, diagnostics, masks, rescale
from sparselab.layers import build_model
from sparselab.training import smooth_labels_batch

ds = datasets.make_synthetic("spirals", 512, 2, noise=0.1, seed=0)
model = build_model({"preset": "mlp", "in_shape": [2], "hidden": [64, 64, 64],
                     "classes": 2}, seed=0)
masks.apply_mask(model, masks.random_mask(model, 0.95, seed=0))

x = ds.x_train[:128]
targets = smooth_labels_batch(ds.y_train[:128], 2, 0.0)

out = rescale.learn_scales(model, (x, targets), lr_train=0.1,
                           config=rescale.LRsIConfig(iters=20))
print("first-step loss at unit scales:", out.trace[0])
print("\nobjective trace (first 10):", np.round(out.trace[:10], 6))
print("best objective:", min(out.trace))
print("\nlearned scalars:")
for group, c in out.scales.items():
    print(f"  {group}: {c:.4f}")

rescale.apply_scales(model, out)
# recomputed from the rescaled model: one masked SGD step, then the loss
loss_fn, grad_fn, theta = diagnostics.probe_functions(model, x, targets, training=True)
final = loss_fn(theta - 0.1 * grad_fn(theta))
print("\nfirst-step loss after rescaling:", final)
print("never worse than unit scales:", final <= out.trace[0])

# masked coordinates survived the rescale untouched
blk = model.maskable_blocks()[0]
print("masked weights still exactly zero:", bool(np.all(blk.value[blk.mask == 0] == 0.0)))
