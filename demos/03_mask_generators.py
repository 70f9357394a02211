#!/usr/bin/env python3
"""The five mask generators side by side on one network.

Shows per-layer survivor allocation at 95% sparsity and why the
data-agnostic iterative criterion avoids emptying thin layers.
"""

import numpy as np

from sparselab import datasets, masks, training
from sparselab.layers import build_model

ds = datasets.make_synthetic("spirals", 256, 2, noise=0.1, seed=0)
spec = {"preset": "mlp", "in_shape": [2], "hidden": [32, 32, 32], "classes": 2}
batch = (ds.x_train[:128], ds.y_train[:128])
cfg = training.TrainConfig(epochs=3, batch_size=32, lr0=0.1, milestones=(), seed=0)

S = 0.95
generators = {}
model = build_model(spec, seed=0)
generators["random"] = masks.random_mask(model, S, seed=0)
generators["magnitude"] = masks.magnitude_mask(model, S)
generators["snip"] = masks.snip_mask(model, batch, S)
generators["grasp"] = masks.grasp_mask(model, batch, S)
generators["synflow"] = masks.synflow_mask(model, S)
generators["lth (2 rounds)"] = masks.imp_lth(
    model, ds, rounds=2, per_round_rate=1 - (1 - S) ** 0.5, train_config=cfg)

names = [b.name for b in model.maskable_blocks()]
print(f"target sparsity {S}, maskable weights: "
      f"{sum(b.value.size for b in model.maskable_blocks())}")
print(f"{'generator':15s} {'kept':>5s} {'achieved':>9s}  survivors per layer")
for label, mask in generators.items():
    counts = [mask.per_layer_survivors()[n] for n in names]
    print(f"{label:15s} {mask.survivors():5d} {mask.achieved_sparsity():9.4f}  {counts}")

collapsed = masks.layer_collapse_check(generators["random"])
print("\nrandom mask collapse check:", "collapsed" if collapsed else "no layer emptied")

# rewound lottery weights are the original initialization times the mask
rewound = masks.apply_mask(model.clone(), generators["lth (2 rounds)"])
w0 = model.blocks[names[0]].value
wr = rewound.blocks[names[0]].value
m = generators["lth (2 rounds)"].arrays[names[0]]
print("rewind exact:", bool(np.all(wr == w0 * m)))
