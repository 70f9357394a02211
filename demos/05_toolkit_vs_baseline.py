#!/usr/bin/env python3
"""Full training comparison: default protocol vs the whole toolkit
(soft neurons + ghost skips + rescaled init + label smoothing) on a
highly sparse random mask.

Writes per-epoch metrics CSVs next to this script's working directory.
"""

import numpy as np

from sparselab import datasets, masks, training
from sparselab.ghost import GhostConfig
from sparselab.layers import build_model
from sparselab.rescale import LRsIConfig

SPARSITY = 0.95
ds = datasets.make_synthetic("spirals", 1024, 2, noise=0.05, seed=0)
spec = {"preset": "mlp", "in_shape": [2], "classes": 2}


def run(label, seed, toolkit):
    model = build_model(spec, seed=seed)
    mask = masks.random_mask(model, SPARSITY, seed=seed)
    cfg = training.TrainConfig(
        epochs=60, batch_size=64, lr0=0.1, milestones=(30, 45),
        ls_alpha=0.1 if toolkit else 0.0, seed=seed,
        ghost=GhostConfig() if toolkit else None,
        lrsi=LRsIConfig(iters=12) if toolkit else None)
    history = training.train(masks.apply_mask(model, mask), ds, cfg).history
    path = f"demo05_{label}_seed{seed}.csv"
    training.write_metrics_csv(path, history, len(model.activation_site_names()), 1)
    return history


for seed in (0, 1, 2):
    base = run("baseline", seed, toolkit=False)
    full = run("toolkit", seed, toolkit=True)
    print(f"seed {seed}:  baseline acc={base[-1].test_acc:.4f}   "
          f"toolkit acc={full[-1].test_acc:.4f}   "
          f"gain={full[-1].test_acc - base[-1].test_acc:+.4f}")

print("\nper-epoch CSVs written as demo05_*_seed*.csv")
print("columns:", ",".join(training.metrics_header(7, 1)[:8]), "...")
