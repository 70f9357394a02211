#!/usr/bin/env python3
"""Measurement instruments on a briefly trained sparse conv net:
activation sparsity per layer, gradient flow, top Hessian eigenvalues,
a perturbation scan along the top eigenvector, and a 2-D landscape slice.
"""

import numpy as np

from sparselab import autodiff as ad
from sparselab import datasets, diagnostics, masks, training
from sparselab.layers import build_model
from sparselab.training import smooth_labels_batch

ds = datasets.make_synthetic("teacher", 256, 2, seed=0, input_shape=(1, 8, 8))
model = build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2}, seed=0)
masks.apply_mask(model, masks.random_mask(model, 0.9, seed=0))

cfg = training.TrainConfig(epochs=6, batch_size=64, lr0=0.05, milestones=(4,), seed=0)
training.train(model, ds, cfg)

x = ds.x_test[:64]
targets = smooth_labels_batch(ds.y_test[:64], 2, 0.0)

print("activation sparsity per site (|a| < 1e-6), relu vs swish:")
relu_sp = diagnostics.activation_sparsity(model, x, 1e-6)
swish_sp = diagnostics.activation_sparsity(model, x, 1e-6, activation="pswish", beta=1.0)
for name, r, s in zip(model.activation_site_names(), relu_sp, swish_sp):
    print(f"  {name:32s} relu={r:6.3f}  swish={s:8.6f}")

res = model.forward(x, training=True)
loss = ad.softmax_cross_entropy(res.logits, targets)
ad.backward(loss)
grads = {b.name: res.leaves[b.name].grad for b in model.maskable_blocks()}
mask_arrays = {b.name: b.mask for b in model.maskable_blocks()}
print("\naverage gradient flow over unpruned weights:",
      diagnostics.avg_gradient_flow(grads, mask_arrays))

loss_fn, grad_fn, theta0 = diagnostics.probe_functions(model, x, targets)
record, vecs = diagnostics.top_hessian_eigs(grad_fn, theta0, k=2, iters=40, seed=0)
print("\ntop Hessian eigenvalues:", np.round(record.eigenvalues, 4))
print("residuals:", np.round(record.residuals, 5), "converged:", record.converged)

ts = np.linspace(-0.5, 0.5, 9)
losses = diagnostics.eigvec_perturb_scan(model, (x, targets), vecs[0], ts)
print("\nloss along the top eigenvector (t, loss):")
for t, l in zip(ts, losses):
    print(f"  {t:+.3f}  {l:.5f}")

slice_ = diagnostics.landscape_slice(model, (x, targets), grid_n=5, span=0.3, seed=1)
print("\nlandscape slice (5x5, filter-normalized directions):")
print(np.round(slice_.losses, 4))
print("center equals baseline:", slice_.losses[2, 2] == loss_fn(theta0))
