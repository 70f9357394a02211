"""Helpers that only the tests call: a parameter count, the ghost skip
sites of a model, a dense finite-difference Hessian oracle, and the
label-smoothing, cross-entropy and first-step-loss shorthands, each built
on the library function that the training code calls."""

import numpy as np

from sparselab import autodiff as ad
from sparselab import layers
from sparselab.diagnostics import probe_functions
from sparselab.training import smooth_labels_batch


def param_count(model):
    """Number of parameter values of ``model``, masked ones included."""
    return sum(b.value.size for b in model.blocks.values())


def ghost_skip_sites(model):
    """Shape-preserving dense/conv layers and residual sub-blocks, in order."""
    sites = []
    for layer in model.layers:
        if isinstance(layer, layers._ResidualBlock):
            sites.extend([f"{layer.name}.ghost1", f"{layer.name}.ghost2"])
        elif isinstance(layer, (layers._Dense, layers._Conv)) and layer.ghost_site:
            sites.append(layer.name)
    return sites


def finite_diff_hessian(scalar_fn, params, h=1e-4):
    """Dense Hessian by double central differences (independent curvature oracle)."""
    theta = np.asarray(params, dtype=np.float64).ravel()
    n = theta.size
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (
                float(scalar_fn(theta + ei + ej))
                - float(scalar_fn(theta + ei - ej))
                - float(scalar_fn(theta - ei + ej))
                + float(scalar_fn(theta - ei - ej))
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    if not np.all(np.isfinite(hess)):
        raise ad.NumericError("finite_diff_hessian: non-finite evaluation")
    return hess


def smooth_labels(target_class, n_classes, ls_alpha):
    """One smoothed target row: correct class 1-a+a/K, the rest a/K."""
    return smooth_labels_batch([target_class], n_classes, ls_alpha)[0]


def cross_entropy(logits, targets):
    """Mean softmax cross entropy of an array of logits, as a float."""
    return float(ad.softmax_cross_entropy(logits, targets).data)


def first_step_loss(model, batch, lr, **forward_kwargs):
    """Train-mode loss after one simulated masked SGD step on the same batch:
    L(theta - lr * (m ⊙ grad L(theta))) at the model's values theta, with the
    model left unchanged. ``forward_kwargs`` select the network variant
    (activation, beta, alpha)."""
    x, targets = batch
    loss_fn, grad_fn, theta = probe_functions(model, x, targets, training=True,
                                              **forward_kwargs)
    return loss_fn(theta - lr * grad_fn(theta))
