"""Helpers that only the tests call: a parameter count, the ghost skip
sites of a model, and a dense finite-difference Hessian oracle."""

import numpy as np

from sparselab import autodiff as ad
from sparselab import layers


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
