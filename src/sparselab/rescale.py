"""Layer-wise re-scaled initialization.

Learns one positive scalar per parameter block (a layer's weight and bias
share it) so that a single simulated SGD step on a fixed batch lowers the
training loss as much as possible. The original initialization is only
rescaled, never redrawn; masked coordinates stay exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sparselab import autodiff as ad
from sparselab.diagnostics import probe_functions
from sparselab.ghost import ConfigError
from sparselab.layers import ParamLayout


@dataclass
class LRsIConfig:
    iters: int = 50
    step: float = 0.05
    fd_step: float = 1e-3          # central-difference step in log space
    bounds: tuple = (0.01, 100.0)  # clamp on each scalar

    def __post_init__(self):
        lo, hi = self.bounds
        if not (0 < lo < hi):
            raise ConfigError(f"lrsi bounds must satisfy 0 < lo < hi, got {self.bounds}")


@dataclass
class ScaleSet:
    scales: dict            # group name -> positive coefficient
    trace: list = field(default_factory=list)  # objective per iteration, trace[0] at c=1


def scale_groups(model):
    """Groups (layer names) that own a maskable weight, in block order."""
    seen = []
    for blk in model.blocks.values():
        if blk.maskable and blk.group not in seen:
            seen.append(blk.group)
    return seen


def _scaled_values(model, scales):
    values = {}
    for name, blk in model.blocks.items():
        c = scales.get(blk.group)
        if c is not None and blk.kind in ("weight", "bias"):
            values[name] = blk.value * c
        else:
            values[name] = blk.value
    return values


def first_step_loss(model, batch, lr, values=None, **forward_kwargs):
    """Training loss after one simulated masked SGD step on the same batch.

    Returns L(theta - lr * (m ⊙ grad L(theta))) at theta = ``values`` (default:
    the model's) without mutating the model. ``forward_kwargs`` go to
    :func:`probe_functions`: activation, beta and alpha select the network
    variant, and ``layout`` lets a caller that evaluates many scalings reuse
    one ``ParamLayout`` of the model's blocks.
    """
    x, targets = batch
    loss_fn, grad_fn, theta = probe_functions(model, x, targets, training=True,
                                              values=values, **forward_kwargs)
    return loss_fn(theta - lr * grad_fn(theta))


def learn_scales(model, batch, lr_train, config=None, **forward_kwargs):
    """Optimize per-block scalars to lower the first-step loss.

    Coordinate gradients are estimated by central finite differences in
    log space (positivity needs no projection), followed by a fixed-size
    gradient step and clamping. The best-seen scalars are kept, so the
    final objective never exceeds the objective at c=1. ``forward_kwargs``
    are passed to every forward pass of the objective.
    """
    cfg = config or LRsIConfig()
    groups = scale_groups(model)
    if not groups:
        raise ValueError("learn_scales: model has no maskable weight blocks")
    lo, hi = math.log(cfg.bounds[0]), math.log(cfg.bounds[1])
    # masks and shapes are fixed here, so every objective call shares one layout
    forward_kwargs = {**forward_kwargs, "layout": ParamLayout(model.blocks.values())}

    def objective(u):
        scales = {g: math.exp(ui) for g, ui in zip(groups, u)}
        try:
            return first_step_loss(model, batch, lr_train, values=_scaled_values(model, scales),
                                   **forward_kwargs)
        except ad.NumericError:
            return math.inf

    u = np.zeros(len(groups))
    # c=1; raises on degenerate init
    j0 = first_step_loss(model, batch, lr_train, **forward_kwargs)
    if not math.isfinite(j0):
        raise ad.NumericError("learn_scales: objective non-finite at unit scales")
    best_u, best_j = u.copy(), j0
    trace = [j0]
    for _ in range(cfg.iters):
        grad = np.zeros_like(u)
        for i in range(len(u)):
            step = np.zeros_like(u)
            step[i] = cfg.fd_step
            grad[i] = (objective(u + step) - objective(u - step)) / (2 * cfg.fd_step)
        if not np.all(np.isfinite(grad)):
            break
        u = np.clip(u - cfg.step * grad, lo, hi)
        j = objective(u)
        trace.append(j)
        if j < best_j:
            best_j, best_u = j, u.copy()
    return ScaleSet(scales={g: math.exp(ui) for g, ui in zip(groups, best_u)}, trace=trace)


def apply_scales(model, scale_set):
    """Multiply each group's weight and bias by its learned scalar, in place."""
    scales = scale_set.scales if isinstance(scale_set, ScaleSet) else dict(scale_set)
    known = set(scale_groups(model))
    for g, c in scales.items():
        if g not in known:
            raise ValueError(f"apply_scales: unknown scale group {g!r}")
        if not (c > 0):
            raise ValueError(f"apply_scales: scalar for {g!r} must be positive, got {c}")
    for blk in model.blocks.values():
        c = scales.get(blk.group)
        if c is not None and blk.kind in ("weight", "bias"):
            blk.value = blk.value * c
    return model
