"""Layer-wise re-scaled initialization.

Learns one positive scalar per parameter block (a layer's weight and bias
share it) so that a single simulated SGD step on a fixed batch lowers the
training loss as much as possible. The original initialization is only
rescaled, never redrawn; masked coordinates stay exactly zero. The
scalars follow the exact gradient of that first-step loss, built from two
loss gradients and one complex-step Hessian-vector product per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sparselab import autodiff as ad
from sparselab.diagnostics import probe_closures
from sparselab.ghost import ConfigError
from sparselab.layers import ParamLayout


@dataclass
class LRsIConfig:
    iters: int = 50
    step: float = 0.05
    bounds: tuple = (0.01, 100.0)  # clamp on each scalar

    def __post_init__(self):
        if not self.iters >= 0:
            raise ConfigError(f"lrsi iters must be >= 0, got {self.iters}")
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


def learn_scales(model, batch, lr_train, config=None, **forward_kwargs):
    """Optimize per-block scalars to lower the first-step loss.

    The scalars are c = exp(u) (positivity needs no projection), moved by a
    fixed-size step along the exact gradient of J(u) = L(theta'), with
    theta_c the scaled values and theta' = theta_c - lr * grad L(theta_c),
    and clamped. Since H is symmetric and the step moves free coordinates
    only, dJ/du_g = sum over group g of theta_c ⊙ (g' - lr * H(theta_c) g')
    with g' = grad L(theta'): two gradients and one complex-step Hessian-
    vector product per iteration, for every scalar at once. The best-seen
    scalars are kept, so the final objective never exceeds the objective at
    c=1; an objective that raises ``NumericError`` counts as infinite.
    ``forward_kwargs`` are passed to every forward pass of the objective.
    """
    cfg = config or LRsIConfig()
    groups = scale_groups(model)
    if not groups:
        raise ValueError("learn_scales: model has no maskable weight blocks")
    lo, hi = math.log(cfg.bounds[0]), math.log(cfg.bounds[1])
    x, targets = batch
    # masks and shapes are fixed here, so every objective call shares one layout
    layout = ParamLayout(model.blocks.values())
    # each free coordinate's scale group, len(groups) where no scalar applies
    index = {g: i for i, g in enumerate(groups)}
    owner = layout.free({n: np.full(b.value.shape, index.get(b.group, len(groups))
                                    if b.kind in ("weight", "bias") else len(groups))
                         for n, b in model.blocks.items()})

    def objective(u, with_grad):
        """J(u), and dJ/du when ``with_grad`` (else None)."""
        scales = {g: math.exp(ui) for g, ui in zip(groups, u)}
        loss_fn, value_and_grad, theta = probe_closures(
            model, x, targets, training=True, layout=layout,
            values=_scaled_values(model, scales), **forward_kwargs)
        grad_fn = lambda vec: value_and_grad(vec)[1]
        stepped = theta - lr_train * grad_fn(theta)
        if not with_grad:
            return loss_fn(stepped), None
        j, g1 = value_and_grad(stepped)
        dj = theta * (g1 - lr_train * ad.hvp_complex_step(grad_fn, theta, g1))
        return j, np.bincount(owner, weights=dj, minlength=len(groups) + 1)[:len(groups)]

    u = np.zeros(len(groups))
    # c=1; raises on degenerate init
    j, grad = objective(u, cfg.iters > 0)
    if not math.isfinite(j):
        raise ad.NumericError("objective non-finite at unit scales")
    best_u, best_j = u, j
    trace = [j]
    for it in range(cfg.iters):
        if grad is None or not np.all(np.isfinite(grad)):
            break
        u = np.clip(u - cfg.step * grad, lo, hi)
        try:
            j, grad = objective(u, it + 1 < cfg.iters)    # the last one needs J only
        except ad.NumericError:
            j, grad = math.inf, None
        trace.append(j)
        if j < best_j:
            best_j, best_u = j, u
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
    for name, value in _scaled_values(model, scales).items():
        model.blocks[name].value = value
    return model
