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

STEP = 0.05                 # the fixed step on each log-scale
BOUNDS = (0.01, 100.0)      # the clamp on each scalar


@dataclass
class LRsIConfig:
    iters: int = 50

    def __post_init__(self):
        if not self.iters >= 0:
            raise ConfigError(f"lrsi iters must be >= 0, got {self.iters}")


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


def _owner(model, layout, groups):
    """Each flat coordinate's group index (a group's scalar multiplies that
    layer's weight and bias), ``len(groups)`` where no scalar applies."""
    index = {g: i for i, g in enumerate(groups)}
    return layout.flatten({n: np.full(b.value.shape, index.get(b.group, len(groups))
                                      if b.kind in ("weight", "bias") else len(groups))
                           for n, b in model.blocks.items()})


def learn_scales(model, batch, lr_train, config, **forward_kwargs):
    """Optimize per-block scalars to lower the first-step loss.

    The scalars are c = exp(u) (positivity needs no projection), moved by
    ``STEP`` along the exact gradient of J(u) = L(theta'), with theta_c the
    scaled values and theta' = theta_c - lr * grad L(theta_c), and clamped
    to ``BOUNDS``. Since H is symmetric and the step moves free coordinates
    only, dJ/du_g = sum over group g of theta_c ⊙ (g' - lr * H(theta_c) g')
    with g' = grad L(theta'): two gradients and one complex-step Hessian-
    vector product per iteration, for every scalar at once. The best-seen
    scalars are kept, so the final objective never exceeds the objective at
    c=1; an objective that raises ``NumericError`` counts as infinite.
    ``forward_kwargs`` are passed to every forward pass of the objective.
    """
    groups = scale_groups(model)
    if not groups:
        raise ValueError("learn_scales: model has no maskable weight blocks")
    lo, hi = math.log(BOUNDS[0]), math.log(BOUNDS[1])
    x, targets = batch
    # masks and shapes are fixed: one layout and one closure serve every call
    layout = ParamLayout(model.blocks.values())
    owner = _owner(model, layout, groups)[layout.free_index]
    loss_fn, value_and_grad, theta1 = probe_closures(
        model, x, targets, training=True, layout=layout, **forward_kwargs)
    grad_fn = lambda vec: value_and_grad(vec)[1]

    def objective(u, with_grad):
        """J(u), and dJ/du when ``with_grad`` (else None)."""
        # math.exp, not np.exp: the scalars must match the ones returned
        theta = theta1 * np.array([math.exp(ui) for ui in u] + [1.0])[owner]
        stepped = theta - lr_train * grad_fn(theta)
        if not with_grad:
            return loss_fn(stepped), None
        j, g1 = value_and_grad(stepped)
        dj = theta * (g1 - lr_train * ad.hvp_complex_step(grad_fn, theta, g1))
        return j, np.bincount(owner, weights=dj, minlength=len(groups) + 1)[:len(groups)]

    u = np.zeros(len(groups))
    # c=1; raises on degenerate init
    j, grad = objective(u, config.iters > 0)
    if not math.isfinite(j):
        raise ad.NumericError("objective non-finite at unit scales")
    best_u, best_j = u, j
    trace = [j]
    for it in range(config.iters):
        if grad is None or not np.all(np.isfinite(grad)):
            break
        u = np.clip(u - STEP * grad, lo, hi)
        try:
            j, grad = objective(u, it + 1 < config.iters)    # the last one needs J only
        except ad.NumericError:
            j, grad = math.inf, None
        trace.append(j)
        if j < best_j:
            best_j, best_u = j, u
    return ScaleSet(scales={g: math.exp(ui) for g, ui in zip(groups, best_u)}, trace=trace)


def apply_scales(model, scales):
    """Multiply each group's weight and bias by ``scales[group]``, in place."""
    known = set(scale_groups(model))
    for g, c in scales.items():
        if g not in known:
            raise ValueError(f"apply_scales: unknown scale group {g!r}")
        if not (c > 0):
            raise ValueError(f"apply_scales: scalar for {g!r} must be positive, got {c}")
    layout = ParamLayout(model.blocks.values())
    flat = layout.flatten({n: b.value for n, b in model.blocks.items()})
    cvec = np.array([*scales.values(), 1.0])[_owner(model, layout, list(scales))]
    for name, value in layout.unflatten(flat * cvec).items():
        model.blocks[name].value = value
    return model
