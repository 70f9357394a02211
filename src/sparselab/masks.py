"""Binary sparse mask generation and application.

Generators: random, one-shot magnitude, gradient sensitivity (snip
style), Hessian-gradient flow (grasp style), iterative synaptic flow, and
iterative magnitude pruning with rewind to the initialization. Only
conv/dense weights are maskable; biases and batchnorm parameters always
survive. Ranking scope is global by default, per-layer by flag.

Saliency-prune direction for the Hessian-gradient criterion: saliency is
theta ⊙ (H g) and the *largest* entries are pruned. The sign convention
is a module constant (`GRASP_PRUNE_LARGEST`) so flipping it is one line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sparselab import autodiff as ad
from sparselab.layers import ParamLayout

GRASP_PRUNE_LARGEST = True


class DegenerateSaliencyError(RuntimeError):
    """All saliency scores are zero; ranking would be arbitrary."""


@dataclass
class Mask:
    """Per-block binary arrays congruent to the maskable parameter blocks."""

    arrays: dict               # name -> float64 array of {0.0, 1.0}
    sparsity: float            # requested
    notes: tuple = ()

    def survivors(self):
        return int(sum(a.sum() for a in self.arrays.values()))

    def total(self):
        return int(sum(a.size for a in self.arrays.values()))

    def achieved_sparsity(self):
        return 1.0 - self.survivors() / self.total()

    def per_layer_survivors(self):
        return {n: int(a.sum()) for n, a in self.arrays.items()}


@dataclass
class CollapseReport:
    survivors: dict
    collapsed: bool
    collapsed_layers: list = field(default_factory=list)


def _check_sparsity(s):
    if not 0.0 <= s < 1.0:
        raise ValueError(f"sparsity must be in [0,1), got {s}")


def _keep_count(total, s):
    return int(round((1.0 - s) * total))


def _topk_keep(scores, keep_n):
    """Indices of the keep_n largest scores; ties keep the earlier index."""
    order = np.lexsort((np.arange(scores.size), -scores))
    flat = np.zeros(scores.size)
    flat[order[:keep_n]] = 1.0
    return flat


def _rank_mask(layout, scores_by_block, s, scope):
    if scope == "global":
        scores = layout.flatten(scores_by_block)
        return layout.unflatten(_topk_keep(scores, _keep_count(scores.size, s)))
    if scope == "layerwise":
        arrays = {}
        for name, shape in zip(layout.names, layout.shapes):
            sc = scores_by_block[name].ravel()
            arrays[name] = _topk_keep(sc, _keep_count(sc.size, s)).reshape(shape)
        return arrays
    raise ValueError(f"unknown ranking scope {scope!r}")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_mask(model, s, seed, scope="global"):
    """Uniformly random keep-set of round((1-s)*N) weights."""
    _check_sparsity(s)
    blocks = model.maskable_blocks()
    rng = np.random.default_rng([seed, 1])
    if scope == "global":
        layout = ParamLayout(blocks)
        flat = np.zeros(layout.size)
        flat[rng.permutation(layout.size)[:_keep_count(layout.size, s)]] = 1.0
        return Mask(layout.unflatten(flat), s)
    if scope == "layerwise":
        arrays = {}
        for b in blocks:
            flat = np.zeros(b.value.size)
            flat[rng.permutation(b.value.size)[:_keep_count(b.value.size, s)]] = 1.0
            arrays[b.name] = flat.reshape(b.value.shape)
        return Mask(arrays, s)
    raise ValueError(f"unknown ranking scope {scope!r}")


def magnitude_mask(model, s, scope="global", values=None):
    """Keep the top (1-s) fraction by |theta|."""
    _check_sparsity(s)
    blocks = model.maskable_blocks()
    scores = {}
    for b in blocks:
        v = b.value if values is None else values[b.name]
        if not np.all(np.isfinite(v)):
            raise ad.NumericError(f"magnitude_mask: non-finite weights in {b.name}")
        scores[b.name] = np.abs(v)
    return Mask(_rank_mask(ParamLayout(blocks), scores, s, scope), s)


def _loss_grads(model, batch, ls_alpha=0.0):
    """One train-mode forward/backward; returns grads per maskable block."""
    from sparselab.training import smooth_labels_batch
    x, y = batch
    if len(x) == 0:
        raise ValueError("mask generation needs a non-empty batch")
    targets = smooth_labels_batch(y, model.n_classes, ls_alpha)
    res = model.forward(x, training=True, update_stats=False)
    loss = ad.softmax_cross_entropy(res.logits, targets, label="mask_loss")
    ad.backward(loss)
    return {b.name: res.leaves[b.name].grad for b in model.maskable_blocks()}


def snip_mask(model, batch, s, scope="global"):
    """Gradient-sensitivity pruning: saliency |theta ⊙ grad L| on one batch."""
    _check_sparsity(s)
    blocks = model.maskable_blocks()
    grads = _loss_grads(model, batch)
    scores = {b.name: np.abs(b.value * grads[b.name]) for b in blocks}
    if all(np.all(sc == 0.0) for sc in scores.values()):
        raise DegenerateSaliencyError("snip_mask: every saliency score is zero")
    return Mask(_rank_mask(ParamLayout(blocks), scores, s, scope), s)


def grasp_saliency(grad_fn, theta0):
    """theta ⊙ (H g) with g = grad_fn(theta0) and Hg by finite differences."""
    g = grad_fn(theta0)
    if not np.any(g):
        raise DegenerateSaliencyError("grasp: zero gradient, Hg is undefined")
    hg = ad.hvp_finite_diff(grad_fn, theta0, g)
    if not np.all(np.isfinite(hg)):
        raise ad.NumericError("grasp: non-finite Hessian-gradient product")
    return theta0 * hg


def grasp_mask(model, batch, s, scope="global"):
    """Gradient-flow preservation pruning.

    Computes g = grad L over the maskable weights (other parameters held
    fixed), then H g by finite differences of gradients; saliency is
    theta ⊙ (H g) and the largest-saliency fraction s is pruned.
    """
    from sparselab.training import smooth_labels_batch
    _check_sparsity(s)
    layout = ParamLayout(model.maskable_blocks())
    x, y = batch
    if len(x) == 0:
        raise ValueError("mask generation needs a non-empty batch")
    targets = smooth_labels_batch(y, model.n_classes, 0.0)
    theta0 = layout.flatten({n: b.value for n, b in model.blocks.items()})

    def grad_fn(flat):
        res = model.forward(x, training=True, update_stats=False, values=layout.unflatten(flat))
        loss = ad.softmax_cross_entropy(res.logits, targets, label="grasp_loss")
        ad.backward(loss)
        return layout.flatten({n: res.leaves[n].grad for n in layout.names})

    saliency = grasp_saliency(grad_fn, theta0)
    ranking = -saliency if GRASP_PRUNE_LARGEST else saliency
    return Mask(_rank_mask(layout, layout.unflatten(ranking), s, scope), s)


def synflow_mask(model, s, iterations=100):
    """Iterative data-agnostic pruning by synaptic flow.

    Each iteration runs the network on an all-ones input with parameters
    replaced by their absolute values and batchnorm bypassed, scores the
    surviving weights by theta ⊙ dR/dtheta (R = sum of outputs), and
    prunes to the exponential density schedule (1-s)^(k/iterations).
    The model is never mutated; signs are untouched.
    """
    _check_sparsity(s)
    if iterations < 1:
        raise ValueError("synflow_mask: iterations must be >= 1")
    layout = ParamLayout(model.maskable_blocks())
    if s == 0.0:
        return Mask(layout.unflatten(np.ones(layout.size)), 0.0)

    ones = np.ones((1,) + model.in_shape)
    base_abs = {n: np.abs(b.value) for n, b in model.blocks.items()}
    live = np.ones(layout.size)
    density = 1.0 - s
    notes = []
    emptied = set()
    for k in range(1, iterations + 1):
        values = dict(base_abs)
        values.update({n: base_abs[n] * lv for n, lv in layout.unflatten(live).items()})
        res = model.forward(ones, training=False, update_stats=False,
                            bn_passthrough=True, values=values)
        flow = ad.sum_all(res.logits, label="synflow_R")
        ad.backward(flow)
        saliency = layout.flatten({n: base_abs[n] * res.leaves[n].grad for n in layout.names})
        saliency[live == 0.0] = -1.0     # pruned weights never resurrect
        keep_k = max(_keep_count(layout.size, 1.0 - density ** (k / iterations)), 1)
        live = _topk_keep(saliency, keep_k)
        for n, lv in layout.unflatten(live).items():
            if n not in emptied and not lv.any():
                emptied.add(n)
                notes.append(f"layer {n} fully pruned at iteration {k}")
    return Mask(layout.unflatten(live), s, notes=tuple(notes))


def imp_lth(model, dataset, rounds, per_round_rate, train_config):
    """Iterative magnitude pruning with rewind.

    Each round trains a fresh rewound copy to completion, prunes
    ``per_round_rate`` of the survivors by global trained magnitude, and
    rewinds the survivors to their initial values. Returns the final mask
    and the rewound (masked) model; the input model is untouched.
    """
    from sparselab.training import train
    if rounds < 1:
        raise ValueError("imp_lth: rounds must be >= 1")
    if not 0.0 < per_round_rate < 1.0:
        raise ValueError(f"imp_lth: per_round_rate must be in (0,1), got {per_round_rate}")
    layout = ParamLayout(model.maskable_blocks())
    total = layout.size
    if int(round(total * (1.0 - per_round_rate) ** rounds)) < 1:
        raise ValueError("imp_lth: requested rounds prune every weight (sparsity >= 1)")

    mask = Mask(layout.unflatten(np.ones(total)), 0.0)
    for r in range(1, rounds + 1):
        work = model.clone()
        apply_mask(work, mask)
        train(work, dataset, train_config)
        survivors_r = int(round(total * (1.0 - per_round_rate) ** r))
        scores = np.abs(layout.flatten({n: b.value for n, b in work.blocks.items()}))
        scores[layout.flatten(mask.arrays) == 0.0] = -1.0
        mask = Mask(layout.unflatten(_topk_keep(scores, survivors_r)),
                    1.0 - survivors_r / total)
    rewound = model.clone()
    apply_mask(rewound, mask)
    return mask, rewound


# ---------------------------------------------------------------------------
# application and checks
# ---------------------------------------------------------------------------

def apply_mask(model, mask):
    """Zero the masked weights and store the mask so the trainer keeps
    gradients and momentum at exactly 0 there forever after."""
    blocks = model.maskable_blocks()
    if set(mask.arrays) != {b.name for b in blocks}:
        raise ValueError("apply_mask: mask blocks do not match the model's maskable blocks")
    for b in blocks:
        arr = np.asarray(mask.arrays[b.name], dtype=np.float64)
        if arr.shape != b.value.shape:
            raise ValueError(f"apply_mask: mask for {b.name} has shape {arr.shape}, "
                             f"want {b.value.shape}")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError(f"apply_mask: mask for {b.name} is not binary")
        b.mask = arr.copy()
        b.value = b.value * b.mask
        b.momentum = b.momentum * b.mask
    return model


def layer_collapse_check(mask):
    """Survivor counts per maskable layer; flags any layer left empty."""
    survivors = mask.per_layer_survivors()
    collapsed = [n for n, c in survivors.items() if c == 0]
    return CollapseReport(survivors=survivors, collapsed=bool(collapsed),
                          collapsed_layers=collapsed)
