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

from dataclasses import dataclass, replace

import numpy as np

from sparselab import autodiff as ad
from sparselab.diagnostics import probe_functions
from sparselab.ghost import ConfigError
from sparselab.layers import ParamLayout
from sparselab.training import smooth_labels_batch, train

GRASP_PRUNE_LARGEST = True
SCOPES = ("global", "layerwise")    # every scoped generator ranks by one of these


class DegenerateSaliencyError(ValueError):
    """Every saliency score is zero, so any ranking is arbitrary: bad input, not a bug."""


@dataclass
class Mask:
    """Per-block binary arrays congruent to the maskable parameter blocks."""

    arrays: dict               # name -> float64 array of {0.0, 1.0}
    notes: tuple = ()

    def survivors(self):
        return int(sum(a.sum() for a in self.arrays.values()))

    def total(self):
        return int(sum(a.size for a in self.arrays.values()))

    def achieved_sparsity(self):
        return 1.0 - self.survivors() / self.total()

    def per_layer_survivors(self):
        return {n: int(a.sum()) for n, a in self.arrays.items()}


def check_sparsity(s, key="sparsity"):
    """The one sparsity rule, 0 <= s < 1 (NaN fails it); returns ``s``."""
    if not 0.0 <= s < 1.0:
        raise ConfigError(f"{key} must be in [0, 1), got {s}")
    return s


def _keep_count(total, s):
    return int(round((1.0 - s) * total))


def _topk_keep(scores, keep_n):
    """0/1 vector marking the keep_n largest of the flat ``scores``.

    Ties keep the earlier flat index; +0 and -0 tie, and NaN ranks below
    every number (-inf included), its ties also kept in index order. This
    is the first keep_n of a stable sort by descending score, found in
    O(n): one partition gives the cut value, every score above it is
    kept, and the remaining slots go to the scores equal to it in
    ascending index.
    """
    if not 0 < keep_n < scores.size:
        return np.full(scores.size, 1.0 if keep_n > 0 else 0.0)
    neg = -scores
    neg.partition(keep_n - 1)       # NaN goes last, as in a sort
    cut = -neg[keep_n - 1]
    if np.isnan(cut):
        tied = np.isnan(scores)
        above = ~tied
    else:
        above, tied = scores > cut, scores == cut
    flat = np.zeros(scores.size)
    flat[above] = 1.0
    flat[np.flatnonzero(tied)[:keep_n - np.count_nonzero(above)]] = 1.0
    return flat


def _live_arrays(layout, live):
    """Per-block 0/1 arrays with ones at the flat indices ``live``."""
    flat = np.zeros(layout.size)
    flat[live] = 1.0
    return layout.unflatten(flat)


def _scoped_mask(layout, s, scope, keep):
    """The one scope split: "global" ranks all of ``layout`` as one group,
    "layerwise" each block in order; ``keep(lo, hi, keep_n)`` gives the 0/1
    vector of flat coordinates [lo, hi)."""
    if scope not in SCOPES:
        raise ValueError(f"unknown ranking scope {scope!r}; choose from {SCOPES}")
    bounds = [0, layout.size] if scope == "global" else layout.offsets.tolist()
    return layout.unflatten(np.concatenate([keep(lo, hi, _keep_count(hi - lo, s))
                                            for lo, hi in zip(bounds, bounds[1:])]))


def _rank_mask(layout, scores_by_block, s, scope):
    scores = layout.flatten(scores_by_block)
    return _scoped_mask(layout, s, scope, lambda lo, hi, n: _topk_keep(scores[lo:hi], n))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def random_mask(model, s, seed, scope="global"):
    """Uniformly random keep-set of round((1-s)*N) weights."""
    check_sparsity(s)
    rng = np.random.default_rng([seed, 1])

    def keep(lo, hi, keep_n):
        flat = np.zeros(hi - lo)
        flat[rng.permutation(hi - lo)[:keep_n]] = 1.0
        return flat

    return Mask(_scoped_mask(ParamLayout(model.maskable_blocks()), s, scope, keep))


def magnitude_mask(model, s, scope="global"):
    """Keep the top (1-s) fraction by |theta|."""
    check_sparsity(s)
    blocks = model.maskable_blocks()
    scores = {}
    for b in blocks:
        if not np.all(np.isfinite(b.value)):
            raise ad.NumericError(f"magnitude_mask: non-finite weights in {b.name}")
        scores[b.name] = np.abs(b.value)
    return Mask(_rank_mask(ParamLayout(blocks), scores, s, scope))


def _loss_closure(model, batch):
    """Train-mode gradient over the free maskable weights, on one-hot targets."""
    x, y = batch
    layout = ParamLayout(model.maskable_blocks())
    _, grad_fn, theta0 = probe_functions(model, x, smooth_labels_batch(y, model.n_classes, 0.0),
                                         training=True, layout=layout)
    return layout, grad_fn, theta0


def snip_mask(model, batch, s, scope="global"):
    """Gradient-sensitivity pruning: saliency |theta ⊙ grad L| on one batch."""
    check_sparsity(s)
    layout, grad_fn, theta0 = _loss_closure(model, batch)
    scores = np.abs(theta0 * grad_fn(theta0))
    if not np.any(scores):
        raise DegenerateSaliencyError("snip_mask: every saliency score is zero")
    return Mask(_rank_mask(layout, layout.from_free(scores), s, scope))


def grasp_saliency(grad_fn, theta0):
    """theta ⊙ (H g) with g = grad_fn(theta0) and Hg exact by the complex step."""
    g = grad_fn(theta0)
    if not np.any(g):
        raise DegenerateSaliencyError("grasp: zero gradient, Hg is undefined")
    return theta0 * ad.hvp_complex_step(grad_fn, theta0, g)


def grasp_mask(model, batch, s, scope="global"):
    """Gradient-flow preservation pruning.

    Computes g = grad L over the free maskable weights (other parameters
    held fixed), then H g exactly by the complex step; saliency is
    theta ⊙ (H g) and the largest-saliency fraction s is pruned.
    """
    check_sparsity(s)
    layout, grad_fn, theta0 = _loss_closure(model, batch)
    saliency = grasp_saliency(grad_fn, theta0)
    ranking = -saliency if GRASP_PRUNE_LARGEST else saliency
    return Mask(_rank_mask(layout, layout.from_free(ranking), s, scope))


def synflow_mask(model, s, iterations=100):
    """Iterative data-agnostic pruning by synaptic flow.

    Each iteration runs the network on an all-ones input with parameters
    replaced by their absolute values and batchnorm bypassed, scores the
    surviving weights by theta ⊙ dR/dtheta (R = sum of outputs), and
    prunes to the exponential density schedule (1-s)^(k/iterations).
    Only survivors are ranked: every live score is >= 0, so this keeps what
    ranking all weights with the pruned ones last would, ties in index order.
    The model is never mutated; signs are untouched.
    """
    check_sparsity(s)
    if iterations < 1:
        raise ValueError("synflow_mask: iterations must be >= 1")
    layout = ParamLayout(model.maskable_blocks())
    if s == 0.0:
        return Mask(layout.unflatten(np.ones(layout.size)))

    ones = np.ones((1,) + model.in_shape)
    base_abs = {n: np.abs(b.value) for n, b in model.blocks.items()}
    base = layout.flatten(base_abs)
    values = base.copy()                # |theta| on the survivors, 0.0 on the pruned
    live = np.arange(layout.size)       # ascending flat indices of the survivors
    density = 1.0 - s
    notes = []
    emptied = set()
    for k in range(1, iterations + 1):
        res = model.forward(ones, training=False, bn_passthrough=True,
                            values={**base_abs, **layout.unflatten(values)})
        ad.backward(ad.sum_all(res.logits, label="synflow_R"))
        grad = layout.flatten({n: res.leaves[n].grad for n in layout.names})
        keep_k = max(_keep_count(layout.size, 1.0 - density ** (k / iterations)), 1)
        kept = _topk_keep(base[live] * grad[live], keep_k) == 1.0
        values[live[~kept]] = 0.0
        live = live[kept]
        counts = np.diff(np.searchsorted(live, layout.offsets))
        for n, c in zip(layout.names, counts):
            if c == 0 and n not in emptied:
                emptied.add(n)
                notes.append(f"layer {n} fully pruned at iteration {k}")
    return Mask(_live_arrays(layout, live), notes=tuple(notes))


def imp_lth(model, dataset, rounds, per_round_rate, train_config):
    """Iterative magnitude pruning with rewind.

    Each round trains a fresh rewound copy to completion (without the
    spectrum probe: a round's history is dropped), prunes ``per_round_rate``
    of the survivors by global trained magnitude, and rewinds the survivors
    to their initial values. Returns the final mask; the input model is
    untouched, so ``apply_mask(model.clone(), mask)`` is the rewound ticket.
    """
    if rounds < 1:
        raise ValueError("imp_lth: rounds must be >= 1")
    if not 0.0 < per_round_rate < 1.0:
        raise ValueError(f"imp_lth: per_round_rate must be in (0,1), got {per_round_rate}")
    layout = ParamLayout(model.maskable_blocks())
    total = layout.size
    if int(round(total * (1.0 - per_round_rate) ** rounds)) < 1:
        raise ValueError("imp_lth: requested rounds prune every weight (sparsity >= 1)")

    train_config = replace(train_config, probes=replace(train_config.probes, enabled=False))
    live = np.arange(total)             # ascending flat indices of the survivors
    for r in range(1, rounds + 1):
        work = model.clone()
        apply_mask(work, Mask(_live_arrays(layout, live)))
        train(work, dataset, train_config)
        trained = layout.flatten({n: b.value for n, b in work.blocks.items()})
        survivors_r = int(round(total * (1.0 - per_round_rate) ** r))
        live = live[np.flatnonzero(_topk_keep(np.abs(trained[live]), survivors_r))]
    return Mask(_live_arrays(layout, live))


# ---------------------------------------------------------------------------
# application and checks
# ---------------------------------------------------------------------------

def apply_mask(model, mask):
    """Zero the masked weights and store the mask; the trainer steps only the
    ``ParamLayout.free_index`` coordinates, so these bytes never change after."""
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
    return model


def layer_collapse_check(mask):
    """The maskable layers the mask leaves empty, in block order."""
    return [n for n, c in mask.per_layer_survivors().items() if c == 0]
