"""Measurement instruments: activation sparsity, gradient flow, Hessian
spectrum along the trajectory, eigenvector perturbation scans, and 2-D
loss-landscape slices.

All probes are read-only: they evaluate the network through parameter
overrides and never touch the model's stored values. Perturbation
directions live in the free (unmasked) coordinate space, so scans measure
the sparse subnetwork's landscape, never moving pruned weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sparselab import autodiff as ad
from sparselab.ghost import ConfigError
from sparselab.layers import ParamLayout

# the distances ``sparselab probe --scan`` moves along the top eigenvector
SCAN_DISTANCES = tuple(np.linspace(-0.5, 0.5, 11))


@dataclass
class ProbeConfig:
    enabled: bool = False
    every: int = 5                 # epochs between spectrum probes
    eig_count: int = 1
    power_iters: int = 50
    tol: float = 1e-3
    act_eps: float = 1e-6          # |activation| threshold for sparsity
    probe_batch: int = 256
    landscape_grid: int = 11
    landscape_span: float = 0.5

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.eig_count >= 1:
            raise ConfigError("probe eig_count must be >= 1")
        if not self.act_eps > 0:
            raise ConfigError("probe act_eps must be positive")
        if not self.every >= 1:
            raise ConfigError("probe cadence must be >= 1 epoch")
        if not self.power_iters >= 1:
            raise ConfigError("probe power_iters must be >= 1")
        if not self.tol > 0:
            raise ConfigError("probe tol must be positive")
        if not self.probe_batch >= 1:
            raise ConfigError("probe probe_batch must be >= 1")
        if self.landscape_grid % 2 == 0 or not self.landscape_grid >= 1:
            raise ConfigError("landscape grid must be odd so the origin is sampled")


@dataclass
class SpectrumRecord:
    eigenvalues: tuple
    residuals: tuple
    converged: tuple


def activation_sparsity(model, x, eps=1e-6, **forward_kwargs):
    """Fraction of post-activation values with |a| < eps, per activation site."""
    if len(x) == 0:
        raise ValueError("activation_sparsity: batch must be non-empty")
    if not eps > 0:
        raise ValueError("activation_sparsity: eps must be positive")
    sparsity = []
    model.forward(x, update_stats=False, grad=False, **forward_kwargs,
                  observe=lambda z, a: sparsity.append(float((np.abs(a) < eps).mean())))
    return np.array(sparsity)


def avg_gradient_flow(grads, masks=None):
    """Mean absolute gradient over unmasked coordinates.

    ``grads``: dict name -> array; ``masks``: dict name -> binary array or
    None (None means the block is fully unmasked).
    """
    total, count = 0.0, 0
    for name, g in grads.items():
        g = np.abs(np.asarray(g, dtype=np.float64))
        m = None if masks is None else masks.get(name)
        if m is None:
            total += g.sum()
            count += g.size
        else:
            total += float((g * m).sum())
            count += int(m.sum())
    if count == 0:
        raise ValueError("avg_gradient_flow: no unmasked coordinates")
    return total / count


def probe_closures(model, x, targets, *, training=False, activation=None,
                   beta=1.0, alpha=0.0, layout=None, values=None):
    """``loss_fn`` and ``value_and_grad`` (the loss and its gradient from one
    forward and backward) over the free coordinates of ``layout`` (default:
    every block; blocks outside it keep the model's values), and theta0,
    the free part of ``values`` (default: the model's values).

    The one loss-and-gradient closure of the probes, SNIP, GraSP and LRsI.
    A complex128 point (see ``autodiff.hvp_complex_step``) gives a complex
    gradient and the loss's real part. ``loss_fn``'s forward builds no
    tape. The forward pass never updates running stats and parameter
    overrides keep the model itself untouched.
    """
    if len(x) == 0:
        raise ValueError("probe_closures: batch must be non-empty")
    if layout is None:
        layout = ParamLayout(model.blocks.values())
    if values is None:
        values = {n: b.value for n, b in model.blocks.items()}
    theta0 = layout.free(values)
    y = np.asarray(targets, dtype=np.float64)

    def run(vec, grad):
        res = model.forward(x, training=training, update_stats=False,
                            activation=activation, beta=beta, alpha=alpha,
                            values=layout.from_free(vec), grad=grad)
        return res, ad.softmax_cross_entropy(res.logits, y, label="probe_loss")

    def loss_fn(vec):
        return float(run(vec, grad=False)[1].data)

    def value_and_grad(vec):
        res, loss = run(vec, grad=True)
        ad.backward(loss)
        return float(loss.data.real), layout.free({n: res.leaves[n].grad for n in layout.names})

    return loss_fn, value_and_grad, theta0


def probe_functions(model, x, targets, **kwargs):
    """``(loss_fn, grad_fn, theta0)``: :func:`probe_closures` with the
    gradient alone (same keyword arguments)."""
    loss_fn, value_and_grad, theta0 = probe_closures(model, x, targets, **kwargs)
    return loss_fn, lambda vec: value_and_grad(vec)[1], theta0


def top_hessian_eigs(grad_fn, theta, k=1, iters=100, tol=1e-3, seed=0):
    """Top-k Hessian eigenvalues by shifted power iteration with deflation.

    A first pass estimates the spectral radius; iterating on H + radius*I
    then converges to the algebraically largest eigenvalues even when the
    most negative one dominates in magnitude. Non-convergence flags the
    entry rather than raising.

    An entry is converged when the stopping rule ended its loop (the
    Rayleigh quotient moved by <= tol*max(1, |lambda|), or the shifted
    product was 0) and its relative residual is <= sqrt(tol). The
    quotient's error is quadratic in the eigenvector's error while the
    residual is linear in it, so at that stop the residual is of order
    sqrt(tol), not tol.
    """
    theta = np.asarray(theta, dtype=np.float64)
    if k < 1:
        raise ValueError("top_hessian_eigs: k must be >= 1")
    if iters < 1:
        raise ValueError("top_hessian_eigs: iters must be >= 1")
    rng = np.random.default_rng(seed)
    hvp = lambda v: ad.hvp_finite_diff(grad_fn, theta, v)

    v = rng.normal(size=theta.size)
    v /= np.linalg.norm(v)
    for _ in range(min(iters, 30)):
        w = hvp(v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            break
        v = w / nrm
    radius = abs(float(v @ hvp(v)))
    shift = radius + 1.0

    vecs, vals, resids, conv = [], [], [], []
    for _ in range(k):
        v = rng.normal(size=theta.size)
        for u in vecs:
            v -= (u @ v) * u
        v /= np.linalg.norm(v)
        lam, converged = None, False
        for _ in range(iters):
            w = hvp(v) + shift * v
            for u in vecs:
                w -= (u @ w) * u
            lam_new = float(v @ w) - shift
            nrm = np.linalg.norm(w)
            if nrm == 0.0:
                lam_new = -shift
                converged = True
                break
            v = w / nrm
            if lam is not None and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
                lam = lam_new
                converged = True
                break
            lam = lam_new
        res = float(np.linalg.norm(hvp(v) - lam * v) / max(abs(lam), 1e-12))
        vecs.append(v)
        vals.append(lam)
        resids.append(res)
        conv.append(converged and res <= math.sqrt(tol))

    order = np.argsort(vals)[::-1]
    return SpectrumRecord(
        eigenvalues=tuple(vals[i] for i in order),
        residuals=tuple(resids[i] for i in order),
        converged=tuple(conv[i] for i in order),
    ), [vecs[i] for i in order]


def eigvec_perturb_scan(model, batch, direction, distances, **forward_kwargs):
    """Loss at theta + t*direction for each scan distance t.

    ``direction`` is a free-coordinate vector; it is normalized to unit
    length (masked coordinates cannot appear in it by construction).
    """
    x, targets = batch
    d = np.asarray(direction, dtype=np.float64)
    nrm = np.linalg.norm(d)
    if nrm == 0.0:
        raise ValueError("eigvec_perturb_scan: direction must be nonzero")
    d = d / nrm
    loss_fn, _, theta0 = probe_functions(model, x, targets, **forward_kwargs)
    return np.array([loss_fn(theta0 + float(t) * d) for t in distances])


def _filter_normalized_direction(model, rng):
    """Gaussian direction rescaled per filter/row to the parameter norms.

    Conv filters use one group per output channel, dense weights one per
    output unit, 1-D blocks one group for the whole block. Masked
    coordinates are zeroed before normalization.
    """
    values = {}
    for name, blk in model.blocks.items():
        d = rng.normal(size=blk.value.shape)
        if blk.mask is not None:
            d = d * blk.mask
        if blk.value.ndim == 4:
            axes = (1, 2, 3)
        elif blk.value.ndim == 2:
            axes = (0,)
        else:
            axes = None
        if axes is None:
            dn, pn = np.linalg.norm(d), np.linalg.norm(blk.value)
            d = d * (pn / dn) if dn > 0 else d * 0.0
        else:
            dn = np.sqrt((d ** 2).sum(axis=axes, keepdims=True))
            pn = np.sqrt((blk.value ** 2).sum(axis=axes, keepdims=True))
            with np.errstate(invalid="ignore", divide="ignore"):
                scale = np.where(dn > 0, pn / dn, 0.0)
            d = d * scale
        values[name] = d
    return ParamLayout(model.blocks.values()).free(values)


@dataclass
class LandscapeSlice:
    a_values: np.ndarray
    b_values: np.ndarray
    losses: np.ndarray          # shape (grid_n, grid_n), losses[i, j] at (a_i, b_j)
    direction1: np.ndarray = field(repr=False, default=None)
    direction2: np.ndarray = field(repr=False, default=None)


def landscape_slice(model, batch, grid_n, span, seed=0, **forward_kwargs):
    """Loss surface on a 2-D slice spanned by two filter-normalized
    random directions (Gram-Schmidt orthogonalized, masks respected)."""
    if grid_n % 2 == 0 or grid_n < 1:
        raise ValueError("landscape_slice: grid_n must be odd")
    x, targets = batch
    rng = np.random.default_rng(seed)
    d1 = _filter_normalized_direction(model, rng)
    d2 = _filter_normalized_direction(model, rng)
    n1 = d1 @ d1
    if n1 > 0:
        d2 = d2 - ((d1 @ d2) / n1) * d1
    loss_fn, _, theta0 = probe_functions(model, x, targets, **forward_kwargs)
    avals = np.linspace(-span, span, grid_n)
    bvals = np.linspace(-span, span, grid_n)
    losses = np.empty((grid_n, grid_n))
    for i, a in enumerate(avals):
        for j, b in enumerate(bvals):
            losses[i, j] = loss_fn(theta0 + a * d1 + b * d2)
    return LandscapeSlice(avals, bvals, losses, d1, d2)
