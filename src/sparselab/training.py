"""Masked SGD training loop.

Protocol: SGD with momentum and weight decay, learning rate divided by 10
at each milestone epoch, optional label smoothing, optional ghost
schedules (soft neurons swapped back to exact relu and skip gates cut to
0 at the scheduled epoch), optional learned initialization rescaling
before the first step. ``train`` owns the optimiser state, a velocity over
the ``ParamLayout.free_index`` coordinates only, and makes one heavy-ball
update of them per batch: no step reads or writes a masked parameter.

Runs are deterministic given (seed, config, dataset); batch order is a
seeded per-epoch permutation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from sparselab import autodiff as ad
from sparselab import diagnostics, rescale
from sparselab.checkpoint import atomic_open
from sparselab.diagnostics import ProbeConfig
from sparselab.ghost import ConfigError, GhostConfig, SchedulePolicy
from sparselab.layers import ParamLayout
from sparselab.rescale import LRsIConfig

DIVERGENCE_LOSS = 1e6


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 128
    lr0: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    milestones: tuple = (30, 45)
    ls_alpha: float = 0.0
    seed: int = 0
    ghost: GhostConfig | None = None
    lrsi: LRsIConfig | None = None
    probes: ProbeConfig | None = None      # None: ProbeConfig's defaults

    def __post_init__(self):
        ms = tuple(int(m) for m in self.milestones)
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if self.epochs and ms and ms[-1] >= self.epochs:
            raise ConfigError(f"milestones {ms} must lie before the last epoch {self.epochs}")
        if not 0.0 <= self.ls_alpha < 1.0:
            raise ConfigError(f"ls_alpha must be in [0,1), got {self.ls_alpha}")
        if not self.batch_size >= 1:
            raise ConfigError("batch_size must be >= 1")
        if self.ghost is not None:
            SchedulePolicy(self.ghost, ms)   # the schedule needs its milestones
        self.milestones = ms
        if self.probes is None:
            self.probes = ProbeConfig()


@dataclass
class RunRecord:
    epoch: int
    lr: float
    beta: float
    alpha: float
    train_loss: float
    test_loss: float
    test_acc: float
    grad_flow: float
    act_sparsity: tuple = ()
    top_eigs: tuple | None = None
    eig_residuals: tuple | None = None
    eig_converged: tuple | None = None
    swap_deviation: float | None = None
    diverged: bool = False
    error: str | None = None


def smooth_labels(target_class, n_classes, ls_alpha):
    """Smoothed target row: correct class 1-a+a/K, the rest a/K."""
    if not 0.0 <= ls_alpha < 1.0:
        raise ValueError(f"smooth_labels: ls_alpha must be in [0,1), got {ls_alpha}")
    if n_classes < 2:
        raise ValueError(f"smooth_labels: need at least 2 classes, got {n_classes}")
    k = int(target_class)
    if not 0 <= k < n_classes:
        raise ValueError(f"smooth_labels: class {target_class} out of range [0,{n_classes})")
    return smooth_labels_batch([k], n_classes, ls_alpha)[0]


def smooth_labels_batch(labels, n_classes, ls_alpha):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("smooth_labels_batch: label out of range")
    out = np.full((labels.size, n_classes), ls_alpha / n_classes)
    out[np.arange(labels.size), labels] += 1.0 - ls_alpha
    return out


def cross_entropy(logits, targets):
    """Mean softmax cross entropy as a float; accepts arrays or a Tensor."""
    t = logits if isinstance(logits, ad.Tensor) else ad.Tensor(logits)
    return float(ad.softmax_cross_entropy(t, np.asarray(targets, dtype=np.float64)).data)


def lr_at(epoch, lr0, milestones):
    """Step schedule: lr0 / 10^(number of milestones at or before epoch)."""
    return lr0 * 0.1 ** sum(1 for m in milestones if m <= epoch)


def sgd_step(theta, grad, velocity, lr, momentum, weight_decay):
    """One heavy-ball step with weight decay on flat vectors; returns new
    (theta, velocity), never in place."""
    velocity = momentum * velocity + (grad + weight_decay * theta)
    return theta - lr * velocity, velocity


def evaluate(model, x, y, batch_size, *, activation=None, beta=1.0, alpha=0.0):
    """Test loss (one-hot) and accuracy under eval-mode batchnorm."""
    n = len(x)
    total_loss, correct = 0.0, 0
    for start in range(0, n, batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        res = model.forward(xb, training=False, activation=activation, beta=beta, alpha=alpha,
                            grad=False)
        onehot = smooth_labels_batch(yb, model.n_classes, 0.0)
        total_loss += cross_entropy(res.logits, onehot) * len(xb)
        correct += int((res.logits.data.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def _ghost_knobs(config, state):
    """Effective (activation, beta, alpha) for an epoch's ghost state."""
    if state is None or config.ghost is None:
        return None, math.inf, 0.0
    g = config.ghost
    act = g.activation if (g.soft_neurons and state.phase == "ghost") else None
    beta = state.beta if g.soft_neurons else math.inf
    alpha = state.alpha if g.skip_gates else 0.0
    return act, beta, alpha


def train(model, dataset, config, mask=None):
    """Run the full protocol; returns one RunRecord per completed epoch.

    Divergence (a non-finite value in the forward pass, the gradients or
    the update, or an exploding loss) aborts the run with a final record
    flagged ``diverged`` instead of raising; its ``error`` says what went
    wrong, at which epoch and batch. The diverging batch changes neither
    the parameters nor the batchnorm running statistics.
    """
    if mask is not None:
        from sparselab.masks import apply_mask
        apply_mask(model, mask)
    if config.epochs == 0:
        return []

    x_train, y_train = dataset.x_train, dataset.y_train
    n = len(x_train)
    k_classes = model.n_classes
    pc = config.probes
    probe_x, probe_y = x_train[:pc.probe_batch], y_train[:pc.probe_batch]

    policy = SchedulePolicy(config.ghost, config.milestones) if config.ghost else None

    if config.lrsi is not None:
        bx = x_train[:min(config.batch_size, n)]
        bt = smooth_labels_batch(y_train[:len(bx)], k_classes, config.ls_alpha)
        state0 = policy.state_at(0) if policy else None
        act0, beta0, alpha0 = _ghost_knobs(config, state0)
        # the first-step objective sees the exact epoch-0 network, ghosts included
        scales = rescale.learn_scales(model, (bx, bt), config.lr0, config.lrsi,
                                      activation=act0, beta=beta0, alpha=alpha0)
        rescale.apply_scales(model, scales)
        model.applied_scales = scales

    rng = np.random.default_rng([config.seed, 2])
    masks_by_name = {b.name: b.mask for b in model.maskable_blocks()}
    layout = ParamLayout(model.blocks.values())
    free = layout.free_index
    theta = layout.flatten({n: b.value for n, b in model.blocks.items()})
    velocity = np.zeros(free.size)
    history = []
    prev_phase = None

    for epoch in range(config.epochs):
        lr = lr_at(epoch, config.lr0, config.milestones)
        state = policy.state_at(epoch) if policy else None
        act_kind, beta, alpha = _ghost_knobs(config, state)

        perm = rng.permutation(n)
        losses, flows = [], []
        error = None
        for batch, start in enumerate(range(0, n, config.batch_size)):
            idx = perm[start:start + config.batch_size]
            xb = x_train[idx]
            targets = smooth_labels_batch(y_train[idx], k_classes, config.ls_alpha)
            bn_before = dict(model.bn_stats)    # put back unless the batch passes its checks
            try:
                res = model.forward(xb, training=True, activation=act_kind,
                                    beta=beta, alpha=alpha)
                loss = ad.softmax_cross_entropy(res.logits, targets, label="train_loss")
                val = float(loss.data)
                if not math.isfinite(val) or val > DIVERGENCE_LOSS:
                    error = f"train loss {val}"
                    break
                ad.backward(loss)
                grads = {name: res.leaves[name].grad for name in masks_by_name}
                flows.append(diagnostics.avg_gradient_flow(grads, masks_by_name))
                grad = layout.flatten({n: leaf.grad for n, leaf in res.leaves.items()})
                if not np.all(np.isfinite(grad)):     # the first bad coordinate's block
                    bad = np.searchsorted(layout.offsets, np.argmin(np.isfinite(grad)), "right")
                    error = f"sgd_step: non-finite gradient for block {layout.names[bad - 1]}"
                    break
                grad = grad[free]   # the finite check read it all; drop the full copy now
                stepped, velocity = sgd_step(theta[free], grad, velocity, lr,
                                             config.momentum, config.weight_decay)
                del grad        # not held through the next forward and backward
                theta = theta.copy()    # masked bytes kept as apply_mask left them (-0.0 too)
                theta[free] = stepped
                for name, value in layout.unflatten(theta).items():   # rebind: graphs keep theirs
                    model.blocks[name].value = value
            except ad.NumericError as exc:
                error = str(exc)
                break
            losses.append(val)

        if error is not None:
            model.bn_stats.update(bn_before)
            history.append(RunRecord(epoch=epoch, lr=lr, beta=beta, alpha=alpha,
                                     train_loss=math.nan, test_loss=math.nan,
                                     test_acc=math.nan, grad_flow=math.nan,
                                     diverged=True,
                                     error=f"{error} at epoch {epoch}, batch {batch}"))
            return history

        test_loss, test_acc = evaluate(model, dataset.x_test, dataset.y_test,
                                       config.batch_size, activation=act_kind,
                                       beta=beta, alpha=alpha)
        act_sp = diagnostics.activation_sparsity(model, probe_x, pc.act_eps,
                                                 activation=act_kind, beta=beta, alpha=alpha)

        swap_dev = None
        if (state is not None and state.phase == "post_ghost" and prev_phase == "ghost"
                and config.ghost.soft_neurons and config.ghost.activation == "pswish"):
            swap_dev = _swap_deviation(model, probe_x, config.ghost.beta_max)
        prev_phase = state.phase if state else None

        top_eigs = resids = converged = None
        if pc.enabled and epoch % pc.every == 0:
            onehot = smooth_labels_batch(probe_y, k_classes, 0.0)
            _, grad_fn, theta0 = diagnostics.probe_functions(
                model, probe_x, onehot, activation=act_kind, beta=beta, alpha=alpha,
                layout=layout)
            record, _ = diagnostics.top_hessian_eigs(
                grad_fn, theta0, k=pc.eig_count, iters=pc.power_iters,
                tol=pc.tol, seed=config.seed * 1000 + epoch)
            top_eigs, resids, converged = record.eigenvalues, record.residuals, record.converged

        history.append(RunRecord(
            epoch=epoch, lr=lr, beta=beta, alpha=alpha,
            train_loss=float(np.mean(losses)) if losses else math.nan,
            test_loss=test_loss, test_acc=test_acc,
            grad_flow=float(np.mean(flows)) if flows else math.nan,
            act_sparsity=tuple(act_sp), top_eigs=top_eigs, eig_residuals=resids,
            eig_converged=converged, swap_deviation=swap_dev,
        ))
    return history


def _swap_deviation(model, x, beta_max):
    """Max |pswish(z, beta_max) - relu(z)| over the pre-activation values
    observed at the swap epoch, reduced site by site."""
    dev = 0.0

    def observe(z, _):
        nonlocal dev
        soft = ad.pswish(z, beta_max, label="swap_deviation").data
        dev = max(dev, float(np.abs(soft - np.maximum(z, 0.0)).max()))

    model.forward(x, training=False, observe=observe, grad=False)
    return dev


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path, header, rows):
    """The one CSV writer: RFC-4180, LF line endings, every cell through
    ``_fmt`` (round-trip-exact floats, None as an empty cell), and the
    file replaced atomically, so a failure leaves no half-written table."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def metrics_header(n_act_layers, eig_count):
    cols = ["epoch", "lr", "beta", "alpha", "train_loss", "test_loss", "test_acc", "grad_flow"]
    cols += [f"act_sparsity_L{i + 1}" for i in range(n_act_layers)]
    cols += [f"top_eig_{j + 1}" for j in range(eig_count)]
    return cols


def write_metrics_csv(path, history, n_act_layers, eig_count):
    """Per-epoch metrics; absent sparsities and eigenvalues are empty cells."""
    write_csv(path, metrics_header(n_act_layers, eig_count), (
        [r.epoch, r.lr, r.beta, r.alpha, r.train_loss, r.test_loss, r.test_acc, r.grad_flow,
         *r.act_sparsity, *[None] * (n_act_layers - len(r.act_sparsity)),
         *(r.top_eigs or ()), *[None] * (eig_count - len(r.top_eigs or ()))] for r in history))
