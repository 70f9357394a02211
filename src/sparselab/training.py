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
from sparselab.diagnostics import ProbeConfig, SpectrumRecord
from sparselab.ghost import ConfigError, GhostConfig, SchedulePolicy
from sparselab.layers import ParamLayout
from sparselab.rescale import LRsIConfig, ScaleSet

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
        if not self.epochs >= 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        ms = tuple(int(m) for m in self.milestones)
        if any(m < 0 for m in ms):
            raise ConfigError(f"milestones must be >= 0, got {ms}")
        if any(b <= a for a, b in zip(ms, ms[1:])):
            raise ConfigError(f"milestones must be strictly increasing, got {ms}")
        if self.epochs and ms and ms[-1] >= self.epochs:
            raise ConfigError(f"milestones {ms} must lie before the last epoch {self.epochs}")
        if not 0.0 <= self.ls_alpha < 1.0:
            raise ConfigError(f"ls_alpha must be in [0,1), got {self.ls_alpha}")
        if not self.batch_size >= 1:
            raise ConfigError("batch_size must be >= 1")
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
    spectrum: SpectrumRecord | None = None     # as top_hessian_eigs returned it
    swap_deviation: float | None = None
    diverged: bool = False
    error: str | None = None


@dataclass
class TrainResult:
    history: list               # one RunRecord per epoch, a diverged one last
    scales: ScaleSet | None     # what learn_scales returned, None without LRsI


def smooth_labels_batch(labels, n_classes, ls_alpha):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("smooth_labels_batch: label out of range")
    out = np.full((labels.size, n_classes), ls_alpha / n_classes)
    out[np.arange(labels.size), labels] += 1.0 - ls_alpha
    return out


def lr_at(epoch, lr0, milestones):
    """Step schedule: lr0 / 10^(number of milestones at or before epoch)."""
    return lr0 * 0.1 ** sum(1 for m in milestones if m <= epoch)


def sgd_step(theta, grad, velocity, lr, momentum, weight_decay):
    """One heavy-ball step with weight decay on flat vectors; returns new
    (theta, velocity), never in place."""
    velocity = momentum * velocity + (grad + weight_decay * theta)
    return theta - lr * velocity, velocity


def evaluate(model, x, y, batch_size, **forward_kwargs):
    """Test loss (one-hot) and accuracy of ``model.forward(x, **forward_kwargs)``,
    eval-mode batchnorm unless ``forward_kwargs`` say otherwise."""
    n = len(x)
    total_loss, correct = 0.0, 0
    for start in range(0, n, batch_size):
        xb, yb = x[start:start + batch_size], y[start:start + batch_size]
        res = model.forward(xb, grad=False, **forward_kwargs)
        onehot = smooth_labels_batch(yb, model.n_classes, 0.0)
        total_loss += float(ad.softmax_cross_entropy(res.logits, onehot).data) * len(xb)
        correct += int((res.logits.data.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def train(model, dataset, config, mask=None):
    """Run the full protocol; returns a TrainResult with one RunRecord per
    completed epoch and the ScaleSet that LRsI applied, if any.

    ``SchedulePolicy(config.ghost, config.milestones).knobs(epoch)`` gives
    each epoch's activation, beta and alpha, which the training forward,
    ``evaluate`` and the probes receive unchanged (LRsI those of epoch 0).
    The run computes with numpy's floating-point warnings off, so only its
    finite checks decide divergence: a non-finite value anywhere in the run
    (LRsI's objective, a batch's forward, loss, gradient or update, the
    evaluation or a probe) or an exploding loss ends it with a final record
    flagged ``diverged`` instead of raising. Its ``error`` reads
    ``learn_scales: <msg> at epoch 0``, ``<msg> at epoch e, batch b`` or,
    after an epoch's batches, ``<msg> at epoch e``. A batch's parameters
    and batchnorm statistics are committed together after its last check,
    or not at all.
    """
    if mask is not None:
        from sparselab.masks import apply_mask
        apply_mask(model, mask)
    if config.epochs == 0:
        return TrainResult([], None)

    x_train, y_train = dataset.x_train, dataset.y_train
    n = len(x_train)
    k_classes = model.n_classes
    pc = config.probes
    probe_x, probe_y = x_train[:pc.probe_batch], y_train[:pc.probe_batch]

    policy = SchedulePolicy(config.ghost, config.milestones)
    knobs = policy.knobs(0)     # the first-step objective sees the exact epoch-0 network
    history, scales = [], None
    stage, epoch, batch = "learn_scales: ", 0, None     # where a NumericError stops the run

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            if config.lrsi is not None:
                bx = x_train[:min(config.batch_size, n)]
                bt = smooth_labels_batch(y_train[:len(bx)], k_classes, config.ls_alpha)
                scales = rescale.learn_scales(model, (bx, bt), config.lr0, config.lrsi, **knobs)
                rescale.apply_scales(model, scales)
            stage = ""

            rng = np.random.default_rng([config.seed, 2])
            masks_by_name = {b.name: b.mask for b in model.maskable_blocks()}
            layout = ParamLayout(model.blocks.values())
            free = layout.free_index
            theta = layout.flatten({n: b.value for n, b in model.blocks.items()})
            velocity = np.zeros(free.size)

            for epoch in range(config.epochs):
                lr = lr_at(epoch, config.lr0, config.milestones)
                knobs = policy.knobs(epoch)

                perm = rng.permutation(n)
                losses, flows = [], []
                for batch, start in enumerate(range(0, n, config.batch_size)):
                    idx = perm[start:start + config.batch_size]
                    xb = x_train[idx]
                    targets = smooth_labels_batch(y_train[idx], k_classes, config.ls_alpha)
                    res = model.forward(xb, training=True, **knobs)
                    loss = ad.softmax_cross_entropy(res.logits, targets, label="train_loss")
                    val = float(loss.data)
                    if not math.isfinite(val) or val > DIVERGENCE_LOSS:
                        raise ad.NumericError(f"train loss {val}")
                    ad.backward(loss)
                    grads = {name: res.leaves[name].grad for name in masks_by_name}
                    flows.append(diagnostics.avg_gradient_flow(grads, masks_by_name))
                    grad = layout.flatten({n: leaf.grad for n, leaf in res.leaves.items()})
                    if not np.all(np.isfinite(grad)):
                        raise ad.NumericError("sgd_step: non-finite gradient for block "
                                              + _bad_block(layout, grad))
                    grad = grad[free]   # the finite check read it all; drop the full copy now
                    stepped, velocity = sgd_step(theta[free], grad, velocity, lr,
                                                 config.momentum, config.weight_decay)
                    del grad        # not held through the next forward and backward
                    theta = theta.copy()    # masked bytes kept as apply_mask left them (-0.0 too)
                    theta[free] = stepped
                    if not np.all(np.isfinite(stepped)):
                        raise ad.NumericError("sgd_step: non-finite update for block "
                                              + _bad_block(layout, theta))
                    for name, value in layout.unflatten(theta).items():   # rebind: graphs keep old
                        model.blocks[name].value = value
                    model.bn_stats.update(res.stats)    # with the blocks, after every check
                    losses.append(val)
                batch = None

                test_loss, test_acc = evaluate(model, dataset.x_test, dataset.y_test,
                                               config.batch_size, **knobs)
                act_sp = diagnostics.activation_sparsity(model, probe_x, pc.act_eps, **knobs)
                swap_dev = (_swap_deviation(model, probe_x, config.ghost.beta_max)
                            if epoch == policy.swap_epoch else None)

                spectrum = None
                if pc.enabled and epoch % pc.every == 0:
                    onehot = smooth_labels_batch(probe_y, k_classes, 0.0)
                    _, grad_fn, theta0 = diagnostics.probe_functions(model, probe_x, onehot,
                                                                     layout=layout, **knobs)
                    spectrum, _ = diagnostics.top_hessian_eigs(
                        grad_fn, theta0, k=pc.eig_count, iters=pc.power_iters,
                        tol=pc.tol, seed=config.seed * 1000 + epoch)

                history.append(RunRecord(
                    epoch=epoch, lr=lr, beta=knobs["beta"], alpha=knobs["alpha"],
                    train_loss=float(np.mean(losses)) if losses else math.nan,
                    test_loss=test_loss, test_acc=test_acc,
                    grad_flow=float(np.mean(flows)) if flows else math.nan,
                    act_sparsity=tuple(act_sp), spectrum=spectrum, swap_deviation=swap_dev,
                ))
        except ad.NumericError as exc:
            at_batch = "" if batch is None else f", batch {batch}"
            history.append(RunRecord(
                epoch=epoch, lr=lr_at(epoch, config.lr0, config.milestones),
                beta=knobs["beta"], alpha=knobs["alpha"], train_loss=math.nan,
                test_loss=math.nan, test_acc=math.nan, grad_flow=math.nan, diverged=True,
                error=f"{stage}{exc} at epoch {epoch}{at_batch}"))
    return TrainResult(history, scales)


def _bad_block(layout, flat):
    """The name of the block that holds ``flat``'s first non-finite coordinate."""
    return layout.names[np.searchsorted(layout.offsets, np.argmin(np.isfinite(flat)), "right") - 1]


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
    def row(r):
        eigs = r.spectrum.eigenvalues if r.spectrum else ()
        return [r.epoch, r.lr, r.beta, r.alpha, r.train_loss, r.test_loss, r.test_acc,
                r.grad_flow, *r.act_sparsity, *[None] * (n_act_layers - len(r.act_sparsity)),
                *eigs, *[None] * (eig_count - len(eigs))]

    write_csv(path, metrics_header(n_act_layers, eig_count), map(row, history))
