"""Ghost schedules: time-varying soft-neuron sharpness and skip gates.

During the first stage of training (up to the first learning-rate decay)
the relu sites run as parametric swish with sharpness ``beta`` annealed
upward, and extra identity skips are gated in with gain ``alpha``
annealed downward. At ``t_end`` both ghosts vanish: beta reports the
+inf sentinel (exact relu is used), alpha is exactly 0, and the forward
pass is bit-identical to a never-ghosted model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

POLICIES = ("ghost", "keep_forever", "ghost_at_second_decay", "abrupt_removal")
SCHEDULE_SHAPES = ("linear", "cosine")


class ConfigError(ValueError):
    """Invalid configuration value."""


def _fraction(epoch, t_end, shape):
    f = epoch / t_end
    if shape == "linear":
        return f
    if shape == "cosine":
        return 0.5 * (1.0 - math.cos(math.pi * f))
    raise ConfigError(f"unknown schedule shape {shape!r}")


def beta_at(epoch, t_end, beta0=1.0, beta_max=10.0, shape="linear"):
    """Soft-neuron sharpness at ``epoch``; +inf sentinel once relu is swapped in."""
    if not beta0 > 0:
        raise ValueError(f"beta_at: beta0 must be positive, got {beta0}")
    if t_end <= 0:
        raise ValueError(f"beta_at: t_end must be positive, got {t_end}")
    if epoch < 0:
        raise ValueError(f"beta_at: epoch must be >= 0, got {epoch}")
    if epoch >= t_end:
        return math.inf
    return beta0 + (beta_max - beta0) * _fraction(epoch, t_end, shape)


def alpha_at(epoch, t_end, alpha0=1.0, shape="linear"):
    """Ghost-skip gate at ``epoch``; exactly 0 from ``t_end`` on."""
    if t_end <= 0:
        raise ValueError(f"alpha_at: t_end must be positive, got {t_end}")
    if epoch < 0:
        raise ValueError(f"alpha_at: epoch must be >= 0, got {epoch}")
    if epoch >= t_end:
        return 0.0
    return alpha0 * (1.0 - _fraction(epoch, t_end, shape))


@dataclass
class GhostConfig:
    policy: str = "ghost"
    beta0: float = 1.0
    beta_max: float = 10.0
    alpha0: float = 1.0
    schedule: str = "linear"
    activation: str = "pswish"   # soft neuron kind: pswish | mish
    soft_neurons: bool = True    # replace relu sites during the ghost phase
    skip_gates: bool = True      # add the gated identity shortcuts

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown ghost policy {self.policy!r}")
        if self.schedule not in SCHEDULE_SHAPES:
            raise ConfigError(f"unknown ghost schedule {self.schedule!r}")
        if self.activation not in ("pswish", "mish"):
            raise ConfigError(f"unknown ghost activation {self.activation!r}")
        if not self.beta0 > 0:
            raise ConfigError(f"ghost beta0 must be positive, got {self.beta0}")
        if not self.beta_max >= 0:
            raise ConfigError(f"ghost beta_max must be >= 0, got {self.beta_max}")
        if not 0.0 <= self.alpha0 <= 1.0:
            raise ConfigError(f"ghost alpha0 must be in [0,1], got {self.alpha0}")


class SchedulePolicy:
    """The network of each epoch under a ghost config (``None``: no ghosts).

    ``knobs(epoch)`` is the one source of ``Model.forward``'s activation,
    beta and alpha; ``swap_epoch`` is the epoch at which pswish soft
    neurons give way to exact relu (None when that never happens).
    """

    def __init__(self, config: GhostConfig | None, milestones):
        self.config = config
        self.t_end = self.swap_epoch = None
        if config is None:
            return
        milestones = tuple(int(m) for m in milestones)
        index = 1 if config.policy == "ghost_at_second_decay" else 0   # the removal milestone
        if len(milestones) <= index:
            raise ConfigError(f"policy {config.policy!r} needs {index + 1} lr milestone(s)")
        self.t_end = milestones[index]
        if self.t_end < 1:
            raise ConfigError(f"policy {config.policy!r} would remove its ghosts at epoch "
                              f"{self.t_end}, before the first epoch trains with them")
        if (config.soft_neurons and config.activation == "pswish"
                and config.policy != "keep_forever"):
            self.swap_epoch = self.t_end

    def knobs(self, epoch):
        """``Model.forward``'s activation, beta and alpha at ``epoch``: soft
        neurons only where configured and still in the ghost phase, and
        skip gates only where configured."""
        c = self.config
        if c is None or (c.policy != "keep_forever" and epoch >= self.t_end):
            return {"activation": None, "beta": math.inf, "alpha": 0.0}
        if c.policy in ("keep_forever", "abrupt_removal"):
            beta, alpha = c.beta0, c.alpha0
        else:   # "ghost" and "ghost_at_second_decay": annealed removal
            beta = beta_at(epoch, self.t_end, c.beta0, c.beta_max, c.schedule)
            alpha = alpha_at(epoch, self.t_end, c.alpha0, c.schedule)
        return {"activation": c.activation if c.soft_neurons else None,
                "beta": beta if c.soft_neurons else math.inf,
                "alpha": alpha if c.skip_gates else 0.0}
