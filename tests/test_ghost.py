"""Ghost schedule closed forms, policies, and terminal behavior."""

import math

import numpy as np
import pytest

from sparselab import ghost


class TestBetaSchedule:
    def test_start_value(self):
        assert ghost.beta_at(0, 30) == 1.0
        assert ghost.beta_at(0, 30, beta0=2.5) == 2.5

    def test_linear_midpoint(self):
        assert ghost.beta_at(15, 30, beta0=1.0, beta_max=10.0) == 5.5

    def test_relu_swap_at_t_end(self):
        assert ghost.beta_at(30, 30) == math.inf
        assert ghost.beta_at(31, 30) == math.inf

    def test_monotone_nondecreasing(self):
        vals = [ghost.beta_at(e, 40) for e in range(41)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_cosine_shape(self):
        assert ghost.beta_at(0, 30, shape="cosine") == 1.0
        assert ghost.beta_at(15, 30, shape="cosine") == pytest.approx(5.5)
        vals = [ghost.beta_at(e, 30, shape="cosine") for e in range(31)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ghost.beta_at(0, 30, beta0=0.0)
        with pytest.raises(ValueError):
            ghost.beta_at(0, 0)
        with pytest.raises(ValueError):
            ghost.beta_at(-1, 30)


class TestAlphaSchedule:
    def test_endpoints(self):
        assert ghost.alpha_at(0, 30) == 1.0
        assert ghost.alpha_at(30, 30) == 0.0
        assert ghost.alpha_at(45, 30) == 0.0

    def test_linear_midpoint(self):
        assert ghost.alpha_at(15, 30) == 0.5

    def test_monotone_nonincreasing(self):
        vals = [ghost.alpha_at(e, 40) for e in range(41)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
        cos_vals = [ghost.alpha_at(e, 40, shape="cosine") for e in range(41)]
        assert all(b <= a for a, b in zip(cos_vals, cos_vals[1:]))


POST_GHOST = {"activation": None, "beta": math.inf, "alpha": 0.0}


class TestPolicies:
    def test_default_policy_anneals_to_first_milestone(self):
        pol = ghost.SchedulePolicy(ghost.GhostConfig(), (30, 45))
        assert pol.knobs(0) == {"activation": "pswish", "beta": 1.0, "alpha": 1.0}
        assert pol.knobs(30) == POST_GHOST

    def test_keep_forever(self):
        pol = ghost.SchedulePolicy(ghost.GhostConfig(policy="keep_forever"), (30, 45))
        for e in (0, 29, 30, 59, 500):
            assert pol.knobs(e) == {"activation": "pswish", "beta": 1.0, "alpha": 1.0}

    def test_abrupt_removal_step_function(self):
        pol = ghost.SchedulePolicy(ghost.GhostConfig(policy="abrupt_removal"), (30, 45))
        assert pol.knobs(29)["alpha"] == 1.0
        assert pol.knobs(29)["beta"] == 1.0
        assert pol.knobs(30)["alpha"] == 0.0
        assert pol.knobs(30)["beta"] == math.inf

    def test_ghost_at_second_decay(self):
        pol = ghost.SchedulePolicy(ghost.GhostConfig(policy="ghost_at_second_decay"), (30, 45))
        assert pol.knobs(44)["alpha"] > 0.0
        assert pol.knobs(45)["alpha"] == 0.0
        with pytest.raises(ghost.ConfigError):
            ghost.SchedulePolicy(ghost.GhostConfig(policy="ghost_at_second_decay"), (30,))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ghost.ConfigError):
            ghost.GhostConfig(policy="linger")

    def test_post_ghost_invariant(self):
        for policy, t_end in (("ghost", 10), ("abrupt_removal", 10),
                              ("ghost_at_second_decay", 20)):
            pol = ghost.SchedulePolicy(ghost.GhostConfig(policy=policy), (10, 20))
            for e in range(t_end, 60):
                assert pol.knobs(e) == POST_GHOST


def _reference_knobs(config, milestones, epoch):
    """The forward's (activation, beta, alpha) at ``epoch``, the policy table
    written out apart from ``SchedulePolicy.knobs`` as the reference it must match."""
    t_end = milestones[1] if config.policy == "ghost_at_second_decay" else milestones[0]
    if config.policy == "keep_forever" or (config.policy == "abrupt_removal" and epoch < t_end):
        beta, alpha = config.beta0, config.alpha0
    elif epoch >= t_end:
        return None, math.inf, 0.0
    else:
        beta = ghost.beta_at(epoch, t_end, config.beta0, config.beta_max, config.schedule)
        alpha = ghost.alpha_at(epoch, t_end, config.alpha0, config.schedule)
    if not config.soft_neurons:
        return None, math.inf, alpha if config.skip_gates else 0.0
    return config.activation, beta, alpha if config.skip_gates else 0.0


class TestKnobs:
    """``SchedulePolicy.knobs`` is the one source of the forward's activation,
    beta and alpha, and ``swap_epoch`` the one rule for the swap probe."""

    @pytest.mark.parametrize("activation", ["pswish", "mish"])
    @pytest.mark.parametrize("soft,skips", [(True, True), (True, False), (False, True)],
                             ids=["soft+skips", "soft", "skips"])
    @pytest.mark.parametrize("policy", ghost.POLICIES)
    def test_knobs_match_the_state_derivation(self, policy, soft, skips, activation):
        milestones = (4, 7)
        for schedule in ("linear", "cosine"):
            cfg = ghost.GhostConfig(policy=policy, activation=activation, soft_neurons=soft,
                                    skip_gates=skips, beta0=1.5, beta_max=8.0, alpha0=0.75,
                                    schedule=schedule)
            pol = ghost.SchedulePolicy(cfg, milestones)
            for e in range(milestones[1] + 2):
                act, beta, alpha = _reference_knobs(cfg, milestones, e)
                assert pol.knobs(e) == {"activation": act, "beta": beta, "alpha": alpha}, \
                    (schedule, e)

    def test_no_ghost_config(self):
        for milestones in ((), (0,), (3, 5)):
            pol = ghost.SchedulePolicy(None, milestones)
            assert pol.swap_epoch is None
            for e in range(7):
                assert pol.knobs(e) == {"activation": None, "beta": math.inf, "alpha": 0.0}

    @pytest.mark.parametrize("policy,kw,want", [
        ("ghost", {}, 3),
        ("ghost", {"skip_gates": False}, 3),
        ("abrupt_removal", {}, 3),
        ("ghost_at_second_decay", {}, 5),
        ("keep_forever", {}, None),
        ("ghost", {"activation": "mish"}, None),
        ("ghost", {"soft_neurons": False}, None),
    ])
    def test_swap_epoch(self, policy, kw, want):
        pol = ghost.SchedulePolicy(ghost.GhostConfig(policy=policy, **kw), (3, 5))
        assert pol.swap_epoch == want

    @pytest.mark.parametrize("policy", ghost.POLICIES)
    def test_removal_before_the_first_epoch_rejected(self, policy):
        """A removal milestone below 1 would leave no epoch with ghosts."""
        second = policy == "ghost_at_second_decay"
        for t_end in (0, -3):
            milestones = (t_end - 1, t_end) if second else (t_end, 4)
            with pytest.raises(ghost.ConfigError, match=f"remove its ghosts at epoch {t_end},"):
                ghost.SchedulePolicy(ghost.GhostConfig(policy=policy), milestones)
        assert ghost.SchedulePolicy(ghost.GhostConfig(policy=policy), (1, 2)).t_end == 1 + second


class TestSwapContinuity:
    def test_pswish_to_relu_deviation_bound(self):
        """At beta_max=10 the worst-case gap to relu is ~0.0279 < 0.05."""
        z = np.linspace(-10, 10, 20001)
        s = 1.0 / (1.0 + np.exp(-10.0 * z))
        dev = np.abs(z * s - np.maximum(z, 0.0))
        assert dev.max() <= 0.05
