"""Mask generator semantics: counts, rankings, saliencies, application."""

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import datasets, diagnostics, layers, masks
from sparselab.ghost import ConfigError
from sparselab.training import TrainConfig, train

from helpers import finite_diff_hessian, param_count


def _square_net(seed=0):
    """Single 10x10 dense layer: exactly 100 maskable weights."""
    return layers.build_model({"layers": [{"kind": "dense", "width": 10}],
                               "in_shape": [10], "classes": 10}, seed=seed)


def _mlp(seed=0, hidden=(8, 8)):
    return layers.build_model({"preset": "mlp", "in_shape": [4], "hidden": list(hidden),
                               "classes": 3}, seed=seed)


def _batch(model, n=16, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + model.in_shape)
    y = rng.integers(0, model.n_classes, n)
    return x, y


def _lexsort_keep(scores, keep_n):
    """Reference ranking: first keep_n of a stable sort by descending score."""
    order = np.lexsort((np.arange(scores.size), -scores))
    flat = np.zeros(scores.size)
    flat[order[:keep_n]] = 1.0
    return flat


class TestTopkKeep:
    """``_topk_keep`` picks exactly the set the stable descending sort picks."""

    _SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0])

    def _vectors(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 40, 257):
            yield rng.normal(size=n)                                   # random
            yield np.round(rng.normal(size=n), 1)                      # tie-heavy
            yield rng.integers(-3, 4, size=n).astype(np.float64)        # integer-valued
            yield rng.choice(self._SPECIAL, size=n)                    # ±0, ±inf, NaN
        yield np.array([np.nan, 1.0, np.nan, -np.inf, -0.0, 0.0, np.inf])
        yield np.full(5, np.nan)
        yield np.full(6, -0.0)

    def test_matches_lexsort_reference(self):
        for scores in self._vectors():
            n = scores.size
            for keep_n in sorted({0, 1, n // 3, n - 1, n, n + 1}):
                got = masks._topk_keep(scores.copy(), keep_n)
                np.testing.assert_array_equal(got, _lexsort_keep(scores, keep_n),
                                              err_msg=f"{scores} keep_n={keep_n}")

    def test_does_not_touch_scores(self):
        scores = np.random.default_rng(1).normal(size=50)
        before = scores.copy()
        masks._topk_keep(scores, 10)
        np.testing.assert_array_equal(scores, before)

    def test_nan_ranks_last_and_signed_zeros_tie(self):
        scores = np.array([np.nan, -np.inf, 0.0, -0.0, np.nan])
        np.testing.assert_array_equal(masks._topk_keep(scores, 2), [0, 0, 1, 1, 0])
        np.testing.assert_array_equal(masks._topk_keep(scores, 4), [1, 1, 1, 1, 0])


class TestRandomMask:
    def test_exact_survivor_count(self):
        mask = masks.random_mask(_square_net(), 0.9, seed=1)
        assert mask.survivors() == 10
        assert mask.total() == 100

    def test_zero_sparsity_is_all_ones(self):
        mask = masks.random_mask(_square_net(), 0.0, seed=1)
        assert mask.survivors() == mask.total()

    def test_same_seed_same_mask(self):
        a = masks.random_mask(_mlp(), 0.7, seed=5)
        b = masks.random_mask(_mlp(), 0.7, seed=5)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_sparsity_out_of_range(self):
        """One rule, one message: every generator raises the ConfigError
        (a ValueError) that the config's ``mask.sparsity`` check raises."""
        with pytest.raises(ValueError):
            masks.random_mask(_square_net(), 1.0, seed=0)
        for s in (1.5, float("nan")):
            want = f"sparsity must be in [0, 1), got {s}"
            for make in (lambda m: masks.random_mask(m, s, seed=0),
                         lambda m: masks.synflow_mask(m, s)):
                with pytest.raises(ConfigError) as err:
                    make(_square_net())
                assert str(err.value) == want

    def test_layerwise_scope(self):
        mask = masks.random_mask(_mlp(hidden=(8, 8)), 0.5, seed=2, scope="layerwise")
        for name, arr in mask.arrays.items():
            assert int(arr.sum()) == round(arr.size / 2)


class TestMagnitudeMask:
    def test_keeps_largest(self):
        model = layers.build_model({"layers": [{"kind": "dense", "width": 2}],
                                    "in_shape": [2], "classes": 2}, seed=0)
        blk = model.maskable_blocks()[0]
        blk.value = np.array([[0.1, -5.0], [3.0, 0.2]])
        mask = masks.magnitude_mask(model, 0.5)
        np.testing.assert_array_equal(mask.arrays[blk.name], [[0.0, 1.0], [1.0, 0.0]])

    def test_tie_break_keeps_earlier_flat_index(self):
        model = layers.build_model({"layers": [{"kind": "dense", "width": 2}],
                                    "in_shape": [2], "classes": 2}, seed=0)
        blk = model.maskable_blocks()[0]
        blk.value = np.full((2, 2), 0.5)
        mask = masks.magnitude_mask(model, 0.5)
        np.testing.assert_array_equal(mask.arrays[blk.name].ravel(), [1.0, 1.0, 0.0, 0.0])

    def test_layerwise_halves_each_layer(self):
        model = _mlp(hidden=(8, 8))
        mask = masks.magnitude_mask(model, 0.5, scope="layerwise")
        for name, arr in mask.arrays.items():
            assert int(arr.sum()) == round(arr.size / 2)


class TestSnipMask:
    def test_zero_weight_pruned_first(self):
        model = _mlp()
        blk = model.maskable_blocks()[0]
        blk.value[0, 0] = 0.0
        mask = masks.snip_mask(model, _batch(model), 0.05)
        assert mask.arrays[blk.name][0, 0] == 0.0

    def test_saliency_matches_finite_difference_oracle(self):
        """|theta * dL/dtheta| against central differences, rel err <= 1e-5."""
        model = layers.build_model({"preset": "mlp", "in_shape": [3], "hidden": [2],
                                    "classes": 2}, seed=3)
        x, y = _batch(model, n=8, seed=4)
        from sparselab.training import smooth_labels_batch
        targets = smooth_labels_batch(y, 2, 0.0)
        blocks = model.maskable_blocks()
        layout = layers.ParamLayout(blocks)
        _, grad_fn, theta_free = diagnostics.probe_functions(model, x, targets, training=True,
                                                             layout=layout)
        grads = layout.from_free(grad_fn(theta_free))

        def loss_fn(flat):
            values, ofs = {}, 0
            for b in blocks:
                n = b.value.size
                values[b.name] = flat[ofs:ofs + n].reshape(b.value.shape)
                ofs += n
            res = model.forward(x, training=True, values=values)
            return float(ad.softmax_cross_entropy(res.logits, targets).data)

        theta0 = np.concatenate([b.value.ravel() for b in blocks])
        fd = ad.finite_diff_grad(loss_fn, theta0)
        got = np.concatenate([np.abs(b.value * grads[b.name]).ravel() for b in blocks])
        want = np.abs(theta0 * fd)
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) <= 1e-5

    def test_degenerate_saliency(self):
        model = _mlp()
        for b in model.maskable_blocks():
            b.value[:] = 0.0
        with pytest.raises(masks.DegenerateSaliencyError):
            masks.snip_mask(model, _batch(model), 0.5)


class TestGraspMask:
    def test_quadratic_closed_form(self):
        """L = 0.5 theta^T A theta, A=diag(3,1), theta=(1,1): saliency (9,1)."""
        a = np.diag([3.0, 1.0])
        sal = masks.grasp_saliency(lambda t: a @ t, np.array([1.0, 1.0]))
        np.testing.assert_allclose(sal, [9.0, 1.0], atol=1e-6)

    def test_quadratic_prunes_largest(self):
        # with prune-largest convention, the saliency-9 coordinate goes first
        assert masks.GRASP_PRUNE_LARGEST is True
        model = layers.build_model({"layers": [{"kind": "dense", "width": 2}],
                                    "in_shape": [1], "classes": 2}, seed=0)
        x = np.random.default_rng(5).normal(size=(8, 1))
        y = np.array([0, 1] * 4)
        mask = masks.grasp_mask(model, (x, y), 0.5)
        assert mask.survivors() == 1

    def test_zero_weight_zero_saliency(self):
        sal = masks.grasp_saliency(lambda t: np.diag([3.0, 1.0]) @ t + 1.0,
                                   np.array([0.0, 2.0]))
        assert sal[0] == 0.0

    def test_matches_dense_hessian_oracle(self):
        """Saliency theta*(Hg) against the double-finite-difference Hessian."""
        model = layers.build_model({"layers": [{"kind": "dense", "width": 2},
                                               {"kind": "activation"},
                                               {"kind": "dense", "width": 2}],
                                    "in_shape": [2], "classes": 2}, seed=6)
        x, y = _batch(model, n=8, seed=7)
        from sparselab.training import smooth_labels_batch
        targets = smooth_labels_batch(y, 2, 0.0)
        blocks = model.maskable_blocks()
        names = [b.name for b in blocks]

        def unpack(flat):
            values, ofs = {}, 0
            for b in blocks:
                n = b.value.size
                values[b.name] = flat[ofs:ofs + n].reshape(b.value.shape)
                ofs += n
            return values

        def loss_fn(flat):
            res = model.forward(x, training=False, values=unpack(flat))
            return float(ad.softmax_cross_entropy(res.logits, targets).data)

        def grad_fn(flat):
            res = model.forward(x, training=False, values=unpack(flat))
            loss = ad.softmax_cross_entropy(res.logits, targets)
            ad.backward(loss)
            return np.concatenate([res.leaves[nm].grad.ravel() for nm in names])

        theta0 = np.concatenate([b.value.ravel() for b in blocks])
        got = masks.grasp_saliency(grad_fn, theta0)
        dense = finite_diff_hessian(loss_fn, theta0, h=1e-4)
        want = theta0 * (dense @ grad_fn(theta0))
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) <= 1e-3

    def test_relu_near_kink_matches_directional_oracle(self):
        """Relu mlp with one pre-activation 1e-6 above its kink: theta*(Hg)
        matches, to 1e-8, central differences of the exact gradient along g
        at a step (1e-7) that flips no pre-activation. A finite-difference
        Hg whose step crosses that kink is off by orders of magnitude."""
        model = layers.build_model({"preset": "mlp", "in_shape": [4], "hidden": [8],
                                    "classes": 3}, seed=0)
        rng = np.random.default_rng(100)
        x, y = rng.normal(size=(16, 4)), rng.integers(0, 3, 16)
        w = model.blocks["L00.dense.w"].value
        x[0, 0] -= (x[0] @ w[:, 0] - 1e-6) / w[0, 0]
        layout, grad_fn, theta = masks._loss_closure(model, (x, y))
        g = grad_fn(theta)
        step = 1e-7 * g / np.linalg.norm(g)

        def signs(vec):
            seen = []
            model.forward(x, training=True, values=layout.from_free(vec),
                          observe=lambda z, _: seen.append(np.sign(z).ravel()))
            return np.concatenate(seen)

        assert 0 < x[0] @ w[:, 0] < 2e-6
        assert np.array_equal(signs(theta + step), signs(theta))
        assert np.array_equal(signs(theta - step), signs(theta))
        want = theta * (grad_fn(theta + step) - grad_fn(theta - step)) / (2e-7 / np.linalg.norm(g))
        got = masks.grasp_saliency(grad_fn, theta)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_premasked_model_uses_free_hessian(self, monkeypatch):
        """On a model that already carries a mask, the saliency is
        theta_f * (H_ff g_f) over the unmasked weights only, with H_ff a
        dense finite-difference Hessian; pruned weights are never moved."""
        model = layers.build_model({"layers": [{"kind": "dense", "width": 3},
                                               {"kind": "activation", "activation": "pswish"},
                                               {"kind": "dense", "width": 2}],
                                    "in_shape": [2], "classes": 2}, seed=8)
        assert param_count(model) <= 20
        masks.apply_mask(model, masks.random_mask(model, 0.4, seed=9))
        x, y = _batch(model, n=8, seed=10)
        from sparselab.training import smooth_labels_batch
        targets = smooth_labels_batch(y, 2, 0.0)
        layout = layers.ParamLayout(model.maskable_blocks())

        def loss_fn(free):
            res = model.forward(x, training=True,
                                values=layout.from_free(free))
            return float(ad.softmax_cross_entropy(res.logits, targets).data)

        theta_f = layout.free({b.name: b.value for b in model.maskable_blocks()})
        g_f = ad.finite_diff_grad(loss_fn, theta_f)
        want = theta_f * (finite_diff_hessian(loss_fn, theta_f) @ g_f)

        seen = []
        rank = masks._rank_mask
        monkeypatch.setattr(masks, "_rank_mask",
                            lambda lay, scores, *a: seen.append(lay.flatten(scores)) or
                            rank(lay, scores, *a))
        masks.grasp_mask(model, (x, y), 0.5)
        ranking = -seen[0] if masks.GRASP_PRUNE_LARGEST else seen[0]
        got = ranking[layout.free_index]
        assert np.all(ranking[np.setdiff1d(np.arange(layout.size), layout.free_index)] == 0.0)
        assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) <= 1e-3


class TestSynflowMask:
    def test_zero_sparsity_all_ones(self):
        mask = masks.synflow_mask(_mlp(), 0.0, iterations=5)
        assert mask.survivors() == mask.total()

    def test_two_layer_chain_symmetric_saliency_tie(self):
        """R = |w1||w2| gives both weights equal saliency; the tie keeps the
        earlier block's weight."""
        model = layers.build_model({"layers": [{"kind": "dense", "width": 1},
                                               {"kind": "dense", "width": 1}],
                                    "in_shape": [1], "classes": 1}, seed=0)
        for b in model.maskable_blocks():
            b.value[:] = 0.7
        mask = masks.synflow_mask(model, 0.5, iterations=1)
        counts = mask.per_layer_survivors()
        assert counts["L00.dense.w"] == 1 and counts["L01.dense.w"] == 0
        assert mask.notes == ("layer L01.dense.w fully pruned at iteration 1",)

    def test_each_round_keeps_a_subset_of_the_last(self):
        """The weights a round runs with (the nonzero ``values`` handed to the
        forward) shrink round by round, and the final mask lies inside the
        last round's set: a pruned weight never comes back."""
        model = _mlp(seed=3, hidden=(16, 16))
        layout = layers.ParamLayout(model.maskable_blocks())
        rounds = []
        forward = model.forward

        def spy(x, **kwargs):
            rounds.append(layout.flatten(kwargs["values"]) != 0.0)
            return forward(x, **kwargs)

        model.forward = spy
        mask = masks.synflow_mask(model, 0.95, iterations=12)
        assert len(rounds) == 12 and rounds[0].all()
        kept = rounds[1:] + [layout.flatten(mask.arrays) == 1.0]
        for k, (before, after) in enumerate(zip(rounds, kept), start=1):
            assert not np.any(after & ~before), k
            assert after.sum() < before.sum(), k

    def test_thin_net_keeps_every_layer_alive(self):
        """4-layer thin linear net at s=0.99: iterative flow keeps >=1 weight
        per layer, while one-shot magnitude can empty a layer."""
        spec = {"layers": [{"kind": "dense", "width": 16}] * 3 + [{"kind": "dense", "width": 2}],
                "in_shape": [16], "classes": 2}
        collapsed_magnitude = 0
        for seed in range(5):
            model = layers.build_model(spec, seed=seed)
            syn = masks.synflow_mask(model, 0.99)
            assert all(c >= 1 for c in syn.per_layer_survivors().values()), seed
            mag = masks.magnitude_mask(model, 0.99)
            if masks.layer_collapse_check(mag):
                collapsed_magnitude += 1
        assert collapsed_magnitude >= 1

    def test_presets_alive_at_high_sparsity(self):
        for preset, in_shape in (("mlp", [8]), ("resnet-tiny", [1, 8, 8])):
            model = layers.build_model({"preset": preset, "in_shape": in_shape,
                                        "classes": 2,
                                        **({"hidden": [16, 16, 16]} if preset == "mlp" else {})},
                                       seed=1)
            mask = masks.synflow_mask(model, 0.99)
            assert all(c >= 1 for c in mask.per_layer_survivors().values())


def _synflow_reference(model, s, iterations):
    """The full-vector synflow loop: every round scores all maskable weights,
    pins the pruned ones at -1 and ranks the whole vector."""
    layout = layers.ParamLayout(model.maskable_blocks())
    ones = np.ones((1,) + model.in_shape)
    base_abs = {n: np.abs(b.value) for n, b in model.blocks.items()}
    base = layout.flatten(base_abs)
    live = np.ones(layout.size)
    density = 1.0 - s
    notes = []
    emptied = set()
    for k in range(1, iterations + 1):
        res = model.forward(ones, training=False, bn_passthrough=True,
                            values={**base_abs, **layout.unflatten(base * live)})
        ad.backward(ad.sum_all(res.logits, label="synflow_R"))
        saliency = base * layout.flatten({n: res.leaves[n].grad for n in layout.names})
        saliency[live == 0.0] = -1.0
        keep_k = max(masks._keep_count(layout.size, 1.0 - density ** (k / iterations)), 1)
        live = masks._topk_keep(saliency, keep_k)
        for n, lv in layout.unflatten(live).items():
            if n not in emptied and not lv.any():
                emptied.add(n)
                notes.append(f"layer {n} fully pruned at iteration {k}")
    return layout.unflatten(live), tuple(notes)


def _imp_reference(model, dataset, rounds, per_round_rate, train_config):
    """The full-vector lottery-ticket ranking: every round ranks all trained
    magnitudes with the pruned weights pinned at -1."""
    layout = layers.ParamLayout(model.maskable_blocks())
    total = layout.size
    mask = masks.Mask(layout.unflatten(np.ones(total)))
    for r in range(1, rounds + 1):
        work = model.clone()
        masks.apply_mask(work, mask)
        train(work, dataset, train_config)
        survivors_r = int(round(total * (1.0 - per_round_rate) ** r))
        scores = np.abs(layout.flatten({n: b.value for n, b in work.blocks.items()}))
        scores[layout.flatten(mask.arrays) == 0.0] = -1.0
        mask = masks.Mask(layout.unflatten(masks._topk_keep(scores, survivors_r)))
    return mask


def _assert_same_arrays(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape
        assert got[name].tobytes() == want[name].tobytes(), name


class TestSurvivorRankingOracle:
    """The pruners rank only their survivors; the masks and notes must match
    the full-vector rankings byte for byte."""

    @pytest.mark.parametrize("iterations", [1, 7, 100])
    @pytest.mark.parametrize("s", [0.5, 0.9, 0.98])
    @pytest.mark.parametrize("spec", [
        {"preset": "mlp", "in_shape": [2], "hidden": [16, 16, 16], "classes": 2},
        {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2},
    ], ids=["mlp", "resnet-tiny"])
    def test_synflow_matches_full_vector(self, spec, s, iterations):
        model = layers.build_model(spec, seed=5)
        mask = masks.synflow_mask(model, s, iterations=iterations)
        arrays, notes = _synflow_reference(model, s, iterations)
        _assert_same_arrays(mask.arrays, arrays)
        assert mask.notes == notes

    @pytest.mark.parametrize("seed", range(5))
    def test_synflow_thin_net_matches_full_vector(self, seed):
        """Criterion 10's thin 6-layer mlp, where 11 of 1,088 weights survive."""
        spec = {"layers": [{"kind": "dense", "width": 16}] * 5 + [{"kind": "dense", "width": 2}],
                "in_shape": [2], "classes": 2}
        model = layers.build_model(spec, seed=seed)
        mask = masks.synflow_mask(model, 0.99)
        arrays, notes = _synflow_reference(model, 0.99, 100)
        _assert_same_arrays(mask.arrays, arrays)
        assert mask.notes == notes

    def test_synflow_notes_match_when_a_layer_empties(self):
        """A case whose notes are not empty: one weight kept of a chain."""
        model = layers.build_model({"layers": [{"kind": "dense", "width": 1}] * 3,
                                    "in_shape": [1], "classes": 1}, seed=0)
        mask = masks.synflow_mask(model, 0.6, iterations=3)
        arrays, notes = _synflow_reference(model, 0.6, 3)
        _assert_same_arrays(mask.arrays, arrays)
        assert mask.notes == notes and notes

    @pytest.mark.parametrize("rounds", [2, 3])
    def test_imp_lth_matches_full_vector(self, rounds):
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "hidden": [8, 8],
                                    "classes": 3}, seed=8)
        ds = datasets.make_synthetic("spirals", 60, 3, noise=0.2, seed=9)
        cfg = TrainConfig(epochs=2, batch_size=16, lr0=0.05, milestones=(), seed=0)
        mask = masks.imp_lth(model, ds, rounds, 0.4, cfg)
        want = _imp_reference(model, ds, rounds, 0.4, cfg)
        _assert_same_arrays(mask.arrays, want.arrays)
        assert mask.notes == want.notes


class TestSynflowConservation:
    """Synflow's scores checked by its conservation law (Tanaka et al. 2020,
    Theorems 1-2). On the network synflow scores (|theta|, an all-ones
    input, batchnorm bypassed) every relu sees a non-negative input, so R,
    the sum of the logits, is positively homogeneous of degree 1 in a cut
    layer's weights together with every bias at or after it. A cut is a
    layer that every input-to-output path crosses. By Euler's identity the
    cut's weight saliency plus those bias saliencies equals R."""

    @pytest.mark.parametrize("iteration", [1, 3], ids=["first", "third"])
    @pytest.mark.parametrize("spec", [
        {"preset": "mlp", "in_shape": [2], "hidden": [16, 16, 16], "classes": 2},
        {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2},
    ], ids=["mlp", "resnet-tiny"])
    def test_cut_saliency_plus_later_bias_saliency_is_R(self, monkeypatch, spec, iteration):
        model = layers.build_model(spec, seed=0)
        layout = layers.ParamLayout(model.maskable_blocks())
        ranked, topk_keep = [], masks._topk_keep

        def spy(scores, keep_n):    # synflow ranks the survivors' scores, in flat order
            kept = topk_keep(scores, keep_n)
            ranked.append((scores.copy(), kept == 1.0))
            return kept

        monkeypatch.setattr(masks, "_topk_keep", spy)
        masks.synflow_mask(model, 0.9, iterations=4)
        monkeypatch.undo()
        live = np.arange(layout.size)
        for _, kept in ranked[:iteration - 1]:
            live = live[kept]
        weight_saliency = np.zeros(layout.size)
        weight_saliency[live] = ranked[iteration - 1][0]
        weight_saliency = {n: float(a.sum()) for n, a in layout.unflatten(weight_saliency).items()}

        # one independent forward and backward on the same network gives R
        # and the bias saliencies
        alive = np.zeros(layout.size)
        alive[live] = 1.0
        values = {n: np.abs(b.value) for n, b in model.blocks.items()}
        values.update({n: values[n] * a for n, a in layout.unflatten(alive).items()})
        res = model.forward(np.ones((1,) + model.in_shape), bn_passthrough=True, values=values)
        out = ad.sum_all(res.logits)
        ad.backward(out)
        r = float(out.data)
        names = list(model.blocks)
        biases = [n for n in names if n.endswith(".b") and f"{n[:-2]}.w" in model.blocks]
        bias_saliency = {n: float((values[n] * res.leaves[n].grad).sum()) for n in biases}

        def conserved(cut):
            total = weight_saliency[cut] + sum(bias_saliency[n] for n in biases
                                               if names.index(n) > names.index(cut))
            return abs(total - r) <= 1e-12 * r     # r == 0 (no path left) asks for exactly 0

        cuts = [l.w for l in model.layers if isinstance(l, (layers._Dense, layers._Conv))]
        assert len(cuts) == 4 and r >= 0.0
        assert all(conserved(cut) for cut in cuts), [(c, weight_saliency[c], r) for c in cuts]
        # the native skip bypasses the residual blocks' convs: not cuts, and
        # their sums miss R, so the identity tells a cut from the rest
        inner = [n for n in layout.names if n not in cuts]
        assert not any(conserved(n) for n in inner)
        assert len(inner) == (6 if spec["preset"] == "resnet-tiny" else 0)


class TestImpLth:
    def _setup(self):
        model = _mlp(seed=8, hidden=(8, 8))
        ds = datasets.make_synthetic("spirals", 60, 3, noise=0.2, seed=9)
        # spirals are 2-D; rebuild the model on the right input width
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "hidden": [8, 8],
                                    "classes": 3}, seed=8)
        cfg = TrainConfig(epochs=2, batch_size=16, lr0=0.05, milestones=(), seed=0)
        return model, ds, cfg

    def test_single_round_rewinds_to_init(self):
        model, ds, cfg = self._setup()
        theta0 = {b.name: b.value.copy() for b in model.maskable_blocks()}
        mask = masks.imp_lth(model, ds, rounds=1, per_round_rate=0.2, train_config=cfg)
        total = mask.total()
        assert mask.survivors() == round(0.8 * total)
        rewound = masks.apply_mask(model.clone(), mask)
        for b in rewound.maskable_blocks():
            np.testing.assert_array_equal(b.value, theta0[b.name] * mask.arrays[b.name])

    def test_two_rounds_compound(self):
        model, ds, cfg = self._setup()
        mask = masks.imp_lth(model, ds, rounds=2, per_round_rate=0.2, train_config=cfg)
        assert mask.survivors() == round(0.64 * mask.total())

    def test_masks_are_nested(self):
        model, ds, cfg = self._setup()
        m1 = masks.imp_lth(model, ds, rounds=1, per_round_rate=0.3, train_config=cfg)
        m2 = masks.imp_lth(model, ds, rounds=2, per_round_rate=0.3, train_config=cfg)
        for name in m1.arrays:
            assert np.all(m2.arrays[name] <= m1.arrays[name])

    def test_over_pruning_rejected(self):
        model, ds, cfg = self._setup()
        with pytest.raises(ValueError):
            masks.imp_lth(model, ds, rounds=200, per_round_rate=0.5, train_config=cfg)


class TestApplyMask:
    def test_all_zero_mask_zeroes_forward(self):
        model = _mlp(seed=10)
        mask = masks.Mask({b.name: np.zeros_like(b.value) for b in model.maskable_blocks()})
        masks.apply_mask(model, mask)
        out = model.forward(np.random.default_rng(0).normal(size=(4, 4))).logits.data
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_all_ones_mask_is_identity(self):
        model = _mlp(seed=11)
        before = {n: b.value.copy() for n, b in model.blocks.items()}
        mask = masks.Mask({b.name: np.ones_like(b.value) for b in model.maskable_blocks()})
        masks.apply_mask(model, mask)
        for n, b in model.blocks.items():
            assert b.value.tobytes() == before[n].tobytes()

    def test_masked_forward_equals_literal_zero_weights(self):
        model = _mlp(seed=12)
        mask = masks.random_mask(model, 0.6, seed=13)
        zeroed = model.clone()
        for b in zeroed.maskable_blocks():
            b.value = b.value * mask.arrays[b.name]
        masks.apply_mask(model, mask)
        x = np.random.default_rng(14).normal(size=(5, 4))
        np.testing.assert_array_equal(model.forward(x).logits.data,
                                      zeroed.forward(x).logits.data)

    def test_incongruent_mask_rejected(self):
        model = _mlp(seed=15)
        bad = masks.Mask({"nope": np.ones(3)})
        with pytest.raises(ValueError):
            masks.apply_mask(model, bad)

    def test_never_masks_bias_or_bn(self):
        model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                    "classes": 2}, seed=16)
        for gen in (lambda: masks.random_mask(model, 0.8, seed=0),
                    lambda: masks.magnitude_mask(model, 0.8),
                    lambda: masks.synflow_mask(model, 0.8, iterations=10)):
            mask = gen()
            for name in mask.arrays:
                assert model.blocks[name].kind == "weight"


class TestCollapseCheck:
    def test_flags_empty_layer(self):
        arrays = {"a.w": np.ones((2, 2)), "b.w": np.zeros((2, 2))}
        assert masks.layer_collapse_check(masks.Mask(arrays)) == ["b.w"]

    def test_dense_mask_not_collapsed(self):
        model = _mlp(seed=17)
        assert masks.layer_collapse_check(masks.random_mask(model, 0.0, seed=0)) == []

    def test_survivor_counts_account(self):
        model = _mlp(seed=18)
        mask = masks.random_mask(model, 0.35, seed=19)
        assert masks.layer_collapse_check(mask) == []
        assert sum(mask.per_layer_survivors().values()) == round(0.65 * mask.total())


class TestSparsityAccounting:
    @pytest.mark.parametrize("s", [0.5, 0.9, 0.95])
    def test_every_generator_within_one_weight(self, s):
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "hidden": [12, 12],
                                    "classes": 2}, seed=20)
        ds = datasets.make_synthetic("spirals", 60, 2, noise=0.2, seed=21)
        batch = (ds.x_train[:16], ds.y_train[:16])
        cfg = TrainConfig(epochs=1, batch_size=16, lr0=0.05, milestones=(), seed=0)
        total = sum(b.value.size for b in model.maskable_blocks())
        generated = {
            "random": masks.random_mask(model, s, seed=22),
            "magnitude": masks.magnitude_mask(model, s),
            "snip": masks.snip_mask(model, batch, s),
            "grasp": masks.grasp_mask(model, batch, s),
            "synflow": masks.synflow_mask(model, s, iterations=20),
        }
        rate = 1.0 - (1.0 - s) ** 0.5
        generated["imp"] = masks.imp_lth(model, ds, 2, rate, cfg)
        for name, mask in generated.items():
            assert abs(mask.achieved_sparsity() - s) * total <= 1.0, name
