"""First-step objective and learned initialization rescaling."""

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import layers, masks, rescale
from sparselab.training import smooth_labels_batch

from helpers import first_step_loss


def _mlp(seed=0, hidden=(8, 8)):
    return layers.build_model({"preset": "mlp", "in_shape": [3], "hidden": list(hidden),
                               "classes": 2}, seed=seed)


def _batch(model, n=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + model.in_shape)
    y = rng.integers(0, model.n_classes, n)
    return x, smooth_labels_batch(y, model.n_classes, 0.0)


class TestFirstStepLoss:
    def test_zero_lr_is_plain_loss(self):
        model = _mlp()
        x, t = _batch(model)
        base = float(ad.softmax_cross_entropy(
            model.forward(x, training=True).logits, t).data)
        got = first_step_loss(model, (x, t), lr=0.0)
        np.testing.assert_allclose(got, base, rtol=0, atol=1e-15)

    def test_small_lr_matches_taylor_oracle(self):
        """L(theta - lr*g) = L - lr*||g||^2 + O(lr^2) for the masked gradient."""
        model = _mlp(seed=1)
        mask = masks.random_mask(model, 0.5, seed=2)
        masks.apply_mask(model, mask)
        x, t = _batch(model, seed=3)
        res = model.forward(x, training=True)
        loss = ad.softmax_cross_entropy(res.logits, t)
        ad.backward(loss)
        sq = 0.0
        for name, blk in model.blocks.items():
            g = res.leaves[name].grad
            if blk.mask is not None:
                g = g * blk.mask
            sq += float((g * g).sum())
        l0 = float(loss.data)
        for lr in (1e-3, 1e-4):
            got = first_step_loss(model, (x, t), lr)
            assert abs(got - (l0 - lr * sq)) <= 50.0 * lr ** 2

    def test_masked_coordinates_do_not_move(self):
        """An all-masked model takes a null step: loss unchanged for any lr."""
        model = _mlp(seed=4)
        mask = masks.Mask({b.name: np.zeros_like(b.value) for b in model.maskable_blocks()}, 1.0)
        masks.apply_mask(model, mask)
        x, t = _batch(model, seed=5)
        base = first_step_loss(model, (x, t), lr=0.0)
        # bias gradients still move; freeze them out by comparing weight-driven paths
        stepped = first_step_loss(model, (x, t), lr=0.5)
        assert np.isfinite(stepped)
        # the weight contribution to the step is exactly zero: verify directly
        res = model.forward(x, training=True)
        loss = ad.softmax_cross_entropy(res.logits, t)
        ad.backward(loss)
        for blk in model.maskable_blocks():
            g = res.leaves[blk.name].grad * blk.mask
            np.testing.assert_array_equal(g, np.zeros_like(g))
        del base


class TestFirstStepReference:
    """The objective is bit-equal to a per-block step written out here:
    forward, backward, v - lr * g ⊙ m, forward."""

    @staticmethod
    def _reference(model, batch, lr, **kw):
        x, t = batch
        res = model.forward(x, training=True, **kw)
        ad.backward(ad.softmax_cross_entropy(res.logits, t))
        stepped = {}
        for name, blk in model.blocks.items():
            g = res.leaves[name].grad
            stepped[name] = blk.value - lr * (g if blk.mask is None else g * blk.mask)
        out = model.forward(x, training=True, values=stepped, **kw)
        return float(ad.softmax_cross_entropy(out.logits, t).data)

    @pytest.mark.parametrize("spec", [
        {"preset": "mlp", "in_shape": [3], "hidden": [16, 16], "classes": 2},
        {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2},
    ], ids=["mlp", "resnet-tiny"])
    @pytest.mark.parametrize("kw", [{}, {"activation": "pswish", "beta": 1.0, "alpha": 1.0}],
                             ids=["plain", "ghost"])
    def test_bit_equal_on_masked_models(self, spec, kw):
        model = layers.build_model(spec, seed=13)
        masks.apply_mask(model, masks.random_mask(model, 0.9, seed=14))
        batch = _batch(model, n=8, seed=15)
        for lr in (0.0, 0.05, 0.1):
            assert first_step_loss(model, batch, lr, **kw) == \
                self._reference(model, batch, lr, **kw)


class TestLearnScales:
    def test_already_optimal_bn_toy_objective_is_flat(self):
        """At a zero-gradient point with the hidden layer feeding batchnorm,
        the first-step objective is constant in the scalars, so they stay at 1.

        Zero gradient is arranged exactly: each input appears with both
        labels and the head is zeroed, so all per-pair gradients cancel.
        """
        spec = {"layers": [{"kind": "dense", "width": 6}, {"kind": "batchnorm"},
                           {"kind": "activation"}, {"kind": "dense", "width": 2}],
                "in_shape": [4], "classes": 2}
        model = layers.build_model(spec, seed=6)
        model.blocks["L03.dense.w"].value[:] = 0.0
        rng = np.random.default_rng(7)
        x_half = rng.normal(size=(6, 4))
        x = np.repeat(x_half, 2, axis=0)
        t = smooth_labels_batch(np.tile([0, 1], 6), 2, 0.0)
        out = rescale.learn_scales(model, (x, t), lr_train=0.1,
                                   config=rescale.LRsIConfig(iters=8))
        for c in out.scales.values():
            assert abs(c - 1.0) <= 1e-6
        assert abs(out.trace[-1] - out.trace[0]) <= 1e-6

    def test_moves_scale_when_it_lowers_objective(self):
        model = _mlp(seed=8)
        x, t = _batch(model, seed=9)
        out = rescale.learn_scales(model, (x, t), lr_train=0.1,
                                   config=rescale.LRsIConfig(iters=15))
        j0, jbest = out.trace[0], min(out.trace)
        assert jbest < j0
        assert any(abs(c - 1.0) > 1e-4 for c in out.scales.values())

    def test_keep_best_contract(self):
        for seed in range(4):
            model = _mlp(seed=seed)
            x, t = _batch(model, seed=100 + seed)
            out = rescale.learn_scales(model, (x, t), lr_train=0.1,
                                       config=rescale.LRsIConfig(iters=6))
            final = first_step_loss(
                model, (x, t), 0.1,
                values=rescale._scaled_values(model, out.scales))
            assert final <= out.trace[0] + 0.0

    def test_scales_respect_bounds(self):
        model = _mlp(seed=10)
        x, t = _batch(model, seed=11)
        cfg = rescale.LRsIConfig(iters=30, step=5.0, bounds=(0.5, 2.0))
        out = rescale.learn_scales(model, (x, t), lr_train=0.1, config=cfg)
        for c in out.scales.values():
            assert 0.5 - 1e-12 <= c <= 2.0 + 1e-12

    def test_one_layout_per_run(self, monkeypatch):
        """Masks and shapes do not change during a run, so every objective
        call of every iteration shares the layout built once up front."""
        built = []
        init = layers.ParamLayout.__init__

        def counting_init(self, blocks):
            built.append(1)
            init(self, blocks)

        model = _mlp(seed=12, hidden=(8, 8, 8))
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=13))
        batch = _batch(model, seed=14)
        monkeypatch.setattr(layers.ParamLayout, "__init__", counting_init)
        out = rescale.learn_scales(model, batch, lr_train=0.1, config=rescale.LRsIConfig(iters=1))
        assert len(rescale.scale_groups(model)) == 4 and len(out.trace) == 2
        assert len(built) == 1


def _learned_and_fd_gradient(model, batch, **kw):
    """dJ/du at c=1 twice: read off one learn_scales iteration with a small
    step (u1 = -step * dJ/du, kept because it lowers J), and by central
    differences of J with step 1e-6 in log scale."""
    groups, step, h = rescale.scale_groups(model), 1e-3, 1e-6
    out = rescale.learn_scales(model, batch, 0.1, rescale.LRsIConfig(iters=1, step=step), **kw)
    assert out.trace[1] < out.trace[0]
    learned = -np.log([out.scales[g] for g in groups]) / step

    def J(u):
        scales = dict(zip(groups, np.exp(u)))
        return first_step_loss(model, batch, 0.1,
                                       values=rescale._scaled_values(model, scales), **kw)

    fd = np.array([(J(h * e) - J(-h * e)) / (2 * h) for e in np.eye(len(groups))])
    return learned, fd


class TestExactScaleGradient:
    @pytest.mark.parametrize("activation", [None, "pswish", "mish"])
    def test_mlp_matches_central_difference(self, activation):
        model = _mlp(seed=1)
        batch = _batch(model, seed=2)
        kw = {} if activation is None else {"activation": activation}
        learned, fd = _learned_and_fd_gradient(model, batch, **kw)
        assert np.linalg.norm(learned - fd) <= 1e-7 * np.linalg.norm(fd)

    def test_resnet_train_mode_batchnorm_matches_central_difference(self):
        model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 6, 6],
                                    "channels": [4, 8], "classes": 2}, seed=2)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=3))
        learned, fd = _learned_and_fd_gradient(model, _batch(model, n=8, seed=4))
        assert len(fd) == 7
        assert np.linalg.norm(learned - fd) <= 1e-7 * np.linalg.norm(fd)


class TestApplyScales:
    def test_unit_scales_are_identity(self):
        model = _mlp(seed=12)
        before = {n: b.value.copy() for n, b in model.blocks.items()}
        rescale.apply_scales(model, {g: 1.0 for g in rescale.scale_groups(model)})
        for n, b in model.blocks.items():
            assert b.value.tobytes() == before[n].tobytes()

    def test_bn_fed_block_scaling_invisible(self):
        spec = {"layers": [{"kind": "dense", "width": 6}, {"kind": "batchnorm"},
                           {"kind": "activation"}, {"kind": "dense", "width": 2}],
                "in_shape": [4], "classes": 2}
        model = layers.build_model(spec, seed=13)
        x = np.random.default_rng(14).normal(size=(8, 4))
        base = model.forward(x, training=True).logits.data
        rescale.apply_scales(model, {"L00.dense": 2.0})
        got = model.forward(x, training=True).logits.data
        assert np.abs(got - base).max() <= 1e-9

    def test_masked_entries_stay_zero(self):
        model = _mlp(seed=15)
        mask = masks.random_mask(model, 0.5, seed=16)
        masks.apply_mask(model, mask)
        rescale.apply_scales(model, {g: 3.0 for g in rescale.scale_groups(model)})
        for b in model.maskable_blocks():
            np.testing.assert_array_equal(b.value[b.mask == 0], 0.0)

    def test_commutes_with_masking_bitwise(self):
        scales = None
        outs = []
        for order in ("scale_first", "mask_first"):
            model = _mlp(seed=17)
            mask = masks.random_mask(model, 0.4, seed=18)
            if scales is None:
                scales = {g: 1.7 for g in rescale.scale_groups(model)}
            if order == "scale_first":
                rescale.apply_scales(model, scales)
                masks.apply_mask(model, mask)
            else:
                masks.apply_mask(model, mask)
                rescale.apply_scales(model, scales)
            outs.append({n: b.value.tobytes() for n, b in model.blocks.items()})
        assert outs[0] == outs[1]

    def test_nonpositive_scale_rejected(self):
        model = _mlp(seed=19)
        with pytest.raises(ValueError):
            rescale.apply_scales(model, {rescale.scale_groups(model)[0]: 0.0})

    def test_unknown_group_rejected(self):
        model = _mlp(seed=20)
        with pytest.raises(ValueError):
            rescale.apply_scales(model, {"definitely.not.a.layer": 2.0})
