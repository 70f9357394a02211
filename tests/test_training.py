"""Label smoothing, the optimizer step, schedules, and the training loop."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import datasets, ghost, layers, masks, rescale, training
from sparselab.ghost import ConfigError, GhostConfig


class TestSmoothLabels:
    def test_standard_case(self):
        row = training.smooth_labels(3, 10, 0.1)
        np.testing.assert_allclose(row[3], 0.91)
        others = np.delete(row, 3)
        np.testing.assert_allclose(others, 0.01)

    def test_zero_alpha_is_one_hot(self):
        row = training.smooth_labels(1, 4, 0.0)
        np.testing.assert_array_equal(row, [0.0, 1.0, 0.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 12))
            a = float(rng.uniform(0, 0.99))
            row = training.smooth_labels(int(rng.integers(0, k)), k, a)
            assert abs(row.sum() - 1.0) <= 1e-12

    def test_invalid_class_rejected(self):
        with pytest.raises(ValueError):
            training.smooth_labels(4, 4, 0.1)
        with pytest.raises(ValueError):
            training.smooth_labels(-1, 4, 0.1)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 5, 10):
            logits = np.zeros((3, k))
            targets = training.smooth_labels_batch([0, 1, 0][:3], k, 0.0)
            np.testing.assert_allclose(training.cross_entropy(logits, targets),
                                       math.log(k), atol=1e-12)

    def test_confident_logits_drive_loss_to_zero(self):
        logits = np.array([[30.0, 0.0]])
        targets = np.array([[1.0, 0.0]])
        assert training.cross_entropy(logits, targets) <= 1e-12

    def test_smoothed_targets_uniform_logits(self):
        # -sum(y * log(1/10)) = ln 10 since the target row sums to 1
        targets = training.smooth_labels_batch([4], 10, 0.1)
        np.testing.assert_allclose(training.cross_entropy(np.zeros((1, 10)), targets),
                                   math.log(10.0), atol=1e-12)


def _step(theta, grad, velocity=None, lr=0.1, momentum=0.9, weight_decay=0.0):
    theta = np.asarray(theta, dtype=np.float64)
    velocity = np.zeros_like(theta) if velocity is None else velocity
    return training.sgd_step(theta, np.asarray(grad, dtype=np.float64), velocity,
                             lr, momentum, weight_decay)


class TestSgdStep:
    def test_vanilla_first_step(self):
        theta, grad, velocity = np.array([1.0, 2.0]), np.array([0.5, -0.5]), np.zeros(2)
        new_theta, new_velocity = _step(theta, grad, velocity)
        np.testing.assert_allclose(new_theta, [0.95, 2.05])
        np.testing.assert_array_equal(new_velocity, grad)
        # a pure function: the inputs are not written
        np.testing.assert_array_equal(theta, [1.0, 2.0])
        np.testing.assert_array_equal(velocity, [0.0, 0.0])

    def test_two_steps_constant_gradient(self):
        theta, velocity = _step([0.0], [1.0])
        theta, velocity = _step(theta, [1.0], velocity)
        np.testing.assert_allclose(theta, [-0.1 * (1.0 + 1.9)], atol=1e-15)
        np.testing.assert_allclose(velocity, [1.9], atol=1e-15)

    def test_masked_coordinate_pinned_at_zero(self, monkeypatch):
        """50 masked steps: every forward runs on masked weights of exactly 0,
        though their gradients are not 0, and the velocity holds one entry
        per free coordinate only, so no masked momentum exists."""
        model, ds = _small_mlp(seed=1), _toy_blobs(n=80, seed=1)
        mask = masks.random_mask(model, 0.5, seed=1)
        seen = _spy_training_forwards(monkeypatch, model)
        steps = _spy_steps(monkeypatch)
        cfg = training.TrainConfig(epochs=10, batch_size=16, lr0=0.05, milestones=(), seed=1)
        training.train(model, ds, cfg, mask=mask)   # 10 epochs x 5 batches = 50 steps
        layout = layers.ParamLayout(model.blocks.values())
        dead = _masked(layout)
        assert len(steps) == len(seen) == 50 and dead.any()
        assert {a.size for step in steps for a in step} == {layout.free_index.size}
        masked_grads = [np.abs(layout.flatten({n: t.grad for n, t in res.leaves.items()})[dead])
                        for res, _ in seen]
        assert min(g.max() for g in masked_grads) > 0.0
        for _, values in seen:
            assert not layout.flatten(values)[dead].any()
        final = layout.flatten({n: b.value for n, b in model.blocks.items()})
        assert not final[dead].any()
        first = layout.flatten(seen[0][1])      # weight decay moves every nonzero free weight
        assert np.all((final != first)[~dead & (first != 0)])

    def test_weight_decay_cannot_resurrect_masked(self, monkeypatch):
        """At weight decay 0.5 every step reads exactly the free coordinates of
        the current weights, and the new weights are the old ones with only
        those coordinates replaced by the step's result, bit for bit."""
        model, ds = _small_mlp(seed=2), _toy_blobs(n=48, seed=2)
        mask = masks.random_mask(model, 0.5, seed=2)
        layout = layers.ParamLayout(masks.apply_mask(model.clone(), mask).blocks.values())
        free = layout.free_index
        real, calls = training.sgd_step, []

        def spy(theta, grad, velocity, *args):
            stepped, velocity = real(theta, grad, velocity, *args)
            calls.append((layout.flatten({n: b.value for n, b in model.blocks.items()}),
                          theta, stepped))
            return stepped, velocity

        monkeypatch.setattr(training, "sgd_step", spy)
        cfg = training.TrainConfig(epochs=4, batch_size=16, lr0=0.1, weight_decay=0.5,
                                   milestones=(), seed=2)
        training.train(model, ds, cfg, mask=mask)
        after = [old for old, _, _ in calls[1:]]
        after.append(layout.flatten({n: b.value for n, b in model.blocks.items()}))
        assert len(calls) == 12
        for (old, theta, stepped), new in zip(calls, after):
            assert theta.tobytes() == old[free].tobytes()
            want = old.copy()
            want[free] = stepped
            assert new.tobytes() == want.tobytes() and new.tobytes() != old.tobytes()

    def test_flat_step_matches_per_block_reference(self, monkeypatch):
        """train's free-coordinate steps reproduce, bit for bit, a per-block
        heavy-ball step that multiplies gradient and weight decay by each
        block's mask and keeps a full-size momentum buffer, fed the same
        gradients; that buffer's masked entries stay 0, so dropping them
        loses nothing."""
        model, ds = _small_mlp(seed=1), _toy_blobs(n=80, seed=1)
        masks.apply_mask(model, masks.random_mask(model, 0.6, seed=1))
        layout = layers.ParamLayout(model.blocks.values())
        ref = {n: (b.value, np.zeros_like(b.value), b.mask) for n, b in model.blocks.items()}
        seen = _spy_training_forwards(monkeypatch, model)
        steps = _spy_steps(monkeypatch)
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr0=0.1, milestones=(), seed=1)
        training.train(model, ds, cfg)
        assert len(seen) == len(steps) == 5
        for res, _ in seen:
            for n, (value, buf, mask) in ref.items():
                g = res.leaves[n].grad + 2e-4 * value
                buf = 0.9 * buf + (g if mask is None else g * mask)
                ref[n] = (value - 0.1 * buf, buf, mask)
        for n, b in model.blocks.items():
            assert b.value.tobytes() == ref[n][0].tobytes()
        buf = layout.flatten({n: r[1] for n, r in ref.items()})
        assert steps[-1][2].tobytes() == buf[layout.free_index].tobytes()
        dead = _masked(layout)
        assert dead.any() and not buf[dead].any()

    def test_nonfinite_gradient_names_block(self, monkeypatch):
        model, ds = _small_mlp(seed=9), _toy_blobs(seed=9)
        block = list(model.blocks)[3]
        _poison_gradient(monkeypatch, model, block, at_call=1)
        history = training.train(model, ds, training.TrainConfig(
            epochs=1, batch_size=16, lr0=0.05, milestones=(), seed=9))
        assert history[-1].error == (f"sgd_step: non-finite gradient for block {block}"
                                     " at epoch 0, batch 0")


class TestLrSchedule:
    def test_paper_milestones(self):
        ms = (90, 135)
        assert training.lr_at(89, 0.1, ms) == 0.1
        assert training.lr_at(90, 0.1, ms) == pytest.approx(0.01)
        assert training.lr_at(134, 0.1, ms) == pytest.approx(0.01)
        assert training.lr_at(135, 0.1, ms) == pytest.approx(0.001)
        assert training.lr_at(179, 0.1, ms) == pytest.approx(0.001)

    def test_no_milestones(self):
        assert training.lr_at(50, 0.1, ()) == 0.1


class TestTrainConfig:
    def test_milestones_must_increase(self):
        with pytest.raises(ConfigError):
            training.TrainConfig(epochs=10, milestones=(5, 5))

    def test_milestones_before_end(self):
        with pytest.raises(ConfigError):
            training.TrainConfig(epochs=10, milestones=(10,))

    def test_ls_alpha_range(self):
        with pytest.raises(ConfigError):
            training.TrainConfig(milestones=(), ls_alpha=1.0)


def _toy_blobs(n=64, seed=0):
    """Two linearly separable clusters."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.concatenate([rng.normal(size=(half, 2)) * 0.3 + 2.0,
                        rng.normal(size=(half, 2)) * 0.3 - 2.0])
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    xt = np.concatenate([rng.normal(size=(8, 2)) * 0.3 + 2.0,
                         rng.normal(size=(8, 2)) * 0.3 - 2.0])
    yt = np.concatenate([np.zeros(8, dtype=np.int64), np.ones(8, dtype=np.int64)])
    return datasets.Dataset(x, y, xt, yt, 2, (2,), np.zeros(2), np.ones(2))


def _small_mlp(seed=0):
    return layers.build_model({"preset": "mlp", "in_shape": [2], "hidden": [8, 8],
                               "classes": 2}, seed=seed)


def _spy_training_forwards(monkeypatch, model):
    """Record every training-mode forward of ``model``: (result, copies of
    its leaves' arrays, i.e. of the block values it ran on)."""
    seen, real = [], model.forward

    def spy(x, **kw):
        res = real(x, **kw)
        if kw.get("training"):
            seen.append((res, {n: t.data.copy() for n, t in res.leaves.items()}))
        return res

    monkeypatch.setattr(model, "forward", spy)
    return seen


def _poison_gradient(monkeypatch, model, block, at_call, index=0):
    """Put a NaN into ``block``'s gradient at flat ``index`` at the
    ``at_call``-th backward (1-based) of the training loop; returns the
    forward spy's records."""
    seen, real, calls = _spy_training_forwards(monkeypatch, model), ad.backward, []

    def poisoned(root, *args):
        real(root, *args)
        calls.append(root)
        if len(calls) == at_call:
            seen[-1][0].leaves[block].grad.flat[index] = np.nan

    monkeypatch.setattr(ad, "backward", poisoned)
    return seen


def _masked(layout):
    """True at the layout's masked coordinates, the complement of free_index."""
    dead = np.ones(layout.size, dtype=bool)
    dead[layout.free_index] = False
    return dead


def _spy_steps(monkeypatch):
    """Record (theta, grad, new velocity) of every sgd_step the training
    loop makes: the step's free-coordinate inputs and its velocity."""
    steps, real = [], training.sgd_step

    def spy(theta, grad, velocity, *args):
        theta_new, velocity = real(theta, grad, velocity, *args)
        steps.append((theta, grad, velocity))
        return theta_new, velocity

    monkeypatch.setattr(training, "sgd_step", spy)
    return steps


class TestTrainLoop:
    def test_zero_epochs_is_a_no_op(self):
        model = _small_mlp()
        before = {n: b.value.tobytes() for n, b in model.blocks.items()}
        cfg = training.TrainConfig(epochs=0, milestones=(), seed=0)
        history = training.train(model, _toy_blobs(), cfg)
        assert history == []
        for n, b in model.blocks.items():
            assert b.value.tobytes() == before[n]

    def test_default_probes_use_probe_config_batch(self, monkeypatch):
        """Without a ProbeConfig, train() probes with ProbeConfig's own defaults."""
        from sparselab import diagnostics
        seen = []
        real = diagnostics.activation_sparsity

        def spy(model, x, eps, **kw):
            seen.append((len(x), eps))
            return real(model, x, eps, **kw)

        monkeypatch.setattr(diagnostics, "activation_sparsity", spy)
        cfg = training.TrainConfig(epochs=1, batch_size=100, milestones=(), seed=0)
        training.train(_small_mlp(), _toy_blobs(n=400), cfg)
        want = diagnostics.ProbeConfig()
        assert training.TrainConfig(probes=None).probes == want
        assert want.probe_batch < 400
        assert seen == [(want.probe_batch, want.act_eps)]

    def test_separable_toy_fits_within_five_epochs(self):
        # the full-width preset, dense (no mask), on linearly separable blobs
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "classes": 2}, seed=1)
        ds = _toy_blobs(n=128, seed=1)
        cfg = training.TrainConfig(epochs=5, batch_size=32, lr0=0.05, milestones=(), seed=1)
        training.train(model, ds, cfg)
        _, train_acc = training.evaluate(model, ds.x_train, ds.y_train, 64)
        assert train_acc == 1.0

    def test_masked_coordinates_zero_after_200_steps(self, monkeypatch):
        """Every one of 200 steps runs on exactly the free coordinates, and
        every forward sees the masked bytes that apply_mask left."""
        model = _small_mlp(seed=2)
        ds = _toy_blobs(n=128, seed=2)
        mask = masks.random_mask(model, 0.5, seed=3)
        masked = masks.apply_mask(model.clone(), mask)
        layout = layers.ParamLayout(masked.blocks.values())
        dead = _masked(layout)
        dead_bytes = layout.flatten({n: b.value for n, b in masked.blocks.items()})[dead].tobytes()
        seen = _spy_training_forwards(monkeypatch, model)
        steps = _spy_steps(monkeypatch)
        cfg = training.TrainConfig(epochs=25, batch_size=16, lr0=0.05, milestones=(), seed=2)
        training.train(model, ds, cfg, mask=mask)   # 25 epochs x 8 batches = 200 steps
        assert len(steps) == len(seen) == 200
        for b in model.maskable_blocks():
            dead_block = b.mask == 0
            assert np.abs(b.value[dead_block]).max() == 0.0
        assert {a.size for step in steps for a in step} == {layout.free_index.size}
        for _, values in seen:
            assert layout.flatten(values)[dead].tobytes() == dead_bytes

    def test_masked_bytes_keep_the_sign_apply_mask_left(self):
        """apply_mask leaves -0.0 under negative weights; a masked run with
        weight decay keeps every masked coordinate's bytes, sign included."""
        model, ds = _small_mlp(seed=5), _toy_blobs(seed=5)
        mask = masks.random_mask(model, 0.5, seed=5)
        want = {b.name: b.value * np.asarray(mask.arrays[b.name], dtype=np.float64)
                for b in model.maskable_blocks()}
        cfg = training.TrainConfig(epochs=3, batch_size=16, lr0=0.1, weight_decay=0.1,
                                   milestones=(), seed=5)
        history = training.train(model, ds, cfg, mask=mask)
        assert len(history) == 3 and not history[-1].diverged
        signs = set()
        for b in model.maskable_blocks():
            dead = b.mask == 0
            assert b.value[dead].tobytes() == want[b.name][dead].tobytes()
            signs |= set(np.signbit(want[b.name][dead]).tolist())
        assert signs == {False, True}

    def test_nonfinite_gradient_at_a_masked_coordinate_stops_the_run(self, monkeypatch):
        """The finite check reads the full gradient: a NaN where the mask is 0
        still stops the run before any block moves, and names its block."""
        model, ds = _small_mlp(seed=9), _toy_blobs(seed=9)
        mask = masks.random_mask(model, 0.5, seed=9)
        block = "L02.dense.w"
        index = int(np.flatnonzero(mask.arrays[block] == 0)[0])
        seen = _poison_gradient(monkeypatch, model, block, at_call=3, index=index)
        cfg = training.TrainConfig(epochs=2, batch_size=16, lr0=0.05, milestones=(), seed=9)
        history = training.train(model, ds, cfg, mask=mask)
        assert len(seen) == 3 and len(history) == 1 and history[0].diverged
        assert history[0].error == (f"sgd_step: non-finite gradient for block {block}"
                                    " at epoch 0, batch 2")
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, seen[-1][1][n])

    def test_update_never_writes_a_graphs_arrays(self, monkeypatch):
        """Each step rebinds the blocks to new arrays: the leaves of every
        earlier forward still hold exactly what that forward ran on."""
        model = _small_mlp(seed=3)
        seen = _spy_training_forwards(monkeypatch, model)
        cfg = training.TrainConfig(epochs=2, batch_size=16, lr0=0.05, milestones=(), seed=3)
        training.train(model, _toy_blobs(seed=3), cfg, mask=masks.random_mask(model, 0.5, seed=3))
        assert len(seen) == 8
        for res, leaf_data in seen:
            for n, leaf in res.leaves.items():
                np.testing.assert_array_equal(leaf.data, leaf_data[n])
        first = seen[0][0].leaves
        assert all(not np.shares_memory(b.value, first[n].data) for n, b in model.blocks.items())

    def test_history_is_deterministic(self):
        def run():
            model = _small_mlp(seed=4)
            ds = _toy_blobs(seed=4)
            cfg = training.TrainConfig(epochs=4, batch_size=16, lr0=0.1, milestones=(2,),
                                       ls_alpha=0.1, seed=4, ghost=GhostConfig())
            return training.train(model, ds, cfg, mask=masks.random_mask(model, 0.5, seed=5))

        h1, h2 = run(), run()
        assert len(h1) == len(h2)
        for a, b in zip(h1, h2):
            assert a == b

    def test_divergence_aborts_with_flagged_record(self):
        model = _small_mlp(seed=6)
        cfg = training.TrainConfig(epochs=10, batch_size=16, lr0=1e9, milestones=(), seed=6)
        history = training.train(model, _toy_blobs(seed=6), cfg)
        assert history[-1].diverged
        assert len(history) < 10

    def test_explicit_pswish_layer_trains_without_ghost(self):
        # no ghost config means beta = inf: the pswish layer must act as exact relu
        model = layers.build_model({"layers": [{"kind": "dense", "width": 8},
                                               {"kind": "activation", "activation": "pswish"},
                                               {"kind": "dense", "width": 2}],
                                    "in_shape": [2], "classes": 2}, seed=8)
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr0=0.05, milestones=(), seed=8)
        history = training.train(model, _toy_blobs(seed=8), cfg)
        assert len(history) == 1 and not history[0].diverged
        assert history[0].beta == math.inf and math.isfinite(history[0].train_loss)

    def test_lrsi_config_alone_switches_rescaling_on(self):
        model = _small_mlp(seed=9)
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr0=0.05, milestones=(), seed=9,
                                   lrsi=rescale.LRsIConfig(iters=1))
        training.train(model, _toy_blobs(seed=9), cfg)
        assert model.applied_scales is not None
        assert list(model.applied_scales.scales) == rescale.scale_groups(model)

    def test_numeric_error_in_update_flags_divergence(self, monkeypatch):
        calls = []

        def failing_step(*args):
            calls.append(args)
            raise ad.NumericError("sgd_step: injected failure")

        monkeypatch.setattr(training, "sgd_step", failing_step)
        model = _small_mlp(seed=9)
        before = {n: b.value.copy() for n, b in model.blocks.items()}
        cfg = training.TrainConfig(epochs=3, batch_size=16, lr0=0.05, milestones=(), seed=9)
        history = training.train(model, _toy_blobs(seed=9), cfg)
        assert len(calls) == 1
        assert len(history) == 1 and history[0].diverged
        assert math.isnan(history[0].train_loss)
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, before[n])

    def test_numeric_error_text_recorded_with_epoch_and_batch(self, monkeypatch):
        real_step, calls = training.sgd_step, []

        def step_failing_late(*args):
            calls.append(args)
            if len(calls) == fail_at:
                raise ad.NumericError("sgd_step: injected failure")
            return real_step(*args)

        model, ds = _small_mlp(seed=9), _toy_blobs(seed=9)
        n_batches = -(-len(ds.x_train) // 16)
        fail_at = n_batches + 3         # one step per batch: epoch 1, batch 2
        monkeypatch.setattr(training, "sgd_step", step_failing_late)
        cfg = training.TrainConfig(epochs=3, batch_size=16, lr0=0.05, milestones=(), seed=9)
        history = training.train(model, ds, cfg)
        assert [r.error for r in history[:-1]] == [None]
        assert history[-1].diverged
        assert history[-1].error == "sgd_step: injected failure at epoch 1, batch 2"

    def test_divergence_leaves_no_half_applied_step(self, monkeypatch):
        """A non-finite gradient in a late block stops the run before any
        block moves: the model keeps its values from the previous batch."""
        model, ds = _small_mlp(seed=9), _toy_blobs(seed=9)
        block = list(model.blocks)[4]                   # blocks 0-3 come before it
        n_batches = -(-len(ds.x_train) // 16)
        seen = _poison_gradient(monkeypatch, model, block, at_call=n_batches + 3)
        cfg = training.TrainConfig(epochs=3, batch_size=16, lr0=0.05, milestones=(), seed=9)
        history = training.train(model, ds, cfg)
        assert len(seen) == n_batches + 3
        assert [r.diverged for r in history] == [False, True] and history[-1].epoch == 1
        assert history[-1].error == (f"sgd_step: non-finite gradient for block {block}"
                                     " at epoch 1, batch 2")
        values_before_batch = seen[-1][1]
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, values_before_batch[n])

    def test_divergence_leaves_batchnorm_statistics_unchanged(self, monkeypatch):
        """A NaN gradient at batch 1 of a resnet-tiny run: every running mean
        and variance keeps its value from before that batch, as the weights do."""
        model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                    "classes": 2}, seed=0)
        ds = datasets.make_synthetic("teacher", 128, seed=0, input_shape=(1, 8, 8))
        stats = []
        real_forward = model.forward

        def forward(x, **kw):
            if kw.get("training"):
                stats.append({n: (m.copy(), v.copy()) for n, (m, v) in model.bn_stats.items()})
            return real_forward(x, **kw)

        monkeypatch.setattr(model, "forward", forward)
        seen = _poison_gradient(monkeypatch, model, "L00.conv3x3.w", at_call=2)
        cfg = training.TrainConfig(epochs=2, batch_size=32, lr0=0.05, milestones=(), seed=0)
        history = training.train(model, ds, cfg)
        assert history[-1].diverged and history[-1].error.endswith("at epoch 0, batch 1")
        assert len(seen) == 2 and len(model.bn_stats) == 9
        for n, (m, v) in model.bn_stats.items():
            assert m.tobytes() == stats[1][n][0].tobytes()
            assert v.tobytes() == stats[1][n][1].tobytes()
            assert m.tobytes() != stats[0][n][0].tobytes()    # batch 0's update stands

    def test_exploding_loss_records_value_epoch_and_batch(self):
        cfg = training.TrainConfig(epochs=10, batch_size=16, lr0=1e9, milestones=(), seed=6)
        history = training.train(_small_mlp(seed=6), _toy_blobs(seed=6), cfg)
        last = history[-1]
        m = re.fullmatch(r"train loss (\S+) at epoch (\d+), batch (\d+)", last.error or "")
        assert m is not None, last.error
        loss = float(m.group(1))
        assert not math.isfinite(loss) or loss > training.DIVERGENCE_LOSS
        assert int(m.group(2)) == last.epoch and int(m.group(3)) >= 0


class TestGhostIntegration:
    def _cfg(self, policy="ghost", epochs=6, **kw):
        return training.TrainConfig(epochs=epochs, batch_size=16, lr0=0.1,
                                    milestones=(3, 5), seed=7,
                                    ghost=GhostConfig(policy=policy, **kw))

    def test_rehabilitation_bit_identical_after_milestone(self):
        ds = _toy_blobs(seed=7)
        model = _small_mlp(seed=7)
        history = training.train(model, ds, self._cfg())
        assert history[3].alpha == 0.0 and history[3].beta == math.inf
        # a never-ghosted model with the same weights produces identical bits
        ghosted = model.forward(ds.x_test, alpha=0.0).logits.data
        plain = model.forward(ds.x_test).logits.data
        assert ghosted.tobytes() == plain.tobytes()

    def test_keep_forever_differs_from_plain(self):
        ds = _toy_blobs(seed=8)
        model = _small_mlp(seed=8)
        training.train(model, ds, self._cfg(policy="keep_forever"))
        soft = model.forward(ds.x_test, activation="pswish", beta=1.0, alpha=1.0).logits.data
        plain = model.forward(ds.x_test).logits.data
        assert soft.tobytes() != plain.tobytes()

    def test_swap_deviation_recorded_and_small(self):
        ds = _toy_blobs(seed=9)
        model = _small_mlp(seed=9)
        history = training.train(model, ds, self._cfg())
        devs = [r.swap_deviation for r in history if r.swap_deviation is not None]
        assert len(devs) == 1
        assert devs[0] <= 0.05

    def test_swap_deviation_is_reduced_site_by_site(self):
        """The deviation equals, bit for bit, the max over sites computed from
        every observed pre-activation at once. On the mlp at batch 256 it
        peaks below six arrays of one site's size (the site's input and
        output, and the temporaries of pswish and of the difference), where
        keeping every site's pre-activation until the forward ends does not."""
        rng = np.random.default_rng(30)
        mlp = layers.build_model({"preset": "mlp", "in_shape": [2], "classes": 2}, seed=30)
        resnet = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                     "classes": 2}, seed=30)
        for model, x in ((resnet, rng.normal(size=(16, 1, 8, 8))),
                         (mlp, rng.normal(size=(256, 2)))):
            preacts = []
            model.forward(x, grad=False, observe=lambda z, _: preacts.append(z))
            want = 0.0
            for z in preacts:
                soft = ad.pswish(z, 10.0).data
                want = max(want, float(np.abs(soft - np.maximum(z, 0.0)).max()))
            got = training._swap_deviation(model, x, 10.0)
            assert want > 0 and np.float64(got).tobytes() == np.float64(want).tobytes()
        site = max(z.nbytes for z in preacts)     # the mlp's, its widest site
        del preacts, z, soft
        tracemalloc.start()
        try:
            training._swap_deviation(mlp, x, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * site, (peak, site)

    def test_schedule_columns_follow_policy(self):
        ds = _toy_blobs(seed=10)
        model = _small_mlp(seed=10)
        history = training.train(model, ds, self._cfg())
        assert history[0].beta == 1.0 and history[0].alpha == 1.0
        assert history[1].beta == pytest.approx(4.0)
        assert history[1].alpha == pytest.approx(2.0 / 3.0)
        assert history[3].beta == math.inf and history[3].alpha == 0.0


class TestMetricsCsv:
    def test_column_order_and_empty_probe_cells(self, tmp_path):
        ds = _toy_blobs(seed=11)
        model = _small_mlp(seed=11)
        cfg = training.TrainConfig(epochs=2, batch_size=16, lr0=0.1, milestones=(), seed=11)
        history = training.train(model, ds, cfg)
        path = tmp_path / "metrics.csv"
        n_act = len(model.activation_site_names())
        training.write_metrics_csv(path, history, n_act, eig_count=2)
        lines = path.read_text().split("\n")
        header = lines[0].split(",")
        assert header[:8] == ["epoch", "lr", "beta", "alpha", "train_loss",
                              "test_loss", "test_acc", "grad_flow"]
        assert header[8:8 + n_act] == [f"act_sparsity_L{i+1}" for i in range(n_act)]
        assert header[8 + n_act:] == ["top_eig_1", "top_eig_2"]
        row = lines[1].split(",")
        assert row[-1] == "" and row[-2] == ""          # probes disabled
        assert float(row[1]) == 0.1

    def test_floats_round_trip(self, tmp_path):
        ds = _toy_blobs(seed=12)
        model = _small_mlp(seed=12)
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr0=0.1, milestones=(), seed=12)
        history = training.train(model, ds, cfg)
        path = tmp_path / "metrics.csv"
        training.write_metrics_csv(path, history, len(model.activation_site_names()), 1)
        row = path.read_text().split("\n")[1].split(",")
        assert float(row[4]) == history[0].train_loss


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        training.write_csv(str(path), ["none", "float", "inf", "int", "f64", "text"],
                           [[None, 0.1, math.inf, 7, np.float64(0.25), "a,b"]])
        assert path.read_bytes() == (b"none,float,inf,int,f64,text\n"
                                     b',0.10000000000000001,inf,7,0.25,"a,b"\n')

    def test_failing_rows_keep_the_earlier_file(self, tmp_path):
        path = tmp_path / "t.csv"
        training.write_csv(str(path), ["x"], [[1.5]])
        before = path.read_bytes()

        def rows():
            yield [2.5]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            training.write_csv(str(path), ["x"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
