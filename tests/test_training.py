"""Label smoothing, the optimizer step, schedules, and the training loop."""

import math

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import datasets, ghost, layers, masks, rescale, training
from sparselab.ghost import ConfigError, GhostConfig
from sparselab.layers import ParamBlock


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


class TestSgdStep:
    def _block(self, values, mask=None):
        blk = ParamBlock("b.w", "weight", np.asarray(values, dtype=np.float64), "b")
        if mask is not None:
            blk.mask = np.asarray(mask, dtype=np.float64)
            blk.value = blk.value * blk.mask
        return blk

    def test_vanilla_first_step(self):
        blk = self._block([1.0, 2.0])
        training.sgd_step(blk, np.array([0.5, -0.5]), lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(blk.value, [0.95, 2.05])

    def test_two_steps_constant_gradient(self):
        blk = self._block([0.0])
        g = np.array([1.0])
        training.sgd_step(blk, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        training.sgd_step(blk, g, lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(blk.value, [-0.1 * (1.0 + 1.9)], atol=1e-15)

    def test_masked_coordinate_pinned_at_zero(self):
        blk = self._block([1.0, 1.0], mask=[1.0, 0.0])
        for _ in range(50):
            training.sgd_step(blk, np.array([0.3, 0.7]), lr=0.1)
        assert blk.value[1] == 0.0 and blk.momentum[1] == 0.0
        assert blk.value[0] != 1.0

    def test_weight_decay_cannot_resurrect_masked(self):
        blk = self._block([1.0, 1.0], mask=[1.0, 0.0])
        training.sgd_step(blk, np.zeros(2), lr=0.1, weight_decay=0.5)
        assert blk.value[1] == 0.0

    def test_nonfinite_gradient_names_block(self):
        blk = self._block([1.0])
        with pytest.raises(Exception, match="b.w"):
            training.sgd_step(blk, np.array([np.nan]), lr=0.1)


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


class TestTrainLoop:
    def test_zero_epochs_is_a_no_op(self):
        model = _small_mlp()
        before = {n: b.value.tobytes() for n, b in model.blocks.items()}
        cfg = training.TrainConfig(epochs=0, milestones=(), seed=0)
        history = training.train(model, _toy_blobs(), cfg)
        assert history == []
        for n, b in model.blocks.items():
            assert b.value.tobytes() == before[n]

    def test_separable_toy_fits_within_five_epochs(self):
        # the full-width preset, dense (no mask), on linearly separable blobs
        model = layers.build_model({"preset": "mlp", "in_shape": [2], "classes": 2}, seed=1)
        ds = _toy_blobs(n=128, seed=1)
        cfg = training.TrainConfig(epochs=5, batch_size=32, lr0=0.05, milestones=(), seed=1)
        training.train(model, ds, cfg)
        _, train_acc = training.evaluate(model, ds.x_train, ds.y_train, 64)
        assert train_acc == 1.0

    def test_masked_coordinates_zero_after_200_steps(self):
        model = _small_mlp(seed=2)
        ds = _toy_blobs(n=128, seed=2)
        mask = masks.random_mask(model, 0.5, seed=3)
        cfg = training.TrainConfig(epochs=25, batch_size=16, lr0=0.05, milestones=(), seed=2)
        training.train(model, ds, cfg, mask=mask)   # 25 epochs x 8 batches = 200 steps
        for b in model.maskable_blocks():
            dead = b.mask == 0
            assert np.abs(b.value[dead]).max() == 0.0
            assert np.abs(b.momentum[dead]).max() == 0.0

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

        def failing_step(block, grad, *args):
            calls.append(block.name)
            raise ad.NumericError(f"sgd_step: non-finite gradient for block {block.name}")

        monkeypatch.setattr(training, "sgd_step", failing_step)
        cfg = training.TrainConfig(epochs=3, batch_size=16, lr0=0.05, milestones=(), seed=9)
        history = training.train(_small_mlp(seed=9), _toy_blobs(seed=9), cfg)
        assert len(calls) == 1
        assert len(history) == 1 and history[0].diverged
        assert math.isnan(history[0].train_loss)


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
