"""Activation math, batchnorm semantics, residual/ghost topology, model building."""

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import layers as ly

from helpers import ghost_skip_sites, param_count


class TestActivations:
    def test_pswish_zero(self):
        for beta in (0.0, 1.0, 17.0):
            assert ad.pswish(ad.Tensor([0.0]), beta).data[0] == 0.0

    def test_pswish_swish_point(self):
        # frozen from x * sigmoid(x) at x=1 in float64
        got = ad.pswish(ad.Tensor([1.0]), 1.0).data[0]
        np.testing.assert_allclose(got, 0.7310585786300049, rtol=0, atol=1e-15)

    def test_pswish_relu_limit_point(self):
        got = ad.pswish(ad.Tensor([5.0]), 20.0).data[0]
        np.testing.assert_allclose(got, 5.0, atol=1e-10)

    def test_pswish_relu_limit_grid(self):
        x = np.linspace(-10.0, 10.0, 2001)
        dev = np.abs(ad.pswish(ad.Tensor(x), 1e4).data - np.maximum(x, 0.0))
        assert dev.max() <= 1e-3

    def test_pswish_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            ad.pswish(ad.Tensor([1.0]), -0.5)

    def test_mish_values(self):
        assert ad.mish(ad.Tensor([0.0])).data[0] == 0.0
        np.testing.assert_allclose(ad.mish(ad.Tensor([10.0])).data[0], 10.0, atol=1e-6)
        # frozen from x * tanh(log1p(exp(x))) at x=1 in float64
        np.testing.assert_allclose(ad.mish(ad.Tensor([1.0])).data[0], 0.8650983882673103,
                                   rtol=0, atol=1e-15)

    def test_mish_large_negative_stable(self):
        out = ad.mish(ad.Tensor([-745.0])).data
        assert np.isfinite(out).all()

    def test_relu_cases(self):
        np.testing.assert_array_equal(ad.relu(ad.Tensor([-2.0, 0.0, 3.0])).data, [0.0, 0.0, 3.0])
        np.testing.assert_array_equal(ad.relu(ad.Tensor([-1.0, -5.0])).data, [0.0, 0.0])

    def test_relu_gradient_mask(self):
        x = ad.Tensor([-2.0, 0.0, 3.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


class TestBatchNorm:
    def test_zero_variance_channel(self):
        x = ad.Tensor(np.full((4, 2), 3.0))
        gamma = ad.Tensor([1.5, 1.5])
        beta = ad.Tensor([0.25, -0.25])
        out, _, _ = ad.batchnorm_train(x, gamma, beta)
        np.testing.assert_allclose(out.data, np.broadcast_to([0.25, -0.25], (4, 2)))

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 3), loc=2.0, scale=1.7)
        out, _, _ = ad.batchnorm_train(ad.Tensor(x), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        mean = x.mean(axis=0)
        var = x.var(axis=0)
        np.testing.assert_allclose(out.data, (x - mean) / np.sqrt(var + ad.BN_EPS), atol=1e-12)

    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(16, 4))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        out, _, _ = ad.batchnorm_train(ad.Tensor(x), ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)))
        assert np.abs(out.data - x).max() <= 1e-9

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 3))
        base, _, _ = ad.batchnorm_train(ad.Tensor(x), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        for c in (0.1, 3.0, 10.0):
            scaled, _, _ = ad.batchnorm_train(ad.Tensor(c * x), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
            assert np.abs(scaled.data - base.data).max() <= 1e-9

    def test_contract_wrapper_updates_running_stats(self):
        """A batchnorm after a dense layer folds 0.1 of the batch mean into
        zero running means; an eval forward returns the running arrays as is."""
        model = _dense_bn()
        x = np.random.default_rng(8).normal(size=(8, 3), loc=5.0)
        res = model.forward(x, training=True)
        dense = x @ model.blocks["L00.dense.w"].value + model.blocks["L00.dense.b"].value
        np.testing.assert_allclose(res.stats["L01.batchnorm"][0], 0.1 * dense.mean(axis=0),
                                   atol=1e-12)
        model.bn_stats.update(res.stats)
        out_eval = model.forward(x)
        assert all(a is b for a, b in zip(out_eval.stats["L01.batchnorm"],
                                          res.stats["L01.batchnorm"]))
        assert out_eval.logits.data.shape == (8, 2)

    def test_batch_of_one_rejected_in_train(self):
        with pytest.raises(ValueError, match=r"batchnorm\[L01\.batchnorm\]"):
            _dense_bn().forward(np.zeros((1, 3)), training=True)

    def test_model_layers_share_the_contract_helper(self):
        """A model's train-mode forward returns its batch statistics folded
        into the running stats with BN_MOMENTUM, bit for bit."""
        model = _tiny_resnet()
        x = np.random.default_rng(5).normal(size=(4, 1, 8, 8))
        res = model.forward(x, training=True)
        stem = model.layers[0].forward(ad.Tensor(x), ly.ForwardContext(),
                                       {n: ad.Tensor(b.value) for n, b in model.blocks.items()})
        name = model.layers[1].name
        _, mean, var = ad.batchnorm_train(stem, ad.Tensor(model.blocks[f"{name}.g"].value),
                                          ad.Tensor(model.blocks[f"{name}.b"].value),
                                          eps=ad.BN_EPS)
        for got, running, batch in zip(res.stats[name], model.bn_stats[name], (mean, var)):
            fold = (1 - ly.BN_MOMENTUM) * running + ly.BN_MOMENTUM * batch
            assert got.tobytes() == fold.tobytes()
            assert not np.array_equal(got, running)     # the fold moved them

    def test_forward_leaves_running_stats_unchanged(self):
        """No forward writes the model: a train-mode forward returns its
        statistics as ``res.stats`` and leaves ``bn_stats``, the dict and
        the bytes of every array, as they were; eval mode returns them as is."""
        model = _tiny_resnet()
        x = np.random.default_rng(9).normal(size=(4, 1, 8, 8))
        model.bn_stats = {n: (m + 0.5, v * 2.0) for n, (m, v) in model.bn_stats.items()}
        before = dict(model.bn_stats)
        raw = {n: (m.tobytes(), v.tobytes()) for n, (m, v) in before.items()}
        same = lambda stats: (stats.keys() == before.keys() and
                              all(stats[n][i] is before[n][i] for n in before for i in (0, 1)))
        res = model.forward(x, training=True)
        assert same(model.bn_stats) and res.stats is not model.bn_stats
        assert {n: (m.tobytes(), v.tobytes()) for n, (m, v) in model.bn_stats.items()} == raw
        assert res.stats.keys() == before.keys()
        assert all(res.stats[n][i] is not before[n][i] for n in before for i in (0, 1))
        assert same(model.forward(x).stats)


def _tiny_resnet(seed=0, in_shape=(1, 8, 8), classes=3):
    return ly.build_model({"preset": "resnet-tiny", "in_shape": in_shape, "classes": classes}, seed=seed)


def _dense_bn():
    """dense(2) into a 2-D batchnorm: the batchnorm is layer L01."""
    return ly.build_model({"layers": [{"kind": "dense", "width": 2}, {"kind": "batchnorm"}],
                           "in_shape": [3], "classes": 2}, seed=0)


def _first_residual_block(model, x, alpha, activation=None, beta=1.0):
    """The model's first residual block alone, eval mode, on a raw batch."""
    block = next(l for l in model.layers if isinstance(l, ly._ResidualBlock))
    ctx = ly.ForwardContext(activation=activation, beta=beta, alpha=alpha,
                            stats=model.bn_stats)
    P = {n: ad.Tensor(b.value, requires_grad=True, name=n) for n, b in model.blocks.items()}
    return block.forward(ad.Tensor(x), ctx, P)


class TestResidualBlock:
    def test_alpha_zero_adds_no_ghost_nodes(self):
        model = _tiny_resnet()
        x = np.random.default_rng(0).normal(size=(2, 1, 8, 8))
        out0 = model.forward(x, alpha=0.0)
        ops = [t.name for t in ad.topo_order(out0.logits)]
        assert not any("ghost" in name for name in ops)
        out_again = model.forward(x, alpha=0.0)
        assert out0.logits.data.tobytes() == out_again.logits.data.tobytes()
        out_ghost = model.forward(x, alpha=0.5)
        assert any("ghost" in t.name for t in ad.topo_order(out_ghost.logits))

    def test_alpha_one_identity_block_hand_case(self):
        """Zero convs + identity BN + relu: block output is relu(relu(x) + x)."""
        model = _tiny_resnet(in_shape=(8, 2, 2), classes=3)
        for name, blk in model.blocks.items():
            if "res" in name and blk.kind == "weight":
                blk.value[:] = 0.0
        x = np.random.default_rng(1).normal(size=(2, 8, 2, 2))
        out = _first_residual_block(model, x, alpha=1.0)
        want = np.maximum(np.maximum(x, 0.0) + x, 0.0)
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_alpha_gate_algebra_for_linearized_block(self):
        """With linear activations and eval-mode BN the gate algebra is exactly
        quadratic in alpha (the second ghost site multiplies an alpha-dependent
        signal), so three evaluations determine the response at any gate value."""
        model = _tiny_resnet(in_shape=(8, 4, 4), classes=3)
        x = np.random.default_rng(2).normal(size=(3, 8, 4, 4))

        def run(alpha):
            return _first_residual_block(model, x, alpha, activation="pswish", beta=0.0).data

        y0, yh, y1 = run(0.0), run(0.5), run(1.0)
        # Lagrange interpolation through alpha = 0, 0.5, 1 evaluated at 0.25
        a = 0.25
        pred = (y0 * (a - 0.5) * (a - 1.0) / 0.5
                + yh * (a - 0.0) * (a - 1.0) / -0.25
                + y1 * (a - 0.0) * (a - 0.5) / 0.5)
        np.testing.assert_allclose(run(0.25), pred, atol=1e-10)

    def test_alpha_midpoint_exact_for_single_site_dense(self):
        """A dense ghost site adds alpha times its own input: affine in alpha."""
        model = ly.build_model({"preset": "mlp", "in_shape": [6], "hidden": [6],
                                "classes": 2}, seed=2)
        x = np.random.default_rng(3).normal(size=(4, 6))

        def run(alpha):
            return model.forward(x, alpha=alpha, activation="pswish", beta=0.0).logits.data

        np.testing.assert_allclose(run(0.5), 0.5 * (run(0.0) + run(1.0)), atol=1e-12)


class TestBuildModel:
    def test_resnet_tiny_param_count(self):
        model = _tiny_resnet(classes=3)
        # independent count from layer shapes
        def conv(ci, co):
            return co * ci * 9 + co
        def bn(c):
            return 2 * c
        def res(c):
            return 2 * conv(c, c) + 2 * bn(c)
        want = (conv(1, 8) + bn(8) + res(8)
                + conv(8, 16) + bn(16) + res(16)
                + conv(16, 32) + bn(32) + res(32)
                + 32 * 3 + 3)
        assert param_count(model) == want
        again = _tiny_resnet(classes=3)
        assert param_count(model) == param_count(again)
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, again.blocks[n].value)

    def test_mlp_ghost_sites(self):
        model = ly.build_model({"preset": "mlp", "in_shape": [784], "classes": 10}, seed=0)
        assert ghost_skip_sites(model) == ["L02.dense", "L04.dense"]  # the two 256->256 junctions

    def test_resnet_ghost_sites(self):
        model = _tiny_resnet()
        # two per residual block, in layer order, also on a clone
        assert ghost_skip_sites(model) == [f"L{i:02d}.residual_block.ghost{j}"
                                          for i in (3, 7, 11) for j in (1, 2)]
        assert ghost_skip_sites(model.clone()) == ghost_skip_sites(model)

    def test_layer_list_ghost_sites(self):
        """Shape-preserving conv and dense layers are sites; the 1->4 conv is not."""
        model = ly.build_model({"layers": [
            {"kind": "conv3x3", "width": 1}, {"kind": "conv3x3", "width": 4},
            {"kind": "conv3x3", "width": 4}, {"kind": "global_pool"},
            {"kind": "dense", "width": 4}, {"kind": "dense", "width": 4}],
            "in_shape": [1, 4, 4], "classes": 4}, seed=0)
        assert ghost_skip_sites(model) == ["L00.conv3x3", "L02.conv3x3", "L04.dense", "L05.dense"]

    def test_same_seed_same_outputs(self):
        a, b = _tiny_resnet(seed=3), _tiny_resnet(seed=3)
        x = np.random.default_rng(4).normal(size=(2, 1, 8, 8))
        ya = a.forward(x).logits.data
        yb = b.forward(x).logits.data
        assert ya.tobytes() == yb.tobytes()

    def test_empty_spec_rejected(self):
        with pytest.raises(ly.BuildError):
            ly.build_model({})
        with pytest.raises(ly.BuildError):
            ly.build_model({"layers": [], "in_shape": [4], "classes": 2})

    def test_incompatible_chain_names_layer(self):
        with pytest.raises(ly.BuildError, match="layer 0"):
            ly.build_model({"layers": [{"kind": "conv3x3", "width": 4}],
                            "in_shape": [8], "classes": 4})

    def test_output_dim_mismatch_rejected(self):
        with pytest.raises(ly.BuildError, match="classes"):
            ly.build_model({"layers": [{"kind": "dense", "width": 5}],
                            "in_shape": [4], "classes": 2})


    DENSE = [{"kind": "dense", "width": 2}]
    CONV = [{"kind": "conv3x3", "width": 1}, {"kind": "global_pool"},
            {"kind": "dense", "width": 2}]

    @pytest.mark.parametrize("spec, match", [
        ({"preset": "mlp", "layers": DENSE, "in_shape": [2], "classes": 2}, "not both"),
        ({"preset": "mlp", "channels": [4], "in_shape": [2], "classes": 2}, "channels"),
        ({"preset": "resnet-tiny", "hidden": [4], "in_shape": [1, 8, 8], "classes": 2},
         "hidden"),
        ({"layers": DENSE, "hidden": [4], "in_shape": [2], "classes": 2}, "hidden"),
        ({"layers": [{"kind": "conv3x3", "width": 1, "stride": True}, *CONV[1:]],
          "in_shape": [1, 4, 4], "classes": 2}, r"layer 0 \(conv3x3\): stride must be int"),
        ({"layers": [{"kind": "dense", "width": 2.0}], "in_shape": [2], "classes": 2},
         r"layer 0 \(dense\): width must be int"),
        ({"layers": [{"kind": "dense", "width": True}], "in_shape": [2], "classes": 2},
         r"layer 0 \(dense\): width must be int"),
        ({"layers": [{"kind": "residual_block", "width": 1, "has_native_skip": 1}, *CONV[1:]],
          "in_shape": [1, 4, 4], "classes": 2},
         r"layer 0 \(residual_block\): has_native_skip must be bool"),
        ({"layers": [{"kind": "activation"}], "in_shape": [2], "classes": 2},
         "no dense or conv layer"),
        ({"layers": [{"kind": "batchnorm"}, {"kind": "global_pool"}], "in_shape": [2, 3, 3],
          "classes": 2}, "no dense or conv layer"),
        ({"layers": [*DENSE, *DENSE, {"kind": "dense"}], "in_shape": [2], "classes": 2},
         r"layer 2 \(dense\): width must be >= 1, got 0"),
        ({"layers": [{"kind": "conv3x3", "width": 0}, *CONV[1:]], "in_shape": [1, 4, 4],
          "classes": 2}, r"layer 0 \(conv3x3\): width must be >= 1, got 0"),
        ({"layers": [{"kind": "dense", "width": -3}, *DENSE], "in_shape": [2], "classes": 2},
         r"layer 0 \(dense\): width must be >= 1, got -3"),
        ({"layers": [{"kind": "residual_block", "width": 1, "activation": "bogus"}, *CONV[1:]],
          "in_shape": [1, 4, 4], "classes": 2},
         r"layer 0 \(residual_block\): unknown activation kind 'bogus'"),
        ({"layers": [{"kind": "conv3x3", "width": 1, "activation": "mish"}, *CONV[1:]],
          "in_shape": [1, 4, 4], "classes": 2},
         r"layer 0 \(conv3x3\): \['activation'\] do nothing"),
        ({"layers": [{"kind": "dense", "width": 2, "stride": 2}], "in_shape": [2],
          "classes": 2}, r"layer 0 \(dense\): \['stride'\] do nothing"),
        ({"layers": [{"kind": "batchnorm", "width": 2}, *DENSE], "in_shape": [2],
          "classes": 2}, r"layer 0 \(batchnorm\): \['width'\] do nothing"),
        ({"layers": [{"kind": "pool"}, *DENSE], "in_shape": [2], "classes": 2},
         r"layer 0 \(pool\): unknown layer kind 'pool'"),
        ({"layers": [*DENSE, {"kind": "dense", "width": 2, "foo": 1}], "in_shape": [2],
          "classes": 2}, r"layer 1 \(dense\): \['foo'\] do nothing"),
    ], ids=["preset-and-layers", "channels-on-mlp", "hidden-on-resnet", "hidden-on-layers",
            "bool-stride", "float-width", "bool-width", "int-native-skip",
            "activation-only", "nothing-to-mask", "dense-without-width", "zero-width-conv",
            "negative-width", "bogus-block-activation", "activation-on-conv",
            "stride-on-dense", "width-on-batchnorm", "unknown-kind", "unknown-key"])
    def test_rejects_what_it_would_ignore_or_misread(self, spec, match):
        with pytest.raises(ly.BuildError, match=match):
            ly.build_model(spec)

    def test_layer_list_of_exact_types_builds(self):
        model = ly.build_model({"layers": [{"kind": "conv3x3", "width": 1, "stride": 2},
                                           {"kind": "residual_block", "width": 1,
                                            "has_native_skip": False}, *self.CONV[1:]],
                                "in_shape": [1, 4, 4], "classes": 2})
        assert model.forward(np.ones((1, 1, 4, 4))).logits.data.shape == (1, 2)


class TestScaleAbsorption:
    """Scaling a BN-preceded block's weights+bias leaves train-mode output unchanged."""

    @pytest.mark.parametrize("c", [0.1, 3.0, 10.0])
    def test_conv_into_bn(self, c):
        model = _tiny_resnet(seed=9)
        x = np.random.default_rng(10).normal(size=(4, 1, 8, 8))
        base = model.forward(x, training=True).logits.data
        scaled = model.clone()
        for suffix in (".w", ".b"):
            scaled.blocks["L00.conv3x3" + suffix].value *= c
        got = scaled.forward(x, training=True).logits.data
        assert np.abs(got - base).max() <= 1e-9

    @pytest.mark.parametrize("c", [0.1, 3.0, 10.0])
    def test_dense_into_bn(self, c):
        spec = {"layers": [{"kind": "dense", "width": 6}, {"kind": "batchnorm"},
                           {"kind": "activation"}, {"kind": "dense", "width": 2}],
                "in_shape": [5], "classes": 2}
        model = ly.build_model(spec, seed=11)
        x = np.random.default_rng(12).normal(size=(6, 5))
        base = model.forward(x, training=True).logits.data
        scaled = model.clone()
        for suffix in (".w", ".b"):
            scaled.blocks["L00.dense" + suffix].value *= c
        got = scaled.forward(x, training=True).logits.data
        assert np.abs(got - base).max() <= 1e-9


class TestForwardPlumbing:
    def test_observe_activations(self):
        """``observe`` is called once per activation site, in the order of
        ``activation_site_names``, with the site's input and output; a
        soft-neuron forward hands it the pswish pair at relu sites only."""
        mixed = ly.build_model({"layers": [
            {"kind": "conv3x3", "width": 2}, {"kind": "batchnorm"},
            {"kind": "activation", "activation": "mish"},
            {"kind": "residual_block", "width": 2, "has_native_skip": False},
            {"kind": "residual_block", "width": 2, "activation": "pswish"},
            {"kind": "global_pool"}, {"kind": "dense", "width": 2}],
            "in_shape": [1, 6, 6], "classes": 2}, seed=3)
        mixed_kinds = {"L02.activation": "mish", "L03.residual_block.act1": "relu",
                       "L03.residual_block.act2": "relu", "L04.residual_block.act1": "pswish",
                       "L04.residual_block.act2": "pswish"}
        resnet = _tiny_resnet()
        rng = np.random.default_rng(13)
        for model, x, kinds in ((resnet, rng.normal(size=(2, 1, 8, 8)),
                                 dict.fromkeys(resnet.activation_site_names(), "relu")),
                                (mixed, rng.normal(size=(2, 1, 6, 6)), mixed_kinds)):
            assert list(kinds) == model.activation_site_names()
            for knobs in ({}, {"activation": "pswish", "beta": 2.0}):
                beta = knobs.get("beta", 1.0)
                act = {"relu": lambda z: np.maximum(z, 0.0), "mish": lambda z: ad.mish(z).data,
                       "pswish": lambda z: ad.pswish(z, beta).data}
                seen = []
                model.forward(x, observe=lambda z, a: seen.append((z, a)), **knobs)
                assert len(seen) == len(kinds)
                for kind, (z, a) in zip(kinds.values(), seen):
                    kind = knobs.get("activation", kind) if kind == "relu" else kind
                    np.testing.assert_array_equal(a, act[kind](z))
        assert len(resnet.activation_site_names()) == 9

    def test_values_override_leaves_model_untouched(self):
        model = _tiny_resnet()
        x = np.random.default_rng(14).normal(size=(2, 1, 8, 8))
        before = {n: b.value.copy() for n, b in model.blocks.items()}
        values = {n: b.value * 2.0 for n, b in model.blocks.items()}
        model.forward(x, values=values)
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, before[n])

    def test_free_vector_roundtrip(self):
        model = ly.build_model({"preset": "mlp", "in_shape": [4], "hidden": [6, 6],
                                "classes": 2}, seed=15)
        layout = ly.ParamLayout(model.blocks.values())
        vec = layout.free({n: b.value for n, b in model.blocks.items()})
        assert vec.size == param_count(model)
        values = layout.from_free(vec)
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(values[n], b.value)

    def test_mlp_forward_on_images_flattens(self):
        model = ly.build_model({"preset": "mlp", "in_shape": [1, 4, 4], "hidden": [8],
                                "classes": 2}, seed=16)
        out = model.forward(np.zeros((3, 1, 4, 4)))
        assert out.logits.data.shape == (3, 2)


class TestParamLayout:
    def _masked_mlp(self):
        from sparselab import masks
        model = ly.build_model({"preset": "mlp", "in_shape": [4], "hidden": [6, 6],
                                "classes": 2}, seed=17)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=18))
        return model

    def test_flatten_unflatten_roundtrip_in_block_order(self):
        model = self._masked_mlp()
        layout = ly.ParamLayout(model.blocks.values())
        assert layout.names == list(model.blocks)
        vec = layout.flatten({n: b.value for n, b in model.blocks.items()})
        np.testing.assert_array_equal(
            vec, np.concatenate([b.value.ravel() for b in model.blocks.values()]))
        back = layout.unflatten(vec)
        assert list(back) == list(model.blocks)
        for n, b in model.blocks.items():
            assert back[n].shape == b.value.shape
            np.testing.assert_array_equal(back[n], b.value)

    def test_free_index_is_flatnonzero_of_masks(self):
        model = self._masked_mlp()
        layout = ly.ParamLayout(model.blocks.values())
        live = np.concatenate([np.ones(b.value.size) if b.mask is None else b.mask.ravel()
                               for b in model.blocks.values()])
        np.testing.assert_array_equal(layout.free_index, np.flatnonzero(live))

    def test_from_free_masked_coordinates_exactly_zero(self):
        model = self._masked_mlp()
        layout = ly.ParamLayout(model.blocks.values())
        values = layout.from_free(np.full(layout.free_index.size, -3.5))
        for n, b in model.blocks.items():
            if b.mask is None:
                assert np.all(values[n] == -3.5)
            else:
                dead = b.mask == 0.0
                assert dead.any()
                assert np.all(values[n][dead] == 0.0)
                assert not np.signbit(values[n][dead]).any()
                assert np.all(values[n][~dead] == -3.5)

    def test_empty_layout(self):
        layout = ly.ParamLayout([])
        assert layout.size == 0 and layout.flatten({}).size == 0
        assert layout.free({}).size == 0 and layout.from_free(np.zeros(0)) == {}
