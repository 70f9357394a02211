"""Probe instruments: sparsity, gradient flow, spectrum, scans, landscapes."""

import math

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import diagnostics as dg
from sparselab import layers, masks, training
from sparselab.ghost import ConfigError
from sparselab.training import smooth_labels_batch


def _mlp(seed=0, hidden=(8, 8)):
    return layers.build_model({"preset": "mlp", "in_shape": [3], "hidden": list(hidden),
                               "classes": 2}, seed=seed)


def _free(model):
    """The model's free (unmasked) coordinate vector."""
    return layers.ParamLayout(model.blocks.values()).free(
        {n: b.value for n, b in model.blocks.items()})


def _probe_batch(model, n=16, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + model.in_shape)
    y = rng.integers(0, model.n_classes, n)
    return x, smooth_labels_batch(y, model.n_classes, 0.0)


class TestActivationSparsity:
    def test_all_negative_preactivations_read_one(self):
        model = _mlp(seed=1, hidden=(4,))
        # drive pre-activations negative with a large negative bias
        model.blocks["L00.dense.b"].value[:] = -100.0
        x = np.random.default_rng(1).normal(size=(10, 3))
        sp = dg.activation_sparsity(model, x, 1e-6)
        assert sp[0] == 1.0

    def test_huge_eps_reads_one_everywhere(self):
        model = _mlp(seed=2)
        x = np.random.default_rng(2).normal(size=(10, 3))
        sp = dg.activation_sparsity(model, x, 1e12)
        np.testing.assert_array_equal(sp, np.ones_like(sp))

    def test_relu_sparser_than_swish_on_gaussian_preacts(self):
        model = _mlp(seed=3, hidden=(32, 32))
        x = np.random.default_rng(3).normal(size=(64, 3))
        relu_sp = dg.activation_sparsity(model, x, 1e-6)
        swish_sp = dg.activation_sparsity(model, x, 1e-6, activation="pswish", beta=1.0)
        assert relu_sp.mean() > 0.25          # roughly half of gaussian preacts clip
        assert swish_sp.mean() < relu_sp.mean() / 10

    def test_validation(self):
        model = _mlp(seed=4)
        with pytest.raises(ValueError):
            dg.activation_sparsity(model, np.zeros((0, 3)), 1e-6)
        with pytest.raises(ValueError):
            dg.activation_sparsity(model, np.zeros((2, 3)), 0.0)


class TestGradientFlow:
    def test_zero_gradients(self):
        assert dg.avg_gradient_flow({"a": np.zeros(5)}) == 0.0

    def test_masked_arithmetic(self):
        grads = {"a": np.array([1.0, -1.0, 4.0])}
        masks_ = {"a": np.array([1.0, 1.0, 0.0])}
        assert dg.avg_gradient_flow(grads, masks_) == 1.0

    def test_masked_values_do_not_contribute(self):
        masks_ = {"a": np.array([1.0, 1.0, 0.0])}
        a = dg.avg_gradient_flow({"a": np.array([1.0, -1.0, 4.0])}, masks_)
        b = dg.avg_gradient_flow({"a": np.array([1.0, -1.0, -900.0])}, masks_)
        assert a == b

    def test_empty_unmasked_set_rejected(self):
        with pytest.raises(ValueError):
            dg.avg_gradient_flow({"a": np.ones(3)}, {"a": np.zeros(3)})


class TestTopHessianEigs:
    def test_diagonal_quadratic(self):
        a = np.diag([5.0, 2.0, 1.0])
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(3), k=2, iters=200, tol=1e-9)
        np.testing.assert_allclose(rec.eigenvalues, [5.0, 2.0], atol=1e-6)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(12, 12))
        a = (m + m.T) / 2
        want = np.sort(np.linalg.eigvalsh(a))[::-1][:3]
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(12), k=3, iters=500, tol=1e-10,
                                     seed=1)
        np.testing.assert_allclose(rec.eigenvalues, want, rtol=1e-3)

    def test_negative_dominant_spectrum(self):
        """Algebraically largest eigenvalue is returned even when the most
        negative one dominates in magnitude."""
        a = np.diag([-10.0, 3.0, 0.5])
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(3), k=1, iters=300, tol=1e-9)
        np.testing.assert_allclose(rec.eigenvalues[0], 3.0, atol=1e-5)

    def test_rayleigh_consistency_and_residual(self):
        a = np.diag([4.0, 1.0])
        rec, vecs = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(2), k=1, iters=200, tol=1e-9)
        v = vecs[0]
        np.testing.assert_allclose(float(v @ (a @ v)), rec.eigenvalues[0], atol=1e-6)
        assert rec.residuals[0] <= 1e-3

    def test_sorted_descending(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 8))
        a = (m + m.T) / 2
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(8), k=3, iters=300, seed=2)
        eigs = rec.eigenvalues
        assert all(x >= y - 1e-6 for x, y in zip(eigs, eigs[1:]))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            dg.top_hessian_eigs(lambda t: t, np.zeros(2), k=0, iters=1)

    @pytest.mark.parametrize("diag", [[5.0, 2.0, 1.0], [5.0, -4.0, -3.0]])
    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_clean_quadratic_reads_converged(self, diag, tol):
        """The stopping rule leaves a residual of order sqrt(tol), which the
        converged flag accepts."""
        a = np.diag(diag)
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(3), k=1, iters=1000, tol=tol)
        assert rec.converged == (True,)
        assert 0.0 < rec.residuals[0] <= math.sqrt(tol)

    def test_iteration_cap_reads_not_converged(self):
        a = np.diag([5.0, 2.0, 1.0])
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(3), k=1, iters=1, tol=1e-3)
        assert rec.converged == (False,)

    def test_stop_with_large_residual_reads_not_converged(self):
        """A rotation has a constant Rayleigh quotient of 0, so the stopping
        rule fires at once, but no vector is an eigenvector."""
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        rec, _ = dg.top_hessian_eigs(lambda t: a @ t, np.zeros(2), k=1, iters=50, tol=1e-3)
        assert rec.residuals[0] > 1.0
        assert rec.converged == (False,)


class TestProbeFunctions:
    def test_gradient_matches_finite_differences(self):
        model = _mlp(seed=5)
        x, t = _probe_batch(model, seed=5)
        loss_fn, grad_fn, theta0 = dg.probe_functions(model, x, t)
        fd = ad.finite_diff_grad(loss_fn, theta0)
        got = grad_fn(theta0)
        assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-6

    def test_empty_batch_names_probe_closures(self):
        model = _mlp(seed=5)
        with pytest.raises(ValueError, match="probe_closures: batch must be non-empty"):
            dg.probe_closures(model, np.zeros((0, 3)), np.zeros((0, 2)))

    def test_masked_coordinates_excluded(self):
        model = _mlp(seed=6)
        full = _free(model).size
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=7))
        assert _free(model).size < full

    def test_layout_covers_its_free_coordinates_only(self):
        """A maskable-block layout on a masked model: one theta0 entry per
        unmasked weight, the other blocks fixed at the model's values."""
        model = _mlp(seed=8)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=9))
        blocks = model.maskable_blocks()
        layout = layers.ParamLayout(blocks)
        x, t = _probe_batch(model, seed=8)
        loss_fn, grad_fn, theta0 = dg.probe_functions(model, x, t, training=True, layout=layout)
        assert theta0.size == sum(int(b.mask.sum()) for b in blocks)
        np.testing.assert_array_equal(
            theta0, np.concatenate([b.value[b.mask > 0] for b in blocks]))
        own = dg.probe_functions(model, x, t, training=True)[0](_free(model))
        assert loss_fn(theta0) == own
        # values of blocks outside the layout are not read
        values = {n: b.value if b.maskable else b.value + 1.0 for n, b in model.blocks.items()}
        loss2, _, theta2 = dg.probe_functions(model, x, t, training=True, layout=layout,
                                              values=values)
        assert loss2(theta2) == own
        fd = ad.finite_diff_grad(loss_fn, theta0)
        got = grad_fn(theta0)
        assert np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-6

    def test_values_move_theta0_and_leave_the_model(self):
        model = _mlp(seed=10)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=11))
        before = {n: b.value.copy() for n, b in model.blocks.items()}
        values = {n: 2.0 * v for n, v in before.items()}
        x, t = _probe_batch(model, seed=10)
        loss_fn, grad_fn, theta0 = dg.probe_functions(model, x, t, values=values)
        layout = layers.ParamLayout(model.blocks.values())
        np.testing.assert_array_equal(theta0, layout.free(values))
        np.testing.assert_array_equal(theta0, 2.0 * _free(model))
        loss_fn(theta0)
        grad_fn(theta0)
        for n, b in model.blocks.items():
            np.testing.assert_array_equal(b.value, before[n])


_NETS = {"mlp": {"preset": "mlp", "in_shape": [3], "hidden": [16, 16, 16], "classes": 3},
         "resnet-tiny": {"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 3}}
_GHOST = {"activation": "pswish", "beta": 3.0, "alpha": 0.4}


class TestTapeFreeForwards:
    """The forwards that never call backward run with ``grad=False``; they
    give the same bytes as the taped forward, and an observer is handed the
    forward's own arrays."""

    @pytest.fixture(params=[("mlp", {}), ("mlp", _GHOST), ("resnet-tiny", {}),
                            ("resnet-tiny", _GHOST)], ids=["mlp", "mlp-ghost", "resnet",
                                                           "resnet-ghost"])
    def cell(self, request):
        preset, knobs = request.param
        model = layers.build_model(_NETS[preset], seed=20)
        masks.apply_mask(model, masks.random_mask(model, 0.5, seed=21))
        rng = np.random.default_rng(22)
        x = rng.normal(size=(24, *model.in_shape))
        return model, x, rng.integers(0, 3, 24), knobs

    @staticmethod
    def _outputs(model, x, y, knobs):
        t = smooth_labels_batch(y, 3, 0.1)
        out = [np.array(training.evaluate(model, x, y, 10, **knobs)),
               dg.activation_sparsity(model, x, 1e-3, **knobs),
               np.array([training._swap_deviation(model, x, 8.0)])]
        for mode in (False, True):
            loss_fn, _, theta0 = dg.probe_closures(model, x, t, training=mode, **knobs)
            d = np.random.default_rng(23).normal(size=theta0.size)
            out.append(np.array([loss_fn(theta0), loss_fn(theta0 + 0.1 * d)]))
        return [a.tobytes() for a in out]

    def test_same_bytes_with_and_without_tape(self, cell, monkeypatch):
        model, x, y, knobs = cell
        plain = self._outputs(model, x, y, knobs)
        forward = layers.Model.forward
        monkeypatch.setattr(layers.Model, "forward",
                            lambda self, x, grad=True, **kw: forward(self, x, **kw))
        assert self._outputs(model, x, y, knobs) == plain

    @staticmethod
    def _check_observe(cell, pick, arrays_of):
        """An observer that records ``pick(z, a)`` at each site keeps exactly
        ``arrays_of(node)`` for every activation node (the same objects, not
        copies), and neither a backward nor a later forward changes them."""
        model, x, y, knobs = cell
        kept = []
        res = model.forward(x, observe=lambda z, a: kept.append(pick(z, a)),
                            **knobs)
        nodes = [t for t in ad.topo_order(res.logits) if t.op in ("relu", "pswish")]
        assert len(nodes) == len(kept) == len(model.activation_site_names())
        assert {id(a) for a in kept} == {id(arrays_of(t)) for t in nodes}
        before = [a.tobytes() for a in kept]
        ad.backward(ad.softmax_cross_entropy(res.logits, smooth_labels_batch(y, 3, 0.0)))
        model.forward(x, grad=False, **knobs)
        assert [a.tobytes() for a in kept] == before

    def test_observe_keeps_the_forward_arrays(self, cell):
        """``observe``'s second argument: each activation node's own output."""
        self._check_observe(cell, lambda z, a: a, lambda t: t.data)

    def test_observe_keeps_the_preactivations(self, cell):
        """``observe``'s first argument: each activation node's own input."""
        self._check_observe(cell, lambda z, a: z, lambda t: t._parents[0].data)


class TestPerturbScan:
    def test_origin_is_exact_baseline(self):
        model = _mlp(seed=8)
        batch = _probe_batch(model, seed=8)
        loss_fn, _, theta0 = dg.probe_functions(model, batch[0], batch[1])
        base = loss_fn(theta0)
        d = np.random.default_rng(8).normal(size=theta0.size)
        losses = dg.eigvec_perturb_scan(model, batch, d, [-0.5, 0.0, 0.5])
        assert losses[1] == base

    def test_direction_scale_invariant(self):
        model = _mlp(seed=9)
        batch = _probe_batch(model, seed=9)
        d = np.random.default_rng(9).normal(size=_free(model).size)
        a = dg.eigvec_perturb_scan(model, batch, d, [0.1, 0.2])
        b = dg.eigvec_perturb_scan(model, batch, 10.0 * d, [0.1, 0.2])
        np.testing.assert_array_equal(a, b)

    def test_parameters_untouched(self):
        model = _mlp(seed=10)
        batch = _probe_batch(model, seed=10)
        before = {n: b.value.tobytes() for n, b in model.blocks.items()}
        d = np.random.default_rng(10).normal(size=_free(model).size)
        dg.eigvec_perturb_scan(model, batch, d, np.linspace(-1, 1, 5))
        for n, b in model.blocks.items():
            assert b.value.tobytes() == before[n]

    def test_zero_direction_rejected(self):
        model = _mlp(seed=11)
        with pytest.raises(ValueError):
            dg.eigvec_perturb_scan(model, _probe_batch(model), np.zeros(_free(model).size), [0.0])


class TestLandscapeSlice:
    def test_center_cell_is_exact_baseline(self):
        model = _mlp(seed=12)
        batch = _probe_batch(model, seed=12)
        loss_fn, _, theta0 = dg.probe_functions(model, batch[0], batch[1])
        out = dg.landscape_slice(model, batch, grid_n=5, span=0.4, seed=0)
        assert out.losses[2, 2] == loss_fn(theta0)

    def test_zero_span_is_constant(self):
        model = _mlp(seed=13)
        out = dg.landscape_slice(model, _probe_batch(model, seed=13), grid_n=3, span=0.0, seed=0)
        assert np.ptp(out.losses) == 0.0

    def test_directions_orthogonal(self):
        model = _mlp(seed=14)
        out = dg.landscape_slice(model, _probe_batch(model, seed=14), grid_n=3, span=0.1, seed=1)
        assert abs(out.direction1 @ out.direction2) <= 1e-10

    def test_even_grid_rejected(self):
        model = _mlp(seed=15)
        with pytest.raises(ValueError):
            dg.landscape_slice(model, _probe_batch(model), grid_n=4, span=0.1)

    def test_filter_norms_match_parameters(self):
        model = _mlp(seed=16)
        d = dg._filter_normalized_direction(model, np.random.default_rng(2))
        values = layers.ParamLayout(model.blocks.values()).from_free(d)
        w = model.blocks["L00.dense.w"]
        dcols = np.linalg.norm(values[w.name], axis=0)
        wcols = np.linalg.norm(w.value, axis=0)
        np.testing.assert_allclose(dcols, wcols, rtol=1e-12)


class TestProbeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            dg.ProbeConfig(eig_count=0)
        for bad in ({"power_iters": 0}, {"probe_batch": 0}, {"tol": 0.0}):
            with pytest.raises(ConfigError):
                dg.ProbeConfig(**bad)
