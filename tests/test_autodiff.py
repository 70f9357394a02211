"""Gradient and curvature checks for the autodiff core.

Every differentiable op is verified against the central finite-difference
oracle; Hessian-vector products are verified against a dense
double-finite-difference Hessian.
"""

import ctypes
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

from sparselab import autodiff as ad
from sparselab import diagnostics, layers, masks
from sparselab.training import sgd_step, smooth_labels_batch

from helpers import finite_diff_hessian


def _rel_err(got, want):
    got = np.asarray(got, dtype=np.float64).ravel()
    want = np.asarray(want, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(want), 1e-12)
    return np.linalg.norm(got - want) / denom


def _gradcheck(build, flat0, h=1e-5, tol=1e-6):
    """Compare backward gradients to finite differences.

    ``build(flat)`` returns (output Tensor, list of leaf Tensors in flat order).
    The scalar objective is a fixed random projection of the op output.
    """
    out0, _ = build(flat0)
    proj = np.random.default_rng(7).normal(size=out0.data.shape)

    def scalar_fn(flat):
        out, _ = build(flat)
        return float((out.data * proj).sum())

    out, leaves = build(flat0)
    ad.backward(out, seed=proj)
    got = np.concatenate([leaf.grad.ravel() for leaf in leaves])
    want = ad.finite_diff_grad(scalar_fn, flat0, h=h)
    assert _rel_err(got, want) <= tol, f"gradcheck rel err {_rel_err(got, want):.3e}"


class TestForwardBasics:
    def test_identity_passthrough(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = ad.add(x, np.zeros(2))
        np.testing.assert_array_equal(y.data, [1.0, 2.0])

    def test_relu_sign_cases(self):
        y = ad.relu(ad.Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(y.data, [0.0, 0.0, 2.0])

    def test_pswish_infinite_beta_is_exact_relu(self):
        """pswish at beta = inf is the relu node itself: same op, same bits."""
        data = [-2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0]
        x, xr = ad.Tensor(data, requires_grad=True), ad.Tensor(data, requires_grad=True)
        y, yr = ad.pswish(x, float("inf")), ad.relu(xr)
        assert y.op == yr.op == "relu"
        assert y.data.tobytes() == yr.data.tobytes()
        seed = np.array([1.5, -2.0, 3.0, 0.25, -1e-300, 7.0])
        ad.backward(ad.sum_all(ad.mul(y, seed)))
        ad.backward(ad.sum_all(ad.mul(yr, seed)))
        assert x.grad.tobytes() == xr.grad.tobytes()

    def test_pswish_huge_finite_beta_reaches_relu(self):
        """At beta 1e308, beta * x overflows for |x| >= 2: there pswish takes
        relu's value and derivative, without a warning (which pytest would
        raise); every other element keeps the formula's bytes."""
        data = np.array([-3.0, -2.0, -1e-300, 0.0, 1e-300, 0.5, 2.0, 3.0])
        x = ad.Tensor(data, requires_grad=True)
        y = ad.pswish(x, 1e308)
        ad.backward(ad.sum_all(y))
        big = np.abs(data) >= 2.0
        np.testing.assert_array_equal(y.data[big], np.maximum(data[big], 0.0))
        np.testing.assert_array_equal(x.grad[big], (data[big] > 0).astype(float))
        bx = 1e308 * data[~big]
        s = ad._sigmoid(bx)
        assert x.grad[~big].tobytes() == (s * (1.0 + bx * (1.0 - s))).tobytes()

    def test_zero_two_layer_net(self):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 2)))
        w1 = ad.Tensor(np.zeros((2, 2)))
        w2 = ad.Tensor(np.zeros((2, 1)))
        out = ad.matmul(ad.relu(ad.matmul(x, w1)), w2)
        np.testing.assert_array_equal(out.data, np.zeros((3, 1)))

    def test_forward_is_deterministic(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        w = np.random.default_rng(2).normal(size=(3, 3))

        def run():
            leaf = ad.Tensor(x, requires_grad=True)
            t = ad.mish(ad.matmul(leaf, ad.Tensor(w, requires_grad=True)))
            loss = ad.sum_all(ad.mul(t, t))
            ad.backward(loss)
            return loss.data.copy(), leaf.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert g1.tobytes() == g2.tobytes()


def _two_branch_sigmoid(x):
    """Reference: sigmoid split on sign so exp never overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    _EDGES = [0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0, 800.0, -800.0]

    @pytest.mark.parametrize("shape", [(40,), (8, 5), (2, 5, 2, 2)])
    def test_bit_equal_to_two_branch_reference(self, shape):
        x = np.random.default_rng(3).normal(scale=20.0, size=shape)
        x.flat[:len(self._EDGES)] = self._EDGES
        got, want = ad._sigmoid(x), _two_branch_sigmoid(x)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_pswish_and_mish_finite_at_extremes(self):
        data = np.array([-800.0, -710.0, 0.0, 710.0, 800.0])
        for op in (lambda t: ad.pswish(t, 1.0), lambda t: ad.pswish(t, 3.0), ad.mish):
            x = ad.Tensor(data, requires_grad=True)
            y = op(x)
            ad.backward(ad.sum_all(y))
            assert np.all(np.isfinite(y.data)) and np.all(np.isfinite(x.grad))


class TestBackwardBasics:
    def test_square(self):
        x = ad.Tensor(3.0, requires_grad=True)
        loss = ad.mul(x, x)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, 6.0)

    def test_linear_sum(self):
        w = ad.Tensor(np.eye(2), requires_grad=True)
        x = ad.Tensor(np.array([[1.0], [1.0]]))
        loss = ad.sum_all(ad.matmul(w, x))
        ad.backward(loss)
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_small_mlp_matches_finite_differences(self):
        """Dense-mish-dense net: autodiff vs central differences, rel err <= 1e-6."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        sizes = [(3, 2), (2,), (2, 1), (1,)]

        def build(flat):
            parts, ofs = [], 0
            for s in sizes:
                n = int(np.prod(s))
                parts.append(ad.Tensor(flat[ofs:ofs + n].reshape(s), requires_grad=True))
                ofs += n
            w1, b1, w2, b2 = parts
            h = ad.mish(ad.add(ad.matmul(ad.Tensor(x), w1), b1))
            out = ad.add(ad.matmul(h, w2), b2)
            return out, parts

        _gradcheck(build, rng.normal(size=11, scale=0.8))

    def test_fanout_accumulation_doubles_gradient(self):
        xs = ad.Tensor([1.5, -0.5], requires_grad=True)
        single = ad.sum_all(ad.mul(xs, ad.Tensor([2.0, 3.0])))
        ad.backward(single)
        g1 = xs.grad.copy()

        xd = ad.Tensor([1.5, -0.5], requires_grad=True)
        branch = ad.mul(xd, ad.Tensor([2.0, 3.0]))
        double = ad.sum_all(ad.add(branch, branch))
        ad.backward(double)
        np.testing.assert_array_equal(xd.grad, 2.0 * g1)

    def test_backward_on_leaf_raises(self):
        with pytest.raises(ad.GraphError):
            ad.backward(ad.Tensor([1.0], requires_grad=True))

    def test_backward_on_constant_root_raises(self):
        """A result of constants records no tape; backward says so instead
        of calling it a leaf."""
        y = ad.sum_all(ad.relu(ad.Tensor([1.0, -2.0])))
        with pytest.raises(ad.GraphError, match="requires no gradient"):
            ad.backward(y)
        assert not y.requires_grad and not y._parents and y._backward is None

    def test_bad_seed_shape_raises(self):
        y = ad.relu(ad.Tensor([1.0, 2.0], requires_grad=True))
        with pytest.raises(ad.ShapeError):
            ad.backward(y, seed=np.ones(3))


class TestOpGradients:
    """Every differentiable op against the finite-difference oracle."""

    @pytest.mark.parametrize("seed", range(20))
    def test_elementwise_ops(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=12, scale=2.0)
        # keep relu test points away from the kink
        x0[np.abs(x0) < 1e-3] += 0.1

        for op in (ad.relu, lambda t: ad.pswish(t, 1.7), lambda t: ad.pswish(t, 0.0), ad.mish):
            def build(flat, op=op):
                leaf = ad.Tensor(flat.reshape(3, 4), requires_grad=True)
                return op(leaf), [leaf]

            _gradcheck(build, x0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_add_mul(self, seed):
        rng = np.random.default_rng(100 + seed)
        flat0 = rng.normal(size=6 + 6 + 4)

        def build(flat):
            a = ad.Tensor(flat[:6].reshape(2, 3), requires_grad=True)
            b = ad.Tensor(flat[6:12].reshape(3, 2), requires_grad=True)
            c = ad.Tensor(flat[12:].reshape(2, 2), requires_grad=True)
            y = ad.mul(ad.add(ad.matmul(a, b), c), c)
            return y, [a, b, c]

        _gradcheck(build, flat0)

    def test_add_broadcast_bias(self):
        rng = np.random.default_rng(3)
        flat0 = rng.normal(size=8 + 2)

        def build(flat):
            x = ad.Tensor(flat[:8].reshape(4, 2), requires_grad=True)
            b = ad.Tensor(flat[8:], requires_grad=True)
            return ad.add(x, b), [x, b]

        _gradcheck(build, flat0)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d(self, stride):
        rng = np.random.default_rng(4 + stride)
        nx, nw = 2 * 3 * 4 * 4, 2 * 3 * 3 * 3
        flat0 = rng.normal(size=nx + nw, scale=0.7)

        def build(flat):
            x = ad.Tensor(flat[:nx].reshape(2, 3, 4, 4), requires_grad=True)
            w = ad.Tensor(flat[nx:].reshape(2, 3, 3, 3), requires_grad=True)
            return ad.conv2d(x, w, stride=stride), [x, w]

        _gradcheck(build, flat0)

    def test_conv2d_constant_input_gets_no_grad(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.normal(size=(2, 3, 5, 5)))
        w = ad.Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        g = rng.normal(size=(2, 4, 5, 5))
        ad.backward(ad.conv2d(x, w), seed=g)
        assert x.grad is None
        x_var = ad.Tensor(x.data, requires_grad=True)
        w_ref = ad.Tensor(w.data, requires_grad=True)
        ad.backward(ad.conv2d(x_var, w_ref), seed=g)
        np.testing.assert_array_equal(w.grad, w_ref.grad)

    def test_batchnorm_train(self):
        rng = np.random.default_rng(9)
        nx = 6 * 3
        flat0 = np.concatenate([rng.normal(size=nx), rng.uniform(0.5, 1.5, 3), rng.normal(size=3)])

        def build(flat):
            x = ad.Tensor(flat[:nx].reshape(6, 3), requires_grad=True)
            g = ad.Tensor(flat[nx:nx + 3], requires_grad=True)
            b = ad.Tensor(flat[nx + 3:], requires_grad=True)
            out, _, _ = ad.batchnorm_train(x, g, b)
            return out, [x, g, b]

        _gradcheck(build, flat0, tol=1e-5)

    def test_batchnorm_eval(self):
        rng = np.random.default_rng(10)
        nx = 2 * 3 * 2 * 2
        flat0 = np.concatenate([rng.normal(size=nx), rng.uniform(0.5, 1.5, 3), rng.normal(size=3)])
        rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)

        def build(flat):
            x = ad.Tensor(flat[:nx].reshape(2, 3, 2, 2), requires_grad=True)
            g = ad.Tensor(flat[nx:nx + 3], requires_grad=True)
            b = ad.Tensor(flat[nx + 3:], requires_grad=True)
            return ad.batchnorm_eval(x, g, b, rm, rv), [x, g, b]

        _gradcheck(build, flat0)

    def test_pool_reshape_sum(self):
        rng = np.random.default_rng(12)
        nx = 2 * 3 * 4 * 4
        flat0 = rng.normal(size=nx)

        def build(flat):
            x = ad.Tensor(flat.reshape(2, 3, 4, 4), requires_grad=True)
            return ad.reshape(ad.global_avg_pool(x), (3, 2)), [x]

        _gradcheck(build, flat0)

        x = ad.Tensor(flat0.reshape(2, 3, 4, 4), requires_grad=True)
        loss = ad.sum_all(x)
        ad.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(13)
        y = np.zeros((5, 4))
        y[np.arange(5), rng.integers(0, 4, 5)] = 1.0
        flat0 = rng.normal(size=20)

        def build(flat):
            z = ad.Tensor(flat.reshape(5, 4), requires_grad=True)
            return ad.softmax_cross_entropy(z, y), [z]

        _gradcheck(build, flat0)


def _conv2d_taps(x_shape, w_shape, stride):
    """Every (output index, x index, w index) product of a zero-padding-1
    cross-correlation; taps that land in the padding are left out."""
    n, c, h, wd = x_shape
    o = w_shape[0]
    for b in range(n):
        for k in range(o):
            for i in range((h - 1) // stride + 1):
                for j in range((wd - 1) // stride + 1):
                    for ch in range(c):
                        for di in range(3):
                            for dj in range(3):
                                r, q = i * stride + di - 1, j * stride + dj - 1
                                if 0 <= r < h and 0 <= q < wd:
                                    yield (b, k, i, j), (b, ch, r, q), (k, ch, di, dj)


def _conv2d_oracle(x, w, stride, g):
    """Direct loops: the output, and the gradients of <g, output> by x and w."""
    n, _, h, wd = x.shape
    out = np.zeros((n, w.shape[0], (h - 1) // stride + 1, (wd - 1) // stride + 1))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for yi, xi, wi in _conv2d_taps(x.shape, w.shape, stride):
        out[yi] += x[xi] * w[wi]
        dx[xi] += g[yi] * w[wi]
        dw[wi] += g[yi] * x[xi]
    return out, dx, dw


class TestConv2dOracle:
    """conv2d and both of its gradients against a nested-loop reference."""

    # (N, C_in, C_out, H, W)
    SHAPES = [(2, 3, 4, 4, 4), (2, 2, 3, 5, 5), (3, 2, 2, 5, 7), (2, 3, 2, 6, 3),
              (2, 1, 3, 4, 6), (1, 3, 2, 5, 4), (2, 2, 3, 2, 2), (1, 1, 1, 1, 1)]   # 2x2 at stride 2 gives 1x1

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_and_gradients_match_oracle(self, shape, stride):
        n, c, o, h, wd = shape
        rng = np.random.default_rng(sum(shape) + 10 * stride)
        x0, w0 = rng.normal(size=(n, c, h, wd)), rng.normal(size=(o, c, 3, 3))
        ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
        g = rng.normal(size=(n, o, ho, wo))
        want, want_dx, want_dw = _conv2d_oracle(x0, w0, stride, g)
        x, w = ad.Tensor(x0, requires_grad=True), ad.Tensor(w0, requires_grad=True)
        y = ad.conv2d(x, w, stride=stride)
        ad.backward(y, seed=g)
        assert y.data.shape == want.shape
        assert _rel_err(y.data, want) <= 1e-12
        assert _rel_err(x.grad, want_dx) <= 1e-12
        assert _rel_err(w.grad, want_dw) <= 1e-12


class TestConv2dTape:
    def test_tape_holds_no_im2col(self):
        """The recorded node keeps x and w, not the padded input or the
        9x-sized column matrix: what stays allocated is the output."""
        rng = np.random.default_rng(14)
        x = ad.Tensor(rng.normal(size=(32, 16, 8, 8)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(16, 16, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            y = ad.conv2d(x, w)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = y.data.nbytes
        assert held <= 1.25 * out_bytes


def _bn_train_captured(x, gamma, beta, g, eps=1e-12):
    """batchnorm_train and its gradient as written when the tape captured
    xhat: (out, mean, var, dx, dgamma, dbeta)."""
    axes, pshape = (0, 2, 3), (1, -1, 1, 1)
    mean = x.mean(axis=axes, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = gamma.reshape(pshape) * xhat + beta.reshape(pshape)
    dbeta = g.sum(axis=axes)
    dgamma = (g * xhat).sum(axis=axes)
    dxhat = g * gamma.reshape(pshape)
    m1 = dxhat.mean(axis=axes, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
    return out, mean, var, inv_std * (dxhat - m1 - xhat * m2), dgamma, dbeta


def _bn_eval_captured(x, gamma, beta, rmean, rvar, g, eps=1e-12):
    """batchnorm_eval and its gradient as written when the tape captured
    xhat: (out, dx, dgamma, dbeta)."""
    axes, pshape = (0, 2, 3), (1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(np.asarray(rvar).reshape(pshape) + eps)
    mean = np.asarray(rmean).reshape(pshape)
    xhat = (x - mean) * inv_std
    out = gamma.reshape(pshape) * xhat + beta.reshape(pshape)
    dbeta = g.sum(axis=axes)
    dgamma = (g * xhat).sum(axis=axes)
    return out, g * gamma.reshape(pshape) * inv_std, dgamma, dbeta


def _conv2d_padded(x, w, b, g, stride):
    """conv2d and its gradients as written when the bias was added to a
    fresh array and the input gradient was scattered into a zero-padded
    (C_in, H+2, W+2, N) buffer, all nine taps, whose ring was then sliced
    away: (out, dx, dw, db)."""
    n, c, h, wd = x.shape
    o = w.shape[0]
    ho, wo = (h - 1) // stride + 1, (wd - 1) // stride + 1
    xp = np.zeros((c, h + 2, wd + 2, n), dtype=x.dtype)
    xp[:, 1:1 + h, 1:1 + wd] = x.transpose(1, 2, 3, 0)
    cols = np.empty((c, 3, 3, ho, wo, n), dtype=x.dtype)
    for ki in range(3):
        for kj in range(3):
            cols[:, ki, kj] = xp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
    cols = cols.reshape(c * 9, ho * wo * n)
    w2 = w.reshape(o, c * 9)
    out = (w2 @ cols).reshape(o, ho, wo, n).transpose(3, 0, 1, 2) + b.reshape(1, o, 1, 1)
    db = g.sum(axis=0, keepdims=True).sum(axis=2, keepdims=True).sum(axis=3, keepdims=True)
    g2 = g.transpose(1, 2, 3, 0).reshape(o, ho * wo * n)
    dw = (g2 @ cols.T).reshape(w.shape)
    dcols = (w2.T @ g2).reshape(c, 3, 3, ho, wo, n)
    dxp = np.zeros((c, h + 2, wd + 2, n), dtype=dcols.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += dcols[:, ki, kj]
    return out, dxp[:, 1:1 + h, 1:1 + wd].transpose(3, 0, 1, 2), dw, db.reshape(o)


def _draw(rng, shape, dtype):
    a = rng.normal(size=shape)
    return a + 1j * rng.normal(scale=0.1, size=shape) if dtype == "complex128" else a


def _as_conv_output(a):
    """``a`` laid out in memory as a conv2d output is, (C, H, W, N)."""
    return a.transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2)


class TestRecomputedOpsAreBitIdentical:
    """batchnorm rebuilds xhat in backward and computes in place, and conv2d
    adds its bias in place and scatters only in-bounds taps; outputs and
    gradients keep every bit, and the memory order, of the formulas that
    captured xhat and of conv2d with a fresh bias add and a padded scatter.

    complex128 is checked too, because the complex-step products run these
    ops on complex data, and there operand order matters: numpy's complex
    ``a * b`` and ``b * a`` differ in the last bit at about a third of the
    elements, and numpy may evaluate an expression into a temporary in
    place (only for arrays of 256 KiB or more), which can swap a product's
    operands. SHAPES holds one batch above that size and one below it in
    both dtypes. Layout matters as well: a sum reads its operand in memory
    order, and the probe's batchnorms see x in a conv output's (C, H, W, N)
    order and g in the (N, C, H, W) order of global_avg_pool's backward."""

    SHAPE = (32, 8, 16, 16)
    SHAPES = [SHAPE, (64, 32, 2, 2)]

    def _leaves(self, dtype, seed, shape=SHAPE, layout="nchw"):
        rng = np.random.default_rng(seed)
        c = shape[1]
        x, g = _draw(rng, shape, dtype), _draw(rng, shape, dtype)
        gamma, beta = 1.0 + _draw(rng, c, dtype), _draw(rng, c, dtype)
        return rng, _as_conv_output(x) if layout == "mixed" else x, g, gamma, beta

    @staticmethod
    def _order(a):
        """Axes longer than 1, from the largest stride to the smallest."""
        return sorted((ax for ax in range(a.ndim) if a.shape[ax] > 1), key=lambda ax: -a.strides[ax])

    def _same(self, got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert self._order(got) == self._order(want)
        assert got.tobytes() == want.tobytes()

    def _check_batchnorm_train(self, x, g, gamma, beta):
        leaves = [ad.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out, mean, var = ad.batchnorm_train(*leaves)
        out._backward(g)
        want = _bn_train_captured(x, gamma, beta, g)
        got = (out.data, mean, var, *(t.grad for t in leaves))
        for a, b in zip(got, (want[0], want[1].reshape(-1), want[2].reshape(-1), *want[3:])):
            self._same(a, b)

    def _check_batchnorm_eval(self, rng, x, g, gamma, beta):
        c = x.shape[1]
        rmean, rvar = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
        leaves = [ad.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = ad.batchnorm_eval(*leaves, rmean, rvar)
        out._backward(g)
        want = _bn_eval_captured(x, gamma, beta, rmean, rvar, g)
        for a, b in zip((out.data, *(t.grad for t in leaves)), want):
            self._same(a, b)

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    def test_batchnorm_train(self, dtype):
        _, x, g, gamma, beta = self._leaves(dtype, 30)
        self._check_batchnorm_train(x, g, gamma, beta)

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    def test_batchnorm_eval(self, dtype):
        self._check_batchnorm_eval(*self._leaves(dtype, 31))

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("layout", ["nchw", "mixed"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm_train_layouts(self, shape, layout, dtype):
        _, x, g, gamma, beta = self._leaves(dtype, 35, shape, layout)
        self._check_batchnorm_train(x, g, gamma, beta)

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("layout", ["nchw", "mixed"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_batchnorm_eval_layouts(self, shape, layout, dtype):
        self._check_batchnorm_eval(*self._leaves(dtype, 36, shape, layout))

    def test_batchnorm_float_input_complex_parameters(self):
        """A batchnorm on the raw input under the complex step gets float64 x
        and complex gamma and beta: the result cannot go into x's buffer."""
        rng, x, g, gamma, beta = self._leaves("complex128", 37)
        self._check_batchnorm_train(x.real.copy(), g, gamma, beta)
        self._check_batchnorm_eval(rng, x.real.copy(), g, gamma, beta)

    # (N, C_in, C_out, H, W): the two SHAPES, then odd and even sizes down to
    # 1x1, where every tap but the centre one falls off an edge
    CONV_SHAPES = [(32, 8, 8, 16, 16), (64, 32, 32, 2, 2), (4, 3, 5, 1, 1), (4, 3, 5, 2, 2),
                   (4, 3, 5, 7, 7), (4, 3, 5, 6, 5), (4, 2, 3, 1, 4)]

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("layout", ["nchw", "mixed"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_conv2d_input_gradient(self, shape, stride, layout, dtype):
        """Output and every gradient equal the padded nine-tap form byte for
        byte; g holds -0.0 at a quarter of its positions."""
        n, c, o, h, wd = shape
        rng = np.random.default_rng(sum(shape) + stride)
        x = _draw(rng, (n, c, h, wd), dtype)
        w, b = _draw(rng, (o, c, 3, 3), dtype), _draw(rng, o, dtype)
        g = _draw(rng, (n, o, (h - 1) // stride + 1, (wd - 1) // stride + 1), dtype)
        g[rng.random(g.shape) < 0.25] = -0.0
        if layout == "mixed":
            x = _as_conv_output(x)
        leaves = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
        y = ad.conv2d(*leaves, stride=stride)
        y._backward(g)
        for a, want in zip((y.data, *(t.grad for t in leaves)), _conv2d_padded(x, w, b, g, stride)):
            self._same(a, want)

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_bias(self, dtype, stride):
        rng, x, _, b, _ = self._leaves(dtype, 32 + stride)
        w = _draw(rng, (self.SHAPE[1], self.SHAPE[1], 3, 3), dtype)
        g = _draw(rng, (self.SHAPE[0], self.SHAPE[1], *(np.array(self.SHAPE[2:]) // stride)),
                  dtype)
        runs = []
        for fused in (True, False):
            leaves = [ad.Tensor(a, requires_grad=True) for a in (x, w, b)]
            if fused:
                y = ad.conv2d(*leaves, stride=stride)
            else:
                y = ad.add(ad.conv2d(*leaves[:2], stride=stride),
                           ad.reshape(leaves[2], (1, -1, 1, 1)))
            # a product with g makes the gradient reaching y complex as well
            ad.backward(ad.sum_all(ad.mul(y, g)))
            runs.append((y.data, *(t.grad for t in leaves)))
        for a, b in zip(*runs):
            self._same(a, b)


class TestMulByConstant:
    """The ghost skip scales by a python float through ``mul``: forward and
    backward keep the bits of ``x * c`` and ``g * c``, and the constant's
    gradient, which nothing reads, is never computed."""

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("layout", ["nchw", "mixed"])
    def test_bits_of_the_plain_products(self, dtype, layout):
        rng = np.random.default_rng(45)
        x, g = _draw(rng, (8, 4, 5, 5), dtype), _draw(rng, (8, 4, 5, 5), dtype)
        if layout == "mixed":
            x = _as_conv_output(x)
        c = 0.3719
        leaf = ad.Tensor(x, requires_grad=True)
        out = ad.mul(leaf, c)
        out._backward(g)
        for got, want in ((out.data, x * c), (leaf.grad, g * c)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("constant_first", [False, True])
    def test_constant_gradient_is_never_computed(self, monkeypatch, constant_first):
        shapes, real = [], ad._unbroadcast

        def spy(grad, shape):
            shapes.append(shape)
            return real(grad, shape)

        monkeypatch.setattr(ad, "_unbroadcast", spy)
        x = ad.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ad.backward(ad.sum_all(ad.mul(0.5, x) if constant_first else ad.mul(x, 0.5)))
        assert shapes == [(3, 4)]
        np.testing.assert_array_equal(x.grad, np.full((3, 4), 0.5))


class TestOpsLeaveTheirInputs:
    """conv2d and the batchnorms compute in buffers they made: after forward
    and backward, every input, the running stats and the incoming gradient
    keep their bytes."""

    SHAPE = (8, 4, 5, 5)

    @staticmethod
    def _run(dtype, op):
        """(arrays handed to op, their bytes beforehand, the leaves)."""
        rng = np.random.default_rng(40)
        x = _as_conv_output(_draw(rng, TestOpsLeaveTheirInputs.SHAPE, dtype))
        c = x.shape[1]
        g = _draw(rng, x.shape, dtype)
        if op == "conv2d":
            arrays = [x, _draw(rng, (c, c, 3, 3), dtype), _draw(rng, c, dtype)]
        else:
            arrays = [x, 1.0 + _draw(rng, c, dtype), _draw(rng, c, dtype)]
        stats = [rng.normal(size=c), rng.uniform(0.5, 2.0, c)] if op == "batchnorm_eval" else []
        before = [a.tobytes() for a in (*arrays, *stats, g)]
        leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
        if op == "conv2d":
            out = ad.conv2d(*leaves)
        elif op == "batchnorm_train":
            out, _, _ = ad.batchnorm_train(*leaves)
        else:
            out = ad.batchnorm_eval(*leaves, *stats)
        out._backward(g)
        assert [a.tobytes() for a in (*arrays, *stats, g)] == before
        assert all(t.data is a for t, a in zip(leaves, arrays))
        return leaves

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    @pytest.mark.parametrize("op", ["conv2d", "batchnorm_train", "batchnorm_eval"])
    def test_inputs_keep_their_bytes(self, op, dtype):
        self._run(dtype, op)

    @pytest.mark.parametrize("dtype", ["float64", "complex128"])
    def test_conv2d_input_gradient_is_unpadded(self, dtype):
        """x.grad is a view of a buffer of x's size, not of a padded one."""
        x = self._run(dtype, "conv2d")[0]
        base = x.grad if x.grad.base is None else x.grad.base
        assert base.base is None and base.size == x.data.size


class TestTapeFreeForward:
    """A ``grad=False`` forward builds no tape: what outlives it is the result."""

    def _resnet(self):
        return layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                   "classes": 2}, seed=16)

    def test_result_holds_about_its_logits(self):
        model = self._resnet()
        x = np.random.default_rng(16).normal(size=(64, 1, 8, 8))
        tracemalloc.start()
        try:
            res = model.forward(x, grad=False)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the logits plus the Python objects of the result and its leaves
        # (the taped forward holds about 7 MB here)
        assert held <= res.logits.data.nbytes + 16 * 1024
        assert not any(t.requires_grad for t in res.leaves.values())
        assert res.logits._parents == () and res.logits._backward is None

    def test_activation_sparsity_peak(self):
        """At batch 256 the probe reduces each site as the forward reaches it.
        On resnet-tiny its peak is the im2col of the first residual block's
        second conv: the cols matrix, the padded input and three arrays of
        that site's size (the block input kept for the shortcut, the first
        pre-activation, which the block still names, and the conv's input).
        On the mlp it is one site's input and output, |a| and its mask;
        keeping every site's output until the forward ends exceeds that."""
        n = 256
        rng = np.random.default_rng(17)
        mlp = layers.build_model({"preset": "mlp", "in_shape": [2], "classes": 2}, seed=16)
        im2col = 8 * 9 * 8 * 8 * n * 8 + 8 * 10 * 10 * n * 8     # cols and padded input
        mask = n * 256                                              # the mlp's |a| < eps
        for model, x, beside in ((self._resnet(), rng.normal(size=(n, 1, 8, 8)), im2col),
                                 (mlp, rng.normal(size=(n, 2)), mask)):
            sites = []
            model.forward(x, grad=False, observe=lambda z, a: sites.append(a.nbytes))
            bound = 3 * max(sites) + beside
            tracemalloc.start()
            try:
                diagnostics.activation_sparsity(model, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound + 32 * 1024, (peak, bound)


class TestBackwardFreesIntermediates:
    """After backward only leaves keep ``.grad`` and every op result is
    consumed; a second backward on the same graph raises and leaves the
    gradients alone, and a rebuilt graph reproduces them bit for bit."""

    def _check(self, build, flat0, tol):
        def loss_fn(flat):
            return float(build(flat)[0].data)

        loss, leaves = build(flat0)
        results = [t for t in ad.topo_order(loss) if t._parents]
        ad.backward(loss)
        assert all(t.grad is None and t._parents == () for t in results)
        first = np.concatenate([t.grad.ravel() for t in leaves])
        want = ad.finite_diff_grad(loss_fn, flat0)
        assert _rel_err(first, want) <= tol, _rel_err(first, want)
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.backward(loss)
        assert np.concatenate([t.grad.ravel() for t in leaves]).tobytes() == first.tobytes()
        loss, leaves = build(flat0)
        ad.backward(loss)
        again = np.concatenate([t.grad.ravel() for t in leaves])
        assert first.tobytes() == again.tobytes()

    def test_fanout_graph(self):
        def build(flat):
            xd = ad.Tensor(flat, requires_grad=True)
            branch = ad.mul(xd, ad.Tensor([2.0, 3.0]))
            return ad.sum_all(ad.add(branch, branch)), [xd]

        self._check(build, np.array([1.5, -0.5]), tol=1e-6)

    def test_resnet_tiny_loss(self):
        model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 6, 6],
                                    "channels": [2, 3, 4], "classes": 2}, seed=0)
        rng = np.random.default_rng(15)
        x = rng.normal(size=(4, 1, 6, 6))
        targets = smooth_labels_batch(rng.integers(0, 2, 4), 2, 0.0)
        layout = layers.ParamLayout(model.blocks.values())

        def build(flat):
            res = model.forward(x, training=True, activation="mish",
                                values=layout.unflatten(flat))
            loss = ad.softmax_cross_entropy(res.logits, targets)
            return loss, [res.leaves[n] for n in layout.names]

        flat0 = layout.flatten({n: b.value for n, b in model.blocks.items()})
        self._check(build, flat0, tol=1e-6)


class TestBackwardConsumesTheGraph:
    """``backward`` frees each node's arrays and captures as soon as it has
    run, so a taped gradient's working set shrinks while backward runs."""

    @staticmethod
    def _resnet_probe(n):
        """resnet-tiny with a random mask at s = 0.9, a batch of n and its
        targets: the Hessian probe's setting."""
        model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                    "classes": 2}, seed=0)
        masks.apply_mask(model, masks.random_mask(model, 0.9, seed=0))
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 1, 8, 8))
        return model, x, smooth_labels_batch(rng.integers(0, 2, n), 2, 0.0)

    def test_new_graph_through_a_consumed_node_raises(self):
        x = ad.Tensor([1.5, -0.5], requires_grad=True)
        y = ad.mul(x, x)
        ad.backward(ad.sum_all(y))
        grad = x.grad.copy()
        z = ad.sum_all(ad.add(y, x))     # y is no leaf: its parents are gone
        with pytest.raises(ad.GraphError, match="already consumed"):
            ad.backward(z)
        assert x.grad.tobytes() == grad.tobytes()

    def test_probe_gradient_peak(self):
        """One eval-mode gradient at batch 128 peaks at 11.2 MB traced; a
        backward that holds the whole tape until it returns peaks at 22.4 MB."""
        model, x, t = self._resnet_probe(128)
        _, value_and_grad, theta = diagnostics.probe_closures(model, x, t)
        value_and_grad(theta)
        tracemalloc.start()
        try:
            value_and_grad(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 14e6, peak

    def test_intermediates_freed_during_backward(self):
        """The last batchnorm's output is freed before the first conv's
        closure runs, not when backward returns."""
        model, x, t = self._resnet_probe(16)
        res = model.forward(x)
        loss = ad.softmax_cross_entropy(res.logits, t)
        nodes = ad.topo_order(loss)
        first_conv = next(n for n in nodes if n.op == "conv2d")
        last_bn = [n for n in nodes if n.op == "batchnorm"][-1]
        ref = weakref.ref(last_bn.data)
        del nodes, last_bn
        closure, freed = first_conv._backward, []

        def spy(g):
            freed.append(ref() is None)
            closure(g)

        first_conv._backward = spy
        ad.backward(loss)
        assert freed == [True]
        assert first_conv._backward is not spy and first_conv._parents == ()


class TestAllocatorRetention:
    """Importing the package fixes glibc's mmap and trim thresholds, so
    same-shaped passes reuse heap pages instead of faulting them in."""

    @staticmethod
    def _minor_faults(fn, warmup, reps):
        for _ in range(warmup):
            fn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(reps):
            fn()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    def test_repeated_passes_do_not_fault(self):
        if not ad._retain_freed_memory():
            pytest.skip("glibc mallopt unavailable or overridden by the environment")
        rng = np.random.default_rng(16)

        mlp = layers.build_model({"preset": "mlp", "in_shape": [2], "classes": 2}, seed=0)
        xm = rng.normal(size=(64, 2))
        tm = smooth_labels_batch(rng.integers(0, 2, 64), 2, 0.0)

        layout = layers.ParamLayout(mlp.blocks.values())
        free = layout.free_index
        state = [layout.flatten({n: b.value for n, b in mlp.blocks.items()}),
                 np.zeros(free.size)]

        def train_step():       # one step of training.train's loop
            res = mlp.forward(xm, training=True)
            ad.backward(ad.softmax_cross_entropy(res.logits, tm))
            grad = layout.flatten({n: t.grad for n, t in res.leaves.items()})
            stepped, state[1] = sgd_step(state[0][free], grad[free], state[1], 0.01, 0.9, 2e-4)
            state[0] = state[0].copy()
            state[0][free] = stepped
            for n, value in layout.unflatten(state[0]).items():
                mlp.blocks[n].value = value

        # with multithreaded BLAS, a fresh process's fourth step faults ~100 pages once
        mlp_faults = self._minor_faults(train_step, warmup=5, reps=20)

        net = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8], "classes": 2},
                                 seed=0)
        masks.apply_mask(net, masks.random_mask(net, 0.9, seed=0))
        xr = rng.normal(size=(128, 1, 8, 8))
        tr = smooth_labels_batch(rng.integers(0, 2, 128), 2, 0.0)
        _, grad_fn, theta = diagnostics.probe_functions(net, xr, tr)
        probe_faults = self._minor_faults(lambda: grad_fn(theta), warmup=3, reps=5)

        assert mlp_faults < 100 and probe_faults < 100, (mlp_faults, probe_faults)

    @pytest.mark.parametrize("cdll", ["raises", "no_mallopt", "refuses"])
    def test_fallback_without_glibc(self, monkeypatch, cdll):
        for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(var, raising=False)

        class Libc:
            if cdll == "refuses":       # musl's mallopt accepts nothing
                mallopt = staticmethod(lambda param, value: 0)

        def fake_cdll(name):
            if cdll == "raises":
                raise OSError("no C library")
            return Libc()

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert ad._retain_freed_memory() is False

    @pytest.mark.parametrize("var, value", [
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ])
    def test_user_settings_take_precedence(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        calls = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name))
        assert ad._retain_freed_memory() is False
        assert calls == []


class TestErrors:
    def test_shape_mismatch_names_node(self):
        with pytest.raises(ad.ShapeError, match="stem"):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))), label="stem")

    def test_nonfinite_output_raises(self):
        big = ad.Tensor(np.full(3, 1e308))
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match="blow"):
            ad.mul(big, big, label="blow")

    def test_conv_channel_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.conv2d(ad.Tensor(np.zeros((1, 2, 4, 4))), ad.Tensor(np.zeros((3, 4, 3, 3))))

    def test_batchnorm_batch_of_one(self):
        with pytest.raises(ValueError):
            ad.batchnorm_train(ad.Tensor(np.zeros((1, 3))), ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))


class TestFiniteDiffOracles:
    def test_square_gradient(self):
        g = ad.finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-5)
        np.testing.assert_allclose(g, [6.0], atol=1e-8)

    def test_constant_function(self):
        g = ad.finite_diff_grad(lambda t: 1.25, np.zeros(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_bilinear(self):
        g = ad.finite_diff_grad(lambda t: float(t[0] * t[1]), np.array([2.0, 5.0]), h=1e-5)
        np.testing.assert_allclose(g, [5.0, 2.0], atol=1e-8)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            ad.finite_diff_grad(lambda t: 0.0, np.zeros(2), h=0.0)


class TestHvp:
    A = np.diag([3.0, 1.0])

    def _grad(self, theta):
        return self.A @ theta

    def test_quadratic_axes(self):
        theta = np.array([0.3, -0.7])
        np.testing.assert_allclose(ad.hvp_finite_diff(self._grad, theta, [1.0, 0.0]), [3.0, 0.0], atol=1e-6)
        np.testing.assert_allclose(ad.hvp_finite_diff(self._grad, theta, [0.0, 1.0]), [0.0, 1.0], atol=1e-6)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            ad.hvp_finite_diff(self._grad, np.ones(2), np.zeros(2))

    def test_linearity_on_quadratics(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(5, 5))
        a = m + m.T
        theta = rng.normal(size=5)
        v, w = rng.normal(size=5), rng.normal(size=5)
        grad = lambda t: a @ t
        lhs = ad.hvp_finite_diff(grad, theta, 2.0 * v - 0.5 * w)
        rhs = 2.0 * ad.hvp_finite_diff(grad, theta, v) - 0.5 * ad.hvp_finite_diff(grad, theta, w)
        assert _rel_err(lhs, rhs) <= 1e-6

    def test_against_dense_hessian_oracle(self):
        """8-parameter net: Hvp matches the double-finite-difference Hessian."""
        rng = np.random.default_rng(22)
        x = rng.normal(size=(6, 2))
        y = np.zeros((6, 2))
        y[np.arange(6), rng.integers(0, 2, 6)] = 1.0

        def build(flat):
            w1 = ad.Tensor(flat[:4].reshape(2, 2), requires_grad=True)
            w2 = ad.Tensor(flat[4:].reshape(2, 2), requires_grad=True)
            h = ad.pswish(ad.matmul(ad.Tensor(x), w1), 1.0)
            return ad.softmax_cross_entropy(ad.matmul(h, w2), y), [w1, w2]

        def loss_fn(flat):
            return build(flat)[0]

        def grad_fn(flat):
            loss, leaves = build(flat)
            ad.backward(loss)
            return np.concatenate([t.grad.ravel() for t in leaves])

        theta = rng.normal(size=8, scale=0.6)
        dense = finite_diff_hessian(lambda f: float(loss_fn(f).data), theta, h=1e-4)
        for k in range(3):
            v = np.random.default_rng(30 + k).normal(size=8)
            got = ad.hvp_finite_diff(grad_fn, theta, v)
            assert _rel_err(got, dense @ v) <= 1e-3


def _relu_net(seed):
    """dense 2->3, relu, dense 3->2: 17 parameters, no batchnorm."""
    return layers.build_model({"layers": [{"kind": "dense", "width": 3}, {"kind": "activation"},
                                          {"kind": "dense", "width": 2}],
                               "in_shape": [2], "classes": 2}, seed=seed)


class TestComplexStep:
    def test_real_tensor_stays_float64(self):
        for data in ([1, 2], np.arange(3, dtype=np.int32), np.ones(2, np.float32), 2.5):
            assert ad.Tensor(data).data.dtype == np.float64
        z = np.array([1.0 + 2e-190j])
        assert ad.Tensor(z).data.dtype == np.complex128
        assert ad.relu(ad.Tensor(z)).data.dtype == np.complex128

    def test_real_relu_propagates_nan_and_negative_zero(self):
        """Real input keeps np.maximum: signed zeros come out as it gives them
        and NaN reaches the output (where the finite check stops it)."""
        x = np.array([-0.0, 0.0, -1.0, 2.0])
        assert ad.relu(ad.Tensor(x)).data.tobytes() == np.maximum(x, 0.0).tobytes()
        assert ad.relu(ad.Tensor(-x)).data.tobytes() == np.maximum(-x, 0.0).tobytes()
        with pytest.raises(ad.NumericError, match="relu"):
            ad.relu(ad.Tensor([-1.0, np.nan]))

    @pytest.mark.parametrize("name", ["relu", "pswish", "mish", "sigmoid"])
    def test_elementwise_derivative_is_the_backward(self, name):
        """Re f(x + ih) is f(x) and Im f(x + ih)/h the backward pass's f'(x),
        extremes included."""
        x = np.array([-800.0, -710.0, -36.0, -1.5, -1e-300, 1e-300, 0.3, 36.0, 710.0, 800.0])
        op = {"relu": ad.relu, "pswish": lambda t: ad.pswish(t, 2.0), "mish": ad.mish,
              "sigmoid": lambda t: ad.Tensor(ad._sigmoid(t.data))}[name]
        y = op(ad.Tensor(x + 1j * ad.COMPLEX_STEP))
        np.testing.assert_allclose(y.data.real, op(ad.Tensor(x)).data, rtol=1e-15, atol=1e-14)
        if name == "sigmoid":
            s = ad._sigmoid(x)
            want = s * (1.0 - s)
        else:
            leaf = ad.Tensor(x, requires_grad=True)
            ad.backward(ad.sum_all(op(leaf)))
            want = leaf.grad
        np.testing.assert_allclose(y.data.imag / ad.COMPLEX_STEP, want, rtol=1e-14,
                                   atol=1e-300 if name == "mish" else 1e-16)

    def test_quadratic_is_exact(self):
        rng = np.random.default_rng(40)
        m = rng.normal(size=(5, 5))
        a = m + m.T
        theta, v = rng.normal(size=5), rng.normal(size=5)
        assert _rel_err(ad.hvp_complex_step(lambda t: a @ t, theta, v), a @ v) <= 1e-15
        assert not np.any(ad.hvp_complex_step(lambda t: a @ t, theta, np.zeros(5)))

    def test_relu_hessian_matches_dense_oracle(self):
        """On a 17-parameter relu net, the complex-step Hessian equals the dense
        Hessian from central differences of the exact gradient, taken at a
        step where no pre-activation changes sign; it is symmetric and
        linear to 1e-12."""
        model = _relu_net(seed=41)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(10, 2))
        t = smooth_labels_batch(rng.integers(0, 2, 10), 2, 0.0)
        layout = layers.ParamLayout(model.blocks.values())
        _, grad_fn, theta = diagnostics.probe_functions(model, x, t, layout=layout)
        n, h = theta.size, 1e-5
        assert n <= 20

        def signs(vec):
            seen = []
            model.forward(x, values=layout.from_free(vec),
                          observe=lambda z, _: seen.append(np.sign(z).ravel()))
            return np.concatenate(seen)

        base = signs(theta)
        dense = np.empty((n, n))
        for j in range(n):
            step = np.zeros(n)
            step[j] = h
            assert np.array_equal(signs(theta + step), base)
            assert np.array_equal(signs(theta - step), base)
            dense[:, j] = (grad_fn(theta + step) - grad_fn(theta - step)) / (2 * h)
        hess = np.column_stack([ad.hvp_complex_step(grad_fn, theta, e) for e in np.eye(n)])
        assert _rel_err(hess, dense) <= 1e-8
        u, v = rng.normal(size=n), rng.normal(size=n)
        hu, hv = ad.hvp_complex_step(grad_fn, theta, u), ad.hvp_complex_step(grad_fn, theta, v)
        assert abs(u @ hv - v @ hu) <= 1e-12 * abs(u @ hv)
        assert _rel_err(hu + 2.0 * hv, ad.hvp_complex_step(grad_fn, theta, u + 2.0 * v)) <= 1e-12
