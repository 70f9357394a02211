"""Oracle verification battery for the `selftest` CLI verb.

Each check re-derives an expected value with an independent method
(finite differences, dense eigendecomposition, closed forms) and
compares. Prints one PASS/FAIL line per check; exit 0 iff all pass.
"""

from __future__ import annotations

import math

import numpy as np

from sparselab import autodiff as ad
from sparselab import diagnostics, ghost, layers, masks, training


def _check_op_gradients():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=12)
    x0[np.abs(x0) < 1e-3] += 0.1
    proj = rng.normal(size=12)
    for op in (ad.relu, lambda t: ad.pswish(t, 2.0), ad.mish):
        def f(flat, op=op):
            return float((op(ad.Tensor(flat)).data * proj).sum())
        leaf = ad.Tensor(x0, requires_grad=True)
        out = op(leaf)
        ad.backward(out, seed=proj)
        fd = ad.finite_diff_grad(f, x0)
        if np.linalg.norm(leaf.grad - fd) / max(np.linalg.norm(fd), 1e-12) > 1e-6:
            return False
    return True


def _check_conv2d_gradients():
    rng = np.random.default_rng(8)
    x0, w0 = rng.normal(size=(2, 2, 5, 5)), rng.normal(size=(3, 2, 3, 3))
    nx, flat0 = x0.size, np.concatenate([x0.ravel(), w0.ravel()])
    for stride in (1, 2):
        def conv(flat, stride=stride):
            x = ad.Tensor(flat[:nx].reshape(x0.shape), requires_grad=True)
            w = ad.Tensor(flat[nx:].reshape(w0.shape), requires_grad=True)
            return ad.conv2d(x, w, stride=stride), x, w
        y, x, w = conv(flat0)
        proj = rng.normal(size=y.shape)
        ad.backward(y, seed=proj)
        got = np.concatenate([x.grad.ravel(), w.grad.ravel()])
        fd = ad.finite_diff_grad(lambda f: float((conv(f)[0].data * proj).sum()), flat0)
        if np.linalg.norm(got - fd) / max(np.linalg.norm(fd), 1e-12) > 1e-6:
            return False
    return True


def _check_hvp_vs_dense():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 6))
    a = (m + m.T) / 2
    theta = rng.normal(size=6)
    v = rng.normal(size=6)
    got = ad.hvp_finite_diff(lambda t: a @ t, theta, v)
    return np.linalg.norm(got - a @ v) / np.linalg.norm(a @ v) <= 1e-6


def _check_complex_step_hvp():
    """17-parameter relu net: complex-step Hessian columns against central
    differences of the exact gradient, at a step that flips no relu."""
    model = layers.build_model({"layers": [{"kind": "dense", "width": 3}, {"kind": "activation"},
                                           {"kind": "dense", "width": 2}],
                                "in_shape": [2], "classes": 2}, seed=41)
    rng = np.random.default_rng(42)
    x = rng.normal(size=(10, 2))
    targets = training.smooth_labels_batch(rng.integers(0, 2, 10), 2, 0.0)
    layout = layers.ParamLayout(model.blocks.values())
    _, grad_fn, theta = diagnostics.probe_functions(model, x, targets, layout=layout)

    def signs(vec):
        first = []
        model.forward(x, values=layout.from_free(vec), grad=False,
                      observe=lambda z, _: first.append(np.sign(z)))
        return first[0]

    h, base, axes = 1e-5, signs(theta), np.eye(theta.size)
    if any((signs(theta + h * e) != base).any() or (signs(theta - h * e) != base).any()
           for e in axes):
        return False
    dense = np.column_stack([(grad_fn(theta + h * e) - grad_fn(theta - h * e)) / (2 * h)
                             for e in axes])
    exact = np.column_stack([ad.hvp_complex_step(grad_fn, theta, e) for e in axes])
    return np.linalg.norm(exact - dense) <= 1e-8 * np.linalg.norm(dense)


def _check_power_iteration():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(10, 10))
    a = (m + m.T) / 2
    want = np.sort(np.linalg.eigvalsh(a))[::-1][:2]
    rec, _ = diagnostics.top_hessian_eigs(lambda t: a @ t, np.zeros(10), k=2,
                                          iters=400, tol=1e-10, seed=3)
    return np.allclose(rec.eigenvalues, want, rtol=1e-3)


def _check_schedules():
    ok = training.lr_at(89, 0.1, (90, 135)) == 0.1
    ok &= abs(training.lr_at(90, 0.1, (90, 135)) - 0.01) < 1e-15
    ok &= ghost.beta_at(15, 30) == 5.5
    ok &= ghost.beta_at(30, 30) == math.inf
    ok &= ghost.alpha_at(15, 30) == 0.5
    ok &= ghost.alpha_at(30, 30) == 0.0
    return bool(ok)


def _check_mask_counts():
    model = layers.build_model({"layers": [{"kind": "dense", "width": 10}],
                                "in_shape": [10], "classes": 10}, seed=4)
    mask = masks.random_mask(model, 0.9, seed=5)
    return mask.survivors() == 10 and mask.total() == 100


def _check_label_smoothing():
    row = training.smooth_labels_batch([3], 10, 0.1)[0]
    return abs(row[3] - 0.91) < 1e-15 and abs(row.sum() - 1.0) < 1e-12


def _check_bn_scale_absorption():
    model = layers.build_model({"preset": "resnet-tiny", "in_shape": [1, 8, 8],
                                "classes": 2}, seed=6)
    x = np.random.default_rng(7).normal(size=(4, 1, 8, 8))
    base = model.forward(x, training=True, grad=False).logits.data
    scaled = model.clone()
    scaled.blocks["L00.conv3x3.w"].value *= 3.0
    scaled.blocks["L00.conv3x3.b"].value *= 3.0
    got = scaled.forward(x, training=True, grad=False).logits.data
    return float(np.abs(got - base).max()) <= 1e-9


CHECKS = [
    ("op gradients vs finite differences", _check_op_gradients),
    ("conv2d dx and dw vs finite differences", _check_conv2d_gradients),
    ("hvp vs dense quadratic", _check_hvp_vs_dense),
    ("complex-step HVP vs dense Hessian (relu)", _check_complex_step_hvp),
    ("power iteration vs eigendecomposition", _check_power_iteration),
    ("lr/beta/alpha schedule closed forms", _check_schedules),
    ("mask survivor counting", _check_mask_counts),
    ("label smoothing formula", _check_label_smoothing),
    ("batchnorm scale absorption", _check_bn_scale_absorption),
]


def run_selftest():
    failures = 0
    for name, fn in CHECKS:
        try:
            ok = fn()
        except Exception as exc:   # a crashed check is a failed check
            ok = False
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
