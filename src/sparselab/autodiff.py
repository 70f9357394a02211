"""Reverse-mode automatic differentiation over dense float64 arrays.

Tape style: every op eagerly computes its output and records the parent
tensors plus a gradient closure on the result. The tape keeps only what
backward cannot cheaply rebuild: ``conv2d`` recomputes its im2col matrix
in backward instead of storing it. ``backward`` walks the implicit DAG in
reverse topological order, accumulates gradients on every tensor that
requires them, and drops each intermediate gradient once its node has
run, so afterwards only leaves hold ``.grad``. Graphs are rebuilt per
step; tensors in a graph are never mutated in place.

Also hosts the finite-difference oracles (``finite_diff_grad``,
``finite_diff_hessian``, ``hvp_finite_diff``) used to verify gradients
and curvature everywhere else in the package.

Importing this module (and so ``sparselab``) fixes glibc's
``M_MMAP_THRESHOLD`` at 32 MiB and ``M_TRIM_THRESHOLD`` at 64 MiB, so the
multi-MB arrays every pass frees and reallocates (``conv2d``'s padded
input and column matrices, dense activations) are reused from the heap
instead of going back to the kernel and being page-faulted in again. No
arithmetic changes. A user's ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or ``glibc.malloc.*`` tunable takes precedence.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np


def _retain_freed_memory():
    """Keep freed arrays below 32 MiB in the heap for reuse (see the module
    docstring). True when glibc took both thresholds; False, changing
    nothing, without ``mallopt`` or under the user's own settings."""
    if ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # malloc.h: M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1; 0 = refused
        return bool(mallopt(-3, 32 << 20) and mallopt(-1, 64 << 20))
    except (OSError, AttributeError, TypeError):
        return False


_retain_freed_memory()


class ShapeError(ValueError):
    """Operand shapes incompatible with the op signature."""


class NumericError(ArithmeticError):
    """An op produced a non-finite value."""


class GraphError(RuntimeError):
    """Backward invoked on a tensor with no recorded computation."""


def _sigmoid(x):
    # e = exp(-|x|) never overflows and equals exp(-x) for x >= 0 and
    # exp(x) below, so 1/(1+e) and e/(1+e) are bit for bit the two sign
    # branches. The numerator max(e, x >= 0) is 1 or e without a masked
    # op (e <= 1). Two full-size arrays, e and out, each computed in place.
    e = np.abs(x, out=np.empty_like(x))
    np.exp(np.negative(e, out=e), out=e)
    out = np.add(e, 1.0, out=np.empty_like(x))
    np.maximum(e, x >= 0, out=e)
    return np.divide(e, out, out=out)


def _check_finite(data, op, label):
    if not np.all(np.isfinite(data)):
        where = f"{op}[{label}]" if label else op
        raise NumericError(f"non-finite values produced by node {where}")


class Tensor:
    """Dense float64 array with an optional gradient slot.

    Leaves are tensors created directly from data (no parents): parameters
    and user inputs. After :func:`backward` returns, ``grad`` is set on
    requires-grad leaves only; op results read None.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.op = "leaf"
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def _result(data, op, parents, backward_fn, label=""):
    _check_finite(data, op, label)
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    out.op = op
    out.name = label
    out._parents = tuple(parents)
    out._backward = backward_fn if out.requires_grad else None
    return out


def as_tensor(x):
    """Coerce arrays/scalars to a constant (non-grad) Tensor."""
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def add(a, b, label=""):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add[{label}]: {a.data.shape} + {b.data.shape}: {exc}") from None

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(data, "add", (a, b), bw, label)


def mul(a, b, label=""):
    a, b = as_tensor(a), as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul[{label}]: {a.data.shape} * {b.data.shape}: {exc}") from None

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(data, "mul", (a, b), bw, label)


def scale(a, c, label=""):
    """Multiply by a python float (no gradient w.r.t. the scalar)."""
    a = as_tensor(a)
    c = float(c)

    def bw(g):
        _accumulate(a, g * c)

    return _result(a.data * c, "scale", (a,), bw, label)


def matmul(a, b, label=""):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul[{label}]: incompatible shapes {a.data.shape} @ {b.data.shape}"
        )
    data = a.data @ b.data

    def bw(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _result(data, "matmul", (a, b), bw, label)


def relu(x, label=""):
    x = as_tensor(x)
    data = np.maximum(x.data, 0.0)

    def bw(g):
        # Subgradient at exactly 0 is 0.
        _accumulate(x, g * (x.data > 0))

    return _result(data, "relu", (x,), bw, label)


def pswish(x, beta=1.0, label=""):
    """Parametric swish x * sigmoid(beta * x); beta=1 is swish, beta -> inf is relu."""
    x = as_tensor(x)
    beta = float(beta)
    if beta < 0:
        raise ValueError(f"pswish: beta must be >= 0, got {beta}")
    # beta = inf is the relu limit, computed exactly (inf * 0 would give NaN)
    relu_limit = beta == math.inf
    if relu_limit:
        data = np.maximum(x.data, 0.0)
    else:
        s = _sigmoid(beta * x.data)
        data = x.data * s

    def bw(g):
        if relu_limit:
            _accumulate(x, g * (x.data > 0))
        else:
            _accumulate(x, g * (s * (1.0 + beta * x.data * (1.0 - s))))

    return _result(data, "pswish", (x,), bw, label)


def mish(x, label=""):
    """x * tanh(softplus(x)) with overflow-safe softplus."""
    x = as_tensor(x)
    sp = np.logaddexp(0.0, x.data)
    t = np.tanh(sp)
    data = x.data * t

    def bw(g):
        _accumulate(x, g * (t + x.data * (1.0 - t * t) * _sigmoid(x.data)))

    return _result(data, "mish", (x,), bw, label)


def conv2d(x, w, stride=1, label=""):
    """3x3 convolution, zero padding 1, stride 1 or 2.

    x: (N, C_in, H, W), w: (C_out, C_in, 3, 3), output (N, C_out, Ho, Wo).
    Implemented as im2col + GEMM. Inside the op the zero-padded input is
    held as (C_in, H+2, W+2, N), batch innermost, so every window copy and
    every col2im ``+=`` moves contiguous runs of N values. The nine strided
    windows fill one (C_in*9, Ho*Wo*N) ``cols`` matrix; the forward pass is
    one GEMM with w viewed as (C_out, C_in*9), the backward pass one GEMM
    for dw and, only when x needs a gradient, one GEMM for dcols followed
    by a nine-step col2im scatter. The output is an (N, C_out, Ho, Wo) view
    of the GEMM result, whose memory order stays (C_out, Ho, Wo, N).
    The tape keeps only x and w: the padded input and ``cols`` (9x the
    input) are dropped after the forward GEMM, and backward rebuilds them
    from ``x.data`` with the same window copies, so dw sees bit-identical
    operands.
    """
    x, w = as_tensor(x), as_tensor(w)
    if stride not in (1, 2):
        raise ShapeError(f"conv2d[{label}]: stride must be 1 or 2, got {stride}")
    if x.data.ndim != 4 or w.data.ndim != 4 or w.data.shape[2:] != (3, 3):
        raise ShapeError(
            f"conv2d[{label}]: expected x (N,C,H,W) and w (O,C,3,3), "
            f"got {x.data.shape} and {w.data.shape}"
        )
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(
            f"conv2d[{label}]: channel mismatch {x.data.shape[1]} vs {w.data.shape[1]}"
        )
    n, c, h, wd = x.data.shape
    ho = (h + 2 - 3) // stride + 1
    wo = (wd + 2 - 3) // stride + 1
    o = w.data.shape[0]

    def im2col():
        xp = np.zeros((c, h + 2, wd + 2, n))
        xp[:, 1:1 + h, 1:1 + wd] = x.data.transpose(1, 2, 3, 0)
        cols = np.empty((c, 3, 3, ho, wo, n))
        for ki in range(3):
            for kj in range(3):
                cols[:, ki, kj] = xp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride]
        return cols.reshape(c * 9, ho * wo * n)

    w2 = w.data.reshape(o, c * 9)
    data = (w2 @ im2col()).reshape(o, ho, wo, n).transpose(3, 0, 1, 2)

    def bw(g):
        g2 = g.transpose(1, 2, 3, 0).reshape(o, ho * wo * n)
        _accumulate(w, (g2 @ im2col().T).reshape(w.data.shape))
        if not x.requires_grad:
            return
        dcols = (w2.T @ g2).reshape(c, 3, 3, ho, wo, n)
        dxp = np.zeros((c, h + 2, wd + 2, n))
        for ki in range(3):
            for kj in range(3):
                dxp[:, ki:ki + stride * ho:stride, kj:kj + stride * wo:stride] += dcols[:, ki, kj]
        _accumulate(x, dxp[:, 1:1 + h, 1:1 + wd].transpose(3, 0, 1, 2))

    return _result(data, "conv2d", (x, w), bw, label)


def _bn_axes(shape):
    if len(shape) == 2:
        return (0,)
    if len(shape) == 4:
        return (0, 2, 3)
    raise ShapeError(f"batchnorm: expected 2-D or 4-D input, got shape {shape}")


def _bn_param_shape(x_shape, p, name, label):
    c = x_shape[1]
    if p.data.shape != (c,):
        raise ShapeError(f"batchnorm[{label}]: {name} shape {p.data.shape} != ({c},)")
    return (1, c) if len(x_shape) == 2 else (1, c, 1, 1)


def batchnorm_train(x, gamma, beta, eps=1e-12, label=""):
    """Train-mode batch normalization.

    Normalizes by the batch mean/variance (biased) over the batch axis
    (and spatial axes for 4-D input). Returns ``(out, batch_mean, batch_var)``;
    the caller owns running-stat updates. Batch size must be >= 2.

    eps guards the zero-variance channel only; it is kept tiny so that
    rescaling the incoming weights by c rescales the batch std by c to
    within 1e-9 (the scale-absorption property downstream code relies on).
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.data.shape[0] < 2:
        raise ValueError(f"batchnorm[{label}]: train mode needs batch size >= 2")
    axes = _bn_axes(x.data.shape)
    pshape = _bn_param_shape(x.data.shape, gamma, "gamma", label)
    _bn_param_shape(x.data.shape, beta, "beta", label)
    mean = x.data.mean(axis=axes, keepdims=True)
    var = ((x.data - mean) ** 2).mean(axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv_std
    data = gamma.data.reshape(pshape) * xhat + beta.data.reshape(pshape)

    def bw(g):
        _accumulate(beta, g.sum(axis=axes))
        _accumulate(gamma, (g * xhat).sum(axis=axes))
        dxhat = g * gamma.data.reshape(pshape)
        m1 = dxhat.mean(axis=axes, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=axes, keepdims=True)
        _accumulate(x, inv_std * (dxhat - m1 - xhat * m2))

    out = _result(data, "batchnorm", (x, gamma, beta), bw, label)
    return out, mean.reshape(-1), var.reshape(-1)


def batchnorm_eval(x, gamma, beta, running_mean, running_var, eps=1e-12, label=""):
    """Eval-mode batch normalization using frozen running statistics."""
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    pshape = _bn_param_shape(x.data.shape, gamma, "gamma", label)
    _bn_param_shape(x.data.shape, beta, "beta", label)
    inv_std = 1.0 / np.sqrt(np.asarray(running_var).reshape(pshape) + eps)
    mean = np.asarray(running_mean).reshape(pshape)
    xhat = (x.data - mean) * inv_std
    data = gamma.data.reshape(pshape) * xhat + beta.data.reshape(pshape)

    def bw(g):
        axes = _bn_axes(x.data.shape)
        _accumulate(beta, g.sum(axis=axes))
        _accumulate(gamma, (g * xhat).sum(axis=axes))
        _accumulate(x, g * gamma.data.reshape(pshape) * inv_std)

    return _result(data, "batchnorm", (x, gamma, beta), bw, label)


def global_avg_pool(x, label=""):
    """(N, C, H, W) -> (N, C), mean over the spatial axes."""
    x = as_tensor(x)
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool[{label}]: expected 4-D input, got {x.data.shape}")
    n, c, h, w = x.data.shape
    data = x.data.mean(axis=(2, 3))

    def bw(g):
        _accumulate(x, np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).copy())

    return _result(data, "global_avg_pool", (x,), bw, label)


def reshape(x, shape, label=""):
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape[{label}]: {x.data.shape} -> {shape}: {exc}") from None

    def bw(g):
        _accumulate(x, g.reshape(x.data.shape))

    return _result(data, "reshape", (x,), bw, label)


def sum_all(x, label=""):
    """Reduce every element to a scalar (shape ())."""
    x = as_tensor(x)
    data = x.data.sum()

    def bw(g):
        _accumulate(x, np.full(x.data.shape, float(g)))

    return _result(data, "sum", (x,), bw, label)


def softmax_cross_entropy(logits, targets, label=""):
    """Fused softmax + cross entropy, mean over the batch.

    ``targets`` is a plain (N, K) array of probability rows (one-hot or
    smoothed). The fused form never evaluates log(0):
    loss_i = logsumexp(z_i) - sum_k y_ik z_ik   (valid when each row sums to 1).
    """
    logits = as_tensor(logits)
    y = np.asarray(targets, dtype=np.float64)
    if logits.data.ndim != 2 or y.shape != logits.data.shape:
        raise ShapeError(
            f"softmax_cross_entropy[{label}]: logits {logits.data.shape} vs targets {y.shape}"
        )
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    n = z.shape[0]
    data = (lse - (y * z).sum(axis=1)).mean()
    probs = np.exp(z - zmax)
    probs /= probs.sum(axis=1, keepdims=True)

    def bw(g):
        _accumulate(logits, (probs - y) * (float(g) / n))

    return _result(data, "softmax_cross_entropy", (logits,), bw, label)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def topo_order(root):
    """Tensors reachable from ``root``, parents before children."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(root, seed=None):
    """Populate ``.grad`` on every requires-grad leaf reachable from ``root``.

    Gradients accumulate additively across fan-out. Each intermediate
    gradient is dropped as soon as its node's closure has run, so after
    the call only leaves (parameters and inputs) hold ``.grad``; the root
    and every other op result read None. ``seed`` defaults to ones of the
    root's shape.
    """
    if root._backward is None and not root._parents:
        raise GraphError("backward called on a leaf: no recorded forward computation")
    if seed is None:
        seed = np.ones_like(root.data)
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != root.data.shape:
            raise ShapeError(f"backward: seed shape {seed.shape} != root shape {root.data.shape}")
    order = topo_order(root)
    for t in order:
        t.grad = None
    root.grad = seed.copy()
    for t in reversed(order):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)
        if t._parents:
            t.grad = None     # every child has run: nothing reads it again


# ---------------------------------------------------------------------------
# finite-difference oracles
# ---------------------------------------------------------------------------

def finite_diff_grad(scalar_fn, params, h=1e-5):
    """Central-difference gradient of ``scalar_fn`` at the flat vector ``params``."""
    if h <= 0:
        raise ValueError(f"finite_diff_grad: h must be positive, got {h}")
    theta = np.asarray(params, dtype=np.float64).ravel()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        fp = float(scalar_fn(theta + step))
        fm = float(scalar_fn(theta - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_diff_grad: non-finite evaluation at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def finite_diff_hessian(scalar_fn, params, h=1e-4):
    """Dense Hessian by double central differences (independent curvature oracle)."""
    theta = np.asarray(params, dtype=np.float64).ravel()
    n = theta.size
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (
                float(scalar_fn(theta + ei + ej))
                - float(scalar_fn(theta + ei - ej))
                - float(scalar_fn(theta - ei + ej))
                + float(scalar_fn(theta - ei - ej))
            ) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    if not np.all(np.isfinite(hess)):
        raise NumericError("finite_diff_hessian: non-finite evaluation")
    return hess


def hvp_finite_diff(grad_fn, params, v, h=1e-5):
    """Hessian-vector product by central differences of gradients.

    Returns (grad(theta + h'v) - grad(theta - h'v)) / (2h') with the
    scale-aware step h' = h * (1 + ||theta||) / ||v||. ``grad_fn`` maps a
    flat parameter vector to the gradient of the loss at that point
    (two gradient evaluations per product).
    """
    theta = np.asarray(params, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    vnorm = np.linalg.norm(v)
    if vnorm == 0.0:
        raise ValueError("hvp_finite_diff: v must be nonzero")
    hp = h * (1.0 + np.linalg.norm(theta)) / vnorm
    gp = np.asarray(grad_fn(theta + hp * v), dtype=np.float64)
    gm = np.asarray(grad_fn(theta - hp * v), dtype=np.float64)
    out = (gp - gm) / (2.0 * hp)
    if not np.all(np.isfinite(out)):
        raise NumericError("hvp_finite_diff: non-finite gradient evaluation")
    return out
