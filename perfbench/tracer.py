"""Outside-in span tracer for the sparselab package.

The tracer never edits the package. It replaces, for the length of one
``with Tracer() as tr:`` block, every public function of every loaded
``sparselab`` module (module attributes) and every public method of
``layers.Model`` with a wrapper that records a span. For each of the
autodiff ops it also wraps the ``_backward`` closure on the tensor the op
returns, so forward and backward time are counted apart. On exit the
originals are put back and ``restored()`` tells whether that worked.

Spans are aggregated per name as they close: calls, inclusive seconds and
self seconds (inclusive time minus the time of child spans). A few spans
also feed computed counters (FLOPs and im2col bytes from operand shapes,
converged eigenvalues, checkpoint bytes).
"""

from __future__ import annotations

import os
import sys
import time
import types

OPS = ("add", "mul", "scale", "matmul", "relu", "pswish", "mish", "conv2d",
       "batchnorm_train", "batchnorm_eval", "global_avg_pool", "reshape",
       "sum_all", "softmax_cross_entropy")

TRAIN = "training.train"
# Phases of training.train that are timed on their own; the train-step phase
# is train's inclusive time minus these when they run directly inside train.
TRAIN_PHASES = ("training.evaluate", "diagnostics.activation_sparsity",
                "diagnostics.probe_functions", "diagnostics.top_hessian_eigs",
                "rescale.learn_scales")

_MARK = "_perfbench_span"


def _shape(x):
    return getattr(x, "data", x).shape


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "sparselab" or n.startswith("sparselab."))]


class Tracer:
    def __init__(self):
        self.stats = {}          # span name -> [calls, inclusive_s, self_s]
        self.counters = {}       # counter name -> float
        self.phase_in_train_s = 0.0
        self._stack = []         # open spans: [child_s, name]
        self._patched = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _count(self, key, value):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _wrap(self, name, fn, post=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        phase = name in TRAIN_PHASES

        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if phase:
                    self._note_phase(dt)
            if post is not None:
                post(args, result)
            return result

        setattr(span, _MARK, name)
        return span

    def _note_phase(self, dt):
        for _, outer in reversed(self._stack):
            if outer == TRAIN:
                self.phase_in_train_s += dt
                return
            if outer in TRAIN_PHASES:
                return

    # -- per-function hooks -----------------------------------------------

    def _op_post(self, op):
        bwd_name = f"autodiff.{op}.bwd"

        def post(args, result):
            out = result[0] if isinstance(result, tuple) else result
            bwd_flop = 0.0
            if op == "conv2d":
                n, o, ho, wo = out.data.shape
                c = _shape(args[1])[1]
                flop = 2.0 * n * o * ho * wo * c * 9
                bwd_flop = 2.0 * flop        # weight gradient + input gradient
                self._count("autodiff.conv2d.flop", flop)
                self._count("autodiff.conv2d.cols_bytes", 8.0 * n * c * 9 * ho * wo)
            elif op == "matmul":
                m, k = _shape(args[0])
                flop = 2.0 * m * k * out.data.shape[1]
                bwd_flop = 2.0 * flop
                self._count("autodiff.matmul.flop", flop)
            if out._backward is not None:
                bwd_post = None
                if bwd_flop:
                    key = f"autodiff.{op}.flop"
                    bwd_post = lambda a, r: self._count(key, bwd_flop)  # noqa: E731
                out._backward = self._wrap(bwd_name, out._backward, bwd_post)
        return post

    def _eigs_post(self, args, result):
        record = result[0]
        self._count("diagnostics.top_hessian_eigs.converged", sum(map(bool, record.converged)))
        self._count("diagnostics.top_hessian_eigs.eigenvalues", len(record.converged))

    def _save_post(self, args, result):
        self._count("checkpoint.save_model.bytes", os.path.getsize(args[0]))

    def _post_for(self, name):
        module, _, fn = name.partition(".")
        if module == "autodiff" and fn in OPS:
            return self._op_post(fn)
        if name == "diagnostics.top_hessian_eigs":
            return self._eigs_post
        if name == "checkpoint.save_model":
            return self._save_post
        return None

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        from sparselab import layers
        wrappers = {}            # one wrapper per function, shared by every alias
        for mod in _package_modules():
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith("sparselab.")):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.split('.', 1)[1]}.{fn.__qualname__}"
                    wrappers[fn] = self._wrap(name, fn, self._post_for(name))
                self._patch(mod, attr, wrappers[fn])
        for attr, fn in sorted(vars(layers.Model).items()):
            if not attr.startswith("_") and isinstance(fn, types.FunctionType):
                self._patch(layers.Model, attr, self._wrap(f"layers.Model.{attr}", fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every patched attribute is the original again and no
        wrapper is left anywhere in the package."""
        from sparselab import layers
        if any(getattr(owner, attr) is not original for owner, attr, original in self._patched):
            return False
        owners = _package_modules() + [layers.Model]
        return not any(hasattr(v, _MARK) for o in owners for v in vars(o).values())

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def self_sum(self):
        return sum(s[2] for s in self.stats.values())

    def span_count(self):
        return sum(s[0] for s in self.stats.values())
