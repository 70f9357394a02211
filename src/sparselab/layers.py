"""Layer primitives and small trainable models.

Two families of desk-scale architectures are provided: a plain MLP stack
and a tiny residual conv net ("resnet-tiny": stem conv, three residual
blocks with stride-2 transitions, global average pool, classifier head).

Every shape-preserving conv/dense position, and both conv sub-blocks
inside each residual block, is enumerated as a *ghost skip site*: an
extra identity shortcut that can be gated in at runtime with a gain
``alpha`` and removed without residue (``alpha=0`` takes the exact same
code path as a model built without ghost sites).
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, fields

import numpy as np

from sparselab import autodiff as ad
from sparselab.checkpoint import CheckpointError

# Tiny eps: guards the zero-variance channel while keeping batchnorm
# exactly scale-equivariant to 1e-9 (weight rescaling must be absorbed).
BN_EPS = 1e-12
BN_MOMENTUM = 0.1

ACTIVATION_KINDS = ("relu", "pswish", "mish")
MODEL_KEYS = ("preset", "layers", "in_shape", "classes", "hidden", "channels")


class BuildError(ValueError):
    """Model description failed validation."""


@dataclass
class LayerSpec:
    kind: str                 # dense | conv3x3 | batchnorm | activation | residual_block | global_pool
    width: int = 0            # dense out features / conv out channels / block channels
    stride: int = 1
    activation: str = "relu"  # for activation layers
    has_native_skip: bool = True  # residual blocks only

    def __post_init__(self):
        for f in fields(self):      # exact types: "stride": true is not an int here
            if type(v := getattr(self, f.name)).__name__ != f.type:
                raise BuildError(f"layer {self.kind}: {f.name} must be {f.type}, got {v!r}")
        if self.stride not in (1, 2):
            raise BuildError(f"layer {self.kind}: stride must be 1 or 2, got {self.stride}")
        if self.kind == "activation" and self.activation not in ACTIVATION_KINDS:
            raise BuildError(f"unknown activation kind {self.activation!r}")


@dataclass
class ParamBlock:
    """Named trainable array with an optional binary mask; no optimiser state."""

    name: str
    kind: str                 # weight | bias | bn_scale | bn_shift
    value: np.ndarray
    group: str                # scale group: a layer's weight and bias share one
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)

    @property
    def maskable(self):
        return self.kind == "weight"


class ParamLayout:
    """Blocks laid end to end, in list order, as one flat float64 vector.

    The one owner of flat-vector order: names, shapes and offsets of the
    blocks, plus ``free_index``, the flat indices of the unmasked
    coordinates (every coordinate of a block without a mask).
    """

    def __init__(self, blocks):
        blocks = list(blocks)
        self.names = [b.name for b in blocks]
        self.shapes = [b.value.shape for b in blocks]
        self.offsets = np.cumsum([0] + [b.value.size for b in blocks])
        self.size = int(self.offsets[-1])
        live = [np.ones(b.value.size, dtype=bool) if b.mask is None else (b.mask > 0).ravel()
                for b in blocks]
        self.free_index = np.flatnonzero(np.concatenate(live)) if live else np.zeros(0, np.int64)

    def flatten(self, arrays):
        """One vector from a name -> array mapping (extra names ignored)."""
        if not self.names:
            return np.zeros(0)
        return np.concatenate([np.ravel(arrays[n]) for n in self.names])

    def unflatten(self, vec):
        """name -> array views into ``vec``, reshaped to each block."""
        return {n: vec[a:b].reshape(s)
                for n, s, a, b in zip(self.names, self.shapes, self.offsets, self.offsets[1:])}

    def free(self, arrays):
        """The unmasked coordinates of ``arrays`` as one vector."""
        return self.flatten(arrays)[self.free_index]

    def from_free(self, vec):
        """Full per-block arrays from a free vector; masked coordinates are 0.0.
        A complex128 vector (a complex-step point) gives complex arrays."""
        vec = np.asarray(vec)
        flat = np.zeros(self.size, dtype=np.result_type(vec.dtype, np.float64))
        flat[self.free_index] = vec
        return self.unflatten(flat)


@dataclass
class ForwardContext:
    training: bool = False
    activation: str | None = None   # runtime replacement for relu sites
    beta: float = 1.0
    alpha: float = 0.0
    update_stats: bool = False
    bn_passthrough: bool = False    # skip batchnorm entirely (synflow scoring)
    stats: dict = field(default_factory=dict)   # bn name -> (running_mean, running_var)
    observe: object = None          # observe(input, output) at each activation site


@dataclass
class ForwardResult:
    logits: ad.Tensor
    leaves: dict


def _apply_activation(t, kind, ctx, label):
    if kind == "relu" and ctx.activation is not None:
        kind = ctx.activation
    if kind == "relu":
        out = ad.relu(t, label=label)
    elif kind == "pswish":
        out = ad.pswish(t, ctx.beta, label=label)
    elif kind == "mish":
        out = ad.mish(t, label=label)
    else:
        raise BuildError(f"unknown activation kind {kind!r}")
    if ctx.observe is not None:     # the forward's own arrays: graphs are never mutated in place
        ctx.observe(t.data, out.data)
    return out


class _Dense:
    def __init__(self, name, in_dim, out_dim, flatten):
        self.name = name
        self.w = f"{name}.w"
        self.b = f"{name}.b"
        self.flatten = flatten
        self.ghost_site = (in_dim == out_dim) and not flatten

    def forward(self, x, ctx, P):
        if self.flatten:
            x = ad.reshape(x, (x.data.shape[0], -1), label=self.name)
        z = ad.add(ad.matmul(x, P[self.w], label=self.name), P[self.b], label=self.name)
        if self.ghost_site and ctx.alpha != 0.0:
            z = ad.add(z, ad.scale(x, ctx.alpha, label=self.name), label=self.name)
        return z


class _Conv:
    def __init__(self, name, stride, ghost_site):
        self.name = name
        self.w = f"{name}.w"
        self.b = f"{name}.b"
        self.stride = stride
        self.ghost_site = ghost_site

    def forward(self, x, ctx, P):
        z = ad.conv2d(x, P[self.w], P[self.b], stride=self.stride, label=self.name)
        if self.ghost_site and ctx.alpha != 0.0:
            z = ad.add(z, ad.scale(x, ctx.alpha, label=self.name), label=self.name)
        return z


class _BatchNorm:
    def __init__(self, name):
        self.name = name
        self.g = f"{name}.g"
        self.b = f"{name}.b"

    def forward(self, x, ctx, P):
        if ctx.bn_passthrough:
            return x
        out, mean, var = batchnorm_forward(x, P[self.g], P[self.b],
                                           "train" if ctx.training else "eval",
                                           *ctx.stats[self.name], label=self.name)
        if ctx.update_stats:
            ctx.stats[self.name] = (mean, var)
        return out


class _Activation:
    def __init__(self, name, kind):
        self.name = name
        self.kind = kind

    def forward(self, x, ctx, P):
        return _apply_activation(x, self.kind, ctx, self.name)


class _GlobalPool:
    def __init__(self, name):
        self.name = name

    def forward(self, x, ctx, P):
        return ad.global_avg_pool(x, label=self.name)


class _ResidualBlock:
    """conv-BN-act-conv-BN with a native identity skip added pre-final
    activation, plus two ghost sites (one around each conv+BN sub-block)."""

    def __init__(self, name, channels, has_native_skip, activation):
        self.name = name
        self.has_native_skip = has_native_skip
        self.activation = activation
        # the two conv sub-blocks are the ghost sites, not the convs themselves
        self.conv1 = _Conv(f"{name}.conv1", 1, ghost_site=False)
        self.conv2 = _Conv(f"{name}.conv2", 1, ghost_site=False)
        self.bn1 = _BatchNorm(f"{name}.bn1")
        self.bn2 = _BatchNorm(f"{name}.bn2")

    def forward(self, x, ctx, P):
        z1 = self.bn1.forward(self.conv1.forward(x, ctx, P), ctx, P)
        if ctx.alpha != 0.0:
            z1 = ad.add(z1, ad.scale(x, ctx.alpha, label=f"{self.name}.ghost1"), label=self.name)
        h1 = _apply_activation(z1, self.activation, ctx, f"{self.name}.act1")
        z2 = self.bn2.forward(self.conv2.forward(h1, ctx, P), ctx, P)
        if ctx.alpha != 0.0:
            z2 = ad.add(z2, ad.scale(h1, ctx.alpha, label=f"{self.name}.ghost2"), label=self.name)
        if self.has_native_skip:
            z2 = ad.add(z2, x, label=f"{self.name}.skip")
        return _apply_activation(z2, self.activation, ctx, f"{self.name}.act2")


class Model:
    """Ordered layers plus named parameter blocks and BN running stats.

    Forward rebuilds the autodiff graph on every call (tape style); the
    returned leaves carry gradients after ``backward`` on a loss built
    from the logits.
    """

    def __init__(self, layers, blocks, bn_stats, in_shape, n_classes):
        self.layers = layers
        self.blocks = blocks          # dict name -> ParamBlock (insertion ordered)
        self.bn_stats = bn_stats      # dict bn name -> (running_mean, running_var)
        self.in_shape = tuple(in_shape)
        self.n_classes = n_classes
        self.applied_scales = None    # ScaleSet once the trainer rescales the init

    # -- forward ------------------------------------------------------------

    def forward(self, x, *, training=False, activation=None, beta=1.0, alpha=0.0,
                update_stats=None, observe=None, bn_passthrough=False, values=None,
                grad=True):
        """Run the network on a batch.

        ``activation`` replaces every relu site at runtime ("ghost soft
        neurons"); ``alpha`` gates the ghost skip additions; ``values``
        optionally overrides parameter arrays without touching the model.
        ``grad=False`` makes the parameter leaves constants, so the forward
        records no tape and ``backward`` on its loss raises. ``observe(z, a)``
        is called at each activation site in order with its input and output:
        the forward's own arrays, not copies, which it must not write to.
        """
        if update_stats is None:
            update_stats = training
        ctx = ForwardContext(training=training, activation=activation, beta=beta,
                             alpha=alpha, update_stats=update_stats, observe=observe,
                             bn_passthrough=bn_passthrough, stats=self.bn_stats)
        P = {n: ad.Tensor((values or {}).get(n, b.value), requires_grad=grad, name=n)
             for n, b in self.blocks.items()}
        t = ad.Tensor(x)
        for layer in self.layers:
            t = layer.forward(t, ctx, P)
        return ForwardResult(logits=t, leaves=P)

    # -- bookkeeping ----------------------------------------------------------

    def param_count(self):
        return sum(b.value.size for b in self.blocks.values())

    def maskable_blocks(self):
        return [b for b in self.blocks.values() if b.maskable]

    def clone(self):
        out = Model(self.layers, deepcopy(self.blocks), deepcopy(self.bn_stats),
                    self.in_shape, self.n_classes)
        out.applied_scales = self.applied_scales
        return out

    @property
    def ghost_skip_sites(self):
        """Shape-preserving dense/conv layers and residual sub-blocks, in order."""
        sites = []
        for layer in self.layers:
            if isinstance(layer, _ResidualBlock):
                sites.extend([f"{layer.name}.ghost1", f"{layer.name}.ghost2"])
            elif isinstance(layer, (_Dense, _Conv)) and layer.ghost_site:
                sites.append(layer.name)
        return sites

    def activation_site_names(self):
        names = []
        for layer in self.layers:
            if isinstance(layer, _Activation):
                names.append(layer.name)
            elif isinstance(layer, _ResidualBlock):
                names.extend([f"{layer.name}.act1", f"{layer.name}.act2"])
        return names

    def state_dict(self):
        state = {n: b.value.copy() for n, b in self.blocks.items()}
        for n, b in self.blocks.items():
            if b.mask is not None:
                state[f"{n}.mask"] = b.mask.copy()
        for n, (m, v) in self.bn_stats.items():
            state[f"{n}.rmean"] = m.copy()
            state[f"{n}.rvar"] = v.copy()
        return state

    def load_state_dict(self, state):
        """Replace values, masks and BN statistics from ``state``, strictly.

        Every parameter block and BN statistic must be present with the
        model's shape, and no other name may appear. ``.mask`` entries are
        optional; a mask must be binary and every coordinate it masks must
        be 0.0. The model is left untouched unless the whole state is valid.
        """
        def take(name, shape):
            if name not in state:
                raise CheckpointError(f"state has no entry for {name}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != shape:
                raise CheckpointError(f"{name}: shape {arr.shape} in state, model has {shape}")
            return arr

        values, masks = {}, {}
        for n, b in self.blocks.items():
            values[n], masks[n] = take(n, b.value.shape), b.mask
            if f"{n}.mask" in state:
                masks[n] = take(f"{n}.mask", b.value.shape)
                if not np.all((masks[n] == 0.0) | (masks[n] == 1.0)):
                    raise CheckpointError(f"{n}.mask: mask is not binary")
            if masks[n] is not None and np.any(values[n][masks[n] == 0.0]):
                raise CheckpointError(f"{n}: nonzero value under mask 0")
        stats = {bn: (take(f"{bn}.rmean", m.shape), take(f"{bn}.rvar", v.shape))
                 for bn, (m, v) in self.bn_stats.items()}
        known = (set(values) | {f"{n}.mask" for n in values}
                 | {f"{bn}.{s}" for bn in stats for s in ("rmean", "rvar")})
        unknown = sorted(set(state) - known)
        if unknown:
            raise CheckpointError(f"state has unknown entries {unknown}")
        for n, b in self.blocks.items():
            b.value, b.mask = values[n], masks[n]
        self.bn_stats.update(stats)


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def preset_layers(preset, n_classes, hidden=(256, 256, 256), channels=(8, 16, 32)):
    """Layer list for a named preset architecture."""
    if preset == "mlp":
        layers = []
        for h in hidden:
            layers.append(LayerSpec("dense", width=h))
            layers.append(LayerSpec("activation"))
        layers.append(LayerSpec("dense", width=n_classes))
        return layers
    if preset == "resnet-tiny":
        layers = []
        strides = [1] + [2] * (len(channels) - 1)
        for ch, st in zip(channels, strides):
            layers.append(LayerSpec("conv3x3", width=ch, stride=st))
            layers.append(LayerSpec("batchnorm"))
            layers.append(LayerSpec("activation"))
            layers.append(LayerSpec("residual_block", width=ch))
        layers.append(LayerSpec("global_pool"))
        layers.append(LayerSpec("dense", width=n_classes))
        return layers
    raise BuildError(f"unknown preset {preset!r}")


def _conv_out(h, stride):
    return (h + 2 - 3) // stride + 1


def build_model(spec, seed=0):
    """Construct a Model from a structured description.

    ``spec`` keys (``MODEL_KEYS``): ``preset`` ("mlp" sized by ``hidden``, or
    "resnet-tiny" by ``channels``) or else ``layers`` (LayerSpecs/dicts), plus
    ``in_shape`` and ``classes``, all integers. Parameters: conv/dense weights
    are fan-in-scaled normal (std = sqrt(2/fan_in)), biases 0, BN gamma=1 beta=0.
    """
    if not spec:
        raise BuildError("empty model spec")
    if "in_shape" not in spec or "classes" not in spec:
        raise BuildError("model spec needs in_shape and classes")
    unknown = set(spec) - set(MODEL_KEYS)
    if unknown:
        raise BuildError(f"unknown model key(s) {sorted(unknown)}")
    lists = {k: spec[k] for k in ("in_shape", "hidden", "channels") if k in spec}
    for key, v in {**lists, "classes": [spec["classes"]]}.items():
        if not isinstance(v, (list, tuple)) or any(type(d) is not int for d in v):
            raise BuildError(f"model {key} takes integers only, got {spec[key]!r}")
    in_shape, n_classes = tuple(spec["in_shape"]), spec["classes"]
    if ("preset" in spec) == ("layers" in spec):
        raise BuildError("model spec needs a preset or a layers list, not both")
    sizes = {k: tuple(v) for k, v in lists.items() if k != "in_shape"}
    lspecs = (preset_layers(spec["preset"], n_classes, **sizes) if "preset" in spec else
              [ls if isinstance(ls, LayerSpec) else LayerSpec(**ls) for ls in spec["layers"]])
    preset = spec.get("preset", "a layers list")    # a known preset here, or no preset
    if unread := set(sizes) - {{"mlp": "hidden", "resnet-tiny": "channels"}.get(preset)}:
        raise BuildError(f"model {sorted(unread)} cannot size {preset!r}")
    if not lspecs:
        raise BuildError("empty layer list")

    rng = np.random.default_rng(seed)
    layers, blocks, bn_stats = [], {}, {}
    shape = in_shape

    def add_block(name, kind, value, group):
        blocks[name] = ParamBlock(name, kind, value, group)

    def make_conv(name, in_ch, out_ch, stride):
        w = rng.normal(size=(out_ch, in_ch, 3, 3)) * np.sqrt(2.0 / (in_ch * 9))
        add_block(f"{name}.w", "weight", w, name)
        add_block(f"{name}.b", "bias", np.zeros(out_ch), name)
        return _Conv(name, stride, ghost_site=in_ch == out_ch and stride == 1)

    def make_bn(name, dim):
        add_block(f"{name}.g", "bn_scale", np.ones(dim), name)
        add_block(f"{name}.b", "bn_shift", np.zeros(dim), name)
        bn_stats[name] = (np.zeros(dim), np.ones(dim))
        return _BatchNorm(name)

    for i, ls in enumerate(lspecs):
        name = f"L{i:02d}.{ls.kind}"
        if ls.kind == "dense":
            flat_in = int(np.prod(shape))
            flatten = len(shape) > 1
            w = rng.normal(size=(flat_in, ls.width)) * np.sqrt(2.0 / flat_in)
            add_block(f"{name}.w", "weight", w, name)
            add_block(f"{name}.b", "bias", np.zeros(ls.width), name)
            layer = _Dense(name, flat_in, ls.width, flatten)
            shape = (ls.width,)
        elif ls.kind == "conv3x3":
            if len(shape) != 3:
                raise BuildError(f"layer {i} ({ls.kind}): needs (C,H,W) input, has {shape}")
            layer = make_conv(name, shape[0], ls.width, ls.stride)
            shape = (ls.width, _conv_out(shape[1], ls.stride), _conv_out(shape[2], ls.stride))
        elif ls.kind == "batchnorm":
            layer = make_bn(name, shape[0])
        elif ls.kind == "activation":
            layer = _Activation(name, ls.activation)
        elif ls.kind == "residual_block":
            if len(shape) != 3:
                raise BuildError(f"layer {i} ({ls.kind}): needs (C,H,W) input, has {shape}")
            if shape[0] != ls.width:
                raise BuildError(
                    f"layer {i} ({ls.kind}): native skip needs {ls.width} input channels, has {shape[0]}"
                )
            layer = _ResidualBlock(name, ls.width, ls.has_native_skip, ls.activation)
            for conv, bn in ((layer.conv1, layer.bn1), (layer.conv2, layer.bn2)):
                make_conv(conv.name, ls.width, ls.width, 1)
                make_bn(bn.name, ls.width)
        elif ls.kind == "global_pool":
            if len(shape) != 3:
                raise BuildError(f"layer {i} ({ls.kind}): needs (C,H,W) input, has {shape}")
            layer = _GlobalPool(name)
            shape = (shape[0],)
        else:
            raise BuildError(f"layer {i}: unknown kind {ls.kind!r}")
        layers.append(layer)

    if shape != (n_classes,):
        raise BuildError(f"network output shape {shape} does not match classes {n_classes}")
    return Model(layers, blocks, bn_stats, in_shape, n_classes)


# ---------------------------------------------------------------------------
# standalone contract helpers
# ---------------------------------------------------------------------------

def batchnorm_forward(x, gamma, beta_shift, mode, running_mean, running_var,
                      momentum=BN_MOMENTUM, eps=BN_EPS, label=""):
    """Batch normalization with explicit mode and running statistics.

    Returns ``(out, new_running_mean, new_running_var)``; the inputs are
    never mutated. Train mode normalizes by batch statistics and folds
    them into the running stats; eval mode uses the running stats. Every
    batchnorm layer runs through here; ``label`` names it in op errors.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm_forward: mode must be train or eval, got {mode!r}")
    rm = np.asarray(running_mean, dtype=np.float64)
    rv = np.asarray(running_var, dtype=np.float64)
    if mode == "train":
        out, mean, var = ad.batchnorm_train(x, gamma, beta_shift, eps=eps, label=label)
        return out, (1 - momentum) * rm + momentum * mean, (1 - momentum) * rv + momentum * var
    return ad.batchnorm_eval(x, gamma, beta_shift, rm, rv, eps=eps, label=label), rm, rv
