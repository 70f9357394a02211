"""Desk-scale datasets: synthetic generators and an IDX image loader.

Both splits are normalized with statistics computed on the training
split only.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from sparselab.checkpoint import _read_exact


class FormatError(ValueError):
    """Malformed IDX payload."""


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int
    input_shape: tuple
    norm_mean: np.ndarray
    norm_std: np.ndarray
    teacher_params: dict | None = None


def _normalize(x_train, x_test):
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (x_train - mean) / std, (x_test - mean) / std, mean, std


def _spiral_points(n, k_classes, offset, noise, rng):
    xs, ys = [], []
    per = [n // k_classes + (1 if c < n % k_classes else 0) for c in range(k_classes)]
    for c, m in enumerate(per):
        t = (np.arange(m) + offset) / m
        r = 0.15 + 0.85 * t
        theta = 2.0 * np.pi * (1.25 * t + c / k_classes)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
        pts += noise * rng.normal(size=pts.shape)
        xs.append(pts)
        ys.append(np.full(m, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    return x, y


def _teacher_logits(x_flat, p):
    h = np.tanh(x_flat @ p["w1"] + p["b1"])
    return h @ p["w2"] + p["b2"]


def make_synthetic(name, n=512, k_classes=2, noise=0.1, seed=0, input_shape=None):
    """Deterministic synthetic dataset.

    ``spirals``: interleaved 2-D spiral arms, one per class, radii bounded
    away from the origin so noise=0 is separable by construction.
    ``teacher``: random inputs labeled by a frozen random network's argmax.
    """
    if k_classes < 2:
        raise ValueError(f"make_synthetic: need at least 2 classes, got {k_classes}")
    if n < 10 * k_classes:
        raise ValueError(f"make_synthetic: n={n} too small for {k_classes} classes (need >= {10 * k_classes})")
    rng = np.random.default_rng([seed, 4])
    n_test = max(n // 4, k_classes)

    if name == "spirals":
        x_train, y_train = _spiral_points(n, k_classes, 0.25, noise, rng)
        x_test, y_test = _spiral_points(n_test, k_classes, 0.75, noise, rng)
        shape = (2,)
        teacher = None
    elif name == "teacher":
        shape = tuple(input_shape) if input_shape else (16,)
        d = int(np.prod(shape))
        hidden = 32
        teacher = {
            "w1": rng.normal(size=(d, hidden)) * np.sqrt(2.0 / d),
            "b1": rng.normal(size=hidden) * 0.1,
            "w2": rng.normal(size=(hidden, k_classes)) * np.sqrt(2.0 / hidden),
            "b2": rng.normal(size=k_classes) * 0.1,
        }
        x_all = rng.normal(size=(n + n_test, *shape))
        y_all = _teacher_logits(x_all.reshape(len(x_all), -1), teacher).argmax(axis=1)
        x_train, y_train = x_all[:n], y_all[:n]
        x_test, y_test = x_all[n:], y_all[n:]
    else:
        raise ValueError(f"make_synthetic: unknown dataset {name!r}")

    x_train, x_test, mean, std = _normalize(x_train, x_test)
    return Dataset(x_train, y_train, x_test, y_test, k_classes, shape, mean, std,
                   teacher_params=teacher)


# ---------------------------------------------------------------------------
# IDX format (big-endian, magic 0x803 for images / 0x801 for labels)
# ---------------------------------------------------------------------------

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path, magic, kind, payload):
    """The uint8 array of an IDX file whose magic must be ``magic``: its low
    byte is the rank, and one big-endian u32 extent follows per axis."""
    with open(path, "rb") as fh:
        found, = struct.unpack(">I", _read_exact(fh, 4, "magic", path, FormatError))
        if found != magic:
            raise FormatError(f"{path}: bad {kind} magic 0x{found:08x} at byte offset 0")
        rank = magic & 0xFF
        shape = struct.unpack(f">{rank}I", _read_exact(fh, 4 * rank, "header", path, FormatError))
        raw = _read_exact(fh, math.prod(shape), payload, path, FormatError)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def _derive_labels_path(images_path):
    base = os.path.basename(images_path)
    if "images-idx3" in base:
        return os.path.join(os.path.dirname(images_path),
                            base.replace("images-idx3", "labels-idx1"))
    return None


def load_idx_images(path, labels_path=None, limit=None):
    """Load an IDX image/label pair as a Dataset.

    Pixels are scaled to [0,1] then normalized with train-split mean/std
    (scalars). The deterministic split keeps the last sixth for testing.
    """
    if labels_path is None:
        labels_path = _derive_labels_path(path)
        if labels_path is None:
            raise FormatError(f"{path}: cannot derive labels path; pass labels_path")
    x = _read_idx(path, IDX_IMAGES_MAGIC, "image", "pixel payload")[:, None]
    y = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", "label payload").astype(np.int64)
    if len(x) != len(y):
        raise FormatError(f"{path}: {len(x)} images but {len(y)} labels")
    if limit is not None:
        if limit < 0:
            raise ValueError(f"{path}: limit must be >= 0, got {limit}")
        x, y = x[:limit], y[:limit]
    if len(x) < 2:
        raise FormatError(f"{path}: need at least 2 examples, got {len(x)}")
    x = x.astype(np.float64) / 255.0
    n_test = max(int(round(len(x) * (1 / 6))), 1)
    n_train = len(x) - n_test
    x_train, x_test = x[:n_train], x[n_train:]
    mean = x_train.mean()
    std = x_train.std()
    std = std if std > 0 else 1.0
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std
    n_classes = int(y.max()) + 1
    return Dataset(x_train, y[:n_train], x_test, y[n_train:], n_classes,
                   tuple(x.shape[1:]), np.asarray(mean), np.asarray(std))
