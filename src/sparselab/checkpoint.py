"""Flat binary parameter container.

Layout (all integers little-endian):
    magic   5 bytes  b"SPLB1"
    version u32
    then per-block records until EOF:
        name length u16, name bytes (utf-8), rank u8, extents u32 each,
        payload (f64 little-endian; u8 for blocks named *.mask)

Masks ride alongside parameters as u8 blocks suffixed ".mask".
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

MAGIC = b"SPLB1"
VERSION = 1


class CheckpointError(ValueError):
    """Malformed checkpoint container."""


@contextlib.contextmanager
def atomic_open(path, mode, **kwargs):
    """Write ``path`` all at once or not at all.

    The caller writes a sibling ``<path>.tmp``, which replaces ``path``
    only when the block finishes; on an exception the temp file is
    removed and an existing ``path`` keeps its bytes.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_blocks(path, blocks):
    """Write named arrays, atomically; iteration order of ``blocks`` is preserved."""
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name, arr in blocks.items():
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(arr)
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for ext in arr.shape:
                fh.write(struct.pack("<I", ext))
            if name.endswith(".mask"):
                fh.write(arr.astype(np.uint8).tobytes())
            else:
                fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, count, what, path, error=CheckpointError):
    """``count`` bytes of ``fh``, or ``error`` naming ``what`` and where it ends."""
    data = fh.read(count)
    if len(data) != count:
        raise error(f"{path}: truncated {what} at byte offset {fh.tell() - len(data)}")
    return data


def load_blocks(path):
    """Read every block record; returns dict name -> float64 array."""
    blocks = {}
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 5, "magic", path)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        version, = struct.unpack("<I", _read_exact(fh, 4, "version", path))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        while True:
            head = fh.read(2)
            if not head:
                break
            if len(head) != 2:
                raise CheckpointError(f"{path}: truncated record header at byte offset {fh.tell() - len(head)}")
            nlen, = struct.unpack("<H", head)
            name = _read_exact(fh, nlen, "name", path).decode("utf-8")
            rank, = struct.unpack("<B", _read_exact(fh, 1, "rank", path))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "extent", path))[0]
                          for _ in range(rank))
            size = int(np.prod(shape)) if shape else 1
            if name.endswith(".mask"):
                raw = _read_exact(fh, size, "mask payload", path)
                arr = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
            else:
                raw = _read_exact(fh, 8 * size, "payload", path)
                arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            blocks[name] = arr.reshape(shape)
    return blocks


def save_model(path, model):
    save_blocks(path, model.state_dict())


def load_into_model(path, model):
    model.load_state_dict(load_blocks(path))
    return model
