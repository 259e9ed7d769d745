"""Dependency-free checkpoint container.

Layout (all integers little-endian):

    4 bytes   magic "ATLT"
    u32       container version (currently 1)
    u64       manifest byte length
    ...       manifest: UTF-8 JSON with sorted keys (the run manifest)
    u32       record count
    per record:
        u16       name byte length
        ...       name, UTF-8
        u8        kind: 0 = float32 array, 1 = bit-packed bool mask
        u8        ndim
        u32*ndim  dims
        u64       payload byte length
        ...       payload (float32 LE, or packed bits row-major)

Every output file (checkpoints, metrics CSVs) is written to `<path>.tmp`
and renamed into place by `atomic_write`, so a file on disk is never
half-written; a failed write removes the temp file. Both directions
stream record by record: `save_checkpoint` writes each array's bytes
from the array itself, and `load_checkpoint` reads each float payload
straight into a freshly allocated array, so neither holds a copy of the
whole file. The reader checks every declared length against the bytes
left in the file before reading or allocating anything, and rejects a
manifest that is not a JSON object, a record name given twice within a
kind, and bytes after the last record.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import FormatError

MAGIC = b"ATLT"
VERSION = 1
KIND_F32 = 0
KIND_MASK = 1


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb"):
    """`<path>.tmp` open for writing (mode 0666 less the umask), renamed
    onto `path` when the block ends and removed if it raises."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(path, manifest: dict, arrays: dict, masks: dict | None = None):
    records = [(n, KIND_F32, a) for n, a in arrays.items()]
    records += [(n, KIND_MASK, m) for n, m in (masks or {}).items()]
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC + struct.pack("<IQ", VERSION, len(mbytes)) + mbytes)
        f.write(struct.pack("<I", len(records)))
        for name, kind, arr in records:
            arr = np.asarray(arr)
            if kind == KIND_F32:
                payload = _raw_bytes(np.ascontiguousarray(arr, dtype="<f4"))
            else:
                payload = np.packbits(arr.reshape(-1).astype(bool))
            nb = name.encode("utf-8")
            f.write(struct.pack(f"<H{len(nb)}sBB{arr.ndim}IQ", len(nb), nb, kind, arr.ndim,
                                *arr.shape, payload.nbytes))
            f.write(payload)


def _raw_bytes(arr: np.ndarray) -> np.ndarray:
    """A flat byte view of a contiguous array (zero-size and 0-d arrays too)."""
    return arr.reshape(-1).view(np.uint8)


def _shaped(flat: np.ndarray, shape, path) -> np.ndarray:
    try:
        return flat.reshape(shape)
    except ValueError as e:  # more dims than numpy allows, or a size it cannot index
        raise FormatError(f"checkpoint {path} declares a shape numpy cannot make: {shape}") from e


class _Reader:
    """Reads a checkpoint file field by field. Every length is checked
    against the bytes left in the file before anything of that length is
    read or allocated."""

    def __init__(self, f, path):
        self.f, self.path = f, path
        self.left = os.fstat(f.fileno()).st_size

    def _claim(self, n: int):
        if n > self.left:
            raise FormatError(f"truncated checkpoint {self.path} at byte {self.f.tell()}: "
                              f"{n} bytes needed, {self.left} left")
        self.left -= n

    def take(self, n: int) -> bytes:
        self._claim(n)
        out = self.f.read(n)
        if len(out) != n:
            raise FormatError(f"checkpoint {self.path} changed size while being read")
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_f32(self, shape) -> np.ndarray:
        """A float32 array of `shape`, read straight into its own memory."""
        size = math.prod(shape)
        self._claim(4 * size)
        arr = _shaped(np.empty(size, dtype="<f4"), shape, self.path)
        if self.f.readinto(_raw_bytes(arr)) != arr.nbytes:
            raise FormatError(f"checkpoint {self.path} changed size while being read")
        return arr


def load_checkpoint(path):
    """Returns (manifest, arrays, masks); masks are bool arrays."""
    with open(path, "rb") as f:
        r = _Reader(f, path)
        if r.take(4) != MAGIC:
            raise FormatError(f"{path} is not a checkpoint (bad magic)")
        (version,) = r.unpack("<I")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (mlen,) = r.unpack("<Q")
        try:
            manifest = json.loads(r.take(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"corrupt manifest in {path}: {e}") from e
        if not isinstance(manifest, dict):
            raise FormatError(f"the manifest in {path} is not a JSON object")
        (count,) = r.unpack("<I")
        arrays, masks = {}, {}
        for _ in range(count):
            (nlen,) = r.unpack("<H")
            try:
                name = r.take(nlen).decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"corrupt record name in {path}: {e}") from e
            kind, ndim = r.unpack("<BB")
            shape = r.unpack(f"<{ndim}I")
            (plen,) = r.unpack("<Q")
            size = math.prod(shape)
            # the declared length must match the shape before anything is allocated
            if kind == KIND_F32:
                expected = 4 * size
            elif kind == KIND_MASK:
                expected = -(-size // 8)
            else:
                raise FormatError(f"unknown record kind {kind} in {path}")
            if name in (arrays if kind == KIND_F32 else masks):
                raise FormatError(f"record {name!r} appears twice in {path}")
            if plen != expected:
                raise FormatError(f"record {name!r} in {path} has {plen} payload bytes, "
                                  f"shape {shape} needs {expected}")
            if kind == KIND_F32:
                arrays[name] = r.take_f32(shape)
            else:
                bits = np.unpackbits(np.frombuffer(r.take(plen), dtype=np.uint8), count=size)
                masks[name] = _shaped(bits.view(bool), shape, path)
        if r.left:
            raise FormatError(f"checkpoint {path} has {r.left} bytes after its last record")
    return manifest, arrays, masks
