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
        u8        kind: 0 = float32 array, 1 = bit-packed binary mask
        u8        ndim
        u32*ndim  dims
        u64       payload byte length
        ...       payload (float32 LE, or packed bits row-major)

Writes go to a temp file in the target directory and are renamed into
place, so a checkpoint on disk is never half-written.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .errors import FormatError

MAGIC = b"ATLT"
VERSION = 1
KIND_F32 = 0
KIND_MASK = 1


def save_checkpoint(path, manifest: dict, arrays: dict, masks: dict | None = None):
    masks = masks or {}
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blob += struct.pack("<Q", len(mbytes))
    blob += mbytes
    records = [(n, KIND_F32, a) for n, a in arrays.items()]
    records += [(n, KIND_MASK, m) for n, m in masks.items()]
    blob += struct.pack("<I", len(records))
    for name, kind, arr in records:
        nb = name.encode("utf-8")
        blob += struct.pack("<H", len(nb))
        blob += nb
        arr = np.asarray(arr)
        blob += struct.pack("<BB", kind, arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        if kind == KIND_F32:
            payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        else:
            payload = np.packbits(arr.reshape(-1).astype(bool)).tobytes()
        blob += struct.pack("<Q", len(payload))
        blob += payload
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf, self.off, self.path = buf, 0, path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise FormatError(f"truncated checkpoint {self.path} at byte {self.off}")
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path):
    """Returns (manifest, arrays, masks); masks are float32 {0,1} arrays."""
    with open(path, "rb") as f:
        r = _Reader(f.read(), path)
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
        payload = r.take(plen)
        size = math.prod(shape)
        # the declared length must match the shape before anything is allocated
        if kind == KIND_F32:
            expected = 4 * size
        elif kind == KIND_MASK:
            expected = -(-size // 8)
        else:
            raise FormatError(f"unknown record kind {kind} in {path}")
        if plen != expected:
            raise FormatError(f"record {name!r} in {path} has {plen} payload bytes, "
                              f"shape {shape} needs {expected}")
        if kind == KIND_F32:
            arrays[name] = np.frombuffer(payload, dtype="<f4", count=size).reshape(shape).copy()
        else:
            bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=size)
            masks[name] = bits.reshape(shape).astype(np.float32)
    return manifest, arrays, masks
