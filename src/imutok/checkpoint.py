"""Self-describing binary checkpoint ("MJC1"): a flat meta block, a named
array table, and two digests (config digest over the meta block, payload
digest over the table) so that corruption and config tampering are caught
at load time.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DigestMismatch, FormatError

CHECKPOINT_MAGIC = b"MJC1"
VERSION = 1

_DTYPE_CODES = {0: "<f4", 1: "<f8", 2: "<i8"}
_DTYPE_BY_KIND = {np.dtype("float32"): 0, np.dtype("float64"): 1, np.dtype("int64"): 2}


@dataclass
class Checkpoint:
    meta: dict
    arrays: dict

    @property
    def kind(self) -> str:
        return self.meta.get("kind", "")


def _encode_meta(meta: dict) -> bytes:
    lines = [f"{k} = {meta[k]}" for k in sorted(meta)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _decode_meta(blob: bytes) -> dict:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("checkpoint meta block is not UTF-8") from None
    meta = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        meta[key] = value
    return meta


def save_checkpoint(path, meta: dict, arrays: dict) -> None:
    """Every array is checked before ``path`` is opened, so a failed save
    leaves the file already there as it was."""
    meta_blob = _encode_meta({k: str(v) for k, v in meta.items()})
    table = []
    for name, value in arrays.items():
        arr = np.ascontiguousarray(value)
        if arr.dtype not in _DTYPE_BY_KIND:
            raise FormatError(f"unsupported checkpoint dtype {arr.dtype} for {name}")
        code, name_b = _DTYPE_BY_KIND[arr.dtype], name.encode("utf-8")
        header = struct.pack("<H", len(name_b)) + name_b
        header += struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
        table.append((header, arr.astype(_DTYPE_CODES[code], copy=False)))
    payload_hash = hashlib.sha256()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", CHECKPOINT_MAGIC, VERSION))
        fh.write(struct.pack("<I", len(meta_blob)))
        fh.write(meta_blob)
        fh.write(hashlib.sha256(meta_blob).digest())
        fh.write(struct.pack("<I", len(arrays)))
        for header, arr in table:
            for part in (header, arr.tobytes()):
                fh.write(part)
                payload_hash.update(part)
        fh.write(payload_hash.digest())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def grab(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError("truncated checkpoint")
        out = blob[off:off + n]
        off += n
        return out

    magic, version = struct.unpack("<4sI", grab(8))
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", grab(4))
    meta_blob = grab(meta_len)
    stored_cfg = grab(32)
    if hashlib.sha256(meta_blob).digest() != stored_cfg:
        raise DigestMismatch("config digest does not match the meta block")
    (count,) = struct.unpack("<I", grab(4))
    arrays = {}
    table_start = off
    for _ in range(count):
        (name_len,) = struct.unpack("<H", grab(2))
        try:
            name = grab(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("array name is not UTF-8") from None
        dtype_code, ndim = struct.unpack("<BB", grab(2))
        if dtype_code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {dtype_code}")
        shape = struct.unpack(f"<{ndim}I", grab(4 * ndim))
        dtype = np.dtype(_DTYPE_CODES[dtype_code])
        data = grab(math.prod(shape) * dtype.itemsize)
        try:
            arrays[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        except ValueError as exc:
            raise FormatError(f"array {name!r} has an unusable shape {shape}: {exc}") from None
    table = memoryview(blob)[table_start:off]
    stored_payload = grab(32)
    if off != len(blob):
        raise FormatError("trailing bytes after checkpoint payload")
    if hashlib.sha256(table).digest() != stored_payload:
        raise DigestMismatch("payload digest mismatch (corrupted array table)")
    return Checkpoint(meta=_decode_meta(meta_blob), arrays=arrays)


def arrays_digest(arrays: dict, prefix: str = "") -> bytes:
    """Digest of a named subset of arrays; used to verify parameter freezing."""
    h = hashlib.sha256()
    for name in sorted(arrays):
        if not name.startswith(prefix):
            continue
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(np.asarray(arr.shape, dtype="<i8").tobytes())
        h.update(arr.tobytes())
    return h.digest()


def arrays_equal(a: dict, b: dict) -> bool:
    """Whether two named array sets hold the same names and, under each, the
    same dtype, shape and bytes: what equal ``arrays_digest`` values show,
    found without hashing."""
    if a.keys() != b.keys():
        return False
    for name in a:
        x, y = np.asarray(a[name]), np.asarray(b[name])
        if x.dtype != y.dtype or x.shape != y.shape or x.tobytes() != y.tobytes():
            return False
    return True
