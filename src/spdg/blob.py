"""Binary tensor blob format and manifest reading shared by checkpoints, bundles and datasets.

Layout, all little-endian:
    magic   4 bytes  b"SPDG"
    version u32      currently 1
    dtype   u8       0 = float64, 1 = float32
    rank    u8
    dims    rank * u64
    values  raw little-endian floats, row-major
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError

MAGIC = b"SPDG"
FORMAT_VERSION = 1
_FIXED_HEADER = 10  # magic, version, dtype flag, rank

_DTYPE_FLAGS = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_FLAG_FOR = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}


def write_blob(path, array: np.ndarray) -> None:
    # keep rank-0 as rank-0 (ascontiguousarray would promote it to 1-d)
    arr = np.asarray(array, order="C")
    if arr.dtype not in _FLAG_FOR:
        raise FormatError(f"blob supports float64/float32, got {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sIBB{arr.ndim}Q", MAGIC, FORMAT_VERSION, _FLAG_FOR[arr.dtype],
                             arr.ndim, *arr.shape))
        fh.write(memoryview(arr.astype(arr.dtype.newbyteorder("<"), copy=False)))


def unreadable(path, what: str, exc: Exception) -> FormatError:
    return FormatError(f"{path}: cannot read {what}: {getattr(exc, 'strerror', None) or exc}")


def read_blob(path) -> np.ndarray:
    """The blob's array, read straight into its buffer once the header and file size check out."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_FIXED_HEADER)
            if head[:4] != MAGIC:
                raise FormatError(f"{path}: bad magic {head[:4]!r}")
            if len(head) < _FIXED_HEADER:
                raise FormatError(f"{path}: truncated header, {size} bytes")
            version, flag, rank = struct.unpack_from("<IBB", head, 4)
            if version != FORMAT_VERSION:
                raise FormatError(f"{path}: unsupported blob version {version}")
            if flag not in _DTYPE_FLAGS:
                raise FormatError(f"{path}: unknown dtype flag {flag}")
            dtype = _DTYPE_FLAGS[flag]
            dims = fh.read(8 * rank)
            if len(dims) < 8 * rank:
                raise FormatError(f"{path}: truncated header, {size} bytes for rank {rank}")
            shape = struct.unpack(f"<{rank}Q", dims)
            expected = _FIXED_HEADER + 8 * rank + math.prod(shape) * dtype.itemsize
            if size != expected:
                raise FormatError(f"{path}: payload size mismatch, expected {expected} bytes "
                                  f"for shape {shape}, got {size}")
            values = np.empty(shape, dtype)
            got = fh.readinto(values)
    except (OSError, ValueError) as exc:  # ValueError: a shape numpy cannot allocate
        raise unreadable(path, "blob", exc) from exc
    if got != values.nbytes:
        raise FormatError(f"{path}: short read, {got} of {values.nbytes} payload bytes")
    return values.astype(dtype.newbyteorder("="), copy=False)


def read_manifest(path, kind: str, version: int) -> dict:
    """Parse an artifact's manifest.json: a JSON object of the given format version."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise unreadable(path, f"{kind} manifest", exc) from exc
    try:
        manifest = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise FormatError(f"{path}: {kind} manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: {kind} manifest must be a JSON object")
    if manifest.get("format_version") != version:
        raise FormatError(f"unsupported {kind} format_version {manifest.get('format_version')}")
    return manifest


@contextmanager
def manifest_fields(path, kind: str):
    """Turn a missing, mistyped or out-of-range manifest field read inside the block
    into a FormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed {kind} manifest: {type(exc).__name__}: {exc}") from exc
