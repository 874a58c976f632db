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
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError

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
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<BB", _FLAG_FOR[arr.dtype], arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def _read_bytes(path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read {what}: {exc.strerror or exc}") from exc


def read_blob(path) -> np.ndarray:
    raw = _read_bytes(path, "blob")
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < _FIXED_HEADER:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes")
    version, flag, rank = struct.unpack_from("<IBB", raw, 4)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported blob version {version}")
    if flag not in _DTYPE_FLAGS:
        raise FormatError(f"{path}: unknown dtype flag {flag}")
    dtype = _DTYPE_FLAGS[flag]
    offset = _FIXED_HEADER + 8 * rank
    if len(raw) < offset:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes for rank {rank}")
    shape = [int(dim) for dim in struct.unpack_from(f"<{rank}Q", raw, _FIXED_HEADER)]
    count = int(np.prod(shape)) if shape else 1
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, expected {expected} bytes for shape {tuple(shape)}, got {len(raw)}"
        )
    values = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return values.reshape(shape).astype(dtype.newbyteorder("="), copy=True)


def read_manifest(path, kind: str, version: int) -> dict:
    """Parse an artifact's manifest.json: a JSON object of the given format version."""
    raw = _read_bytes(path, f"{kind} manifest")
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
    """Turn a missing or mistyped manifest field read inside the block into a FormatError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed {kind} manifest: {type(exc).__name__}: {exc}") from exc
