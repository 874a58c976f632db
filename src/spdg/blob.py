"""Binary tensor blob format and manifest reading shared by checkpoints, bundles and datasets.

Layout, all little-endian:
    magic   4 bytes  b"SPDG"
    version u32      currently 1
    dtype   u8       0 = float64, the one dtype a blob holds
    rank    u8
    dims    rank * u64
    values  raw little-endian values, row-major
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


def write_blob(path, array: np.ndarray) -> None:
    # keep rank-0 as rank-0 (ascontiguousarray would promote it to 1-d)
    arr = np.asarray(array, order="C")
    if arr.dtype != np.float64:
        raise FormatError(f"a blob holds float64 values, got {arr.dtype}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sIBB{arr.ndim}Q", MAGIC, FORMAT_VERSION, 0, arr.ndim, *arr.shape))
        fh.write(memoryview(arr.astype("<f8", copy=False)))


def write_json(path, payload) -> None:
    """Write payload as sorted, indented JSON, creating path's directory first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def check_out_dir(path) -> Path:
    """path, once it or its nearest existing ancestor is a directory for the writers to fill."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"out_dir {path} cannot be a directory: {existing} is not a directory")
    return path


def unreadable(path, what: str, exc: Exception) -> FormatError:
    return FormatError(f"{path}: cannot read {what}: {getattr(exc, 'strerror', None) or exc}")


def read_blob(path) -> np.ndarray:
    """The blob's float64 array, read straight into its buffer once the header and
    file size check out."""
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
            if flag != 0:
                raise FormatError(f"{path}: unknown dtype flag {flag}, a blob holds float64 (flag 0)")
            dims = fh.read(8 * rank)
            if len(dims) < 8 * rank:
                raise FormatError(f"{path}: truncated header, {size} bytes for rank {rank}")
            shape = struct.unpack(f"<{rank}Q", dims)
            expected = _FIXED_HEADER + 8 * rank + 8 * math.prod(shape)  # u64 dims, f64 values
            if size != expected:
                raise FormatError(f"{path}: payload size mismatch, expected {expected} bytes "
                                  f"for shape {shape}, got {size}")
            values = np.empty(shape, "<f8")
            got = fh.readinto(values)
    except (OSError, ValueError) as exc:  # ValueError: a shape numpy cannot allocate
        raise unreadable(path, "blob", exc) from exc
    if got != values.nbytes:
        raise FormatError(f"{path}: short read, {got} of {values.nbytes} payload bytes")
    return values.astype(np.float64, copy=False)


def read_manifest(path, kind: str, version: int, remedy: str = "") -> dict:
    """Parse an artifact's manifest.json: a JSON object of the given format version;
    remedy ends the message for any other version."""
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
        raise FormatError(f"{path}: unsupported {kind} format_version "
                          f"{manifest.get('format_version')!r}, this build reads {version}{remedy}")
    return manifest


@contextmanager
def manifest_fields(path, kind: str):
    """Turn a missing, mistyped or out-of-range manifest field read inside the block,
    or an artifact its constructor refuses there, into a FormatError naming path."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise FormatError(f"{path}: malformed {kind}: {type(exc).__name__}: {exc}") from exc
