import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdg import blob
from spdg.blob import read_blob, write_blob
from spdg.errors import FormatError


def test_round_trip_bit_exact(tmp_path, rng):
    arr = rng.normal(size=(5, 7))
    path = tmp_path / "t.spdg"
    write_blob(path, arr)
    back = read_blob(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_f32(tmp_path, rng):
    arr = rng.normal(size=(3, 2)).astype(np.float32)
    path = tmp_path / "t.spdg"
    write_blob(path, arr)
    back = read_blob(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_scalar_and_1d(tmp_path):
    for arr in (np.asarray(3.5), np.asarray([1.0, 2.0, 3.0])):
        path = tmp_path / "x.spdg"
        write_blob(path, arr)
        assert np.array_equal(read_blob(path), arr)


def test_truncated_blob_rejected(tmp_path, rng):
    path = tmp_path / "t.spdg"
    write_blob(path, rng.normal(size=(4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="size mismatch"):
        read_blob(path)


@pytest.mark.parametrize("arr", [
    np.arange(6.0).reshape(2, 3) / 7,
    np.arange(5, dtype=np.float32) / 3,
    np.asarray(-2.5),
    np.asarray(0.1, dtype=np.float32),
], ids=["f64", "f32", "rank0-f64", "rank0-f32"])
def test_exact_bytes(tmp_path, arr):
    path = tmp_path / "t.spdg"
    write_blob(path, arr)
    flag = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}[arr.dtype]
    header = b"SPDG" + struct.pack(f"<IBB{arr.ndim}Q", 1, flag, arr.ndim, *arr.shape)
    assert path.read_bytes() == header + arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    back = read_blob(path)
    assert (back.dtype, back.shape, back.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())


class _ShortReader(io.BufferedReader):
    """A file that hands back 8 bytes fewer than asked for on readinto."""

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer).cast("B")[:-8])


def test_short_read_rejected(tmp_path, rng, monkeypatch):
    path = tmp_path / "t.spdg"
    write_blob(path, rng.normal(size=(4, 4)))
    monkeypatch.setattr(blob, "open", lambda p, mode: _ShortReader(io.FileIO(p, mode)),
                        raising=False)
    with pytest.raises(FormatError, match="short read, 120 of 128 payload bytes"):
        read_blob(path)


def test_unallocatable_empty_shape_rejected(tmp_path):
    # a zero dimension makes the payload empty, but numpy cannot hold a 2**63 axis
    path = tmp_path / "t.spdg"
    path.write_bytes(b"SPDG" + struct.pack("<IBB2Q", 1, 0, 2, 0, 1 << 63))
    with pytest.raises(FormatError, match="cannot read blob"):
        read_blob(path)


def test_blob_cut_inside_header_rejected(tmp_path, rng):
    path = tmp_path / "t.spdg"
    write_blob(path, rng.normal(size=(2, 3, 4)))
    raw = path.read_bytes()
    header_end = 10 + 8 * 3
    for length in range(4, header_end + 1):
        path.write_bytes(raw[:length])
        with pytest.raises(FormatError):
            read_blob(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "t.spdg"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        read_blob(path)


def test_unknown_version_rejected(tmp_path, rng):
    path = tmp_path / "t.spdg"
    write_blob(path, rng.normal(size=3))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 999)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_blob(path)


def test_same_array_same_bytes(tmp_path, rng):
    arr = rng.normal(size=(6, 2))
    p1, p2 = tmp_path / "a.spdg", tmp_path / "b.spdg"
    write_blob(p1, arr)
    write_blob(p2, arr.copy())
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=30))
def test_round_trip_property(values):
    arr = np.asarray(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v.spdg"
        write_blob(path, arr)
        assert np.array_equal(read_blob(path), arr)
