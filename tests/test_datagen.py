import csv
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import rowwise_labels_csv, rowwise_read_labels
from spdg import datagen
from spdg.errors import ConfigError, FormatError

# A dataset saved with these arguments when labels.csv was written one
# csv.writer row at a time; save must still reproduce it byte for byte. Its
# names need csv quoting (comma, double quote) or UTF-8 (non-ASCII letters).
GOLDEN = Path(__file__).parent / "data" / "golden_dataset"
GOLDEN_KWARGS = dict(n_per_cell=10, d_x=4, seed=7,
                     classes=["hot dog", "salt, pepper", 'say "cheese"', "crème brûlée"],
                     domains=["photo", "cartoon", "sketch", "clip art"])
DATASET_FILES = ["manifest.json", "samples.spdg", "labels.csv"]

# dataset seed where a least-squares probe shows a clear transfer gap; the
# shift property is a seeded-fixture claim, not a universal one
PROBE_SEED = 12
PROBE_DOMAIN = "photo"


def test_determinism_same_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    datagen.save(datagen.generate(n_per_cell=10, seed=5), d1)
    datagen.save(datagen.generate(n_per_cell=10, seed=5), d2)
    for name in DATASET_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_golden_dataset_bytes(tmp_path):
    datagen.save(datagen.generate(**GOLDEN_KWARGS), tmp_path / "d")
    for name in DATASET_FILES:
        assert (tmp_path / "d" / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _assert_same_dataset(back, ds):
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.class_ids, ds.class_ids)
    assert np.array_equal(back.domain_ids, ds.domain_ids)
    assert back.manifest == ds.manifest


def test_golden_dataset_round_trip():
    _assert_same_dataset(datagen.load(GOLDEN), datagen.generate(**GOLDEN_KWARGS))


def test_cell_counts_exact():
    ds = datagen.generate(n_per_cell=11, seed=0)
    for c in range(len(ds.classes)):
        for d in range(len(ds.domains)):
            assert ((ds.class_ids == c) & (ds.domain_ids == d)).sum() == 11


def test_no_shift_no_noise_equals_prototypes():
    ds = datagen.generate(n_per_cell=10, style_strength=0.0, noise_std=0.0, seed=3)
    for c in range(len(ds.classes)):
        rows = ds.x[ds.class_ids == c]
        assert np.allclose(rows, rows[0], atol=1e-12)
        assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-12)


def test_no_shift_domains_identically_placed():
    # with the transform off, per-class domain centroids differ only by noise
    flat = datagen.generate(n_per_cell=60, style_strength=0.0, seed=3)
    shifted = datagen.generate(n_per_cell=60, style_strength=0.8, seed=3)

    def centroid_spread(ds):
        dists = []
        for c in range(len(ds.classes)):
            cents = [ds.x[(ds.class_ids == c) & (ds.domain_ids == d)].mean(axis=0)
                     for d in range(len(ds.domains))]
            dists += [np.linalg.norm(cents[i] - cents[j])
                      for i in range(len(cents)) for j in range(i + 1, len(cents))]
        return float(np.mean(dists))

    assert centroid_spread(flat) < 0.2
    assert centroid_spread(shifted) > 5 * centroid_spread(flat)


def test_between_domain_exceeds_within_domain(fixture_dataset):
    ds = fixture_dataset
    between, within = [], []
    for c in range(len(ds.classes)):
        cents = [ds.x[(ds.class_ids == c) & (ds.domain_ids == d)].mean(axis=0)
                 for d in range(len(ds.domains))]
        between += [np.linalg.norm(cents[i] - cents[j])
                    for i in range(len(cents)) for j in range(i + 1, len(cents))]
        within += [float(np.linalg.norm(
            ds.x[(ds.class_ids == c) & (ds.domain_ids == d)] - cents[d], axis=1).mean())
            for d in range(len(ds.domains))]
    assert np.mean(between) > np.mean(within)


def test_linear_probe_transfer_gap():
    ds = datagen.generate(seed=PROBE_SEED)
    held = ds.domains.index(PROBE_DOMAIN)
    rng = np.random.default_rng(0)
    train_idx = np.where(ds.domain_ids != held)[0]
    rng.shuffle(train_idx)
    n_tr = int(0.9 * len(train_idx))
    tr, va = train_idx[:n_tr], train_idx[n_tr:]
    x_aug = np.hstack([ds.x, np.ones((len(ds), 1))])
    onehot = np.eye(len(ds.classes))[ds.class_ids]
    w, *_ = np.linalg.lstsq(x_aug[tr], onehot[tr], rcond=None)

    def acc(sel):
        return float((np.argmax(x_aug[sel] @ w, axis=1) == ds.class_ids[sel]).mean())

    held_in, held_out = acc(va), acc(np.where(ds.domain_ids == held)[0])
    assert held_out < held_in - 0.05


def test_round_trip_bit_exact(tmp_path):
    ds = datagen.generate(n_per_cell=10, seed=9)
    datagen.save(ds, tmp_path / "d")
    _assert_same_dataset(datagen.load(tmp_path / "d"), ds)


def test_truncated_blob_rejected(tmp_path):
    ds = datagen.generate(n_per_cell=10, seed=9)
    datagen.save(ds, tmp_path / "d")
    blob = tmp_path / "d" / "samples.spdg"
    blob.write_bytes(blob.read_bytes()[:-16])
    with pytest.raises(FormatError):
        datagen.load(tmp_path / "d")


def test_unknown_version_rejected(tmp_path):
    ds = datagen.generate(n_per_cell=10, seed=9)
    datagen.save(ds, tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    raw = json.loads(manifest_path.read_text())
    raw["format_version"] = 999
    manifest_path.write_text(json.dumps(raw))
    with pytest.raises(FormatError, match="format_version"):
        datagen.load(tmp_path / "d")


def test_unhashable_manifest_names_rejected(tmp_path):
    datagen.save(datagen.generate(n_per_cell=10, seed=9), tmp_path / "d")
    manifest_path = tmp_path / "d" / "manifest.json"
    raw = json.loads(manifest_path.read_text())
    raw["classes"] = [[name] for name in raw["classes"]]
    manifest_path.write_text(json.dumps(raw))
    with pytest.raises(FormatError, match="malformed dataset manifest"):
        datagen.load(tmp_path / "d")


def _saved_with_label_lines(tmp_path, edit):
    datagen.save(datagen.generate(n_per_cell=10, seed=9), tmp_path / "d")
    labels = tmp_path / "d" / "labels.csv"
    lines = labels.read_text().splitlines()
    edit(lines)
    labels.write_text("\n".join(lines) + "\n")
    return tmp_path / "d"


def test_labels_csv_repeated_index_rejected(tmp_path):
    def repeat_first_row(lines):
        # index 1 goes missing while the row count stays right
        lines[2] = lines[1]
    with pytest.raises(FormatError, match="repeats index 0"):
        datagen.load(_saved_with_label_lines(tmp_path, repeat_first_row))


def test_labels_csv_non_integer_index_rejected(tmp_path):
    def spoil_index(lines):
        lines[3] = "two" + lines[3][1:]
    with pytest.raises(FormatError, match="not an integer"):
        datagen.load(_saved_with_label_lines(tmp_path, spoil_index))


def test_labels_csv_short_row_rejected(tmp_path):
    def drop_domain(lines):
        lines[4] = lines[4].rsplit(",", 1)[0]
    with pytest.raises(FormatError, match="3 fields"):
        datagen.load(_saved_with_label_lines(tmp_path, drop_domain))


def _faulty(fields: list, kind: str):
    """A labels.csv row's fields with one fault of ``kind``, and the message it gets."""
    i, cls, dom = fields
    return {
        "field count": ([i, cls], f"labels.csv row needs 3 fields, got {[i, cls]}"),
        "non-integer": ([i + "x", cls, dom], f"labels.csv index '{i}x' is not an integer"),
        "out of range": (["1000000", cls, dom], "labels.csv index 1000000 out of range"),
        "int64 overflow": ([str(10**20), cls, dom], f"labels.csv index {10**20} out of range"),
        "repeat": ([str(int(i) - 1), cls, dom], f"labels.csv repeats index {int(i) - 1}"),
        "unknown names": ([i, cls, "pastel"],
                          f"labels.csv names unknown to manifest: {[i, cls, 'pastel']}"),
    }[kind]


ROW_FAULTS = ["field count", "non-integer", "out of range", "int64 overflow", "repeat",
              "unknown names"]


@pytest.mark.parametrize("chunk", [512, 7])
@pytest.mark.parametrize("late", ROW_FAULTS + ["row count"])
@pytest.mark.parametrize("early", ROW_FAULTS)
def test_labels_csv_earliest_fault_reported(tmp_path, monkeypatch, early, late, chunk):
    # chunk 7 puts the two faulty rows in different parse chunks
    monkeypatch.setattr(datagen, "_LABELS_CHUNK", chunk)
    messages = []

    def spoil_rows_40_and_120(lines):
        for row, kind in ((40, early), (120, late)):
            if kind == "row count":
                del lines[-1]
                continue
            fields, message = _faulty(lines[row + 1].split(","), kind)
            lines[row + 1] = ",".join(fields)
            messages.append(message)
    directory = _saved_with_label_lines(tmp_path, spoil_rows_40_and_120)
    with pytest.raises(FormatError) as err:
        datagen.load(directory)
    assert str(err.value) == messages[0]


def test_labels_csv_row_count_message(tmp_path):
    with pytest.raises(FormatError) as err:
        datagen.load(_saved_with_label_lines(tmp_path, lambda lines: lines.pop()))
    assert str(err.value) == "labels.csv has 159 rows, manifest expects 160"


def _mutate(raw: bytes, mutation) -> bytes:
    kind, a, b = mutation
    if not raw:
        return raw
    if kind == "flip":
        a %= len(raw)
        return raw[:a] + bytes([raw[a] ^ b]) + raw[a + 1:]
    if kind == "truncate":
        return raw[:a % len(raw)]
    if kind == "newlines":
        return raw.replace(b"\r\n", b"\n") if b"\r\n" in raw else raw.replace(b"\n", b"\r\n")
    lines = raw.splitlines(keepends=True)
    a, b = a % len(lines), b % len(lines)
    if kind == "drop":
        del lines[a]
    elif kind == "duplicate":
        lines.insert(b, lines[a])
    else:  # swap
        lines[a], lines[b] = lines[b], lines[a]
    return b"".join(lines)


_MUTATION = st.tuples(st.sampled_from(["flip", "truncate", "drop", "duplicate", "swap", "newlines"]),
                      st.integers(0, 1 << 20), st.integers(1, 255))


def _load_with_labels(raw: bytes):
    """The golden dataset loaded with ``raw`` in place of its labels.csv."""
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "d"
        shutil.copytree(GOLDEN, directory)
        (directory / "labels.csv").write_bytes(raw)
        return datagen.load(directory)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_labels_csv_fuzz_loads_same_or_format_error(mutations):
    raw = (GOLDEN / "labels.csv").read_bytes()
    for mutation in mutations:
        raw = _mutate(raw, mutation)
    try:
        back = _load_with_labels(raw)
    except FormatError:
        return
    _assert_same_dataset(back, datagen.generate(**GOLDEN_KWARGS))


# names that need quoting, CRLF or UTF-8, or none of them
_NAME = st.text(st.sampled_from("ab ,\"\r\nü\t"), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(_NAME, min_size=2, max_size=3, unique=True),
       st.lists(_NAME, min_size=3, max_size=4, unique=True))
def test_labels_csv_matches_rowwise_writer(classes, domains):
    ds = datagen.generate(n_per_cell=10, d_x=2, classes=classes, domains=domains)
    with tempfile.TemporaryDirectory() as tmp:
        datagen.save(ds, tmp)
        assert (Path(tmp) / "labels.csv").read_bytes() == rowwise_labels_csv(ds).encode("utf-8")
        _assert_same_dataset(datagen.load(tmp), ds)


_FIELD = st.sampled_from(["", "x", "-1", "160", "99999999999999999999", " 7", "+7", "1_0", "٣",
                          "7.0", "0", "hot dog", "salt, pepper", "photo", "clip art", "pastel"])
# (row, column, new value); a column past the row's end appends a field, None drops the last one
_EDIT = st.tuples(st.integers(0, 159), st.integers(0, 3), st.none() | _FIELD)


def _edited_golden(edits) -> bytes:
    rows = list(csv.reader(io.StringIO((GOLDEN / "labels.csv").read_text(encoding="utf-8"),
                                       newline="")))
    for row, column, value in edits:
        fields = rows[row + 1]
        if value is None:
            fields.pop()
        elif column >= len(fields):
            fields.append(value)
        else:
            fields[column] = value
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(st.lists(_EDIT, max_size=3), st.lists(_MUTATION, max_size=2), st.sampled_from([512, 7]))
def test_labels_csv_load_matches_rowwise_reader(edits, mutations, chunk):
    raw = _edited_golden(edits)
    for mutation in mutations:
        raw = _mutate(raw, mutation)
    with mock.patch.object(datagen, "_LABELS_CHUNK", chunk):
        try:
            back = _load_with_labels(raw)
            got = (back.class_ids.tolist(), back.domain_ids.tolist())
        except FormatError as exc:
            got = str(exc)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        assert isinstance(got, str) and "codec can't decode" in got
        return
    try:
        ids = rowwise_read_labels(text, GOLDEN_KWARGS["classes"], GOLDEN_KWARGS["domains"], 160)
        want = (ids[0].tolist(), ids[1].tolist())
    except FormatError as exc:
        want = str(exc)
    assert got == want


@pytest.mark.parametrize("chunk", [512, 7])
def test_labels_csv_not_utf8_reported_before_earlier_row_fault(chunk):
    # row 0 lacks a field and the file ends inside a UTF-8 sequence: the decoder
    # only sees that at end of file, after the chunks before it are checked
    raw = _edited_golden([(0, 0, None)])
    raw = raw[:raw.rindex("û".encode("utf-8")) + 1]
    with mock.patch.object(datagen, "_LABELS_CHUNK", chunk), pytest.raises(FormatError) as err:
        _load_with_labels(raw)
    assert "codec can't decode" in str(err.value)


def test_labels_csv_header(tmp_path):
    ds = datagen.generate(n_per_cell=10, seed=9)
    datagen.save(ds, tmp_path / "d")
    header = (tmp_path / "d" / "labels.csv").read_text().splitlines()[0]
    assert header == "index,class,domain"


@pytest.mark.parametrize("kwargs", [
    {"classes": ["only"]},
    {"domains": ["a", "b"]},
    {"n_per_cell": 5},
    {"style_strength": -1.0},
    {"classes": ["dog", "dog", "cat"]},
])
def test_invalid_arguments_rejected(kwargs):
    with pytest.raises(ConfigError):
        datagen.generate(**kwargs)
