import json
import re
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LABEL_FAULTS, MANIFEST_FAULTS, edit_manifest, spoil_labels
from spdg import datagen
from spdg.blob import read_blob
from spdg.errors import ConfigError, FormatError

# A dataset saved with these arguments; save must still reproduce it byte for
# byte. Its samples.spdg is as old as the dataset format, and its names hold a
# space, a comma, double quotes and non-ASCII letters.
GOLDEN = Path(__file__).parent / "data" / "golden_dataset"
GOLDEN_KWARGS = dict(n_per_cell=10, d_x=4, seed=7,
                     classes=["hot dog", "salt, pepper", 'say "cheese"', "crème brûlée"],
                     domains=["photo", "cartoon", "sketch", "clip art"])
DATASET_FILES = ["manifest.json", "samples.spdg", "labels.spdg"]

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


def _saved(tmp_path) -> Path:
    datagen.save(datagen.generate(n_per_cell=12, seed=9, domains=["photo", "cartoon", "sketch"]),
                 tmp_path / "d")
    return tmp_path / "d"


def test_labels_blob_layout(tmp_path):
    ds = datagen.generate(n_per_cell=10, seed=9)
    datagen.save(ds, tmp_path / "d")
    labels = read_blob(tmp_path / "d" / "labels.spdg", kind="i")
    assert labels.dtype == np.int64
    assert np.array_equal(labels, np.stack([ds.class_ids, ds.domain_ids]))
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(DATASET_FILES)


@pytest.mark.parametrize("damage", LABEL_FAULTS)
def test_spoiled_labels_blob_rejected(tmp_path, damage):
    directory = _saved(tmp_path)
    message = spoil_labels(directory, damage)
    with pytest.raises(FormatError) as err:
        datagen.load(directory)
    assert str(directory / "labels.spdg") in str(err.value)
    assert message in str(err.value)


def test_format_1_dataset_says_regenerate(tmp_path):
    directory = _saved(tmp_path)
    manifest = directory / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"format_version": 2', '"format_version": 1'))
    (directory / "labels.spdg").unlink()
    (directory / "labels.csv").write_text("index,class,domain\r\n")
    with pytest.raises(FormatError, match="format_version 1, this build reads 2; "
                                          "regenerate it with `spdg gen-data`"):
        datagen.load(directory)


@pytest.mark.parametrize("edit, message", MANIFEST_FAULTS, ids=lambda v: json.dumps(v)[:40])
def test_faulty_manifest_rejected(tmp_path, edit, message):
    directory = _saved(tmp_path)
    edit_manifest(directory, edit)
    with pytest.raises(FormatError, match="malformed dataset manifest") as err:
        datagen.load(directory)
    assert message in str(err.value)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, a, b = mutation
    if not raw:
        return raw
    if kind == "flip":
        a %= len(raw)
        return raw[:a] + bytes([raw[a] ^ b]) + raw[a + 1:]
    if kind == "truncate":
        return raw[:a % len(raw)]
    a %= len(raw)
    return raw[:a] + raw[a:a + b] + raw[a:]  # repeat up to b bytes


_MUTATION = st.tuples(st.sampled_from(DATASET_FILES), st.sampled_from(["flip", "truncate", "repeat"]),
                      st.integers(0, 1 << 20), st.integers(1, 255))


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_fuzzed_dataset_loads_whole_or_format_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "d"
        shutil.copytree(GOLDEN, directory)
        for name, *mutation in mutations:
            path = directory / name
            path.write_bytes(_mutate(path.read_bytes(), mutation))
        try:
            back = datagen.load(directory)
        except FormatError:
            return
    # whatever loads is whole: the shapes the manifest gives, finite samples, ids in range
    n = back.manifest.n_samples
    assert back.x.shape == (n, back.manifest.d_x) and np.isfinite(back.x).all()
    assert back.class_ids.shape == back.domain_ids.shape == (n,)
    assert 0 <= back.class_ids.min() and back.class_ids.max() < len(back.classes)
    assert 0 <= back.domain_ids.min() and back.domain_ids.max() < len(back.domains)


# names that JSON must escape (quotes, line breaks, tabs), non-ASCII, or plain
_NAME = st.text(st.sampled_from("ab ,\"\r\n\\ü\t") | st.characters(), max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(_NAME, min_size=2, max_size=3, unique=True),
       st.lists(_NAME, min_size=3, max_size=4, unique=True),
       st.integers(10, 12), st.integers(1, 3), st.integers(0, 2**32))
def test_round_trip_any_names(classes, domains, n_per_cell, d_x, seed):
    ds = datagen.generate(n_per_cell=n_per_cell, d_x=d_x, seed=seed, classes=classes,
                          domains=domains)
    with tempfile.TemporaryDirectory() as tmp:
        datagen.save(ds, tmp)
        _assert_same_dataset(datagen.load(tmp), ds)


@pytest.mark.parametrize("kwargs", [
    {"classes": ["only"]},
    {"domains": ["a", "b"]},
    {"n_per_cell": 5},
    {"style_strength": -1.0},
    {"classes": ["dog", "dog", "cat"]},
    {"classes": [1, 2]},
    {"classes": ["dog", None]},
    {"domains": ["photo", "cartoon", 3]},
    {"domains": ["photo", "cartoon", b"sketch"]},
    {"d_x": 0}, {"d_x": -3}, {"seed": -1}, {"n_per_cell": 10.0}, {"seed": None},
    {"n_per_cell": 100_000_000}, {"style_strength": float("nan")}, {"noise_std": float("inf")},
    {"noise_std": 1e308},
], ids=repr)
def test_invalid_arguments_rejected(kwargs):
    with pytest.raises(ConfigError):
        datagen.generate(**kwargs)


def test_overflowing_samples_rejected():
    with pytest.raises(ConfigError, match="noise_std 1e\\+308 give samples that are not finite"):
        datagen.generate(n_per_cell=10, noise_std=1e308)


@pytest.mark.parametrize("kwargs", [
    {"n_per_cell": 10}, {"d_x": 1}, {"seed": 0}, {"style_strength": 0}, {"noise_std": 0},
    {"classes": ["a", "b"], "domains": ["x", "y", "z"]},
], ids=repr)
def test_least_accepted_values_round_trip(tmp_path, kwargs):
    # each field at the bound its check allows; ints are numbers for the two float fields
    ds = datagen.generate(**{"n_per_cell": 10, **kwargs})
    datagen.save(ds, tmp_path / "d")
    _assert_same_dataset(datagen.load(tmp_path / "d"), ds)


@pytest.mark.parametrize("n_per_cell, accepted", [(1 << 14, True), ((1 << 14) + 1, False)],
                         ids=["at-cap", "one-over"])
def test_dataset_byte_cap_boundary(n_per_cell, accepted):
    # 2 classes x 4 domains x 2**14 samples of 1022 floats and 2 ids are 2**30 bytes
    fields = dict(classes=["a", "b"], domains=["w", "x", "y", "z"], n_per_cell=n_per_cell,
                  d_x=1022, seed=0, style_strength=0.8, noise_std=0.15)
    if accepted:
        assert datagen.DatasetManifest(**fields).n_samples == 8 << 14
    else:
        with pytest.raises(ConfigError, match=f"over the cap of {datagen.MAX_DATASET_BYTES}"):
            datagen.DatasetManifest(**fields)


def test_generate_checks_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("generate drew samples for arguments it refuses")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ConfigError, match="n_per_cell must be in"):
        datagen.generate(n_per_cell=9)


@pytest.mark.parametrize("column", ["class_ids", "domain_ids"])
@pytest.mark.parametrize("past_end", [False, True], ids=["minus-one", "len-names"])
def test_save_rejects_id_outside_names(tmp_path, column, past_end):
    ds = datagen.generate(n_per_cell=10, seed=1)
    names = ds.classes if column == "class_ids" else ds.domains
    getattr(ds, column)[0] = len(names) if past_end else -1
    with pytest.raises(FormatError, match=f"must lie in \\[0, {len(names)}\\)"):
        datagen.save(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()   # rejected before any file is written


def test_fixture_seed_scan_runs(capsys, monkeypatch):
    # the script that picked the pinned fixture seeds, on one dataset and one encoder seed
    script = Path(__file__).resolve().parents[1] / "scripts" / "scan_fixture_seeds.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--dataset-seeds", "0", "--encoder-seeds", "0"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    gaps = " ".join(rf"{d}=[+-]\d\.\d{{3}}" for d in datagen.generate(seed=0).domains)
    assert re.fullmatch(f"dataset seed 0: probe gaps {gaps}", lines[0])
