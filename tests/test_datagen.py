import contextlib
import io
import json
import re
import runpy
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    MANIFEST_FAULTS,
    SAMPLE_FAULTS,
    edit_manifest,
    run_python,
    spoil_samples,
    write_format_2_dataset,
)
from spdg import datagen
from spdg.cli import main
from spdg.encoders import (
    EncoderDims,
    _weight_shapes,
    build_bundle,
    bundle_checksum,
    default_vocab,
    load_bundle,
    save_bundle,
    text_words,
)
from spdg.errors import ConfigError, FormatError
from spdg.prompter import (
    PARAMETER_NAMES,
    _parameter_shapes,
    init_gaussian_prompter,
    load_checkpoint,
    save_checkpoint,
)

# A dataset saved with these arguments; save must still reproduce it byte for
# byte. Its samples.spdg is as old as the dataset format, and its names hold a
# space, a comma, double quotes and non-ASCII letters.
GOLDEN = Path(__file__).parent / "data" / "golden_dataset"
GOLDEN_KWARGS = dict(n_per_cell=10, d_x=4, seed=7,
                     classes=["hot dog", "salt, pepper", 'say "cheese"', "crème brûlée"],
                     domains=["photo", "cartoon", "sketch", "clip art"])
DATASET_FILES = ["manifest.json", "samples.spdg"]

# dataset seed where a least-squares probe shows a clear transfer gap; the
# shift property is a seeded-fixture claim, not a universal one
PROBE_SEED = 12
PROBE_DOMAIN = "photo"


def test_import_loads_no_training_module():
    loaded = set(run_python("import sys, spdg.datagen; print(' '.join(sorted(sys.modules)))").split())
    assert "spdg.encoders" in loaded
    assert not {"spdg.trainer", "spdg.losses", "spdg.prompter", "spdg.inference"} & loaded


def test_package_root_imports_no_module():
    loaded = run_python("import sys, spdg; print(' '.join(sorted(sys.modules)))").split()
    assert [name for name in loaded if name.startswith("spdg.")] == []


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
    with pytest.raises(FormatError, match=r"malformed dataset: ConfigError: classes must be list\[str\], got list \[\['dog'\]"):
        datagen.load(tmp_path / "d")


def _saved(tmp_path) -> Path:
    datagen.save(datagen.generate(n_per_cell=12, seed=9, domains=["photo", "cartoon", "sketch"]),
                 tmp_path / "d")
    return tmp_path / "d"


def test_saved_dataset_is_its_manifest_and_samples(tmp_path):
    datagen.save(datagen.generate(n_per_cell=10, seed=9), tmp_path / "d")
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == DATASET_FILES


def _cell_order(n_classes, n_domains, n_per_cell):
    """The (class id, domain id) of each row as generate lays them out: domain-major,
    then by class, n_per_cell rows per cell."""
    return [(c, d) for d in range(n_domains) for c in range(n_classes) for _ in range(n_per_cell)]


@pytest.mark.parametrize("source", ["generate", "load"])
def test_ids_follow_the_canonical_cell_order(tmp_path, source):
    ds = datagen.generate(n_per_cell=11, seed=9, classes=["a", "b", "c"])
    if source == "load":
        datagen.save(ds, tmp_path / "d")
        ds = datagen.load(tmp_path / "d")
    assert ds.class_ids.dtype == ds.domain_ids.dtype == np.int64
    assert list(zip(ds.class_ids.tolist(), ds.domain_ids.tolist())) == _cell_order(3, 4, 11)
    for ids in (ds.class_ids, ds.domain_ids):
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 1
    assert ds.domain_indices(2).tolist() == list(range(66, 99))


def test_rows_of_a_cell_are_its_draws():
    # with no noise every row of a (class, domain) cell is one point, and rows of
    # another class or domain are not
    ds = datagen.generate(n_per_cell=10, noise_std=0.0, seed=4)
    cells = ds.class_ids * len(ds.domains) + ds.domain_ids
    for cell in range(len(ds.classes) * len(ds.domains)):
        rows = ds.x[cells == cell]
        assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))
        assert not np.isclose(ds.x[cells != cell], rows[0]).all(axis=1).any()


@pytest.mark.parametrize("damage", SAMPLE_FAULTS)
def test_spoiled_samples_blob_rejected(tmp_path, damage):
    directory = _saved(tmp_path)
    message = spoil_samples(directory, damage)
    with pytest.raises(FormatError) as err:
        datagen.load(directory)
    # a blob that cannot be read names its file
    assert str(err.value).startswith(str(directory / "samples.spdg"))
    assert message in str(err.value)


def test_format_1_dataset_says_regenerate(tmp_path):
    directory = _saved(tmp_path)
    edit_manifest(directory, {"format_version": 1})
    (directory / "labels.csv").write_text("index,class,domain\r\n")
    with pytest.raises(FormatError, match="format_version 1, this build reads 3; "
                                          "regenerate it with `spdg gen-data`"):
        datagen.load(directory)


def test_format_2_dataset_says_regenerate(tmp_path):
    # its labels.spdg could hold another sample order, so it is not read as format 3
    write_format_2_dataset(datagen.generate(n_per_cell=10, seed=9), tmp_path / "d")
    with pytest.raises(FormatError, match="format_version 2, this build reads 3; "
                                          "regenerate it with `spdg gen-data`"):
        datagen.load(tmp_path / "d")


@pytest.mark.parametrize("edit, message", MANIFEST_FAULTS, ids=lambda v: json.dumps(v)[:40])
def test_faulty_manifest_rejected(tmp_path, edit, message):
    directory = _saved(tmp_path)
    edit_manifest(directory, edit)
    with pytest.raises(FormatError, match="malformed dataset: ConfigError") as err:
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


def _mutations(files):
    """Lists of 1 to 3 (file, flip | truncate | repeat, offset, byte or length) edits."""
    edit = st.tuples(st.sampled_from(files), st.sampled_from(["flip", "truncate", "repeat"]),
                     st.integers(0, 1 << 20), st.integers(1, 255))
    return st.lists(edit, min_size=1, max_size=3)


def _mutated_copy(source: Path, target: Path, mutations) -> None:
    shutil.copytree(source, target)
    for name, *mutation in mutations:
        path = target / name
        path.write_bytes(_mutate(path.read_bytes(), mutation))


@settings(max_examples=300, deadline=None)
@given(_mutations(DATASET_FILES))
def test_fuzzed_dataset_loads_whole_or_format_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        _mutated_copy(GOLDEN, Path(tmp) / "d", mutations)
        try:
            back = datagen.load(Path(tmp) / "d")
        except FormatError:
            return
    # whatever loads is whole: the shape the manifest gives, finite samples, and
    # the ids of the manifest's cell order
    m = back.manifest
    assert back.x.shape == (m.n_samples, m.d_x) and np.isfinite(back.x).all()
    assert list(zip(back.class_ids.tolist(), back.domain_ids.tolist())) == \
        _cell_order(len(m.classes), len(m.domains), m.n_per_cell)


# a bundle and a Gaussian checkpoint bound to it, at small dims that fit GOLDEN's samples
FUZZ_DIMS = EncoderDims(d_x=4, d_i=8, d_t=4, d_f=6)
BUNDLE_FILES = ["manifest.json", *(f"{name}.spdg" for name in _weight_shapes(FUZZ_DIMS, 1))]
CHECKPOINT_FILES = ["manifest.json", *(f"{name}.spdg" for name in PARAMETER_NAMES["gaussian"])]


@pytest.fixture(scope="module")
def bound_pair(tmp_path_factory) -> Path:
    """A directory holding bundle/ and checkpoint/, the checkpoint bound to the bundle."""
    root = tmp_path_factory.mktemp("pair")
    bundle = build_bundle(FUZZ_DIMS, default_vocab(GOLDEN_KWARGS["classes"]), seed=3)
    save_bundle(bundle, root / "bundle")
    save_checkpoint(init_gaussian_prompter(FUZZ_DIMS.d_i, FUZZ_DIMS.d_t, seed=4), root / "checkpoint",
                    bundle_checksum=bundle_checksum(bundle))
    return root


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_mutations(BUNDLE_FILES))
def test_fuzzed_bundle_loads_whole_or_format_error(bound_pair, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        _mutated_copy(bound_pair / "bundle", Path(tmp) / "b", mutations)
        try:
            back = load_bundle(Path(tmp) / "b")
        except FormatError:
            return
    # whatever loads is whole: the weight shapes its dims and vocab give, a vocab of
    # unique strings and an int seed
    assert {name: w.shape for name, w in back.weights.items()} == \
        _weight_shapes(back.dims, len(back.vocab))
    assert back.vocab and all(type(w) is str for w in back.vocab)
    assert len(set(back.vocab)) == len(back.vocab) == len(back.word_to_id)
    assert type(back.seed) is int and back.seed >= 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_mutations(CHECKPOINT_FILES))
def test_fuzzed_checkpoint_loads_whole_or_format_error(bound_pair, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        _mutated_copy(bound_pair / "checkpoint", Path(tmp) / "c", mutations)
        try:
            back, manifest = load_checkpoint(Path(tmp) / "c")
        except FormatError:
            return
    # whatever loads is whole: its kind's parameters at the shapes of an even d_i >= 2
    # and a d_t >= 2, which the manifest's dims repeat
    d_i, d_t = back.d_i, back.d_t
    assert d_i >= 2 and d_i % 2 == 0 and d_t >= 2
    assert {name: p.shape for name, p in back.parameters()} == _parameter_shapes(back.kind, d_i, d_t)
    assert manifest["dims"] == {"d_i": d_i, "d_t": d_t}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=_mutations([f"bundle/{name}" for name in BUNDLE_FILES]
                            + [f"checkpoint/{name}" for name in CHECKPOINT_FILES]))
def test_fuzzed_pair_never_ends_infer_in_internal(bound_pair, mutations):
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        _mutated_copy(bound_pair, Path(tmp) / "pair", mutations)
        # RuntimeWarnings warn, as outside this suite: a flipped exponent bit can leave a
        # finite but huge checkpoint parameter whose forward overflows
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(action="ignore", category=RuntimeWarning):
            code = main(["infer", "--checkpoint", str(Path(tmp) / "pair" / "checkpoint"),
                         "--bundle", str(Path(tmp) / "pair" / "bundle"),
                         "--dataset", str(GOLDEN), "--index", "0"])
    # a mutation the checksum binding does not cover (the bundle seed, say) still infers;
    # an overflowing forward ends in degenerate_vector
    assert code == 0 or (code == 2 and json.loads(stderr.getvalue())["error"]
                         in ("format_error", "degenerate_vector")), stderr.getvalue()


# names that JSON must escape (quotes, line breaks, tabs), non-ASCII, or plain
_NAME = st.text(st.sampled_from("ab ,\"\r\n\\ü\t") | st.characters(), max_size=5)
# a class name must be at least one word, none of them the pseudo-slot word, and
# two class names must not be the same words
_CLASS_NAME = _NAME.filter(lambda name: text_words(name) and "sp" not in text_words(name))


@settings(max_examples=60, deadline=None)
@given(st.lists(_CLASS_NAME, min_size=2, max_size=3, unique_by=lambda name: tuple(text_words(name))),
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
    {"classes": ["dog", "Dog", "cat"]}, {"classes": ["dog", "", "cat"]}, {"classes": ["dog", "\t"]},
    {"classes": ["sp", "cat"]}, {"classes": ["hot sp dog", "cat"]}, {"classes": ["dog.", "Dog .", "cat"]},
    {"domains": ["photo", "cartoon", 3]},
    {"domains": ["photo", "cartoon", b"sketch"]},
    {"d_x": 0}, {"d_x": -3}, {"seed": -1}, {"n_per_cell": 10.0}, {"seed": None},
    {"n_per_cell": 100_000_000}, {"style_strength": float("nan")}, {"noise_std": float("inf")},
    {"noise_std": 1e308}, {"classes": ["one two three four five six seven eight nine ten", "dog"]},
    {"d_x": 20000, "n_per_cell": 10},
], ids=repr)
def test_invalid_arguments_rejected(kwargs):
    with pytest.raises(ConfigError):
        datagen.generate(**kwargs)


def test_overflowing_samples_rejected():
    with pytest.raises(ConfigError, match="sample 0 is not finite"):
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


# edits of a generated dataset's samples that its constructor refuses, and what it says
DATASET_FAULTS = {
    "NaN sample": (lambda ds: ds.x.__setitem__((5, 3), np.nan), "sample 5 is not finite"),
    "infinite sample": (lambda ds: ds.x.__setitem__((7, 0), -np.inf), "sample 7 is not finite"),
}


@pytest.mark.parametrize("fault", DATASET_FAULTS)
def test_constructor_and_save_refuse_a_broken_dataset(tmp_path, fault):
    ds = datagen.generate(n_per_cell=10, seed=1)
    spoil, message = DATASET_FAULTS[fault]
    spoil(ds)
    with pytest.raises(ConfigError, match=re.escape(message)):
        datagen.MultiDomainDataset(ds.x, ds.manifest)
    # the samples stay mutable, so save runs the same check before it writes anything
    with pytest.raises(ConfigError, match=re.escape(message)):
        datagen.save(ds, tmp_path / "d")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("samples, message", [
    (lambda ds: ds.x[:-1], "samples have shape (159, 32), not (160, 32)"),
    (lambda ds: ds.x[:, :31], "samples have shape (160, 31)"),
], ids=["short x", "narrow x"])
def test_constructor_refuses_arrays_not_of_the_manifest_shape(samples, message):
    ds = datagen.generate(n_per_cell=10, seed=1)
    with pytest.raises(ConfigError, match=re.escape(message)):
        datagen.MultiDomainDataset(samples(ds), ds.manifest)


def test_fixture_seed_scan_runs(capsys, monkeypatch):
    # the script that picked the pinned fixture seeds, on one dataset and one encoder seed
    script = Path(__file__).resolve().parents[1] / "scripts" / "scan_fixture_seeds.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--dataset-seeds", "0", "--encoder-seeds", "0"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    gaps = " ".join(rf"{d}=[+-]\d\.\d{{3}}" for d in datagen.generate(seed=0).domains)
    assert re.fullmatch(f"dataset seed 0: probe gaps {gaps}", lines[0])
