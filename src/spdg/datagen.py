"""Seeded synthetic multi-domain classification data.

Each class has a unit-norm prototype; each domain applies a fixed linear
style transform A_d = I + style_strength * R_d (R_d random, scaled to unit
spectral norm) to noisy prototype draws. Domain shift strength is one knob.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .blob import manifest_fields, read_blob, read_manifest, unreadable, write_blob
from .errors import ConfigError, FormatError

DATASET_FORMAT_VERSION = 1

DEFAULT_CLASSES = ["dog", "elephant", "guitar", "horse"]
DEFAULT_DOMAINS = ["photo", "cartoon", "sketch", "clipart"]
_LABELS_CHUNK = 512  # labels.csv rows parsed and checked at a time: bounds the row lists held


@dataclass
class DatasetManifest:
    classes: list[str]
    domains: list[str]
    n_per_cell: int
    d_x: int
    seed: int
    style_strength: float
    noise_std: float
    format_version: int = DATASET_FORMAT_VERSION


@dataclass
class MultiDomainDataset:
    x: np.ndarray            # (n, d_x)
    class_ids: np.ndarray    # (n,)
    domain_ids: np.ndarray   # (n,)
    manifest: DatasetManifest

    @property
    def classes(self) -> list[str]:
        return self.manifest.classes

    @property
    def domains(self) -> list[str]:
        return self.manifest.domains

    def domain_indices(self, domain_id: int) -> np.ndarray:
        return np.where(self.domain_ids == domain_id)[0]

    def __len__(self) -> int:
        return self.x.shape[0]


def generate(n_per_cell: int = 60, d_x: int = 32, style_strength: float = 0.8,
             noise_std: float = 0.15, seed: int = 0,
             classes=None, domains=None) -> MultiDomainDataset:
    """Draw n_per_cell samples for every (class, domain) cell, deterministically."""
    classes = list(classes) if classes is not None else list(DEFAULT_CLASSES)
    domains = list(domains) if domains is not None else list(DEFAULT_DOMAINS)
    if len(classes) < 2:
        raise ConfigError(f"need at least 2 classes, got {len(classes)}")
    if len(domains) < 3:
        raise ConfigError(f"need at least 3 domains for leave-one-out, got {len(domains)}")
    if n_per_cell < 10:
        raise ConfigError(f"need at least 10 samples per cell, got {n_per_cell}")
    if not all(isinstance(name, str) for name in classes + domains):
        raise ConfigError("class and domain names must be strings")
    if len(set(classes)) != len(classes) or len(set(domains)) != len(domains):
        raise ConfigError("class and domain names must be unique")
    if style_strength < 0 or noise_std < 0:
        raise ConfigError("style_strength and noise_std must be >= 0")

    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(len(classes), d_x))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    transforms = []
    for _ in domains:
        r = rng.normal(size=(d_x, d_x))
        # unit RMS action: a typical unit vector is moved by ~1, so
        # style_strength is the per-domain shift magnitude in sample units
        r *= np.sqrt(d_x) / np.linalg.norm(r)
        transforms.append(np.eye(d_x) + style_strength * r)

    x = np.empty((len(domains), len(classes), n_per_cell, d_x))
    for d, c in np.ndindex(len(domains), len(classes)):
        eps = rng.normal(scale=noise_std, size=x.shape[2:]) if noise_std > 0 else np.zeros(x.shape[2:])
        np.matmul(protos[c] + eps, transforms[d].T, out=x[d, c])
    cells = np.arange(len(domains) * len(classes), dtype=np.int64).repeat(n_per_cell)  # d * C + c

    manifest = DatasetManifest(classes=classes, domains=domains, n_per_cell=n_per_cell,
                               d_x=d_x, seed=seed, style_strength=style_strength,
                               noise_std=noise_std)
    return MultiDomainDataset(x=x.reshape(-1, d_x), class_ids=cells % len(classes),
                              domain_ids=cells // len(classes), manifest=manifest)


def save(dataset: MultiDomainDataset, directory) -> None:
    for what, ids, names in (("class", dataset.class_ids, dataset.classes),
                             ("domain", dataset.domain_ids, dataset.domains)):
        if len(ids) and not 0 <= ids.min() <= ids.max() < len(names):
            raise FormatError(f"{what} ids must lie in [0, {len(names)})")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(
        json.dumps(asdict(dataset.manifest), indent=2, sort_keys=True)
    )
    write_blob(directory / "samples.spdg", dataset.x)
    # labels.csv as csv.writer writes it, assembled from each name quoted once
    line = csv.writer(SimpleNamespace(write=str)).writerow  # returns the line it would write
    classes = [line(["", name])[:-2] for name in dataset.classes]
    domains = [line(["", name]) for name in dataset.domains]
    parts = [None] * (3 * len(dataset))
    parts[0::3] = map(str, range(len(dataset)))
    parts[1::3] = map(classes.__getitem__, dataset.class_ids.tolist())
    parts[2::3] = map(domains.__getitem__, dataset.domain_ids.tolist())
    with open(directory / "labels.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(line(["index", "class", "domain"]) + "".join(parts))


def _chunk_ids(rows: list, seen: np.ndarray, cls_lookup: dict, dom_lookup: dict):
    """Index, class and domain ids of consecutive labels.csv rows, checked column by column.

    ``seen`` marks earlier rows' indices. A fault in row r is raised once rows[:r] pass
    every check, so the first faulty row's first fault is reported, as a row-by-row scan would.
    """
    def fail(r: int, message: str):
        if r:
            _chunk_ids(rows[:r], seen, cls_lookup, dom_lookup)
        raise FormatError(message)

    def check(bad: np.ndarray, message):
        if bad.any():
            fail(r := int(bad.argmax()), message(r))

    n = len(rows)
    check(np.fromiter(map(len, rows), np.intp, n) != 3,
          lambda r: f"labels.csv row needs 3 fields, got {rows[r]}")
    idx_s, cls_s, dom_s = zip(*rows)
    try:
        idx = np.fromiter(map(int, idx_s), np.int64, n)
    except (ValueError, OverflowError):  # a row int() rejects, or one int64 cannot hold
        for r, s in enumerate(idx_s):
            try:
                value = int(s)
            except ValueError:
                fail(r, f"labels.csv index {s!r} is not an integer")
            if not 0 <= value < len(seen):
                fail(r, f"labels.csv index {value} out of range")
    check((idx < 0) | (idx >= len(seen)), lambda r: f"labels.csv index {idx[r]} out of range")
    order = np.argsort(idx, kind="stable")
    again = np.zeros(n, dtype=bool)  # the index of an earlier row in this chunk
    again[order[1:]] = idx[order[1:]] == idx[order[:-1]]
    check(seen[idx] | again, lambda r: f"labels.csv repeats index {idx[r]}")
    cls = np.fromiter(map(cls_lookup.get, cls_s, itertools.repeat(-1)), np.int64, n)
    dom = np.fromiter(map(dom_lookup.get, dom_s, itertools.repeat(-1)), np.int64, n)
    check((cls < 0) | (dom < 0), lambda r: f"labels.csv names unknown to manifest: {rows[r]}")
    return idx, cls, dom


def load(directory) -> MultiDomainDataset:
    directory = Path(directory)
    raw = read_manifest(directory / "manifest.json", "dataset", DATASET_FORMAT_VERSION)
    with manifest_fields(directory, "dataset"):
        manifest = DatasetManifest(**{f.name: raw[f.name] for f in fields(DatasetManifest)})
        expected = len(manifest.classes) * len(manifest.domains) * manifest.n_per_cell
        lookups = [{name: i for i, name in enumerate(names)}
                   for names in (manifest.classes, manifest.domains)]
    x = read_blob(directory / "samples.spdg")
    if x.shape != (expected, manifest.d_x):
        raise FormatError(f"samples blob shape {x.shape} does not match manifest "
                          f"({expected}, {manifest.d_x})")

    class_ids = np.empty(expected, dtype=np.int64)
    domain_ids = np.empty(expected, dtype=np.int64)
    seen = np.zeros(expected, dtype=bool)
    path = directory / "labels.csv"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                reader = csv.reader(fh)
                if (header := next(reader, None)) != ["index", "class", "domain"]:
                    raise FormatError(f"unexpected labels.csv header: {header}")
                while rows := list(itertools.islice(reader, _LABELS_CHUNK)):
                    idx, cls, dom = _chunk_ids(rows, seen, *lookups)
                    class_ids[idx], domain_ids[idx], seen[idx] = cls, dom, True
            except (FormatError, csv.Error):  # bytes that are not UTF-8 are reported first
                fh.read()
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise unreadable(path, "labels", exc) from exc
    if (count := int(seen.sum())) != expected:  # every row read holds its own index
        raise FormatError(f"labels.csv has {count} rows, manifest expects {expected}")
    return MultiDomainDataset(x=x, class_ids=class_ids, domain_ids=domain_ids,
                              manifest=manifest)
