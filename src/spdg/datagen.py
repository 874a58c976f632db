"""Seeded synthetic multi-domain classification data.

Each class has a unit-norm prototype; each domain applies a fixed linear
style transform A_d = I + style_strength * R_d (R_d random, scaled to unit
spectral norm) to noisy prototype draws. Domain shift strength is one knob.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blob import manifest_fields, read_blob, read_manifest, write_blob
from .errors import ConfigError, FormatError

DATASET_FORMAT_VERSION = 1

DEFAULT_CLASSES = ["dog", "elephant", "guitar", "horse"]
DEFAULT_DOMAINS = ["photo", "cartoon", "sketch", "clipart"]


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

    def to_dict(self) -> dict:
        return {
            "classes": self.classes,
            "domains": self.domains,
            "n_per_cell": self.n_per_cell,
            "d_x": self.d_x,
            "seed": self.seed,
            "style_strength": self.style_strength,
            "noise_std": self.noise_std,
            "format_version": self.format_version,
        }


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

    xs, cls_ids, dom_ids = [], [], []
    for d in range(len(domains)):
        for c in range(len(classes)):
            eps = rng.normal(scale=noise_std, size=(n_per_cell, d_x)) if noise_std > 0 \
                else np.zeros((n_per_cell, d_x))
            xs.append((protos[c] + eps) @ transforms[d].T)
            cls_ids.extend([c] * n_per_cell)
            dom_ids.extend([d] * n_per_cell)

    manifest = DatasetManifest(classes=classes, domains=domains, n_per_cell=n_per_cell,
                               d_x=d_x, seed=seed, style_strength=style_strength,
                               noise_std=noise_std)
    return MultiDomainDataset(
        x=np.concatenate(xs, axis=0),
        class_ids=np.asarray(cls_ids, dtype=np.int64),
        domain_ids=np.asarray(dom_ids, dtype=np.int64),
        manifest=manifest,
    )


def save(dataset: MultiDomainDataset, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(
        json.dumps(dataset.manifest.to_dict(), indent=2, sort_keys=True)
    )
    write_blob(directory / "samples.spdg", dataset.x)
    with open(directory / "labels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "class", "domain"])
        for i in range(len(dataset)):
            writer.writerow([i, dataset.classes[dataset.class_ids[i]],
                             dataset.domains[dataset.domain_ids[i]]])


def load(directory) -> MultiDomainDataset:
    directory = Path(directory)
    raw = read_manifest(directory / "manifest.json", "dataset", DATASET_FORMAT_VERSION)
    with manifest_fields(directory, "dataset"):
        manifest = DatasetManifest(
            classes=raw["classes"], domains=raw["domains"], n_per_cell=raw["n_per_cell"],
            d_x=raw["d_x"], seed=raw["seed"], style_strength=raw["style_strength"],
            noise_std=raw["noise_std"],
        )
        expected = len(manifest.classes) * len(manifest.domains) * manifest.n_per_cell
    x = read_blob(directory / "samples.spdg")
    if x.shape != (expected, manifest.d_x):
        raise FormatError(
            f"samples blob shape {x.shape} does not match manifest ({expected}, {manifest.d_x})"
        )

    cls_lookup = {name: i for i, name in enumerate(manifest.classes)}
    dom_lookup = {name: i for i, name in enumerate(manifest.domains)}
    class_ids = np.empty(expected, dtype=np.int64)
    domain_ids = np.empty(expected, dtype=np.int64)
    seen = np.zeros(expected, dtype=bool)
    with open(directory / "labels.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["index", "class", "domain"]:
            raise FormatError(f"unexpected labels.csv header: {header}")
        count = 0
        for row in reader:
            if len(row) != 3:
                raise FormatError(f"labels.csv row needs 3 fields, got {row}")
            try:
                idx = int(row[0])
            except ValueError as exc:
                raise FormatError(f"labels.csv index {row[0]!r} is not an integer") from exc
            if not (0 <= idx < expected):
                raise FormatError(f"labels.csv index {idx} out of range")
            if seen[idx]:
                raise FormatError(f"labels.csv repeats index {idx}")
            seen[idx] = True
            try:
                class_ids[idx] = cls_lookup[row[1]]
                domain_ids[idx] = dom_lookup[row[2]]
            except KeyError as exc:
                raise FormatError(f"labels.csv names unknown to manifest: {row}") from exc
            count += 1
    if count != expected:
        raise FormatError(f"labels.csv has {count} rows, manifest expects {expected}")
    return MultiDomainDataset(x=x, class_ids=class_ids, domain_ids=domain_ids,
                              manifest=manifest)
