"""Seeded synthetic multi-domain classification data.

Each class has a unit-norm prototype; each domain applies a fixed linear
style transform A_d = I + style_strength * R_d (R_d random, scaled to unit
spectral norm) to noisy prototype draws. Domain shift strength is one knob.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .blob import manifest_fields, read_blob, read_manifest, write_blob
from .errors import ConfigError, check_range, check_type

DATASET_FORMAT_VERSION = 2

DEFAULT_CLASSES = ["dog", "elephant", "guitar", "horse"]
DEFAULT_DOMAINS = ["photo", "cartoon", "sketch", "clipart"]
# The most bytes a dataset's f64 samples and int64 labels may take together;
# a 16,384-sample, 32-wide pool takes 4.5 MB.
MAX_DATASET_BYTES = 1 << 30


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

    def __post_init__(self):
        for name, least in (("classes", 2), ("domains", 3)):  # 3 domains: one held out, two trained
            names = getattr(self, name)
            check_type(name, names, (list,))
            if not all(isinstance(n, str) for n in names):
                raise ConfigError(f"{name} names must be strings, got {names!r}")
            if len(set(names)) != len(names):
                raise ConfigError(f"{name} names must be unique, got {names!r}")
            check_range(f"number of {name}", len(names), least)
        for name, least in (("n_per_cell", 10), ("d_x", 1), ("seed", 0)):
            check_type(name, getattr(self, name), (int,))
            check_range(name, getattr(self, name), least)
        for name in ("style_strength", "noise_std"):
            check_type(name, getattr(self, name), (int, float))
            check_range(name, getattr(self, name), 0.0)
        n, size = self.n_samples, 8 * self.n_samples * (self.d_x + 2)
        if size > MAX_DATASET_BYTES:
            raise ConfigError(f"{n} samples of width {self.d_x} need {size} bytes with their "
                              f"labels, over the cap of {MAX_DATASET_BYTES}")

    @property
    def n_samples(self) -> int:
        return len(self.classes) * len(self.domains) * self.n_per_cell


@dataclass
class MultiDomainDataset:
    """Samples and labels of every (class, domain) cell. The constructor refuses
    samples that are not finite or not (manifest.n_samples, d_x), ids outside the
    name lists, and a cell that does not hold n_per_cell samples."""

    x: np.ndarray            # (n, d_x)
    class_ids: np.ndarray    # (n,)
    domain_ids: np.ndarray   # (n,)
    manifest: DatasetManifest

    def check(self) -> None:
        """Raise ConfigError where the constructor would; save checks again, as arrays stay mutable."""
        m = self.manifest
        n, n_domains = m.n_samples, len(m.domains)
        if np.shape(self.x) != (n, m.d_x):
            raise ConfigError(f"samples have shape {np.shape(self.x)}, not ({n}, {m.d_x})")
        if not np.isfinite(self.x).all():
            raise ConfigError(f"sample {int(np.isfinite(self.x).all(axis=1).argmin())} is not finite")
        for what, ids, names in (("class", self.class_ids, m.classes),
                                 ("domain", self.domain_ids, m.domains)):
            if np.shape(ids) != (n,):
                raise ConfigError(f"{what} ids have shape {np.shape(ids)}, not ({n},)")
            if not 0 <= ids.min() <= ids.max() < len(names):
                raise ConfigError(f"{what} ids must lie in [0, {len(names)})")
        cells = np.bincount(self.class_ids * n_domains + self.domain_ids, minlength=n // m.n_per_cell)
        if (cells != m.n_per_cell).any():
            c, d = divmod(int(np.argmax(cells != m.n_per_cell)), n_domains)
            raise ConfigError(f"cell ({m.classes[c]!r}, {m.domains[d]!r}) holds "
                              f"{cells[c * n_domains + d]} samples, not n_per_cell {m.n_per_cell}")

    __post_init__ = check

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
    manifest = DatasetManifest(
        classes=list(classes) if classes is not None else list(DEFAULT_CLASSES),
        domains=list(domains) if domains is not None else list(DEFAULT_DOMAINS),
        n_per_cell=n_per_cell, d_x=d_x, seed=seed, style_strength=style_strength,
        noise_std=noise_std)
    n_classes, n_domains = len(manifest.classes), len(manifest.domains)

    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(n_classes, d_x))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    transforms = []
    for _ in range(n_domains):
        r = rng.normal(size=(d_x, d_x))
        # unit RMS action: a typical unit vector is moved by ~1, so
        # style_strength is the per-domain shift magnitude in sample units
        r *= np.sqrt(d_x) / np.linalg.norm(r)
        transforms.append(np.eye(d_x) + style_strength * r)

    x = np.empty((n_domains, n_classes, n_per_cell, d_x))
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor refuses an overflow
        for d, c in np.ndindex(n_domains, n_classes):
            eps = rng.normal(scale=noise_std, size=x.shape[2:]) if noise_std > 0 else np.zeros(x.shape[2:])
            np.matmul(protos[c] + eps, transforms[d].T, out=x[d, c])
    cells = np.arange(n_domains * n_classes, dtype=np.int64).repeat(n_per_cell)  # d * C + c
    return MultiDomainDataset(x=x.reshape(-1, d_x), class_ids=cells % n_classes,
                              domain_ids=cells // n_classes, manifest=manifest)


def save(dataset: MultiDomainDataset, directory) -> None:
    """Write manifest.json, samples.spdg and labels.spdg, the (2, n) int64 class
    and domain ids; a dataset its constructor would refuse now is refused before any write."""
    dataset.check()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "manifest.json").write_text(
        json.dumps(asdict(dataset.manifest), indent=2, sort_keys=True)
    )
    write_blob(directory / "samples.spdg", dataset.x)
    write_blob(directory / "labels.spdg",
               np.array([dataset.class_ids, dataset.domain_ids], dtype=np.int64))


def load(directory) -> MultiDomainDataset:
    """The dataset saved in directory; what its constructor refuses is a FormatError."""
    directory = Path(directory)
    raw = read_manifest(directory / "manifest.json", "dataset", DATASET_FORMAT_VERSION,
                        remedy="; regenerate it with `spdg gen-data`")
    x = read_blob(directory / "samples.spdg")
    labels = read_blob(directory / "labels.spdg", kind="i")
    with manifest_fields(directory, "dataset"):
        manifest = DatasetManifest(**{f.name: raw[f.name] for f in fields(DatasetManifest)})
        if labels.shape != (2, manifest.n_samples):  # the class ids, then the domain ids
            raise ConfigError(f"labels have shape {labels.shape}, not (2, {manifest.n_samples})")
        class_ids, domain_ids = labels
        return MultiDomainDataset(x=x, class_ids=class_ids, domain_ids=domain_ids, manifest=manifest)
