"""Seeded synthetic multi-domain classification data.

Each class has a unit-norm prototype; each domain applies a fixed linear
style transform A_d = I + style_strength * R_d (R_d random, scaled to unit
spectral norm) to noisy prototype draws. Domain shift strength is one knob.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .blob import manifest_fields, read_blob, read_manifest, write_blob, write_json
from .encoders import class_words
from .errors import ConfigError, check_fields, check_range

DATASET_FORMAT_VERSION = 3

DEFAULT_CLASSES = ["dog", "elephant", "guitar", "horse"]
DEFAULT_DOMAINS = ["photo", "cartoon", "sketch", "clipart"]
# The most bytes a dataset's f64 samples and int64 ids may take together,
# and the most its domains' dense d_x x d_x transforms may take while generated;
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
        check_fields(self)
        for name, least in (("classes", 2), ("domains", 3)):  # 3 domains: one held out, two trained
            names = getattr(self, name)
            if len(set(names)) != len(names):
                raise ConfigError(f"{name} names must be unique, got {names!r}")
            check_range(f"number of {name}", len(names), least)
        class_words(self.classes)
        for name, least in (("n_per_cell", 10), ("d_x", 1), ("seed", 0), ("style_strength", 0.0),
                            ("noise_std", 0.0)):
            check_range(name, getattr(self, name), least)
        n, size = self.n_samples, 8 * self.n_samples * (self.d_x + 2)
        if size > MAX_DATASET_BYTES:
            raise ConfigError(f"{n} samples of width {self.d_x} need {size} bytes with their "
                              f"ids, over the cap of {MAX_DATASET_BYTES}")

    @property
    def n_samples(self) -> int:
        return len(self.classes) * len(self.domains) * self.n_per_cell


@dataclass
class MultiDomainDataset:
    """The samples of every (class, domain) cell in the order `generate` draws them:
    domain-major, then by class, n_per_cell rows per cell. The class and domain ids
    follow from the manifest in that order, as read-only int64 arrays. The
    constructor refuses samples that are not finite or not (manifest.n_samples, d_x)."""

    x: np.ndarray            # (n, d_x)
    manifest: DatasetManifest
    class_ids: np.ndarray = field(init=False, repr=False)    # (n,)
    domain_ids: np.ndarray = field(init=False, repr=False)   # (n,)

    def check(self) -> None:
        """Raise ConfigError where the constructor would; save checks again, as x stays mutable."""
        m = self.manifest
        if np.shape(self.x) != (m.n_samples, m.d_x):
            raise ConfigError(f"samples have shape {np.shape(self.x)}, not ({m.n_samples}, {m.d_x})")
        if not np.isfinite(self.x).all():
            raise ConfigError(f"sample {int(np.isfinite(self.x).all(axis=1).argmin())} is not finite")

    def __post_init__(self):
        self.check()
        m = self.manifest
        n_classes = len(m.classes)
        cells = np.arange(n_classes * len(m.domains), dtype=np.int64).repeat(m.n_per_cell)  # d * C + c
        self.class_ids, self.domain_ids = cells % n_classes, cells // n_classes
        for ids in (self.class_ids, self.domain_ids):
            ids.flags.writeable = False

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
    if 8 * n_domains * d_x * d_x > MAX_DATASET_BYTES:
        raise ConfigError(f"{n_domains} transforms of {d_x} x {d_x} need {8 * n_domains * d_x * d_x} "
                          f"bytes, over the cap of {MAX_DATASET_BYTES}")

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
    return MultiDomainDataset(x=x.reshape(-1, d_x), manifest=manifest)


def save(dataset: MultiDomainDataset, directory) -> None:
    """Write manifest.json and samples.spdg; a dataset its constructor would refuse
    now is refused before any write."""
    dataset.check()
    directory = Path(directory)
    write_json(directory / "manifest.json", asdict(dataset.manifest))
    write_blob(directory / "samples.spdg", dataset.x)


def load(directory) -> MultiDomainDataset:
    """The dataset saved in directory; what its constructor refuses is a FormatError.
    A dataset of another format_version, such as a format-2 one whose labels.spdg
    could hold another sample order, is refused with the remedy to regenerate it."""
    directory = Path(directory)
    raw = read_manifest(directory / "manifest.json", "dataset", DATASET_FORMAT_VERSION,
                        remedy="; regenerate it with `spdg gen-data`")
    x = read_blob(directory / "samples.spdg")
    with manifest_fields(directory, "dataset"):
        manifest = DatasetManifest(**{f.name: raw[f.name] for f in fields(DatasetManifest)})
        return MultiDomainDataset(x=x, manifest=manifest)
