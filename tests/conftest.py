import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spdg
from spdg import datagen
from spdg.blob import read_blob, write_blob
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


# saved-dataset faults that load must refuse with a FormatError

def spoil_labels(directory: Path, damage: str) -> str:
    """Damage a saved dataset's labels.spdg; returns what load's FormatError says."""
    path = directory / "labels.spdg"
    manifest = json.loads((directory / "manifest.json").read_text())
    n_classes, n_domains = len(manifest["classes"]), len(manifest["domains"])
    labels = read_blob(path, kind="i")
    n = labels.shape[1]
    if damage in ("missing", "directory"):
        path.unlink()
        if damage == "directory":
            path.mkdir()
        return "cannot read blob"
    if damage == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
        return "payload size mismatch"
    if damage == "unknown dtype flag":
        raw = bytearray(path.read_bytes())
        raw[8] = 3
        path.write_bytes(bytes(raw))
        return "unknown dtype flag 3"
    replacement, message = {
        "float64": (labels.astype(np.float64), "holds float64 values, expected int64"),
        "transposed": (labels.T, f"labels have shape ({n}, 2), not (2, {n})"),
        "one row": (labels[:1], f"labels have shape (1, {n}), not (2, {n})"),
        "short": (labels[:, :-1], f"labels have shape (2, {n - 1}), not (2, {n})"),
        "flat": (labels.ravel(), f"labels have shape ({2 * n},), not (2, {n})"),
        "negative class": (labels * [[-1], [1]], f"class ids must lie in [0, {n_classes})"),
        "class past names": (labels + [[n_classes], [0]], f"class ids must lie in [0, {n_classes})"),
        "negative domain": (labels - [[0], [1]], f"domain ids must lie in [0, {n_domains})"),
        "domain past names": (labels + [[0], [1]], f"domain ids must lie in [0, {n_domains})"),
        "int64 extreme": (labels + [[0], [2**62]], f"domain ids must lie in [0, {n_domains})"),
        # ids in range, but one sample moved from the first cell to the second
        "cells uneven": (labels + [[0], [1]] * (np.arange(n) == 0),
                         f"cell ({manifest['classes'][0]!r}, {manifest['domains'][0]!r}) holds "
                         f"{manifest['n_per_cell'] - 1} samples, not n_per_cell"),
        "one class": (labels * [[0], [1]], f"holds {n_classes * manifest['n_per_cell']} samples"),
    }[damage]
    write_blob(path, np.ascontiguousarray(replacement))
    return message


LABEL_FAULTS = ["missing", "directory", "truncated", "unknown dtype flag", "float64", "transposed",
                "one row", "short", "flat", "negative class", "class past names",
                "negative domain", "domain past names", "int64 extreme", "cells uneven", "one class"]


# manifest edits generate would refuse, and how load's FormatError names them; where
# they can, the edits keep the sample count of a 4-class, 3-domain, 12-per-cell dataset
MANIFEST_FAULTS = [
    ({"n_per_cell": 12.0}, "n_per_cell must be int, got float 12.0"),
    ({"n_per_cell": "10"}, "n_per_cell must be int, got str '10'"),
    ({"n_per_cell": 9}, "n_per_cell must be in [10, inf)"),
    ({"n_per_cell": 10**9}, "over the cap of"),
    ({"d_x": 32.0}, "d_x must be int, got float 32.0"),
    ({"d_x": 0}, "d_x must be in [1, inf)"),
    ({"d_x": True}, "d_x must be int, got bool True"),
    ({"seed": "x"}, "seed must be int, got str 'x'"),
    ({"seed": -1}, "seed must be in [0, inf)"),
    ({"style_strength": "x"}, "style_strength must be float, got str 'x'"),
    ({"style_strength": -0.5}, "style_strength must be in [0.0, inf)"),
    ({"noise_std": None}, "noise_std must be float, got NoneType None"),
    ({"classes": ["dog", "dog", "guitar", "horse"]}, "classes names must be unique"),
    ({"domains": ["photo", "photo", "sketch"]}, "domains names must be unique"),
    ({"classes": ["dog"]}, "number of classes must be in [2, inf)"),
    ({"domains": ["photo", "cartoon"]}, "number of domains must be in [3, inf)"),
    ({"classes": "dog,elephant"}, "classes must be list[str], got str 'dog,elephant'"),
    ({"domains": ["photo", "cartoon", 3]}, "domains must be list[str], got list ['photo', 'cartoon', 3]"),
    # class names a prompt cannot hold, or that it reads as the same words
    ({"classes": ["dog", "Dog", "guitar", "horse"]}, "class names 'dog' and 'Dog' are the same words"),
    ({"classes": ["dog", " ", "guitar", "horse"]}, "class name ' ' must be one or more words"),
    ({"classes": ["dog", "sp", "guitar", "horse"]}, "class name 'sp' must be one or more words, none of them 'sp'"),
    ({"classes": ["one two three four five six seven eight nine ten", "dog", "guitar", "horse"]},
     "has 10 words; a prompt holds at most 9"),
]


def edit_manifest(directory: Path, edit: dict) -> None:
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(json.loads(manifest.read_text()) | edit))


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
    fixture = build_objective_fixture(batch=8, n_classes=4, n_domains=3, mc_samples=4)
    start = time.perf_counter()
    errors = run_objective_check(fixture=fixture)
    return errors, time.perf_counter() - start


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
