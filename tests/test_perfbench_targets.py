"""Every attribute the benchmark's span recorder patches exists in the package.

The benchmark times each layer by replacing a module or class attribute with
a wrapper, so renaming or moving one of them breaks a traced benchmark run
and nothing else. This test loads perfbench/spans.py from its source without
writing anything next to it, hands both recorders a patcher that only records
what they would replace, and checks each target.
"""

import types
from pathlib import Path

import pytest

import spdg.cli
import spdg.evaluate
import spdg.tensor
import spdg.trainer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


class RecordingPatcher:
    """Takes the recorders' patch calls and replaces nothing."""

    def __init__(self):
        self.targets = []

    def patch(self, owner, attr, make):
        self.targets.append((owner, attr))


def _missing(targets):
    return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
            if not callable(getattr(owner, attr, None))]


def test_span_targets_exist(spans):
    assert spans.SPAN_TARGETS
    assert not _missing([(owner, attr) for owner, attr, _, _ in spans.SPAN_TARGETS])


def test_tracer_patches_exist(spans):
    patcher = RecordingPatcher()
    spans.Tracer().install(patcher)
    assert (spdg.tensor, "apply") in patcher.targets
    assert (spdg.tensor.Tape, "backward") in patcher.targets
    assert not _missing(patcher.targets)


def test_run_probe_patches_exist(spans):
    patcher = RecordingPatcher()
    spans.RunProbe().install(patcher)
    assert patcher.targets == [
        (spdg.trainer, "encode_image"),
        (spdg.trainer, "sgd_momentum_step"),
        (spdg.evaluate, "train_style_prompter"),
        (spdg.cli, "train_style_prompter"),
    ]
    assert not _missing(patcher.targets)
