"""Tests of the benchmark itself. From the root of the checkout:

    python3 -m pytest perfbench/test_perfbench.py

Each workload's traced run is made twice, one plain and one traced unit
each; the whole file takes one to two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = {"count", "bytes", "bytes-computed"}

# The shape of each workload, as its design states it.
EXPECTED = {
    "lodo-fixture": {"losses.domain_discrimination_loss.rows": 480,
                     "tensor.Tape.nodes_per_step": 41, "evaluate.folds": 8},
    "train-wide": {"losses.domain_discrimination_loss.rows": 12,
                   "tensor.Tape.nodes_per_step": 423, "losses.build_reg_anchors.texts": 128},
    "serve": {"inference.predict_batch.samples": 16384, "tensor.Tape.nodes_per_step": 0},
}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    first, second = _result(_run(ROOT, *args)), _result(_run(ROOT, *args))
    assert first["correct"] and second["correct"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in first["metrics"].items()}
    exact = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] in EXACT_UNITS}
    assert exact == {k: second["metrics"][k]["value"] for k in exact}
    for name, value in EXPECTED[workload].items():
        assert first["metrics"][name]["value"] == value, name


def test_untraced_run_reports_every_end_to_end_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _result(_run(ROOT, "--workload", "serve", "--seed", "3", "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_training_seed_has_a_pin_and_a_missing_pin_fails():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    for name, cls in workloads.WORKLOADS.items():
        if cls.trains:
            for key in ("heldout_acc", "final_loss"):
                assert set(reference[key][name]) == {str(s) for s in range(workloads.REFERENCE_SEEDS)}
    wide = workloads.TrainWide(ROOT / ".perfbench", workloads.REFERENCE_SEEDS + 3, None, reference)
    assert wide.train_seed == wide.dataset_seed == 3
    empty = {"acc_tolerance": 0.03, "loss_rtol": 1e-4,
             "heldout_acc": {"train-wide": {}}, "final_loss": {"train-wide": {}}}
    out = workloads.Outcome(attempted=1)
    workloads._check_reference("train-wide", 3, 0.5, 1.0, empty, out)
    assert out.failed == 1


def test_refuses_to_run_without_the_source_tree():
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "--workload", "serve", "--seed", "3", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
