"""Every attribute the benchmark's span recorder patches exists in the package,
and every spdg call the benchmark's workloads make still binds.

The benchmark times each layer by replacing a module or class attribute with
a wrapper, so renaming or moving one of them breaks a traced benchmark run
and nothing else. This test loads perfbench/spans.py from its source without
writing anything next to it, hands both recorders a patcher that only records
what they would replace, and checks each target. It reads perfbench/workloads.py
as a syntax tree, so a dropped parameter, a dropped RunConfig field that a
workload reads off a training result, or a dropped dataset attribute that a
workload reads off its dataset, fails here and not in a benchmark run.
"""

import ast
import dataclasses
import importlib
import inspect
import types
from pathlib import Path

import pytest

import spdg.cli
import spdg.datagen
import spdg.evaluate
import spdg.tensor
import spdg.trainer
from spdg.trainer import RunConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


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


def _spdg_calls(tree):
    """(line, target, call) for each call of spdg.<module>.<name>, or of a name
    imported from an spdg module, in the tree."""
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("spdg") for alias in node.names}
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in imported:
            yield call.lineno, imported[func.id], call
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
              and isinstance(func.value.value, ast.Name) and func.value.value.id == "spdg"):
            yield call.lineno, (f"spdg.{func.value.attr}", func.attr), call


def test_workload_calls_bind_to_the_package():
    calls = list(_spdg_calls(ast.parse(WORKLOADS.read_text(encoding="utf-8"))))
    assert {name for _, (_, name), _ in calls} >= {"evaluate_leave_one_out", "main", "infer",
                                                    "predict_batch", "RunConfig"}
    unbound = []
    for line, (module, name), call in calls:
        target = getattr(importlib.import_module(module), name, None)
        if not callable(target):
            unbound.append(f"line {line}: {module}.{name} is not callable")
            continue
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            unbound.append(f"line {line}: {module}.{name} is called with * or ** arguments")
            continue
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {line}: {module}.{name}: {exc}")
    assert not unbound


def _run_config_reads(tree):
    """(line, field) for each attribute the tree reads off a run's config:
    <expr>.config.<field>, or <name>.<field> where name was bound to <expr>.config."""
    aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "config"
               for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                (isinstance(node.value, ast.Attribute) and node.value.attr == "config")
                or (isinstance(node.value, ast.Name) and node.value.id in aliases)):
            yield node.lineno, node.attr


def test_workload_config_reads_are_run_config_fields():
    reads = list(_run_config_reads(ast.parse(WORKLOADS.read_text(encoding="utf-8"))))
    assert {name for _, name in reads} >= {"extra_classes", "dims", "seed", "logit_scale",
                                           "held_out_domain", "epochs"}
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert [f"line {line}: RunConfig has no field {name!r}"
            for line, name in reads if name not in names] == []


@pytest.mark.parametrize("source, reads", [
    ("def f(result):\n    return result.config.extra_klasses\n", [(2, "extra_klasses")]),
    ("def f(result):\n    cfg = result.config\n    return cfg.sead + 1\n", [(3, "sead")]),
], ids=["off-the-result", "through-a-name"])
def test_config_reads_are_found_in_both_forms(source, reads):
    assert list(_run_config_reads(ast.parse(source))) == reads


# the workload attributes that hold a MultiDomainDataset
DATASET_HOLDERS = ("dataset", "pool", "generated")


def _dataset_reads(tree):
    """(line, attribute) for each attribute the tree reads off self.<holder>,
    holder being one of DATASET_HOLDERS."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr in DATASET_HOLDERS
                and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"):
            yield node.lineno, node.attr


def test_workload_dataset_reads_are_dataset_attributes(tmp_path):
    reads = list(_dataset_reads(ast.parse(WORKLOADS.read_text(encoding="utf-8"))))
    assert {name for _, name in reads} >= {"x", "class_ids", "classes", "domains", "domain_indices"}
    spdg.datagen.save(spdg.datagen.generate(n_per_cell=10, seed=0), tmp_path / "d")
    loaded = spdg.datagen.load(tmp_path / "d")
    assert [f"line {line}: a loaded MultiDomainDataset has no attribute {name!r}"
            for line, name in reads if not hasattr(loaded, name)] == []


@pytest.mark.parametrize("source, reads", [
    ("def f(self):\n    return self.pool.labels\n", [(2, "labels")]),
    ("def f(self):\n    return self.dataset.domain_ids[self.generated.x]\n",
     [(2, "domain_ids"), (2, "x")]),
    ("def f(other):\n    return other.pool.labels, self.path.name\n", []),
], ids=["one-read", "two-holders", "not-a-holder"])
def test_dataset_reads_are_found(source, reads):
    assert sorted(_dataset_reads(ast.parse(source))) == reads
