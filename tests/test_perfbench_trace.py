"""A traced benchmark run still sees every layer of a training step.

The benchmark's span recorder times each layer through a wrapper at the name
its caller looks up, and charges each tape node's backward to the span that
was innermost when the node was recorded. A layer that stops reaching its
span (a renamed call, a node recorded outside its layer) would otherwise show
only in a traced benchmark run. This test loads perfbench/spans.py from its
source without writing anything next to it, installs its real Tracer around
one short training run per prompter kind, one LODO matrix and the two
prediction calls, and checks the spans each recorded.
"""

import types
from pathlib import Path

import pytest

import spdg.evaluate
import spdg.inference
from spdg.prompter import init_gaussian_prompter
from spdg.trainer import RunConfig, train_style_prompter

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the spans whose forward records one tape node of the step
NODE_SPANS = {
    "basic": {"prompter.forward", "tensor.l2_normalize", "losses.domain_discrimination_loss",
              "encoders.encode_text_batch", "losses.prompted_ce_and_reg", "losses.total_loss"},
}
NODE_SPANS["gaussian"] = NODE_SPANS["basic"] | {"prompter.sample_styles_batch"}
STEP_SPANS = {"encoders.encode_image", "tensor.Tape.backward", "trainer.sgd_momentum_step"}


@pytest.fixture(scope="module")
def spans():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def _trace(spans, run):
    """Every span's stats recorded while run() ran under the benchmark's Tracer."""
    tracer, patcher = spans.Tracer(), spans.Patcher()
    tracer.install(patcher)
    try:
        run()
    finally:
        patcher.restore()
    return tracer.stats


def _called(stats):
    return {name for name, s in stats.items() if s.calls}


def _with_backward(stats):
    return {name for name, s in stats.items() if s.bwd_s > 0}


@pytest.mark.parametrize("kind", ["basic", "gaussian"])
def test_traced_training_step_reaches_every_layer(spans, small_dataset, kind):
    stats = _trace(spans, lambda: train_style_prompter(
        RunConfig(seed=0, prompter_kind=kind, held_out_domain="sketch", epochs=1, batch_size=8,
                  mc_samples=2), dataset=small_dataset))
    assert NODE_SPANS[kind] | STEP_SPANS <= _called(stats)
    # every node's backward is charged to the span that recorded it, and only there
    assert _with_backward(stats) == NODE_SPANS[kind]
    assert set(stats["tensor.Tape.backward"].counts["nodes"]) == {len(NODE_SPANS[kind])}


def test_traced_lodo_matrix_reaches_its_layers(spans, small_dataset):
    base = RunConfig(epochs=1, batch_size=8, mc_samples=2)
    stats = _trace(spans, lambda: spdg.evaluate.evaluate_leave_one_out(
        "small", ["baseline_C", "gsp_sr"], [0], base=base, dataset=small_dataset))
    assert {"evaluate.evaluate_leave_one_out", "trainer.train_style_prompter",
            "inference.predict_batch", "inference.zero_shot_predict_batch",
            "encoders.build_bundle"} <= _called(stats)


def test_traced_prediction_reaches_its_layers_without_backward(spans, small_dataset, bundle, dims):
    prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
    classes = small_dataset.classes

    def predict():
        spdg.inference.predict_batch(bundle, prompter, small_dataset.x[:16], classes)
        spdg.inference.infer(bundle, prompter, small_dataset.x[0], classes)

    stats = _trace(spans, predict)
    assert {"inference.predict_batch", "inference.infer", "losses.prompt_text_features",
            "encoders.encode_text_batch", "encoders.encode_image",
            "prompter.forward"} <= _called(stats)
    assert not _with_backward(stats)
