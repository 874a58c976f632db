"""A traced benchmark run still sees every layer of a training step.

The benchmark's span recorder times each layer through a wrapper at the name
its caller looks up, and charges each tape node's backward to the span that
was innermost when the node was recorded. A layer that stops reaching its
span (a renamed call, a node recorded outside its layer) would otherwise show
only in a traced benchmark run. This test loads perfbench/spans.py from its
source without writing anything next to it, installs its real Tracer around
one short training run per prompter kind, and checks the spans it recorded.
"""

import types
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("kind", ["basic", "gaussian"])
def test_traced_training_step_reaches_every_layer(spans, small_dataset, kind):
    tracer, patcher = spans.Tracer(), spans.Patcher()
    tracer.install(patcher)
    try:
        train_style_prompter(RunConfig(seed=0, prompter_kind=kind, held_out_domain="sketch",
                                       epochs=1, batch_size=8, mc_samples=2),
                             dataset=small_dataset)
    finally:
        patcher.restore()

    stats = tracer.stats
    called = {name for name, s in stats.items() if s.calls}
    assert NODE_SPANS[kind] | STEP_SPANS <= called
    # every node's backward is charged to the span that recorded it, and only there
    assert {name for name, s in stats.items() if s.bwd_s > 0} == NODE_SPANS[kind]
    assert set(stats["tensor.Tape.backward"].counts["nodes"]) == {len(NODE_SPANS[kind])}
