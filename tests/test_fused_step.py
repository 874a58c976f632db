"""Each fused training-step node against its primitive-by-primitive oracle,
the tape size of a whole step, and the flat-buffer optimizer."""

import numpy as np
import pytest

import spdg.tensor
import spdg.trainer
from conftest import WIDE_CLASSES
from oracles import (
    add,
    composed_basic_forward,
    composed_gaussian_forward,
    composed_head,
    composed_prompted_ce_and_reg,
    composed_sample_styles_batch,
    composed_total_loss,
    mul,
    per_tensor_sgd_step,
    sum_all,
)
from spdg.encoders import encode_image
from spdg.errors import ConfigError, DegenerateVectorError, TrainingDiverged
from spdg.losses import (
    LossWeights,
    build_reg_anchors,
    classification_head,
    prompted_ce_and_reg,
    total_loss,
)
from spdg.prompter import (
    StylePrompter,
    basic_forward,
    gaussian_forward,
    init_basic_prompter,
    init_gaussian_prompter,
    sample_styles_batch,
)
from spdg.tensor import Tape, Tensor
from spdg.trainer import OptimizerState, RunConfig, sgd_momentum_step, train_style_prompter


def taped(fn, arrays, probes):
    """Outputs, input gradients and tape length of sum_k <fn(*inputs)[k], probes[k]>."""
    leaves = [Tensor(np.array(a, copy=True)) for a in arrays]
    with Tape() as tape:
        outs = [o for o in fn(*leaves) if o is not None]
        loss = sum_all(mul(outs[0], Tensor(probes[0])))
        for out, w in zip(outs[1:], probes[1:]):
            loss = add(loss, sum_all(mul(out, Tensor(w))))
    n_nodes = len(tape)
    return [o.data for o in outs], tape.backward(loss, leaves), n_nodes


def assert_close(got, want, tol):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= tol * max(1.0, np.abs(w).max())


class TestClassificationHead:
    @pytest.mark.parametrize("b, n_classes, with_reg", [
        (3, 4, True), (3, 4, False), (1, 4, True), (1, 16, False), (5, 1, True), (12, 16, True),
    ])
    def test_matches_composed_oracle(self, wide_bundle, b, n_classes, with_reg):
        rng = np.random.default_rng([b, n_classes, with_reg])
        classes = WIDE_CLASSES[-n_classes:] if n_classes > 1 else ["ice cream"]
        z = encode_image(wide_bundle, rng.normal(size=(b, wide_bundle.dims.d_x)))
        styles = rng.normal(size=(b, wide_bundle.dims.d_t))
        labels = rng.integers(0, n_classes, size=b)
        anchors = build_reg_anchors(wide_bundle, classes) if with_reg else None
        probes = [np.asarray(0.7), np.asarray(-1.3)]

        def fused(s):
            return prompted_ce_and_reg(wide_bundle, z, s, labels, classes, anchors)

        def composed(s):
            return composed_prompted_ce_and_reg(wide_bundle, z, s, labels, classes, anchors)

        got, got_grad, _ = taped(fused, [styles], probes)
        want, want_grad, _ = taped(composed, [styles], probes)
        assert len(got) == len(want) == (2 if with_reg else 1)
        # the CE term is a log-sum-exp less a logit, so the fused and composed heads
        # round it apart by up to an ulp of a logit, whose size the logit scale sets
        assert np.abs(got[0] - want[0]) <= np.spacing(wide_bundle.logit_scale)
        # the fused backward sums the CE and regularizer terms in another order
        assert_close(got[1:], want[1:], 1e-15)
        assert_close(got_grad, want_grad, 1e-14)

    def test_single_class_has_zero_loss_and_gradient(self, wide_bundle, rng):
        z = encode_image(wide_bundle, rng.normal(size=(2, wide_bundle.dims.d_x)))
        (ce,), (grad,), _ = taped(lambda s: prompted_ce_and_reg(wide_bundle, z, s, [0, 0], ["dog"]),
                                  [rng.normal(size=(2, wide_bundle.dims.d_t))], [np.asarray(1.0)])
        assert ce == 0.0
        assert not grad.any()

    def test_one_node_over_the_text_features(self, wide_bundle, rng):
        z = encode_image(wide_bundle, rng.normal(size=(12, wide_bundle.dims.d_x)))
        anchors = build_reg_anchors(wide_bundle, WIDE_CLASSES)
        styles = Tensor(rng.normal(size=(12, wide_bundle.dims.d_t)))
        with Tape() as tape:
            prompted_ce_and_reg(wide_bundle, z, styles, rng.integers(0, 16, size=12),
                                WIDE_CLASSES, anchors)
        assert len(tape) == 2   # the text encoder and the head


class TestClassificationHeadEdges:
    D_F = 48

    @staticmethod
    def _inputs(b, n_classes, d, seed):
        rng = np.random.default_rng(seed)
        # each row scaled by a factor between 1e-6 and 1e6
        feats = rng.normal(size=(b * n_classes, d)) * 10.0 ** rng.uniform(-6, 6, size=(b * n_classes, 1))
        unit_z = rng.normal(size=(b, d))
        unit_z /= np.linalg.norm(unit_z, axis=1, keepdims=True)
        anchors = rng.normal(size=(n_classes, d))
        anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
        return feats, unit_z, rng.integers(0, n_classes, size=b), anchors

    @pytest.mark.parametrize("scale", [1.0, 100.0])
    @pytest.mark.parametrize("with_reg", [True, False], ids=["anchors", "no-anchors"])
    @pytest.mark.parametrize("n_classes", [1, 4, 16])
    @pytest.mark.parametrize("b", [1, 12])
    def test_row_scales_from_1e_6_to_1e6_match_composed_oracle(self, b, n_classes, with_reg, scale):
        feats, unit_z, labels, anchors = self._inputs(b, n_classes, self.D_F,
                                                      [b, n_classes, with_reg, int(scale)])
        probes = [np.asarray(0.7), np.asarray(-1.3)]

        def fused(f):
            out = classification_head(f, unit_z, labels, scale, anchors if with_reg else None)
            return out if with_reg else [out]

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got, got_grad, _ = taped(fused, [feats], probes)
            want, want_grad, _ = taped(lambda f: composed_head(f, unit_z, labels, scale, anchors if with_reg else None),
                                       [feats], probes)
        assert len(got) == len(want) == (2 if with_reg else 1)
        # a raw dot over the row norm and a dot of the unit row round apart by
        # a few ulps of a logit, whose size is set by the scale
        assert_close(got, want, 1e-15 * scale)
        assert_close(got_grad, want_grad, 1e-14 * scale)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
    @pytest.mark.parametrize("with_reg", [True, False], ids=["anchors", "no-anchors"])
    def test_degenerate_feature_row_raises(self, bad, with_reg):
        feats, unit_z, labels, anchors = self._inputs(3, 4, self.D_F, 5)
        feats[7] = bad
        with pytest.raises(DegenerateVectorError):
            classification_head(Tensor(feats), unit_z, labels, 100.0,
                                anchors if with_reg else None)

    def test_forms_no_unit_feature_matrix(self, monkeypatch):
        feats, unit_z, labels, anchors = self._inputs(3, 4, self.D_F, 6)

        def refuse(*args, **kwargs):
            raise AssertionError("unit_rows called on the prompted features")

        monkeypatch.setattr(spdg.tensor, "unit_rows", refuse)
        classification_head(Tensor(feats), unit_z, labels, 100.0, anchors)


class TestFusedPrompters:
    D_I, D_T = 16, 8

    @pytest.mark.parametrize("z_shape", [(5, 16), (16,)], ids=["batch", "one-vector"])
    def test_basic_matches_composed_oracle(self, z_shape, rng):
        p = init_basic_prompter(self.D_I, self.D_T, seed=3)
        names = [n for n, _ in p.parameters()]
        z = rng.normal(size=z_shape)
        arrays = [t.data for _, t in p.parameters()]
        probes = [rng.normal(size=z_shape[:-1] + (self.D_T,))]

        def run(forward):
            def fn(*params):
                return [forward(StylePrompter(p.kind, dict(zip(names, params))), z)]
            return fn

        got, got_grad, n_nodes = taped(run(basic_forward), arrays, probes)
        want, want_grad, _ = taped(run(composed_basic_forward), arrays, probes)
        assert n_nodes == 3   # the prompter node, then the probe's mul and sum
        assert_close(got, want, 0.0)   # the same array operations in the same order
        assert_close(got_grad, want_grad, 0.0)

    @pytest.mark.parametrize("z_shape", [(5, 16), (16,)], ids=["batch", "one-vector"])
    def test_gaussian_matches_composed_oracle(self, z_shape, rng):
        p = init_gaussian_prompter(self.D_I, self.D_T, seed=3)
        p.w_sigma.data = rng.normal(size=p.w_sigma.shape)   # sigma away from its init plateau
        names = [n for n, _ in p.parameters()]
        z = rng.normal(size=z_shape)
        arrays = [t.data for _, t in p.parameters()]
        probes = [rng.normal(size=z_shape[:-1] + (self.D_T,)) for _ in range(2)]

        def run(forward):
            def fn(*params):
                return forward(StylePrompter(p.kind, dict(zip(names, params))), z)
            return fn

        got, got_grad, _ = taped(run(gaussian_forward), arrays, probes)
        want, want_grad, _ = taped(run(composed_gaussian_forward), arrays, probes)
        assert_close(got, want, 0.0)
        assert_close(got_grad, want_grad, 0.0)

    def test_gaussian_mu_alone_gets_gradients(self, rng):
        p = init_gaussian_prompter(self.D_I, self.D_T, seed=3)
        params = [t for _, t in p.parameters()]
        with Tape() as tape:
            mu, _ = gaussian_forward(p, rng.normal(size=(3, self.D_I)))
            loss = sum_all(mu)
        grads = dict(zip(p.names, tape.backward(loss, params)))
        assert not grads["w_sigma"].any() and not grads["b_sigma"].any()
        assert grads["w_mu"].any() and grads["w1"].any()

    def test_sample_styles_batch_matches_composed_oracle(self, rng):
        mu, sigma = rng.normal(size=(4, self.D_T)), np.abs(rng.normal(size=(4, self.D_T)))
        eps = np.random.default_rng(8).standard_normal((4 * 5, self.D_T))
        probes = [rng.normal(size=(20, self.D_T))]
        got, got_grad, n_nodes = taped(
            lambda m, s: [sample_styles_batch(m, s, eps)],
            [mu, sigma], probes)
        want, want_grad, _ = taped(lambda m, s: [composed_sample_styles_batch(m, s, 5, eps)],
                                   [mu, sigma], probes)
        assert n_nodes == 3
        assert np.array_equal(got[0], want[0])   # same row order, same arithmetic
        assert_close(got_grad, want_grad, 0.0)

    def test_total_loss_matches_composed_oracle(self, rng):
        weights = LossWeights(w_d=0.3, w_reg=2.5, ce_scale=1.5)
        values = [np.asarray(v) for v in rng.normal(size=3)]
        for present in ([0], [0, 1], [0, 2], [0, 1, 2]):
            def run(fn):
                def parts(*ts):
                    slots = [None, None, None]
                    for k, t in zip(present, ts):
                        slots[k] = t
                    return [fn(weights, *slots)]
                return parts
            arrays = [values[k] for k in present]
            got, got_grad, n_nodes = taped(run(total_loss), arrays, [np.asarray(1.0)])
            want, want_grad, _ = taped(run(composed_total_loss), arrays, [np.asarray(1.0)])
            assert n_nodes == 3
            assert np.array_equal(got[0], want[0])
            assert all(np.array_equal(g, w) for g, w in zip(got_grad, want_grad))


class TestStepTapeSize:
    @pytest.mark.parametrize("kind, limit", [("basic", 8), ("gaussian", 12)])
    def test_nodes_per_step(self, small_dataset, monkeypatch, kind, limit):
        counts = []

        class CountingTape(Tape):
            def backward(self, loss, leaves):
                counts.append(len(self))
                return super().backward(loss, leaves)

        monkeypatch.setattr(spdg.trainer, "Tape", CountingTape)
        cfg = RunConfig(seed=0, prompter_kind=kind, held_out_domain="sketch", epochs=1,
                        batch_size=8, mc_samples=2)
        train_style_prompter(cfg, dataset=small_dataset)
        assert counts and max(counts) <= limit   # 27 (basic) and 34 (gaussian) when composed

    @pytest.mark.parametrize("kind", ["basic", "gaussian"])
    def test_every_node_input_is_a_parameter_or_an_earlier_output(self, small_dataset,
                                                                  monkeypatch, kind):
        # the tape records every node made under it and differentiates every
        # input, so a constant input, such as the image features, would cost
        # backward work that no caller reads
        steps = []

        class GuardTape(Tape):
            def __init__(self):
                super().__init__()
                self.recorded = []

            def record(self, out, inputs, backward_fn):
                self.recorded.append((out if type(out) is tuple else (out,), inputs))
                super().record(out, inputs, backward_fn)

            def backward(self, loss, leaves):
                known = {id(p) for p in leaves}
                for outs, inputs in self.recorded:
                    assert all(id(t) in known for t in inputs)
                    known.update(id(t) for t in outs)
                assert id(loss) in known
                steps.append(len(self.recorded))
                return super().backward(loss, leaves)

        monkeypatch.setattr(spdg.trainer, "Tape", GuardTape)
        cfg = RunConfig(seed=0, prompter_kind=kind, held_out_domain="sketch", epochs=1,
                        batch_size=8, mc_samples=2)
        train_style_prompter(cfg, dataset=small_dataset)
        assert steps and set(steps) == {6 if kind == "basic" else 7}


class TestFlatBufferOptimizer:
    SHAPES = [(6, 3), (3,), (3, 3), (3,), (3, 2), (2,)]

    def test_bit_identical_to_per_tensor_update(self, rng):
        init = [rng.normal(size=s) for s in self.SHAPES]
        flat_params = [Tensor(a.copy()) for a in init]
        ref_params = [Tensor(a.copy()) for a in init]
        state = OptimizerState.for_params(flat_params)
        ref_velocities = [np.zeros(s) for s in self.SHAPES]
        for step, lr in enumerate([1e-5, 0.002, 0.0015, 0.001, 3e-4, 0.0]):
            grads = [rng.normal(size=s) * 10.0 ** (step - 2) for s in self.SHAPES]
            sgd_momentum_step(flat_params, grads, state, lr, 0.9, 5e-4)
            per_tensor_sgd_step(ref_params, grads, ref_velocities, lr, 0.9, 5e-4)
            ref_velocity = np.concatenate([v.reshape(-1) for v in ref_velocities])
            assert np.array_equal(state.velocity, ref_velocity)
            for p, q in zip(flat_params, ref_params):
                assert np.array_equal(p.data, q.data)
        assert state.step == 6
        for p, view in zip(flat_params, state.views):
            assert p.data is view and np.shares_memory(view, state.flat)

    def test_non_finite_parameter_aborts(self):
        p = Tensor(np.array([1e308]))
        state = OptimizerState.for_params([p])
        with pytest.raises(TrainingDiverged, match="non-finite parameter after step 0"):
            with np.errstate(over="ignore"):
                sgd_momentum_step([p], [np.array([1e308])], state, -1e10, 0.9, 0.0)

    def test_non_finite_gradient_leaves_every_parameter_unchanged(self):
        params = [Tensor(np.ones(2)), Tensor(np.ones(3))]
        state = OptimizerState.for_params(params)
        with pytest.raises(TrainingDiverged, match="non-finite gradient at step 0"):
            sgd_momentum_step(params, [np.ones(2), np.array([1.0, np.inf, 1.0])], state,
                              0.1, 0.9, 0.0)
        assert all((p.data == 1.0).all() for p in params)

    def test_rebound_parameter_rejected(self):
        p = Tensor(np.ones(2))
        state = OptimizerState.for_params([p])
        p.data = np.zeros(2)
        with pytest.raises(ConfigError, match="rebound"):
            sgd_momentum_step([p], [np.ones(2)], state, 0.1, 0.9, 0.0)
