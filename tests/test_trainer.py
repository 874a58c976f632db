import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from spdg.errors import ConfigError, NormalizationError, TrainingDiverged
from spdg.losses import LossWeights
from spdg.tensor import Tensor
from spdg.trainer import (
    OptimizerState,
    RunConfig,
    Schedule,
    lr_at,
    sgd_momentum_step,
    split_train_val,
    stratified_batches,
    train_style_prompter,
)


class TestSgdMomentumStep:
    def _step(self, params, grads, state, lr, m, wd):
        sgd_momentum_step(params, grads, state, lr, m, wd)

    def test_zero_grad_zero_decay_keeps_params(self):
        p = Tensor(np.array([1.5]), requires_grad=True)
        state = OptimizerState.for_params([p])
        state.velocity[:] = 1.0
        sgd_momentum_step([p], [np.zeros(1)], state, lr=0.0, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == 1.5
        assert state.velocity[0] == pytest.approx(0.9)

    def test_hand_recurrence_two_steps(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState.for_params([p])
        sgd_momentum_step([p], [np.array([0.5])], state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == pytest.approx(0.95, abs=1e-15)
        sgd_momentum_step([p], [np.array([0.5])], state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert state.velocity[0] == pytest.approx(0.95, abs=1e-15)
        assert p.data[0] == pytest.approx(0.855, abs=1e-15)

    def test_decay_only_update(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState.for_params([p])
        sgd_momentum_step([p], [np.zeros(1)], state, lr=0.1, momentum=0.0, weight_decay=5e-4)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 5e-4, abs=1e-18)

    def test_non_finite_grad_aborts(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = OptimizerState.for_params([p])
        with pytest.raises(TrainingDiverged):
            sgd_momentum_step([p], [np.array([np.nan])], state, 0.1, 0.9, 0.0)

    def test_convex_quadratic_monotone_descent(self, rng):
        # optimizer smoke oracle: f(p) = 0.5 p'Ap on an SPD matrix; lr in the
        # overdamped regime (lr * eig_max <= (1 - sqrt(m))^2) so heavy-ball
        # momentum cannot oscillate
        a = rng.normal(size=(6, 6))
        spd = a @ a.T + 6 * np.eye(6)
        lr = 0.8 * (1 - np.sqrt(0.9)) ** 2 / np.linalg.eigvalsh(spd).max()
        p = Tensor(rng.normal(size=6), requires_grad=True)
        state = OptimizerState.for_params([p])
        values = []
        for _ in range(200):
            values.append(0.5 * p.data @ spd @ p.data)
            sgd_momentum_step([p], [spd @ p.data], state, lr=lr, momentum=0.9, weight_decay=0.0)
        values.append(0.5 * p.data @ spd @ p.data)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5 * values[0]


class TestLrSchedule:
    SCHED = Schedule(steps_per_epoch=10, epochs=3, lr_warmup=1e-5, lr_max=0.002)

    def test_warmup_epoch_exact(self):
        for step in range(10):
            assert lr_at(step, self.SCHED) == 1e-5

    def test_first_post_warmup_is_lr_max(self):
        assert lr_at(10, self.SCHED) == 0.002

    def test_cosine_midpoint_and_endpoint(self):
        assert lr_at(20, self.SCHED) == pytest.approx(0.001, abs=1e-15)
        # endpoint is outside the schedule; evaluate the formula one shy of it
        t_cos = self.SCHED.total_steps - self.SCHED.steps_per_epoch
        end = 0.5 * 0.002 * (1 + np.cos(np.pi * (t_cos) / t_cos))
        assert end == pytest.approx(0.0, abs=1e-18)

    def test_non_increasing_post_warmup(self):
        lrs = [lr_at(s, self.SCHED) for s in range(10, 30)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(30, self.SCHED)

    def test_single_epoch_all_warmup(self):
        sched = Schedule(steps_per_epoch=4, epochs=1, lr_warmup=1e-5, lr_max=0.002)
        assert [lr_at(s, sched) for s in range(4)] == [1e-5] * 4


class TestSplitTrainVal:
    def _domains(self, rng, sizes):
        start = 0
        out = {}
        for d, n in enumerate(sizes):
            out[d] = np.arange(start, start + n)
            start += n
        return out

    def test_ninety_ten(self, rng):
        train, val = split_train_val(self._domains(rng, [100, 100]), 0.9, seed=0)
        for d in (0, 1):
            assert len(train[d]) == 90 and len(val[d]) == 10

    def test_same_seed_identical(self, rng):
        domains = self._domains(rng, [40, 30])
        a = split_train_val(domains, 0.9, seed=3)
        b = split_train_val(domains, 0.9, seed=3)
        for d in domains:
            assert np.array_equal(a[0][d], b[0][d]) and np.array_equal(a[1][d], b[1][d])

    def test_partition(self, rng):
        domains = self._domains(rng, [25, 35])
        train, val = split_train_val(domains, 0.9, seed=1)
        for d in domains:
            merged = np.sort(np.concatenate([train[d], val[d]]))
            assert np.array_equal(merged, np.sort(domains[d]))
            assert len(np.intersect1d(train[d], val[d])) == 0

    def test_small_domain_rejected(self, rng):
        with pytest.raises(ConfigError, match="10"):
            split_train_val({0: np.arange(9)}, 0.9, seed=0)


class TestStratifiedBatches:
    def test_two_per_present_domain(self, rng):
        train = {d: np.arange(d * 100, d * 100 + 20) for d in range(3)}
        for batch in stratified_batches(train, 12, seed=0):
            doms = [int(i // 100) for i in batch]
            for d in set(doms):
                assert doms.count(d) >= 2

    def test_same_seed_identical(self):
        train = {d: np.arange(d * 100, d * 100 + 21) for d in range(3)}
        a = stratified_batches(train, 12, seed=5)
        b = stratified_batches(train, 12, seed=5)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_batch_too_small_rejected(self):
        train = {d: np.arange(10) for d in range(3)}
        with pytest.raises(ConfigError, match="batch size"):
            stratified_batches(train, 5, seed=0)

    def test_single_sample_domain_rejected(self):
        with pytest.raises(ConfigError, match="fewer than 2"):
            stratified_batches({0: np.arange(10), 1: np.arange(1)}, 8, seed=0)

    def test_all_samples_used_or_dropped_cleanly(self):
        train = {d: np.arange(d * 100, d * 100 + 20) for d in range(2)}
        batches = stratified_batches(train, 8, seed=0)
        flat = np.concatenate(batches)
        assert len(flat) == len(set(flat.tolist()))
        assert len(flat) == 40  # 40 samples pack exactly into 8-size batches


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig(seed=3, held_out_domain="sketch",
                        weights=LossWeights(w_d=0.2, w_reg=10.0))
        back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_recipe_defaults(self):
        cfg = RunConfig()
        assert cfg.mc_samples == 40
        assert cfg.epochs == 3
        assert cfg.lr_max == 0.002
        assert cfg.lr_warmup == 1e-5
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.weights.w_d == 0.1

    def test_every_field_type_is_checked(self):
        from spdg.trainer import _VALUE_TYPES
        from spdg.encoders import EncoderDims
        for kind in (RunConfig, LossWeights, EncoderDims):
            for f in fields(kind):
                assert f.type in _VALUE_TYPES, (kind.__name__, f.name)

    def test_domain_loss_size_cap_counts_the_style_rows(self):
        from spdg.trainer import MAX_DOMAIN_LOSS_BYTES
        rows = math.isqrt(MAX_DOMAIN_LOSS_BYTES // 8)   # the most rows whose matrix fits
        RunConfig(batch_size=rows, mc_samples=1)
        RunConfig(batch_size=2, mc_samples=rows // 2)
        with pytest.raises(ConfigError, match="domain-loss matrix"):
            RunConfig(batch_size=rows + 1, mc_samples=1)
        with pytest.raises(ConfigError, match="domain-loss matrix"):
            RunConfig(batch_size=2, mc_samples=rows // 2 + 1)
        # the basic prompter draws no samples: its matrix is batch_size rows square
        RunConfig(prompter_kind="basic", batch_size=12, mc_samples=10 ** 8)

    def test_numbers_and_ids_accepted(self):
        cfg = RunConfig.from_dict({"lr_max": 1, "held_out_domain": 2, "extra_classes": ["kite"],
                                   "weights": {"w_d": 0}, "dims": {"d_f": 32}})
        assert cfg.lr_max == 1 and cfg.held_out_domain == 2 and cfg.dims.d_f == 32

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(epochs=0)
        with pytest.raises(ConfigError):
            RunConfig(prompter_kind="mlp")


class TestTrainStylePrompter:
    def test_noop_training_keeps_params_bit_exact(self, small_dataset):
        cfg = RunConfig(seed=0, held_out_domain="sketch", epochs=1, batch_size=8,
                        mc_samples=2, lr_max=0.0, lr_warmup=0.0,
                        weights=LossWeights(w_d=0.0, w_reg=0.0, tau_d=0.1),
                        use_style_reg=False, weight_decay=0.0)
        from spdg.prompter import init_gaussian_prompter
        from spdg.trainer import seed_from
        reference = init_gaussian_prompter(cfg.dims.d_i, cfg.dims.d_t, seed_from(cfg.seed, 1))
        result = train_style_prompter(cfg, dataset=small_dataset)
        for (name, a), (_, b) in zip(result.prompter.parameters(), reference.parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_smoke_run_writes_everything(self, small_dataset, tmp_path):
        cfg = RunConfig(seed=1, held_out_domain="sketch", epochs=2, batch_size=8,
                        mc_samples=2, out_dir=str(tmp_path / "run"))
        result = train_style_prompter(cfg, dataset=small_dataset)
        assert (tmp_path / "run" / "metrics.ndjson").exists()
        assert (tmp_path / "run" / "final" / "manifest.json").exists()
        assert (tmp_path / "run" / "checkpoints" / "epoch_2" / "w1.spdg").exists()
        assert (tmp_path / "run" / "bundle" / "manifest.json").exists()
        assert len(result.val_accuracies) == 2
        step_records = [m for m in result.metrics if "step" in m]
        assert {"step", "epoch", "lr", "loss_total", "loss_d", "loss_reg", "loss_ce"} \
            <= set(step_records[0])

    def test_determinism_byte_identical(self, small_dataset, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = RunConfig(seed=4, held_out_domain="cartoon", epochs=2, batch_size=8,
                            mc_samples=3, out_dir=str(tmp_path / name))
            train_style_prompter(cfg, dataset=small_dataset)
            outs.append(tmp_path / name)
        for rel in ["metrics.ndjson", "final/w1.spdg", "final/w_sigma.spdg", "final/manifest.json"]:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_basic_prompter_path(self, small_dataset):
        cfg = RunConfig(seed=0, prompter_kind="basic", use_style_reg=False,
                        held_out_domain="sketch", epochs=1, batch_size=8, mc_samples=2)
        result = train_style_prompter(cfg, dataset=small_dataset)
        assert result.prompter.kind == "basic"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_diagnostics(self, small_dataset, tmp_path):
        cfg = RunConfig(seed=0, held_out_domain="sketch", epochs=2, batch_size=8,
                        mc_samples=2, lr_max=1e14, lr_warmup=1e14,
                        out_dir=str(tmp_path / "boom"))
        with pytest.raises(TrainingDiverged):
            train_style_prompter(cfg, dataset=small_dataset)
        assert list((tmp_path / "boom").glob("diagnostics_step_*.json"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflows are the triggers
    @pytest.mark.parametrize("trigger", ["forward", "loss", "optimizer", "step-1"])
    def test_each_failure_exit_writes_diagnostics(self, small_dataset, tmp_path, monkeypatch,
                                                  trigger):
        import spdg.trainer
        from spdg.encoders import FrozenEncoderBundle, build_bundle
        from spdg.losses import domain_discrimination_loss

        def dead_projection(dims, vocab, seed, logit_scale):
            b = build_bundle(dims, vocab, seed, logit_scale)
            return FrozenEncoderBundle(b.dims, b.vocab, b.seed, b.logit_scale,
                                       {**b.weights, "proj_w": np.zeros_like(b.weights["proj_w"])})

        calls = []

        def failing_second_step(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NormalizationError("injected style-sample failure")
            return domain_discrimination_loss(*args)

        if trigger == "forward":
            monkeypatch.setattr(spdg.trainer, "build_bundle", dead_projection)
        if trigger == "step-1":
            monkeypatch.setattr(spdg.trainer, "domain_discrimination_loss", failing_second_step)
        weights = {"loss": LossWeights(ce_scale=1e308),
                   "optimizer": LossWeights(w_d=1e308)}.get(trigger, LossWeights())
        cfg = RunConfig(seed=0, held_out_domain="sketch", epochs=1, batch_size=8, mc_samples=2,
                        weights=weights, out_dir=str(tmp_path / "run"))
        step = 1 if trigger == "step-1" else 0
        dump = tmp_path / "run" / f"diagnostics_step_{step}.json"
        expected = {"forward": "projected image feature", "loss": "non-finite loss",
                    "optimizer": "non-finite gradient at step 0",
                    "step-1": "injected style-sample failure"}[trigger]
        with pytest.raises(TrainingDiverged, match=f"step {step}") as info:
            train_style_prompter(cfg, dataset=small_dataset)
        assert expected in str(info.value)
        assert str(dump) in str(info.value)
        payload = json.loads(dump.read_text())
        if trigger in ("forward", "step-1"):
            assert expected in payload["losses"]["error"]
        else:
            assert set(payload["losses"]) == {"loss_total", "loss_d", "loss_reg", "loss_ce"}
        # only the optimizer failure comes after its own step's backward
        grad_norms = payload["grad_norms"]
        assert len(grad_norms) == len(payload["param_norms"]) == 8
        assert all((v is None) == (trigger != "optimizer") for v in grad_norms.values())

    def test_batch_size_contract(self, small_dataset):
        cfg = RunConfig(seed=0, held_out_domain=None, batch_size=4)
        with pytest.raises(ConfigError, match="batch size"):
            train_style_prompter(cfg, dataset=small_dataset)

    def test_unknown_held_out_rejected(self, small_dataset):
        cfg = RunConfig(seed=0, held_out_domain="watercolor")
        with pytest.raises(ConfigError, match="watercolor"):
            train_style_prompter(cfg, dataset=small_dataset)

    @pytest.mark.parametrize("run_dir", [True, False], ids=["run-dir", "no-run-dir"])
    def test_select_best_picks_best_validation_epoch(self, small_dataset, tmp_path, run_dir):
        from spdg.prompter import load_checkpoint
        cfg = RunConfig(seed=2, held_out_domain="sketch", epochs=3, batch_size=8,
                        mc_samples=2, out_dir=str(tmp_path / "run"), select_best=True)
        result = train_style_prompter(cfg, dataset=small_dataset)
        best_epoch = int(np.argmax(result.val_accuracies)) + 1
        assert best_epoch != cfg.epochs  # the last epoch's prompter would be wrong
        best_dir = tmp_path / "run" / "checkpoints" / f"epoch_{best_epoch}"
        if run_dir:
            for blob in sorted(best_dir.glob("*.spdg")):
                assert blob.read_bytes() == (tmp_path / "run" / "final" / blob.name).read_bytes()
        else:
            # a LODO fold trains without a run directory and must still select
            in_memory = train_style_prompter(replace(cfg, out_dir=None), dataset=small_dataset)
            best, _ = load_checkpoint(best_dir)
            for (name, a), (_, b) in zip(in_memory.prompter.parameters(), best.parameters()):
                assert np.array_equal(a.data, b.data), name
