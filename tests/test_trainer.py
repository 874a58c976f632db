import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdg.errors import ConfigError, NormalizationError, TrainingDiverged
from spdg.losses import LossWeights
from spdg.tensor import Tensor
from spdg.trainer import (
    OptimizerState,
    RunConfig,
    check_run,
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
        p = Tensor(np.array([1.5]))
        state = OptimizerState.for_params([p])
        state.velocity[:] = 1.0
        sgd_momentum_step([p], [np.zeros(1)], state, lr=0.0, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == 1.5
        assert state.velocity[0] == pytest.approx(0.9)

    def test_hand_recurrence_two_steps(self):
        p = Tensor(np.array([1.0]))
        state = OptimizerState.for_params([p])
        sgd_momentum_step([p], [np.array([0.5])], state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == pytest.approx(0.95, abs=1e-15)
        sgd_momentum_step([p], [np.array([0.5])], state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert state.velocity[0] == pytest.approx(0.95, abs=1e-15)
        assert p.data[0] == pytest.approx(0.855, abs=1e-15)

    def test_decay_only_update(self):
        p = Tensor(np.array([1.0]))
        state = OptimizerState.for_params([p])
        sgd_momentum_step([p], [np.zeros(1)], state, lr=0.1, momentum=0.0, weight_decay=5e-4)
        assert p.data[0] == pytest.approx(1.0 - 0.1 * 5e-4, abs=1e-18)

    def test_non_finite_grad_aborts(self):
        p = Tensor(np.array([1.0]))
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
        p = Tensor(rng.normal(size=6))
        state = OptimizerState.for_params([p])
        values = []
        for _ in range(200):
            values.append(0.5 * p.data @ spd @ p.data)
            sgd_momentum_step([p], [spd @ p.data], state, lr=lr, momentum=0.9, weight_decay=0.0)
        values.append(0.5 * p.data @ spd @ p.data)
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.5 * values[0]


class TestLrSchedule:
    # 10 steps per epoch over 3 epochs: 30 steps
    CONFIG = RunConfig(epochs=3, lr_warmup=1e-5, lr_max=0.002)

    def test_warmup_epoch_exact(self):
        for step in range(10):
            assert lr_at(step, 10, self.CONFIG) == 1e-5

    def test_first_post_warmup_is_lr_max(self):
        assert lr_at(10, 10, self.CONFIG) == 0.002

    def test_cosine_midpoint_and_endpoint(self):
        assert lr_at(20, 10, self.CONFIG) == pytest.approx(0.001, abs=1e-15)
        # endpoint is outside the schedule; evaluate the formula one shy of it
        t_cos = 30 - 10
        end = 0.5 * 0.002 * (1 + np.cos(np.pi * (t_cos) / t_cos))
        assert end == pytest.approx(0.0, abs=1e-18)

    def test_non_increasing_post_warmup(self):
        lrs = [lr_at(s, 10, self.CONFIG) for s in range(10, 30)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(30, 10, self.CONFIG)

    def test_single_epoch_all_warmup(self):
        config = RunConfig(epochs=1, lr_warmup=1e-5, lr_max=0.002)
        assert [lr_at(s, 4, config) for s in range(4)] == [1e-5] * 4


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

    def test_all_samples_used_or_dropped_cleanly(self):
        train = {d: np.arange(d * 100, d * 100 + 20) for d in range(2)}
        batches = stratified_batches(train, 8, seed=0)
        flat = np.concatenate(batches)
        assert len(flat) == len(set(flat.tolist()))
        assert len(flat) == 40  # 40 samples pack exactly into 8-size batches


class TestCheckRun:
    # small_dataset: 4 classes x 12 samples in each of photo, cartoon and sketch
    def test_training_domains_by_held_out_name(self, small_dataset):
        assert check_run(small_dataset, RunConfig(held_out_domain="cartoon")) == [0, 2]
        assert check_run(small_dataset, RunConfig(held_out_domain=None, batch_size=6)) == [0, 1, 2]

    def test_held_out_domain_index_rejected(self, small_dataset):
        with pytest.raises(ConfigError, match="held-out domain 1 not in dataset domains"):
            check_run(small_dataset, RunConfig(held_out_domain=1))

    def test_batch_too_small_rejected(self, small_dataset):
        with pytest.raises(ConfigError, match="batch size 5"):
            check_run(small_dataset, RunConfig(batch_size=5))

    @pytest.mark.parametrize("ratio", [0.031, 0.004])
    def test_fewer_than_two_kept_for_training_rejected(self, small_dataset, ratio):
        # 0.031 of a domain's 48 samples rounds to 1; 0.004 rounds to 0, which the split lifts to 1
        with pytest.raises(ConfigError, match="keeps 1 of each domain's 48 samples"):
            check_run(small_dataset, RunConfig(val_ratio=ratio))

    def test_two_kept_for_training_split_as_checked(self, small_dataset):
        assert check_run(small_dataset, RunConfig(val_ratio=0.032)) == [0, 1, 2]  # 1.536 rounds to 2
        indices = {d: small_dataset.domain_indices(d) for d in range(3)}
        train, _ = split_train_val(indices, 0.032, seed=0)
        assert [len(train[d]) for d in range(3)] == [2, 2, 2]


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

    def test_numbers_accepted_and_domain_ids_rejected(self):
        cfg = RunConfig.from_dict({"lr_max": 1, "held_out_domain": "sketch",
                                   "extra_classes": ["kite"], "weights": {"w_d": 0},
                                   "dims": {"d_f": 32}})
        assert cfg.lr_max == 1 and cfg.held_out_domain == "sketch" and cfg.dims.d_f == 32
        with pytest.raises(ConfigError, match=r"held_out_domain must be str \| None"):
            RunConfig.from_dict({"held_out_domain": 2})

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

    def test_each_step_draws_its_eps_from_the_mc_stream(self, small_dataset, monkeypatch):
        import spdg.trainer
        from spdg.prompter import sample_styles_batch
        from spdg.trainer import seed_from
        draws = []

        def spy(mu, sigma, eps):
            draws.append(eps.copy())
            return sample_styles_batch(mu, sigma, eps)

        monkeypatch.setattr(spdg.trainer, "sample_styles_batch", spy)
        cfg = RunConfig(seed=5, held_out_domain="sketch", epochs=2, batch_size=8, mc_samples=3)
        result = train_style_prompter(cfg, dataset=small_dataset)
        # one (B * mc_samples, d_t) draw per step, B the step's batch rows, in step
        # order from one stream
        stream = np.random.default_rng(seed_from(cfg.seed, 2))
        assert len(draws) == sum("step" in m for m in result.metrics) > 0
        for eps in draws:
            assert len(eps) % 3 == 0 and eps.shape[1] == cfg.dims.d_t
            assert np.array_equal(eps, stream.standard_normal(eps.shape))

    @pytest.mark.parametrize("kind", ["file", "empty"])
    def test_out_dir_must_be_new_or_an_empty_directory(self, small_dataset, tmp_path, kind):
        out = tmp_path / "run"
        if kind == "file":
            out.write_text("not a run")
        else:
            out.mkdir()
        cfg = RunConfig(seed=0, held_out_domain="sketch", epochs=1, batch_size=8,
                        mc_samples=2, out_dir=str(out))
        if kind == "file":
            with pytest.raises(ConfigError, match="not an empty directory"):
                train_style_prompter(cfg, dataset=small_dataset)
            assert out.read_text() == "not a run"
        else:
            assert train_style_prompter(cfg, dataset=small_dataset).final_dir == str(out / "final")

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

        def failing_second_step(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise NormalizationError("injected style-sample failure")
            return domain_discrimination_loss(*args, **kwargs)

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


_NAN, _INF = float("nan"), float("inf")
# values from_dict accepts, kept small: rates that cannot overflow, and with epochs 1 and
# mc_samples <= 4, which every example sets, little work. On small_dataset, "watercolor",
# val_ratio 0.004, d_x 16 and a batch under 2 per training domain fail the run check.
_VALID = {
    "prompter_kind": st.sampled_from(["basic", "gaussian"]), "use_style_reg": st.booleans(),
    "batch_size": st.integers(2, 16), "lr_max": st.floats(0.0, 0.1),
    "lr_warmup": st.floats(0.0, 0.1), "momentum": st.floats(0.0, 0.99),
    "weight_decay": st.floats(0.0, 0.01), "seed": st.integers(0, 3),
    "held_out_domain": st.sampled_from([None, "photo", "cartoon", "sketch", "watercolor"]),
    "logit_scale": st.floats(1.0, 100.0),
    "val_ratio": st.sampled_from([0.004, 0.05, 0.5, 0.9, 0.99]),
    "select_best": st.booleans(), "extra_classes": st.sampled_from([[], ["kite"]]),
    "weights": st.fixed_dictionaries({}, optional={
        "w_d": st.floats(0.0, 1.0), "w_reg": st.floats(0.0, 10.0), "tau_d": st.floats(0.05, 1.0),
        "ce_scale": st.floats(0.1, 2.0)}),
    "dims": st.sampled_from([{}, {"d_f": 8}, {"d_x": 16}]),
}
# values that are out of range, not finite or of the wrong JSON type
_INVALID = {
    "prompter_kind": ["mlp", 1], "use_style_reg": [1, "yes"], "epochs": [0, -1, 1.0, "1"],
    "batch_size": [1, 0, -4, 8.0], "mc_samples": [0, -1, None],
    "lr_max": [-1, _NAN, _INF, "0.1"], "lr_warmup": [-1e-5, _NAN, -_INF],
    "momentum": [1, 5, -3, _NAN], "weight_decay": [-100, _NAN, _INF], "seed": [-1, 0.5],
    "held_out_domain": [2, 1.5, ["sketch"]], "logit_scale": [0, -1, _NAN, _INF],
    "val_ratio": [0, 1, -0.5, _NAN], "select_best": [1, None], "extra_classes": ["kite", [1]],
    "weights": [{"tau_d": 0}, {"tau_d": 1e-39}, {"w_d": -0.1}, {"w_reg": _INF}, {"ce_scale": _NAN},
                [0.1]],
    "dims": [{"d_t": 1}, {"d_i": 64.0}, 5], "bogus": [1],
}


@st.composite
def _run_config_dicts(draw):
    raw = {"epochs": 1, "mc_samples": draw(st.integers(1, 4)),
           **draw(st.fixed_dictionaries({}, optional=_VALID))}
    broken = draw(st.none() | st.sampled_from(list(_INVALID)))  # about half the examples
    if broken is not None:
        raw[broken] = draw(st.sampled_from(_INVALID[broken]))
    return raw


@settings(max_examples=200, derandomize=True, deadline=None)
@given(raw=_run_config_dicts())
def test_any_config_dict_is_rejected_up_front_or_trains(small_dataset, raw):
    """from_dict or check_run rejects a config with a ConfigError, or one epoch
    trains to a result or a TrainingDiverged; nothing else escapes."""
    try:
        config = RunConfig.from_dict(raw)
        check_run(small_dataset, config)
    except ConfigError:
        return
    try:
        result = train_style_prompter(config, dataset=small_dataset)
    except TrainingDiverged:
        return
    assert len(result.val_accuracies) == 1
