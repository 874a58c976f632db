import ctypes
from dataclasses import replace

import numpy as np
import pytest

from conftest import WIDE_CLASSES, run_python
from oracles import normalized_predict_batch
from spdg import datagen, evaluate
from spdg.blob import write_json
from spdg.encoders import FrozenEncoderBundle
from spdg.errors import ConfigError, DegenerateVectorError, ShapeError, TrainingDiverged
from spdg.evaluate import (
    evaluate_leave_one_out,
    style_similarity_report,
    write_report_csv,
    write_similarity_csv,
)
from spdg.inference import infer, predict_batch, zero_shot_predict_batch
from spdg.losses import LossWeights
from spdg.prompter import init_basic_prompter, init_gaussian_prompter
from spdg.tensor import Tensor
from spdg.trainer import RunConfig

QUICK = dict(epochs=1, batch_size=8, mc_samples=2)


@pytest.fixture(scope="module")
def quick_config():
    return RunConfig(**QUICK)


@pytest.fixture(scope="module")
def small_dataset_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small"
    datagen.save(datagen.generate(n_per_cell=12, seed=7,
                                  domains=["photo", "cartoon", "sketch"]), path)
    return path


@pytest.fixture(scope="module")
def lodo_report(small_dataset_dir, quick_config):
    return evaluate_leave_one_out(small_dataset_dir, ["baseline_C", "baseline_PC", "gsp"],
                                  seeds=[0], base=quick_config)


class TestLodoFoldFailures:
    @staticmethod
    def _failing_fold(exc):
        def fold(dataset, base, method, seed, held_out):
            if held_out == "cartoon":
                raise exc
            return 0.5
        return fold

    def test_typed_error_is_a_partial_result(self, monkeypatch, small_dataset_dir, quick_config):
        monkeypatch.setattr(evaluate, "_evaluate_fold",
                            self._failing_fold(TrainingDiverged("loss went non-finite")))
        report = evaluate_leave_one_out(small_dataset_dir, ["gsp"], seeds=[0], base=quick_config)
        assert report.partial
        assert [f["held_out"] for f in report.failures] == ["cartoon"]
        assert "TrainingDiverged" in report.failures[0]["error"]

    @pytest.mark.parametrize("threads", [1, 2])  # in-process, and through a forked pool
    def test_config_error_in_a_fold_aborts_the_run(self, monkeypatch, small_dataset_dir,
                                                   quick_config, threads):
        monkeypatch.setattr(evaluate, "_evaluate_fold",
                            self._failing_fold(ConfigError("batch too small for cartoon")))
        with pytest.raises(ConfigError, match="batch too small for cartoon"):
            evaluate_leave_one_out(small_dataset_dir, ["gsp"], seeds=[0], base=quick_config,
                                   threads=threads)

    def test_broken_invariant_aborts_the_run(self, monkeypatch, small_dataset_dir, quick_config):
        monkeypatch.setattr(evaluate, "_evaluate_fold",
                            self._failing_fold(AssertionError("encoder weights changed")))
        with pytest.raises(AssertionError, match="encoder weights changed"):
            evaluate_leave_one_out(small_dataset_dir, ["gsp"], seeds=[0], base=quick_config)

    def test_worker_task_lets_a_broken_invariant_through(self, monkeypatch, small_dataset_dir,
                                                        quick_config):
        monkeypatch.setattr(evaluate, "_evaluate_fold",
                            self._failing_fold(AssertionError("encoder weights changed")))
        dataset = datagen.load(small_dataset_dir)
        with pytest.raises(AssertionError):
            evaluate._fold_outcome(dataset, quick_config, ("cartoon", 0, "gsp"))


def _blas_thread_counts() -> list[int]:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return [getattr(lib, name)() for lib in map(ctypes.CDLL, libs)
            for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
            if hasattr(lib, name)]


class _RecordingPool:
    """Stands in for evaluate._process_pool: records the worker count, sets up
    this process as a worker, starts no process."""

    max_workers: list[int] = []

    def __init__(self, workers, dataset, base):
        self.max_workers.append(workers)
        evaluate._init_worker(dataset, base)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestWorkerCount:
    @pytest.mark.parametrize("threads, cpus, workers", [(4096, 8, 3), (4096, 2, 2), (2, 64, 2)])
    def test_bounded_by_usable_cpus_and_folds(self, monkeypatch, small_dataset_dir, quick_config,
                                              threads, cpus, workers):
        monkeypatch.setattr(_RecordingPool, "max_workers", [])
        monkeypatch.setattr(evaluate, "_worker_fold", None)  # the fake pool binds it in-process
        monkeypatch.setattr(evaluate, "_process_pool", _RecordingPool)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        report = evaluate_leave_one_out(small_dataset_dir, ["baseline_C"], seeds=[0],
                                        base=quick_config, threads=threads)
        assert _RecordingPool.max_workers == [workers]  # 3 folds: one per domain
        assert len(report.methods["baseline_C"].runs) == 3

    def test_one_worker_runs_in_process(self, monkeypatch, small_dataset_dir, quick_config):
        monkeypatch.setattr(evaluate, "_process_pool", None)
        monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0})
        report = evaluate_leave_one_out(small_dataset_dir, ["baseline_C"], seeds=[0],
                                        base=quick_config, threads=8)
        assert not report.partial

    def test_pool_workers_use_one_blas_thread(self, small_dataset, quick_config):
        with evaluate._process_pool(1, small_dataset, quick_config) as pool:
            assert pool.submit(_blas_thread_counts).result() == [1]
        assert _blas_thread_counts() != []  # numpy here runs on OpenBLAS

    def test_in_process_run_loads_no_pool_module(self, small_dataset_dir):
        script = (
            "import sys\n"
            "from spdg.evaluate import evaluate_leave_one_out\n"
            "from spdg.trainer import RunConfig\n"
            f"report = evaluate_leave_one_out({str(small_dataset_dir)!r}, ['baseline_C', 'gsp'],"
            " [0], base=RunConfig(epochs=1, batch_size=8, mc_samples=2), threads=1)\n"
            "assert not report.partial and len(report.methods['gsp'].runs) == 3\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith(('concurrent', 'multiprocessing'))))\n"
        )
        assert run_python(script).strip() == "[]"

    @pytest.mark.parametrize("threads", [0, -3])
    def test_fewer_than_one_is_config_error(self, small_dataset_dir, quick_config, threads):
        with pytest.raises(ConfigError, match="threads"):
            evaluate_leave_one_out(small_dataset_dir, ["baseline_C"], seeds=[0],
                                   base=quick_config, threads=threads)


class TestInfer:
    def test_matches_batch_path(self, small_dataset, bundle, dims):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        x = small_dataset.x[:5]
        preds, scores = predict_batch(bundle, prompter, x, small_dataset.classes)
        for i in range(5):
            cls, single_scores = infer(bundle, prompter, x[i], small_dataset.classes)
            assert cls == small_dataset.classes[preds[i]]
            assert np.abs(single_scores - scores[i]).max() <= 1e-12

    def test_pure_function_of_inputs(self, small_dataset, bundle, dims):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        x = small_dataset.x[0]
        a = infer(bundle, prompter, x, small_dataset.classes)
        b = infer(bundle, prompter, x, small_dataset.classes)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_empty_classes_rejected(self, bundle, dims, rng):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        with pytest.raises(ConfigError):
            infer(bundle, prompter, rng.normal(size=dims.d_x), [])

    @pytest.mark.parametrize("zeroed", [("proj_w",), ("txt_wp", "txt_bp")],
                             ids=["image-feature", "text-feature"])
    def test_degenerate_feature_raises(self, small_dataset, bundle, dims, zeroed):
        weights = dict(bundle.weights)
        for name in zeroed:
            weights[name] = np.zeros_like(weights[name])
        flat = FrozenEncoderBundle(bundle.dims, bundle.vocab, bundle.seed,
                                   bundle.logit_scale, weights)
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        with pytest.raises(DegenerateVectorError):
            predict_batch(flat, prompter, small_dataset.x[:3], small_dataset.classes)
        with pytest.raises(DegenerateVectorError):
            infer(flat, prompter, small_dataset.x[0], small_dataset.classes)
        with pytest.raises(DegenerateVectorError):
            style_similarity_report(flat, prompter, small_dataset.x[:3],
                                    small_dataset.class_ids[:3], ["photo"] * 3,
                                    small_dataset.classes)

    def test_nan_image_row_raises(self, small_dataset, bundle, dims):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        x = small_dataset.x[:3].copy()
        x[1, 4] = np.nan
        with pytest.raises(DegenerateVectorError):
            predict_batch(bundle, prompter, x, small_dataset.classes)
        with pytest.raises(DegenerateVectorError):
            infer(bundle, prompter, x[1], small_dataset.classes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_raises(self, bad):
        from spdg.tensor import unit_rows
        with pytest.raises(DegenerateVectorError):
            unit_rows(np.array([[1.0, 2.0], [bad, 1.0]]), "feature")

    @pytest.mark.parametrize("shape", [(0, 32), (32,), (1, 1, 32)], ids=["empty", "1d", "3d"])
    def test_batch_that_is_not_rows_is_shape_error(self, small_dataset, bundle, dims, shape):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        with pytest.raises(ShapeError, match="non-empty"):
            predict_batch(bundle, prompter, np.zeros(shape), small_dataset.classes)
        with pytest.raises(ShapeError, match="non-empty"):
            zero_shot_predict_batch(bundle, np.zeros(shape), small_dataset.classes)
        with pytest.raises(ShapeError, match="non-empty"):
            style_similarity_report(bundle, prompter, np.zeros(shape), np.zeros(shape[0], int),
                                    ["photo"] * shape[0], small_dataset.classes)

    def test_positive_scaling_keeps_prediction(self, small_dataset, bundle, dims):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        cls, scores = infer(bundle, prompter, small_dataset.x[3], small_dataset.classes)
        assert int(np.argmax(scores * 7.5)) == int(np.argmax(scores))


def straight_line_infer(bundle, prompter, x, classes):
    """From-scratch re-implementation of the inference path, all inline numpy.

    Kept deliberately independent of the package's ops: attention, pooling and
    normalization are written out by hand as the oracle for `infer`.
    """
    w = bundle.weights
    z = np.tanh(x @ w["img_w1"] + w["img_b1"]) @ w["img_w2"] + w["img_b2"]

    h1 = z @ prompter.w1.data + prompter.b1.data
    h1 = np.where(h1 > 0, h1, np.exp(h1) - 1)
    h2 = h1 @ prompter.w2.data + prompter.b2.data
    h2 = np.where(h2 > 0, h2, np.exp(h2) - 1)
    style = h2 @ prompter.w_mu.data + prompter.b_mu.data

    d_t = bundle.dims.d_t
    pos = np.arange(3, dtype=float)[:, None]
    idx = np.arange(d_t, dtype=float)[None, :]
    angles = pos / 10000.0 ** (2.0 * np.floor(idx / 2.0) / d_t)
    positions = 0.3 * np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))

    scores = []
    for cls in classes:
        ids = [bundle.word_to_id[cls], bundle.word_to_id["."]]
        emb = np.vstack([style, w["tok_emb"][ids]])
        seq = emb + positions
        q, k, v = seq @ w["txt_wq"], seq @ w["txt_wk"], seq @ w["txt_wv"]
        att = q @ k.T / np.sqrt(d_t)
        att = np.exp(att - att.max(axis=1, keepdims=True))
        att /= att.sum(axis=1, keepdims=True)
        pooled = (att @ v + seq).mean(axis=0)
        feat = pooled @ w["txt_wp"] + w["txt_bp"]
        zp = z @ w["proj_w"]
        cos = feat @ zp / (np.linalg.norm(feat) * np.linalg.norm(zp))
        scores.append(bundle.logit_scale * cos)
    scores = np.asarray(scores)
    return classes[int(np.argmax(scores))], scores


class TestInferOracle:
    def test_matches_hand_traced_forward(self, small_dataset, bundle, dims):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=3)
        for i in [0, 17, 40]:
            x = small_dataset.x[i]
            got_cls, got_scores = infer(bundle, prompter, x, small_dataset.classes)
            want_cls, want_scores = straight_line_infer(bundle, prompter, x,
                                                        small_dataset.classes)
            assert got_cls == want_cls
            assert np.allclose(got_scores, want_scores, atol=1e-9)


class TestPredictBatchOracle:
    @pytest.mark.parametrize("kind", ["basic", "gaussian"])
    @pytest.mark.parametrize("n_rows, n_classes", [(9, 1), (9, 16), (1, 16), (256, 4), (1, 4)])
    def test_matches_unit_row_logits(self, wide_bundle, kind, n_rows, n_classes):
        dims = wide_bundle.dims
        init = init_basic_prompter if kind == "basic" else init_gaussian_prompter
        prompter = init(dims.d_i, dims.d_t, seed=n_rows + n_classes)
        x = np.random.default_rng([n_rows, n_classes]).normal(size=(n_rows, dims.d_x))
        classes = WIDE_CLASSES[:n_classes] if n_classes > 1 else ["ice cream"]
        got_pred, got = predict_batch(wide_bundle, prompter, x, classes)
        want_pred, want = normalized_predict_batch(wide_bundle, prompter, x, classes)
        assert got.shape == (n_rows, n_classes)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got_pred, want_pred)


class TestOfflineContract:
    def test_inference_mutates_no_files(self, small_dataset_dir, quick_config, tmp_path):
        from spdg.encoders import load_bundle
        from spdg.prompter import load_checkpoint
        from spdg.trainer import train_style_prompter
        from dataclasses import replace
        ds = datagen.load(small_dataset_dir)
        cfg = replace(quick_config, seed=2, held_out_domain="sketch",
                      out_dir=str(tmp_path / "run"))
        train_style_prompter(cfg, dataset=ds)
        run = tmp_path / "run"
        snapshot = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        prompter, _ = load_checkpoint(run / "final")
        bundle = load_bundle(run / "bundle")
        infer(bundle, prompter, ds.x[0], ds.classes)
        predict_batch(bundle, prompter, ds.x[:8], ds.classes)
        style_similarity_report(bundle, prompter, ds.x[:4], ds.class_ids[:4],
                                [ds.domains[d] for d in ds.domain_ids[:4]], ds.classes)
        for p, blob in snapshot.items():
            assert p.read_bytes() == blob, p


class TestZeroShot:
    def test_methods_give_different_logits(self, bundle, rng):
        x = rng.normal(size=(3, bundle.dims.d_x))
        c, pc = (zero_shot_predict_batch(bundle, x, [render("dog"), render("horse")])[1]
                 for render in evaluate.ZERO_SHOT_METHODS.values())
        assert np.linalg.norm(c - pc) > 1e-6

    @pytest.mark.parametrize("method", ["baseline_C", "baseline_PC"])
    def test_length_groups_match_per_class_encodes(self, dims, rng, method):
        from oracles import encode_text
        from spdg.encoders import build_bundle, default_vocab, encode_image, project_image, tokenize
        classes = ["dog", "hot air balloon", "ice cream", "horse"]
        texts = [evaluate.ZERO_SHOT_METHODS[method](cls) for cls in classes]
        mixed = build_bundle(dims, default_vocab(classes), seed=0)
        x = rng.normal(size=(5, dims.d_x))
        _, got = zero_shot_predict_batch(mixed, x, texts)
        feats = np.stack([encode_text(mixed, Tensor(mixed.weights["tok_emb"][tokenize(t, mixed)])).data
                          for t in texts])
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        zp = project_image(mixed, encode_image(mixed, x))
        want = zp / np.linalg.norm(zp, axis=1, keepdims=True) @ feats.T * mixed.logit_scale
        assert np.abs(got - want).max() <= 1e-12 * mixed.logit_scale

    def test_deterministic(self, bundle, rng):
        x = rng.normal(size=(1, bundle.dims.d_x))
        a = zero_shot_predict_batch(bundle, x, ["dog", "horse"])
        b = zero_shot_predict_batch(bundle, x, ["dog", "horse"])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_single_class_always_predicted(self, bundle, rng):
        preds, _ = zero_shot_predict_batch(bundle, rng.normal(size=(1, bundle.dims.d_x)),
                                           ["a photo of a dog"])
        assert preds.tolist() == [0]


class TestLeaveOneOut:
    def test_report_shape_and_average_identity(self, lodo_report, small_dataset_dir):
        ds = datagen.load(small_dataset_dir)
        assert lodo_report.domains == ds.domains
        for method, res in lodo_report.methods.items():
            assert set(res.per_domain) == set(ds.domains)
            assert res.average == pytest.approx(np.mean(list(res.per_domain.values())), abs=1e-12)
            for run in res.runs:
                assert 0.0 <= run["accuracy"] <= 1.0

    def test_trained_methods_tagged_with_config_hash(self, lodo_report):
        assert lodo_report.methods["gsp"].config_hash
        assert lodo_report.methods["baseline_C"].config_hash is None

    def test_parallel_equals_serial(self, small_dataset_dir, quick_config):
        serial = evaluate_leave_one_out(small_dataset_dir, ["baseline_C", "gsp"], seeds=[0],
                                        base=quick_config, threads=1)
        parallel = evaluate_leave_one_out(small_dataset_dir, ["baseline_C", "gsp"], seeds=[0],
                                          base=quick_config, threads=2)
        for method in ("baseline_C", "gsp"):
            assert serial.methods[method].per_domain == parallel.methods[method].per_domain

    def test_parallel_report_is_identical(self, small_dataset_dir, quick_config):
        runs = [evaluate_leave_one_out(small_dataset_dir, ["baseline_PC", "bsp"], seeds=[0, 1],
                                       base=quick_config, threads=threads).to_dict()
                for threads in (1, 2)]
        assert runs[0] == runs[1]
        assert len(runs[0]["methods"]["bsp"]["runs"]) == 6

    def test_no_methods_rejected(self, small_dataset_dir, quick_config):
        with pytest.raises(ConfigError, match="method"):
            evaluate_leave_one_out(small_dataset_dir, [], seeds=[0], base=quick_config)

    def test_unknown_method_rejected(self, small_dataset_dir, quick_config):
        with pytest.raises(ConfigError):
            evaluate_leave_one_out(small_dataset_dir, ["cocoop"], seeds=[0], base=quick_config)

    @pytest.mark.parametrize("methods, seeds", [(["baseline_C", "baseline_C"], [0]),
                                                (["baseline_C"], [0, 1, 0])])
    def test_repeated_method_or_seed_rejected(self, small_dataset_dir, quick_config,
                                              methods, seeds):
        with pytest.raises(ConfigError, match="may be given once"):
            evaluate_leave_one_out(small_dataset_dir, methods, seeds=seeds, base=quick_config)

    def test_component_methods_are_one_matrix_of_distinct_configs(self, small_dataset_dir,
                                                                 quick_config):
        # the paper's component table: baseline, +BSP, +GSP, +GSP+SR
        methods = ["baseline_C", "bsp", "gsp", "gsp_sr"]
        report = evaluate_leave_one_out(small_dataset_dir, methods, seeds=[0], base=quick_config)
        assert list(report.methods) == methods and not report.partial
        assert report.methods["baseline_C"].config_hash is None
        assert len({report.methods[m].config_hash for m in methods[1:]} - {None}) == 3

    def test_every_held_out_domain_is_checked_before_any_fold(self, monkeypatch, small_dataset,
                                                              quick_config):
        events, check_run = [], evaluate.check_run
        monkeypatch.setattr(evaluate, "_evaluate_fold",
                            lambda *a: events.append(("fold", a[4])) or 0.5)
        monkeypatch.setattr(evaluate, "check_run", lambda dataset, config: events.append(
            ("check", config.held_out_domain)) or check_run(dataset, config))
        evaluate_leave_one_out("small", ["baseline_C", "gsp"], seeds=[0], base=quick_config,
                               dataset=small_dataset)
        domains = small_dataset.domains
        assert events == [("check", d) for d in domains] + [("fold", d) for d in domains for _ in "ab"]
        # a split that keeps 1 of a domain's 48 samples for training fails before any fold
        events.clear()
        with pytest.raises(ConfigError, match="keeps 1 of each domain's 48 samples"):
            evaluate_leave_one_out("small", ["baseline_C", "gsp"], seeds=[0],
                                   base=replace(quick_config, val_ratio=0.004), dataset=small_dataset)
        assert events == [("check", domains[0])]

    def test_one_method_config_per_trained_method(self, monkeypatch, small_dataset_dir,
                                                  quick_config):
        made, method_config = [], evaluate.method_config
        monkeypatch.setattr(evaluate, "_evaluate_fold", lambda *a: 0.5)
        monkeypatch.setattr(evaluate, "method_config",
                            lambda *a: made.append(a) or method_config(*a))
        report = evaluate_leave_one_out(small_dataset_dir, ["baseline_C", "bsp", "gsp_sr"],
                                        seeds=[0, 1], base=quick_config)
        assert [a[1] for a in made] == ["bsp", "gsp_sr"]
        assert report.methods["gsp_sr"].config_hash == \
            method_config(quick_config, "gsp_sr", 0, "photo").config_hash()

    def test_each_trained_arm_is_a_prompter_kind_and_its_forced_weights(self, quick_config):
        base = replace(quick_config, prompter_kind="basic",
                       weights=LossWeights(w_d=0.3, w_reg=2.0, tau_d=0.2))
        arms = {m: evaluate.method_config(base, m, 4, "cartoon") for m in evaluate.TRAINED_METHODS}
        assert {m: (c.prompter_kind, c.weights) for m, c in arms.items()} == {
            "bsp": ("basic", LossWeights(w_d=0.3, w_reg=0.0, tau_d=0.2)),
            "gsp": ("gaussian", LossWeights(w_d=0.3, w_reg=0.0, tau_d=0.2)),
            "gsp_sr": ("gaussian", LossWeights(w_d=0.3, w_reg=2.0, tau_d=0.2)),
        }
        assert all(c == replace(base, prompter_kind=c.prompter_kind, weights=c.weights, seed=4,
                                held_out_domain="cartoon") for c in arms.values())

    def test_sr_arm_without_a_regularizer_is_config_error_before_any_fold(
            self, monkeypatch, small_dataset, quick_config):
        folds = []
        monkeypatch.setattr(evaluate, "_evaluate_fold", lambda *a: folds.append(a) or 0.5)
        no_reg = replace(quick_config, weights=LossWeights(w_reg=0.0))
        with pytest.raises(ConfigError, match="'gsp_sr' trains the style regularizer"):
            evaluate_leave_one_out("small", ["baseline_C", "gsp", "gsp_sr"], seeds=[0],
                                   base=no_reg, dataset=small_dataset)
        assert folds == []
        # the arms that force w_reg to 0 run on such a base
        report = evaluate_leave_one_out("small", ["bsp", "gsp"], seeds=[0], base=no_reg,
                                        dataset=small_dataset)
        assert not report.partial and len(folds) == 2 * len(small_dataset.domains)

    def test_report_writers(self, lodo_report, tmp_path):
        write_json(tmp_path / "r.json", lodo_report.to_dict())
        write_report_csv(lodo_report, tmp_path / "r.csv")
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 1 + len(lodo_report.methods)


class TestSimilarityReport:
    def test_matrix_shape_and_range(self, small_dataset, bundle, dims, tmp_path):
        prompter = init_gaussian_prompter(dims.d_i, dims.d_t, seed=0)
        idx = small_dataset.domain_indices(0)[:10]
        matrix = style_similarity_report(
            bundle, prompter, small_dataset.x[idx], small_dataset.class_ids[idx],
            [small_dataset.domains[d] for d in small_dataset.domain_ids[idx]],
            small_dataset.classes, image_ids=[int(i) for i in idx])
        assert matrix.values.shape == (10, 9)
        assert matrix.columns[-1] == "learned"
        assert len(matrix.columns) == 8 + 1
        assert (matrix.values >= -1 - 1e-12).all() and (matrix.values <= 1 + 1e-12).all()

        # the style-word columns against one encode per text
        from oracles import encode_text
        from spdg.encoders import STYLE_WORDS, domain_style_text, encode_image, project_image, tokenize
        zp = project_image(bundle, encode_image(bundle, small_dataset.x[idx]))
        zp /= np.linalg.norm(zp, axis=1, keepdims=True)
        for row, i in enumerate(idx):
            cls = small_dataset.classes[small_dataset.class_ids[i]]
            for j, word in enumerate(STYLE_WORDS):
                ids = tokenize(domain_style_text(word, cls), bundle)
                feat = encode_text(bundle, Tensor(bundle.weights["tok_emb"][ids])).data
                assert abs(matrix.values[row, j] - zp[row] @ feat / np.linalg.norm(feat)) <= 1e-12

        write_similarity_csv(matrix, tmp_path / "sim.csv")
        lines = (tmp_path / "sim.csv").read_text().splitlines()
        assert len(lines) == 11
        assert lines[0] == "image,true_domain," + ",".join(matrix.columns)
