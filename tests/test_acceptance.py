"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures (the
4-fold x 5-seed evaluation matrix and the report-fixture training run) are
module-scoped and reused across criteria.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    FIXTURE_REPORT_DOMAIN,
    FIXTURE_REPORT_SEED,
    FIXTURE_SEEDS,
)
from spdg import datagen
from oracles import style_regularization_loss
from spdg.cli import main as cli_main
from spdg.encoders import build_bundle, bundle_checksum, default_vocab
from spdg.evaluate import evaluate_leave_one_out, style_similarity_report
from spdg.inference import predict_batch
from spdg.losses import build_reg_anchors, domain_discrimination_loss
from spdg.prompter import init_gaussian_prompter, load_checkpoint, sample_styles_batch, save_checkpoint
from spdg.tensor import Tensor
from spdg.trainer import RunConfig, train_style_prompter, seed_from


def report(name: str, detail: str = ""):
    print(f"\nACCEPTANCE {name}: PASS" + (f" ({detail})" if detail else ""))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory, fixture_dataset):
    path = tmp_path_factory.mktemp("acceptance") / "dataset"
    datagen.save(fixture_dataset, path)
    return path


@pytest.fixture(scope="module")
def report_run(tmp_path_factory, fixture_dataset):
    """Full 3-epoch GSP+SR training on the canonical report fixture."""
    out = tmp_path_factory.mktemp("acceptance") / "report_run"
    cfg = RunConfig(seed=FIXTURE_REPORT_SEED, held_out_domain=FIXTURE_REPORT_DOMAIN,
                    out_dir=str(out))
    result = train_style_prompter(cfg, dataset=fixture_dataset)
    return cfg, result


@pytest.fixture(scope="module")
def lodo_result(fixture_dir, fixture_dataset):
    start = time.perf_counter()
    report_obj = evaluate_leave_one_out(fixture_dir, ["baseline_C", "gsp_sr"], seeds=FIXTURE_SEEDS,
                                        dataset=fixture_dataset, threads=2)
    return report_obj, time.perf_counter() - start


def test_gradient_correctness_of_full_objective(objective_check):
    errors, elapsed = objective_check
    worst = max(errors.values())
    assert worst < 1e-4, errors
    assert elapsed < 30.0
    report("gradient-correctness", f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_domain_loss_oracle_equivalence():
    def naive(samples, domains, tau):
        n = samples.shape[0]
        total = 0.0
        for i in range(n):
            num = sum(math.exp(samples[i] @ samples[j] / tau)
                      for j in range(n) if j != i and domains[j] == domains[i])
            den = sum(math.exp(samples[i] @ samples[j] / tau)
                      for j in range(n) if j != i)
            total += -math.log(num / den)
        return total / n

    rng = np.random.default_rng(77)
    worst = 0.0
    sizes = list(rng.integers(4, 257, size=49)) + [256]
    for n in sizes:
        n = int(n)
        s = rng.normal(size=(n, 16))
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        while True:
            dom = rng.integers(0, 3, size=n)
            counts = np.bincount(dom, minlength=3)
            if ((counts == 0) | (counts >= 2)).all():
                break
        ours = domain_discrimination_loss(Tensor(s), dom, 0.1, dtype=np.float64).item()
        worst = max(worst, abs(ours - naive(s, dom, 0.1)))
    assert worst < 1e-10

    # single-domain batches evaluate to exactly zero
    s = rng.normal(size=(6, 8))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    assert domain_discrimination_loss(Tensor(s), [1] * 6, 0.1, dtype=np.float64).item() == 0.0

    # orthogonal rotation leaves the loss unchanged
    s = rng.normal(size=(24, 16))
    s /= np.linalg.norm(s, axis=1, keepdims=True)
    dom = np.repeat([0, 1, 2], 8)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    a = domain_discrimination_loss(Tensor(s), dom, 0.1, dtype=np.float64).item()
    b = domain_discrimination_loss(Tensor(s @ q), dom, 0.1, dtype=np.float64).item()
    assert abs(a - b) < 1e-10
    report("domain-loss-oracle", f"50 batches, worst |diff| {worst:.2e}")


def test_domain_loss_hand_computed_value():
    s = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    val = domain_discrimination_loss(s, [0, 0, 1, 1], tau=1.0, dtype=np.float64).item()
    expected = math.log(1 + 2 / math.e)
    assert abs(val - expected) < 1e-10
    report("domain-loss-hand-value", f"{val:.12f} vs log(1+2/e)")


def test_regularizer_bounds_and_anchor_table(bundle):
    rng = np.random.default_rng(5)
    classes = ["dog", "elephant", "guitar", "horse"]
    anchors = rng.normal(size=(4, bundle.dims.d_f))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    for _ in range(1000):
        b = int(rng.integers(1, 7))
        feats = Tensor(rng.normal(size=(b, bundle.dims.d_f)) * rng.uniform(0.05, 10.0))
        labels = rng.integers(0, 4, size=b)
        val = style_regularization_loss(feats, labels, anchors).item()
        assert 0.0 <= val <= 2.0

    t1 = build_reg_anchors(bundle, classes)
    t2 = build_reg_anchors(bundle, classes)
    assert np.array_equal(t1, t2)
    assert np.abs(np.linalg.norm(t1, axis=1) - 1.0).max() < 1e-12
    assert t1.shape == (4, bundle.dims.d_f)
    report("regularizer-bounds-and-anchors", "1000 draws in [0,2]; anchors unit and deterministic")


def test_reparameterization_statistics():
    rng = np.random.default_rng(31)
    n = 100_000
    for trial in range(20):
        d = int(rng.integers(4, 33))
        mu = rng.normal(size=d)
        sigma = np.abs(rng.normal(size=d)) + 0.05
        eps = np.random.default_rng([31, trial]).standard_normal((n, d))
        draws = sample_styles_batch(Tensor(mu[None]), Tensor(sigma[None]), eps).data
        assert (np.abs(draws.mean(axis=0) - mu) <= 4 * sigma / np.sqrt(n)).all()
        assert (np.abs(draws.std(axis=0) - sigma) <= 0.05 * sigma).all()
    assert RunConfig().mc_samples == 40  # the production sample count
    report("reparameterization-statistics", "20 (mu, sigma) pairs at N=100000; default N=40")


def test_freeze_contract(report_run, fixture_dataset):
    cfg, result = report_run
    rebuilt = build_bundle(cfg.dims, default_vocab(fixture_dataset.classes),
                           seed=cfg.seed, logit_scale=cfg.logit_scale)
    assert bundle_checksum(rebuilt) == result.encoder_checksum

    initial = init_gaussian_prompter(cfg.dims.d_i, cfg.dims.d_t, seed_from(cfg.seed, 1))
    changed = []
    for (name, before), (_, after) in zip(initial.parameters(), result.prompter.parameters()):
        if not np.array_equal(before.data, after.data):
            changed.append(name)
    assert changed == [name for name, _ in initial.parameters()]
    report("freeze-contract", "encoder checksum constant; every prompter tensor updated")


def test_schedule_conformance(report_run):
    cfg, result = report_run
    steps = [m for m in result.metrics if "step" in m]
    warmup = [m["lr"] for m in steps if m["epoch"] == 0]
    assert all(lr == 1e-5 for lr in warmup)
    post = [m["lr"] for m in steps if m["epoch"] > 0]
    assert post[0] == 0.002
    t_cos = len(post)
    mid = post[t_cos // 2]
    assert mid == pytest.approx(0.001, abs=1e-12)
    assert all(b <= a for a, b in zip(post, post[1:]))
    report("schedule-conformance",
           f"{len(warmup)} warmup steps at 1e-5, cosine from 0.002 over {t_cos} steps")


def test_training_loss_descends(report_run):
    cfg, result = report_run
    steps = [m for m in result.metrics if "step" in m]
    per_epoch = len(steps) // cfg.epochs
    first = steps[0]["loss_total"]
    last_epoch = [m["loss_total"] for m in steps[-per_epoch:]]
    assert np.mean(last_epoch) < first
    report("loss-direction-of-descent",
           f"step-1 loss {first:.4f} -> epoch-3 mean {np.mean(last_epoch):.4f}")


def test_determinism_of_cli_train(tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    data_dir = base / "data"
    assert cli_main(["gen-data", "--out-dir", str(data_dir), "--seed", "5",
                     "--n-per-cell", "12", "--domains", "photo,cartoon,sketch"]) == 0
    outs = []
    for name in ("runA", "runB"):
        out = base / name
        code = cli_main(["train", "--dataset", str(data_dir), "--held-out", "sketch",
                         "--batch-size", "8", "--mc-samples", "4", "--seed", "9",
                         "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    a, b = outs
    assert (a / "metrics.ndjson").read_bytes() == (b / "metrics.ndjson").read_bytes()
    files = sorted(p.relative_to(a) for p in (a / "final").rglob("*") if p.is_file())
    assert files
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    for epoch_dir in sorted((a / "checkpoints").iterdir()):
        for p in sorted(epoch_dir.rglob("*.spdg")):
            rel = p.relative_to(a)
            assert p.read_bytes() == (b / rel).read_bytes(), rel
    report("train-determinism", "byte-identical metrics and checkpoints across two runs")


def test_direction_of_effect_over_baseline(lodo_result):
    report_obj, elapsed = lodo_result
    gsp_sr = report_obj.methods["gsp_sr"]
    baseline = report_obj.methods["baseline_C"]
    base_by_key = {(r["held_out"], r["seed"]): r["accuracy"] for r in baseline.runs}
    diffs = np.array([r["accuracy"] - base_by_key[(r["held_out"], r["seed"])]
                      for r in gsp_sr.runs])
    assert len(diffs) == 20
    mean_improvement = float(diffs.mean())
    wins = int((diffs > 0).sum())
    losses = int((diffs < 0).sum())
    # one-sided exact sign test on non-tied runs
    m = wins + losses
    p_value = sum(math.comb(m, k) for k in range(wins, m + 1)) / 2 ** m
    assert mean_improvement > 0.0
    assert p_value < 0.05
    assert elapsed < 600.0
    # full-scale reference margins, for comparison only (not asserted):
    # +2.6 basic, +3.1 gaussian, +3.9 gaussian with style regularization
    report("direction-of-effect",
           f"gsp_sr {gsp_sr.average:.3f} vs baseline {baseline.average:.3f}, "
           f"mean diff {mean_improvement:+.3f}, wins {wins}/20, sign-test p {p_value:.2e}, "
           f"{elapsed:.0f}s")


def test_similarity_report_matched_domain_dominates(report_run, fixture_dataset):
    cfg, result = report_run
    ds = fixture_dataset
    held_id = ds.domains.index(FIXTURE_REPORT_DOMAIN)
    idx = ds.domain_indices(held_id)
    matrix = style_similarity_report(
        result.bundle, result.prompter, ds.x[idx], ds.class_ids[idx],
        [ds.domains[d] for d in ds.domain_ids[idx]], ds.classes,
        image_ids=[int(i) for i in idx])
    means = matrix.column_means()
    matched = means[FIXTURE_REPORT_DOMAIN]
    mismatched = {w: v for w, v in means.items() if w not in (FIXTURE_REPORT_DOMAIN, "learned")}
    for word, value in mismatched.items():
        assert matched > value, f"{word} column mean {value:.4f} >= matched {matched:.4f}"
    report("similarity-report-analogue",
           f"matched '{FIXTURE_REPORT_DOMAIN}' mean {matched:.4f} > best mismatched "
           f"{max(mismatched.values()):.4f}; learned column mean {means['learned']:.4f}")


def test_io_round_trips_and_reload_inference(report_run, fixture_dataset, tmp_path):
    cfg, result = report_run
    ds = fixture_dataset

    d1, d2 = tmp_path / "ds1", tmp_path / "ds2"
    datagen.save(ds, d1)
    reloaded = datagen.load(d1)
    assert np.array_equal(reloaded.x, ds.x)
    datagen.save(reloaded, d2)
    for name in ["manifest.json", "samples.spdg"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    ckpt_dir = Path(result.final_dir)
    prompter, manifest = load_checkpoint(ckpt_dir)
    resaved = tmp_path / "ckpt2"
    save_checkpoint(prompter, resaved, run_config=manifest["run_config"])
    for blob in sorted(ckpt_dir.glob("*.spdg")):
        assert blob.read_bytes() == (resaved / blob.name).read_bytes()

    held_id = ds.domains.index(FIXTURE_REPORT_DOMAIN)
    idx = ds.domain_indices(held_id)[:40]
    before_preds, before_scores = predict_batch(result.bundle, result.prompter,
                                                ds.x[idx], ds.classes)
    after_preds, after_scores = predict_batch(result.bundle, prompter,
                                              ds.x[idx], ds.classes)
    assert np.array_equal(before_preds, after_preds)
    assert np.array_equal(before_scores, after_scores)
    report("io-round-trips", "dataset and checkpoint bit-exact; reloaded inference identical")
