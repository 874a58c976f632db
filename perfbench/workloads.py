"""The benchmark's three workloads.

Each workload has a set-up, one unit of timed work, and output checks that run
after the unit's clock has stopped. Everything spdg is called through module
attributes, so the tracer's wrappers see the calls when they are installed.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import spdg.cli
import spdg.datagen
import spdg.encoders
import spdg.evaluate
import spdg.inference
import spdg.prompter
from spdg.encoders import EncoderDims
from spdg.trainer import RunConfig

from spans import now

# DomainNet-style class list: twelve one-word names and four longer ones, so
# prompts come in three token lengths and take the mixed-length path.
WIDE_CLASSES = [
    "dog", "elephant", "guitar", "horse", "apple", "bicycle", "camera", "castle",
    "lighthouse", "penguin", "umbrella", "zebra",
    "hot air balloon", "ice cream", "sea turtle", "alarm clock",
]
LODO_METHODS = ["baseline_C", "gsp_sr"]
SERVE_POOL_PER_CELL = 1024      # 4 classes x 4 domains x 1024 = 16384 samples
SERVE_BATCH = 256
SERVE_INFER_CALLS = 128
SERVE_INFER_STRIDE = 97         # co-prime with the pool size, so units infer different rows
LOGIT_TOL = 1e-8                # infer and predict_batch score the same row two ways
# Training workloads run --seed modulo this, so every run has a pinned reference.
REFERENCE_SEEDS = 32


class Outcome:
    """Operations attempted and failed in one unit, plus what the report needs."""

    def __init__(self, attempted: int):
        self.attempted = attempted
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict[str, float] = {}
        self.op_s: list[float] = []     # per-operation latencies: steps, or infer calls
        self.rates: list[float] = []    # samples per second of each step, or predict_batch call

    def fail(self, message: str) -> None:
        self.failed = min(self.attempted, self.failed + 1)
        self.errors.append(message)


def _finite_losses(metrics: list[dict]) -> bool:
    return all(math.isfinite(r[k]) for r in metrics for k in r if k.startswith("loss_"))


def _take_training(probe, out: Outcome) -> list:
    """Step latencies and training throughput of one unit; returns its training results."""
    step_s, step_batch, trainings, results = probe.take()
    out.op_s = step_s
    out.rates = [rows / seconds for seconds, rows in zip(step_s, step_batch)]
    out.values["train_steps_per_s"] = [steps / seconds for seconds, steps in trainings]
    return results


def _check_training(result, classes, out: Outcome) -> None:
    """Frozen encoder unchanged and every logged loss finite, for one training run."""
    cfg = result.config
    vocab = spdg.encoders.default_vocab(list(classes) + list(cfg.extra_classes))
    fresh = spdg.encoders.build_bundle(cfg.dims, vocab, seed=cfg.seed, logit_scale=cfg.logit_scale)
    before = spdg.encoders.bundle_checksum(fresh)
    after = spdg.encoders.bundle_checksum(result.bundle)
    if not (before == after == result.encoder_checksum):
        out.fail(f"encoder checksum changed in training (seed {cfg.seed}, held out {cfg.held_out_domain})")
    steps = [r for r in result.metrics if "step" in r]
    if not steps or not _finite_losses(steps):
        out.fail(f"non-finite or missing losses (seed {cfg.seed}, held out {cfg.held_out_domain})")


def _final_loss(results) -> float:
    """Sum over training runs of the last logged loss_total; nan if a run logged no step."""
    steps = [[r for r in result.metrics if "step" in r] for result in results]
    if not steps or not all(steps):
        return math.nan
    return sum(s[-1]["loss_total"] for s in steps)


def _check_reference(name: str, seed: int, acc: float, loss: float, reference, out: Outcome) -> None:
    """Held-out accuracy and final loss against the pins for this seed.

    ``reference`` is None only while make_reference.py records new pins.
    """
    out.values.update(heldout_acc=acc, final_loss=loss)
    if reference is None:
        return
    acc_ref = reference["heldout_acc"][name].get(str(seed))
    loss_ref = reference["final_loss"][name].get(str(seed))
    out.values["heldout_ref"] = acc_ref
    if acc_ref is None or loss_ref is None:
        out.fail(f"reference.json has no pin for {name} seed {seed}")
        return
    if not abs(acc - acc_ref) <= reference["acc_tolerance"]:
        out.fail(f"heldout_acc {acc:.6f} differs from reference {acc_ref:.6f}")
    if not abs(loss - loss_ref) <= reference["loss_rtol"] * abs(loss_ref):
        out.fail(f"final loss_total {loss:.9g} differs from reference {loss_ref:.9g}")


class Workload:
    name = ""
    trains = True
    # spans the traced run must see at least once, or the trace has lost a layer
    expected_spans: tuple[str, ...] = ()

    def __init__(self, work: Path, seed: int, probe, reference):
        self.work = work
        self.seed = seed % REFERENCE_SEEDS if self.trains else seed
        self.probe = probe
        self.reference = reference
        self.dataset_seed = self.seed
        self.train_seed = self.seed
        # Where set-up writes its artifacts. The runner gives each timed set-up
        # a new directory, so every one creates its files as a first set-up
        # does, rather than overwriting the last one's.
        self.setup_dir = work / "setup-0"

    def check_setup(self) -> list[str]:
        """Errors found in the artifacts set-up made; only serve reloads any."""
        return []


_TRAIN_SPANS = (
    "encoders.encode_image", "prompter.forward", "tensor.l2_normalize",
    "losses.domain_discrimination_loss", "losses.prompted_ce_and_reg",
    "encoders.encode_text_batch", "losses.total_loss", "tensor.Tape.backward",
    "trainer.sgd_momentum_step", "trainer.train_style_prompter",
    "inference.predict_batch", "encoders.build_bundle", "losses.build_reg_anchors",
    "datagen.generate", "datagen.load", "blob.write_blob", "blob.read_blob",
)


class LodoFixture(Workload):
    """evaluate_leave_one_out on the default fixture, one training seed."""

    name = "lodo-fixture"
    expected_spans = _TRAIN_SPANS + (
        "prompter.sample_styles_batch", "inference.zero_shot_predict_batch",
        "evaluate.evaluate_leave_one_out",
    )

    def __init__(self, *args):
        super().__init__(*args)
        self.dataset_seed = 0   # the fixture is dataset seed 0; the seed picks the training seed

    def setup(self) -> None:
        self.path = self.setup_dir / "fixture"
        self.dataset = spdg.datagen.generate(seed=self.dataset_seed)
        spdg.datagen.save(self.dataset, self.path)

    def timed(self, index: int):
        return spdg.evaluate.evaluate_leave_one_out(
            str(self.path), LODO_METHODS, [self.train_seed], threads=1)

    def check(self, report) -> Outcome:
        out = Outcome(attempted=len(report.domains) * len(LODO_METHODS))
        for failure in report.failures:
            out.fail(f"fold failed: {failure}")
        if report.partial:
            out.fail("LODO report is partial")
        results = _take_training(self.probe, out)
        if len(results) != len(report.domains):
            out.fail(f"expected {len(report.domains)} training runs, saw {len(results)}")
        for result in results:
            _check_training(result, self.dataset.classes, out)
        out.values.update(folds=out.attempted, folds_failed=len(report.failures))
        _check_reference(self.name, self.seed, report.methods["gsp_sr"].average,
                         _final_loss(results), self.reference, out)
        return out


class TrainWide(Workload):
    """``spdg train`` with an output directory on a 16-class dataset, sketch held out."""

    name = "train-wide"
    expected_spans = _TRAIN_SPANS + (
        "encoders.save_bundle", "prompter.save_checkpoint", "cli.main",
    )

    def setup(self) -> None:
        self.path = self.setup_dir / "wide"
        self.dataset = spdg.datagen.generate(n_per_cell=15, classes=WIDE_CLASSES,
                                             seed=self.dataset_seed)
        spdg.datagen.save(self.dataset, self.path)

    def timed(self, index: int):
        out_dir = self.work / f"train-{index}"
        argv = ["train", "--dataset", str(self.path), "--held-out", "sketch",
                "--prompter", "basic", "--seed", str(self.train_seed), "--out-dir", str(out_dir)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = spdg.cli.main(argv)
        return code, stdout.getvalue(), out_dir

    def check(self, raw) -> Outcome:
        code, stdout, out_dir = raw
        out = Outcome(attempted=1)
        results = _take_training(self.probe, out)
        try:
            if code != 0 or len(results) != 1:
                out.fail(f"spdg train exited {code} with {len(results)} training results")
                return out
            result = results[0]
            printed = json.loads(stdout.strip().splitlines()[-1])
            if printed["encoder_checksum"] != result.encoder_checksum:
                out.fail("printed encoder checksum differs from the run's")
            _check_training(result, self.dataset.classes, out)
            logged = (out_dir / "metrics.ndjson").read_text().splitlines()
            if len(logged) != len(result.metrics):
                out.fail("metrics.ndjson does not hold every metrics record")
            saved, _ = spdg.prompter.load_checkpoint(out_dir / "final")
            if any(not np.array_equal(a.data, b.data)
                   for (_, a), (_, b) in zip(saved.parameters(), result.prompter.parameters())):
                out.fail("final checkpoint differs from the trained prompter")
            for epoch in range(1, result.config.epochs + 1):
                if not (out_dir / "checkpoints" / f"epoch_{epoch}" / "manifest.json").is_file():
                    out.fail(f"checkpoint for epoch {epoch} missing")
            held = self.dataset.domain_indices(self.dataset.domains.index("sketch"))
            preds, _ = spdg.inference.predict_batch(result.bundle, result.prompter,
                                                    self.dataset.x[held], self.dataset.classes)
            acc = spdg.inference.accuracy(preds, self.dataset.class_ids[held])
            _check_reference(self.name, self.seed, acc, _final_loss(results), self.reference, out)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out


class Serve(Workload):
    """The ``spdg infer`` artifacts loaded once, then batch and single-sample prediction."""

    name = "serve"
    trains = False
    expected_spans = (
        "inference.predict_batch", "inference.infer", "losses.prompt_text_features",
        "encoders.encode_text_batch", "encoders.encode_image", "prompter.forward",
        "encoders.build_bundle", "encoders.save_bundle", "encoders.load_bundle",
        "prompter.save_checkpoint", "prompter.load_checkpoint",
        "datagen.generate", "datagen.load", "blob.write_blob", "blob.read_blob",
    )

    def setup(self) -> None:
        dims = EncoderDims()
        classes = spdg.datagen.DEFAULT_CLASSES
        self.built = spdg.encoders.build_bundle(dims, spdg.encoders.default_vocab(classes),
                                                seed=self.dataset_seed)
        self.made = spdg.prompter.init_gaussian_prompter(dims.d_i, dims.d_t, self.train_seed)
        self.generated = spdg.datagen.generate(n_per_cell=SERVE_POOL_PER_CELL, seed=self.dataset_seed)
        spdg.encoders.save_bundle(self.built, self.setup_dir / "bundle")
        spdg.prompter.save_checkpoint(self.made, self.setup_dir / "checkpoint",
                                      run_config=RunConfig(seed=self.train_seed).to_dict())
        spdg.datagen.save(self.generated, self.setup_dir / "pool")
        self.bundle = spdg.encoders.load_bundle(self.setup_dir / "bundle")
        self.prompter, _ = spdg.prompter.load_checkpoint(self.setup_dir / "checkpoint")
        self.pool = spdg.datagen.load(self.setup_dir / "pool")

    def check_setup(self) -> list[str]:
        errors = []
        if spdg.encoders.bundle_checksum(self.bundle) != spdg.encoders.bundle_checksum(self.built):
            errors.append("loaded bundle differs from the saved one")
        if any(not np.array_equal(a.data, b.data)
               for (_, a), (_, b) in zip(self.prompter.parameters(), self.made.parameters())):
            errors.append("loaded checkpoint differs from the saved one")
        if not (np.array_equal(self.pool.x, self.generated.x)
                and np.array_equal(self.pool.class_ids, self.generated.class_ids)):
            errors.append("loaded pool differs from the saved one")
        return errors

    def timed(self, index: int):
        x, classes = self.pool.x, self.pool.classes
        n = len(x)
        logits = np.empty((n, len(classes)))
        batch_s = []
        for start in range(0, n, SERVE_BATCH):
            t0 = now()
            _, logits[start:start + SERVE_BATCH] = spdg.inference.predict_batch(
                self.bundle, self.prompter, x[start:start + SERVE_BATCH], classes)
            batch_s.append(now() - t0)
        rows = [(index * SERVE_INFER_CALLS + k) * SERVE_INFER_STRIDE % n
                for k in range(SERVE_INFER_CALLS)]
        infer_s, inferred = [], []
        for r in rows:
            t0 = now()
            inferred.append(spdg.inference.infer(self.bundle, self.prompter, x[r], classes))
            infer_s.append(now() - t0)
        return logits, batch_s, rows, inferred, infer_s

    def check(self, raw) -> Outcome:
        logits, batch_s, rows, inferred, infer_s = raw
        out = Outcome(attempted=len(batch_s) + len(rows))
        classes = self.pool.classes
        if not np.isfinite(logits).all():
            out.fail("predict_batch gave non-finite logits")
        for r, (pred, scores) in zip(rows, inferred):
            if classes.index(pred) != int(np.argmax(logits[r])):
                out.fail(f"row {r}: infer and predict_batch disagree on the class")
            elif np.max(np.abs(np.asarray(scores) - logits[r])) > LOGIT_TOL:
                out.fail(f"row {r}: infer and predict_batch logits differ beyond {LOGIT_TOL}")
        out.rates = [SERVE_BATCH / t for t in batch_s]
        out.op_s = infer_s
        return out


WORKLOADS = {w.name: w for w in (LodoFixture, TrainWide, Serve)}
