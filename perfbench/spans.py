"""Outside-in timing of the spdg layers.

Nothing under src/spdg is edited. Each layer is timed by replacing a public
function, at the name its caller looks up (``spdg.trainer.domain_discrimination_loss``,
``spdg.losses.encode_text_batch`` and so on), with a wrapper that records a
span. A wrapper placed on the defining module alone would miss every caller
that imported the name, so the targets below name the calling module.

A span's self time is its duration minus the time of the spans opened inside
it. Backward time is split by layer through ``spdg.tensor.apply``, the
primitive hook: every backward closure recorded on the tape is charged to the
span that was innermost when its forward ran, and the rest of
``Tape.backward`` is the tape walk's own time.

Two recorders exist. ``RunProbe`` is always installed: it reads the clock at
each training-step boundary and keeps every training result for the output
checks, a few microseconds per step. ``Tracer`` records every span and is
installed only for the traced units of a ``--trace 1`` run.
"""

from __future__ import annotations

import time
from pathlib import Path

import spdg.cli
import spdg.datagen
import spdg.encoders
import spdg.evaluate
import spdg.inference
import spdg.losses
import spdg.prompter
import spdg.tensor
import spdg.trainer

now = time.perf_counter


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class RunProbe:
    """Training-step latencies and training results, for every run.

    A step runs from the trainer's ``encode_image`` call, its first statement
    on a batch, to the return of ``sgd_momentum_step``, its last.
    """

    def __init__(self):
        self._step_start = None
        self._clear()

    def _clear(self) -> None:
        self.step_s: list[float] = []
        self.step_batch: list[int] = []     # rows of each step
        self.trainings: list[tuple[float, int]] = []   # (seconds, steps)
        self.results: list = []

    def take(self) -> tuple[list[float], list[int], list[tuple[float, int]], list]:
        """Step times, step rows, per-training (seconds, steps) and results since the last take."""
        taken = self.step_s, self.step_batch, self.trainings, self.results
        self._clear()
        return taken

    def install(self, patcher: Patcher) -> None:
        def step_start(fn):
            def wrapped(bundle, x, *args, **kwargs):
                self._step_start = now()
                self.step_batch.append(len(x))
                return fn(bundle, x, *args, **kwargs)
            return wrapped

        def step_end(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                if self._step_start is None:
                    raise RuntimeError("optimizer step without a step start")
                self.step_s.append(now() - self._step_start)
                self._step_start = None
                return out
            return wrapped

        def training(fn):
            def wrapped(*args, **kwargs):
                steps = len(self.step_s)
                t0 = now()
                result = fn(*args, **kwargs)
                self.trainings.append((now() - t0, len(self.step_s) - steps))
                self.results.append(result)
                return result
            return wrapped

        patcher.patch(spdg.trainer, "encode_image", step_start)
        patcher.patch(spdg.trainer, "sgd_momentum_step", step_end)
        patcher.patch(spdg.evaluate, "train_style_prompter", training)
        patcher.patch(spdg.cli, "train_style_prompter", training)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "bwd_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.bwd_s = 0.0
        self.counts: dict[str, list[int]] = {}


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _sim_counts(args, kwargs, result):
    n = args[0].data.shape[0]
    return {"rows": n, "sim_bytes": n * n * 8}


def _batch_samples(args, kwargs, result):
    return {"samples": len(args[2])}


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": _dir_bytes(args[1])}


def _prompt_rows(args, kwargs, result):
    return {"prompts": args[1].data.shape[0]}


def _blob_bytes(args, kwargs, result):
    return {"bytes": _file_bytes(args[0])}


def _anchor_texts(args, kwargs, result):
    words = args[2] if len(args) > 2 else kwargs.get("style_words", spdg.encoders.STYLE_WORDS)
    return {"texts": len(args[1]) * len(words)}


# (owner, attribute, span name, counter). Several call sites share one span
# name when they reach the same layer from different callers.
SPAN_TARGETS = [
    (spdg.trainer, "encode_image", "encoders.encode_image", None),
    (spdg.trainer, "gaussian_forward", "prompter.forward", None),
    (spdg.trainer, "basic_forward", "prompter.forward", None),
    (spdg.trainer, "sample_styles_batch", "prompter.sample_styles_batch", None),
    (spdg.trainer, "l2_normalize", "tensor.l2_normalize", None),
    (spdg.trainer, "domain_discrimination_loss", "losses.domain_discrimination_loss", _sim_counts),
    (spdg.trainer, "prompted_ce_and_reg", "losses.prompted_ce_and_reg", None),
    (spdg.trainer, "total_loss", "losses.total_loss", None),
    (spdg.trainer, "sgd_momentum_step", "trainer.sgd_momentum_step", None),
    (spdg.trainer, "build_bundle", "encoders.build_bundle", None),
    (spdg.trainer, "build_reg_anchors", "losses.build_reg_anchors", _anchor_texts),
    (spdg.trainer, "save_bundle", "encoders.save_bundle", None),
    (spdg.trainer, "save_checkpoint", "prompter.save_checkpoint", _checkpoint_bytes),
    (spdg.trainer, "predict_batch", "inference.predict_batch", _batch_samples),
    (spdg.evaluate, "train_style_prompter", "trainer.train_style_prompter", None),
    (spdg.cli, "train_style_prompter", "trainer.train_style_prompter", None),
    (spdg.evaluate, "predict_batch", "inference.predict_batch", _batch_samples),
    (spdg.evaluate, "zero_shot_predict_batch", "inference.zero_shot_predict_batch", None),
    (spdg.evaluate, "build_bundle", "encoders.build_bundle", None),
    (spdg.inference, "encode_image", "encoders.encode_image", None),
    (spdg.inference, "style_for_prompt", "prompter.forward", None),
    (spdg.inference, "prompt_text_features", "losses.prompt_text_features", None),
    (spdg.losses, "encode_text_batch", "encoders.encode_text_batch", _prompt_rows),
    (spdg.encoders, "encode_text_batch", "encoders.encode_text_batch", _prompt_rows),
    # Reached through their own modules: the trainer and evaluate call
    # ``datagen.load``; the benchmark calls the rest, including each unit's
    # entry point, as module attributes.
    (spdg.datagen, "generate", "datagen.generate", None),
    (spdg.datagen, "load", "datagen.load", None),
    (spdg.encoders, "build_bundle", "encoders.build_bundle", None),
    (spdg.encoders, "save_bundle", "encoders.save_bundle", None),
    (spdg.encoders, "load_bundle", "encoders.load_bundle", None),
    (spdg.prompter, "save_checkpoint", "prompter.save_checkpoint", _checkpoint_bytes),
    (spdg.prompter, "load_checkpoint", "prompter.load_checkpoint", None),
    (spdg.inference, "predict_batch", "inference.predict_batch", _batch_samples),
    (spdg.inference, "infer", "inference.infer", None),
    (spdg.evaluate, "evaluate_leave_one_out", "evaluate.evaluate_leave_one_out", None),
    (spdg.cli, "main", "cli.main", None),
]
for _module in (spdg.datagen, spdg.encoders, spdg.prompter):
    SPAN_TARGETS.append((_module, "read_blob", "blob.read_blob", _blob_bytes))
    SPAN_TARGETS.append((_module, "write_blob", "blob.write_blob", _blob_bytes))

# Spans whose self time is glue around other layers rather than a layer's
# own work; trace.coverage is the share of unit time outside their self time.
CONTAINERS = {
    "evaluate.evaluate_leave_one_out",
    "cli.main",
    "trainer.train_style_prompter",
    "inference.predict_batch",
    "inference.infer",
}


class Tracer:
    """Span recorder with self time and per-layer backward time."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list] = []

    def stat(self, name: str) -> Stat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = Stat()
        return s

    def _close(self, frame, backward: bool) -> None:
        dur = now() - frame[1]
        self._stack.pop()
        if self._stack:
            self._stack[-1][2] += dur
        s = self.stat(frame[0])
        if backward:
            s.bwd_s += dur - frame[2]
        else:
            s.calls += 1
            s.total_s += dur
            s.self_s += dur - frame[2]

    def call(self, name: str, fn, args: tuple, kwargs: dict, count=None):
        """Run fn(*args, **kwargs) inside a span called name.

        count, if given, maps (args, kwargs, result) to counters for the span.
        """
        frame = [name, now(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(frame, backward=False)
        if count is not None:
            counts = self.stat(name).counts
            for key, value in count(args, kwargs, result).items():
                counts.setdefault(key, []).append(value)
        return result

    def _span(self, name, count):
        def make(fn):
            def wrapped(*args, **kwargs):
                return self.call(name, fn, args, kwargs, count)
            return wrapped
        return make

    def _apply(self, fn):
        def wrapped(out_data, inputs, backward_fn):
            owner = self._stack[-1][0] if self._stack else "(no span)"

            def timed(g):
                frame = [owner, now(), 0.0]
                self._stack.append(frame)
                try:
                    return backward_fn(g)
                finally:
                    self._close(frame, backward=True)

            return fn(out_data, inputs, timed)
        return wrapped

    def _tape_backward(self, fn):
        def wrapped(tape, *args, **kwargs):
            return self.call("tensor.Tape.backward", fn, (tape, *args), kwargs,
                             lambda a, k, r: {"nodes": len(a[0])})
        return wrapped

    def install(self, patcher: Patcher) -> None:
        for owner, attr, name, count in SPAN_TARGETS:
            patcher.patch(owner, attr, self._span(name, count))
        patcher.patch(spdg.tensor, "apply", self._apply)
        patcher.patch(spdg.tensor.Tape, "backward", self._tape_backward)

