"""Command-line surface.

Every subcommand exits 0 on success; failures print a machine-readable JSON
object {"error": code, "message": ...} on stderr and exit nonzero.

The evaluation and grad-check modules load inside the commands that run them,
so `infer`, `train` and `gen-data` start without them.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import datagen
from .blob import check_out_dir, write_json
from .encoders import bundle_checksum, load_bundle
from .errors import ConfigError, DegenerateVectorError, FormatError, SpdgError
from .inference import infer
from .prompter import load_checkpoint
from .trainer import RunConfig, train_style_prompter


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a negative number in exponent form, such as
    -1e-6, as a value; argparse's own pattern takes it for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spdg", description="Style-prompted domain generalization harness")
    sub = parser.add_subparsers(dest="command", required=True)
    # only the flags a command reads, and no prefix matching (--seed is no --seeds)
    command = partial(sub.add_parser, allow_abbrev=False)

    p = command("gen-data", help="generate a synthetic multi-domain dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--precision", choices=["f64", "f32"], default="f64", help="storage dtype")
    p.add_argument("--n-per-cell", type=int, default=60)
    p.add_argument("--dx", type=int, default=32)
    p.add_argument("--style-strength", type=float, default=0.8)
    p.add_argument("--noise-std", type=float, default=0.15)
    p.add_argument("--classes", type=str, default=None, help="comma-separated class names")
    p.add_argument("--domains", type=str, default=None, help="comma-separated domain names")

    p = command("train", help="train a style prompter")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--config", type=str, default=None, help="RunConfig JSON path")
    p.add_argument("--dataset", type=str, default=None)
    p.add_argument("--held-out", dest="held_out_domain", type=str, default=None)
    p.add_argument("--prompter", dest="prompter_kind", choices=["basic", "gaussian"], default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--select-best", action="store_const", const=True)

    p = command("eval-lodo", help="leave-one-domain-out evaluation matrix")
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.add_argument("--config", type=str, default=None, help="RunConfig JSON path")
    p.add_argument("--dataset", type=str, default=None)
    p.add_argument("--methods", type=str, default="baseline_C,gsp_sr")
    p.add_argument("--seeds", type=str, default="0")

    p = command("infer", help="classify one sample from a dataset")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--bundle", type=str, required=True)
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--index", type=int, required=True)

    p = command("similarity-report", help="image vs domain-style text similarities")
    p.add_argument("--out-dir", type=str, default=None)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--bundle", type=str, required=True)
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--domain", type=str, default=None, help="restrict to one domain's samples")

    command("grad-check", help="run the gradient verification suite")

    return parser


def _need_out_dir(args) -> Path:
    """The --out-dir path; the writers create it, so a rejected run leaves nothing behind."""
    if not args.out_dir:
        raise ConfigError("--out-dir is required for this command")
    return check_out_dir(args.out_dir)


def _cmd_gen_data(args) -> int:
    out = _need_out_dir(args)
    classes = args.classes.split(",") if args.classes else None
    domains = args.domains.split(",") if args.domains else None
    ds = datagen.generate(
        n_per_cell=args.n_per_cell, d_x=args.dx, style_strength=args.style_strength,
        noise_std=args.noise_std, seed=args.seed if args.seed is not None else 0,
        classes=classes, domains=domains,
    )
    if args.precision == "f32":
        with np.errstate(over="ignore"):  # the constructor refuses a sample that overflows
            ds = replace(ds, x=ds.x.astype(np.float32))
    datagen.save(ds, out)
    print(json.dumps({"dataset": str(out), "samples": len(ds),
                      "classes": ds.classes, "domains": ds.domains}))
    return 0


def _load_run_config(args, *overrides: str) -> RunConfig:
    """The --config RunConfig, or the defaults without one; each named flag that
    was given overrides the RunConfig field of its name."""
    try:
        raw = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    cfg = RunConfig.from_dict(raw)
    return replace(cfg, **{k: getattr(args, k) for k in overrides if getattr(args, k) is not None})


def _cmd_train(args) -> int:
    # every train flag but --config is named after the RunConfig field it overrides
    cfg = _load_run_config(args, *(f.name for f in fields(RunConfig) if f.name in vars(args)))
    if not cfg.out_dir:
        raise ConfigError("--out-dir (or out_dir in the config) is required for train")
    result = train_style_prompter(cfg)
    print(json.dumps({
        "final_checkpoint": result.final_dir,
        "metrics": result.metrics_path,
        "val_accuracies": result.val_accuracies,
        "encoder_checksum": result.encoder_checksum,
        "config_hash": cfg.config_hash(),
    }))
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from exc


def _cmd_eval_lodo(args) -> int:
    from . import evaluate

    out = _need_out_dir(args)
    base = _load_run_config(args)
    dataset = args.dataset or base.dataset
    if not dataset:
        raise ConfigError("eval-lodo needs --dataset (or dataset in the config)")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    report = evaluate.evaluate_leave_one_out(dataset, methods, _parse_seeds(args.seeds),
                                             base=base, threads=args.threads)
    write_json(out / "lodo_report.json", report.to_dict())
    evaluate.write_report_csv(report, out / "lodo_report.csv")
    print(json.dumps({"report": str(out / "lodo_report.json"),
                      "averages": {m: r.average for m, r in report.methods.items()},
                      "partial": report.partial}))
    return 0 if not report.partial else 4


def _load_bound_pair(args):
    """The --checkpoint prompter and the --bundle it was trained against: a checkpoint
    bound to another bundle, or to none, is a FormatError."""
    prompter, manifest = load_checkpoint(args.checkpoint)
    bundle = load_bundle(args.bundle)
    bound, loaded = manifest.get("bundle_checksum"), bundle_checksum(bundle)
    if bound != loaded:
        raise FormatError(f"{args.checkpoint}: checkpoint is bound to bundle checksum {bound}, "
                          f"but {args.bundle} has {loaded}")
    return prompter, bundle


@contextmanager
def _overflow_is_degenerate():
    """Score under np.errstate(raise): a checkpoint whose finite parameters overflow the
    forward pass is one degenerate_vector error, with no RuntimeWarning to print or,
    under -W error::RuntimeWarning, to end the run as an internal error."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise DegenerateVectorError(f"the forward pass left the float range: {exc}") from None


def _cmd_infer(args) -> int:
    prompter, bundle = _load_bound_pair(args)
    ds = datagen.load(args.dataset)
    if not (0 <= args.index < len(ds)):
        raise ConfigError(f"index {args.index} outside dataset of {len(ds)} samples")
    with _overflow_is_degenerate():
        pred, scores = infer(bundle, prompter, ds.x[args.index], ds.classes)
    print(json.dumps({
        "index": args.index,
        "predicted_class": pred,
        "true_class": ds.classes[ds.class_ids[args.index]],
        "true_domain": ds.domains[ds.domain_ids[args.index]],
        "scores": {cls: float(s) for cls, s in zip(ds.classes, scores)},
    }))
    return 0


def _cmd_similarity_report(args) -> int:
    from . import evaluate

    out = _need_out_dir(args)
    prompter, bundle = _load_bound_pair(args)
    ds = datagen.load(args.dataset)
    if args.domain is not None:
        if args.domain not in ds.domains:
            raise ConfigError(f"domain {args.domain!r} not in dataset domains {ds.domains}")
        idx = ds.domain_indices(ds.domains.index(args.domain))
    else:
        idx = np.arange(len(ds))
    with _overflow_is_degenerate():
        matrix = evaluate.style_similarity_report(
            bundle, prompter, ds.x[idx], ds.class_ids[idx],
            [ds.domains[d] for d in ds.domain_ids[idx]], ds.classes,
            image_ids=[int(i) for i in idx],
        )
    path = out / "similarity_report.csv"
    evaluate.write_similarity_csv(matrix, path)
    print(json.dumps({"report": str(path), "rows": len(matrix.image_ids),
                      "column_means": matrix.column_means()}))
    return 0


def _cmd_grad_check(args) -> int:
    from . import gradcheck

    failures = []
    for name, err in sorted(gradcheck.run_primitive_checks(gradcheck.PRIMITIVE_INPUTS).items()):
        status = "ok" if err < gradcheck.PRIMITIVE_TOL else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(f"primitive {name}: max_rel_err={err:.3e} [{status}]")
    for name, err in gradcheck.run_objective_check().items():
        status = "ok" if err < gradcheck.OBJECTIVE_TOL else "FAIL"
        if status == "FAIL":
            failures.append(f"objective:{name}")
        print(f"objective d/d{name}: max_rel_err={err:.3e} [{status}]")
    if failures:
        raise SpdgError(f"gradient checks failed: {failures}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval-lodo": _cmd_eval_lodo,
    "infer": _cmd_infer,
    "similarity-report": _cmd_similarity_report,
    "grad-check": _cmd_grad_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SpdgError as exc:
        sys.stderr.write(json.dumps({"error": exc.code, "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(json.dumps({"error": "internal", "message": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
