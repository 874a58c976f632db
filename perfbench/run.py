"""spdg benchmark: one workload, one run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lodo-fixture --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. Earlier stdout lines are a readable report; the last
line is ``{"correct", "attempted", "failed", "metrics"}``. The full record,
with the machine and build it ran on, goes to ``.perfbench/results/``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: the workloads are serial, and the box has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15
WORKLOAD_NAMES = ("lodo-fixture", "train-wide", "serve")

# (metric, unit, span, field). Fields: fwd = forward self ms, bwd = backward
# ms, ms = inclusive ms, calls, sum:<counter>, median:<counter>, per_call_ms.
# Times and sums are per set-up plus per unit of work; see README.md.
PER_LAYER = [
    ("losses.domain_discrimination_loss.fwd_ms", "ms", "losses.domain_discrimination_loss", "fwd"),
    ("losses.domain_discrimination_loss.bwd_ms", "ms", "losses.domain_discrimination_loss", "bwd"),
    ("losses.domain_discrimination_loss.rows", "count", "losses.domain_discrimination_loss", "median:rows"),
    ("losses.domain_discrimination_loss.sim_bytes", "bytes-computed", "losses.domain_discrimination_loss",
     "median:sim_bytes"),
    ("prompter.sample_styles_batch.fwd_ms", "ms", "prompter.sample_styles_batch", "fwd"),
    ("prompter.sample_styles_batch.bwd_ms", "ms", "prompter.sample_styles_batch", "bwd"),
    ("tensor.l2_normalize.fwd_ms", "ms", "tensor.l2_normalize", "fwd"),
    ("tensor.l2_normalize.bwd_ms", "ms", "tensor.l2_normalize", "bwd"),
    ("losses.prompted_ce_and_reg.fwd_self_ms", "ms", "losses.prompted_ce_and_reg", "fwd"),
    ("losses.prompted_ce_and_reg.bwd_self_ms", "ms", "losses.prompted_ce_and_reg", "bwd"),
    ("losses.prompt_text_features.fwd_self_ms", "ms", "losses.prompt_text_features", "fwd"),
    ("encoders.encode_text_batch.fwd_ms", "ms", "encoders.encode_text_batch", "fwd"),
    ("encoders.encode_text_batch.bwd_ms", "ms", "encoders.encode_text_batch", "bwd"),
    ("encoders.encode_text_batch.prompts", "count", "encoders.encode_text_batch", "sum:prompts"),
    ("encoders.encode_text_batch.calls", "count", "encoders.encode_text_batch", "calls"),
    ("tensor.Tape.backward.self_ms", "ms", "tensor.Tape.backward", "fwd"),
    ("tensor.Tape.nodes_per_step", "count", "tensor.Tape.backward", "median:nodes"),
    ("prompter.forward.fwd_ms", "ms", "prompter.forward", "fwd"),
    ("prompter.forward.bwd_ms", "ms", "prompter.forward", "bwd"),
    ("encoders.encode_image.fwd_ms", "ms", "encoders.encode_image", "fwd"),
    ("losses.total_loss.fwd_ms", "ms", "losses.total_loss", "fwd"),
    ("trainer.sgd_momentum_step.ms", "ms", "trainer.sgd_momentum_step", "ms"),
    ("inference.infer.ms", "ms", "inference.infer", "per_call_ms"),
    ("inference.predict_batch.ms", "ms", "inference.predict_batch", "ms"),
    ("inference.predict_batch.samples", "count", "inference.predict_batch", "sum:samples"),
    ("inference.zero_shot_predict_batch.ms", "ms", "inference.zero_shot_predict_batch", "ms"),
    ("encoders.build_bundle.ms", "ms", "encoders.build_bundle", "ms"),
    ("losses.build_reg_anchors.ms", "ms", "losses.build_reg_anchors", "ms"),
    ("losses.build_reg_anchors.texts", "count", "losses.build_reg_anchors", "sum:texts"),
    ("datagen.generate.ms", "ms", "datagen.generate", "ms"),
    ("datagen.load.ms", "ms", "datagen.load", "ms"),
    ("encoders.load_bundle.ms", "ms", "encoders.load_bundle", "ms"),
    ("prompter.load_checkpoint.ms", "ms", "prompter.load_checkpoint", "ms"),
    ("blob.read_blob.bytes", "bytes", "blob.read_blob", "sum:bytes"),
    ("prompter.save_checkpoint.ms", "ms", "prompter.save_checkpoint", "ms"),
    ("prompter.save_checkpoint.bytes", "bytes", "prompter.save_checkpoint", "sum:bytes"),
    ("encoders.save_bundle.ms", "ms", "encoders.save_bundle", "ms"),
    ("blob.write_blob.bytes", "bytes", "blob.write_blob", "sum:bytes"),
    ("trainer.train_style_prompter.ms", "ms", "trainer.train_style_prompter", "per_call_ms"),
    ("trainer.steps", "count", "trainer.sgd_momentum_step", "calls"),
]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _machine(np, args, workload) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spdg").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "dataset_seed": workload.dataset_seed,
        "train_seed": workload.train_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _median(values):
    return statistics.median(values)


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _layer_value(field, span, setup_tr, unit_tr, units):
    """One per-layer figure: what one set-up plus one unit of work cost."""
    stats = [(s, 1) for s in (setup_tr.stats.get(span),) if s] + \
            [(s, units) for s in (unit_tr.stats.get(span),) if s]
    if field.startswith("median:"):
        key = field.split(":", 1)[1]
        vals = [v for s, _ in stats for v in s.counts.get(key, [])]
        return _median(vals) if vals else 0
    if field == "per_call_ms":
        calls = sum(s.calls for s, _ in stats)
        return 1000.0 * sum(s.total_s for s, _ in stats) / calls if calls else 0.0
    total = 0.0
    for s, div in stats:
        if field == "fwd":
            total += 1000.0 * s.self_s / div
        elif field == "bwd":
            total += 1000.0 * s.bwd_s / div
        elif field == "ms":
            total += 1000.0 * s.total_s / div
        elif field == "calls":
            total += s.calls / div
        elif field.startswith("sum:"):
            total += sum(s.counts.get(field.split(":", 1)[1], [])) / div
    return total


def run(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import spans
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    probe = spans.RunProbe()
    wl = workloads.WORKLOADS[args.workload](work, args.seed, probe, reference)
    machine = _machine(np, args, wl)
    traced = bool(args.trace)

    attempted = failed = 0
    errors: list[str] = []
    probe_patches = spans.Patcher()
    setup_tr, unit_tr = spans.Tracer(), spans.Tracer()
    units = {False: [], True: []}      # traced? -> [(seconds, outcome)]
    try:
        # set-up: repeated for a steady median, traced once in a traced run
        setup_s = []
        for k in range(1 if traced else SETUP_REPEATS):
            if k:   # off the clock: drop the last set-up's artifacts
                shutil.rmtree(wl.setup_dir)
                wl.setup_dir = work / f"setup-{k}"
            patches = spans.Patcher()
            if traced:
                setup_tr.install(patches)
            t0 = spans.now()
            try:
                wl.setup()
            finally:
                setup_s.append(spans.now() - t0)
                patches.restore()
        setup_errors = wl.check_setup()
        errors += setup_errors
        attempted += 1
        failed += bool(setup_errors)

        probe.install(probe_patches)
        start = spans.now()
        index = 0
        while True:
            for with_spans in ((False, True) if traced else (False,)):
                patches = spans.Patcher()
                if with_spans:
                    unit_tr.install(patches)
                t0 = spans.now()
                try:
                    raw = wl.timed(index)
                finally:
                    dt = spans.now() - t0
                    patches.restore()
                out = wl.check(raw)
                attempted += out.attempted
                failed += out.failed
                errors += out.errors
                units[with_spans].append((dt, out))
                index += 1
            cycle = units[False][-1][0] + (units[True][-1][0] if traced else 0.0)
            if spans.now() - start + cycle > args.seconds:
                break
    finally:
        probe_patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    report: dict = {"setup_s": setup_s,
                    "unit_s": {("traced" if k else "plain"): [dt for dt, _ in v]
                               for k, v in units.items() if v}}
    values: dict = {}
    plain = units[False]
    outcomes = [o for _, o in plain]
    if traced:
        n_traced = len(units[True])
        for name, unit, span, field in PER_LAYER:
            values[name] = (_layer_value(field, span, setup_tr, unit_tr, n_traced), unit)
        every = outcomes + [o for _, o in units[True]]
        values["evaluate.folds"] = (_median([o.values.get("folds", 0) for o in every]), "count")
        values["evaluate.folds_failed"] = (sum(o.values.get("folds_failed", 0) for o in every), "count")
        med = {k: _median([dt for dt, _ in v]) for k, v in units.items()}
        values["trace.overhead_pct"] = (100.0 * (med[True] / med[False] - 1.0), "%")
        traced_total = sum(dt for dt, _ in units[True])
        container_self = sum(s.self_s for n, s in unit_tr.stats.items() if n in spans.CONTAINERS)
        values["trace.coverage"] = (1.0 - container_self / traced_total, "ratio")
        seen = set(setup_tr.stats) | set(unit_tr.stats)
        missing = [n for n in wl.expected_spans if n not in seen]
        if missing:
            failed = min(attempted, failed + 1)
            errors.append(f"spans recorded no calls: {missing}")
        report["spans"] = {
            phase: {n: {"calls": s.calls, "total_ms": 1000 * s.total_s, "self_ms": 1000 * s.self_s,
                        "bwd_ms": 1000 * s.bwd_s, "counts": {k: sum(v) for k, v in s.counts.items()}}
                    for n, s in sorted(tr.stats.items())}
            for phase, tr in (("setup", setup_tr), ("units", unit_tr))
        }
    else:
        op_ms = [1000.0 * t for o in outcomes for t in o.op_s]
        rates = [r for o in outcomes for r in o.rates]
        report["op_ms"] = op_ms
        report["samples_per_s"] = rates
        values = {
            "setup_s": (_median(setup_s), "s"),
            "op_ms_min": (min(op_ms), "ms"),
            "samples_per_s_max": (max(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        # the same figures, and the ungated medians and tails, under the names
        # a reader of the workload expects
        op = "step" if wl.trains else "infer"
        named = {"setup_s": (values["setup_s"][0], "s", len(setup_s)),
                 "wall_s": (_median([dt for dt, _ in plain]), "s", len(plain)),
                 f"{op}_ms_min": (values["op_ms_min"][0], "ms", len(op_ms)),
                 f"{op}_ms_p50": (_median(op_ms), "ms", len(op_ms)),
                 f"{op}_ms_p90": (_p90(op_ms), "ms", len(op_ms))}
        if wl.trains:
            steps_per_s = [r for o in outcomes for r in o.values["train_steps_per_s"]]
            accs = [o.values["heldout_acc"] for o in outcomes if "heldout_acc" in o.values]
            named.update({
                "train_steps_per_s": (_median(steps_per_s), "1/s", len(steps_per_s)),
                "step_samples_per_s_max": (values["samples_per_s_max"][0], "1/s", len(rates)),
            })
            if accs:
                named["heldout_acc"] = (_median(accs), "ratio", len(accs))
            report["heldout_ref"] = outcomes[0].values.get("heldout_ref")
        else:
            named.update({
                "predict_samples_per_s": (_median(rates), "1/s", len(rates)),
                "predict_samples_per_s_max": (values["samples_per_s_max"][0], "1/s", len(rates)),
            })
        named["peak_rss_mb"] = (values["peak_rss_mb"][0], "MB", 1)
        named["error_rate"] = (failed / attempted, "ratio", attempted)
        report["named"] = {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
         f"nproc={machine['nproc']} blas_threads={machine['blas_threads']} "
         f"numpy={machine['numpy']} commit={machine['git_commit'] or 'n/a'}")
    for name, item in report.get("named", {}).items():
        print(f"  {name:24s} {item['value']:14.6g} {item['unit']:6s} n={item['n']}")
    if report.get("heldout_ref") is not None:
        print(f"  {'heldout_acc reference':24s} {report['heldout_ref']:14.6g}")
    if traced:
        for name, (value, unit) in values.items():
            print(f"  {name:46s} {value:14.6g} {unit}")
    for err in errors:
        print(f"  FAILED CHECK: {err}")

    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"machine": machine, "result": result, "report": report, "errors": errors}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "spdg" / "__init__.py").is_file():
        sys.stderr.write("perfbench: run from the root of an spdg checkout (src/spdg not found)\n")
        return 2
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
