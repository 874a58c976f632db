"""Recompute the pins in perfbench/reference.json.

Run from the root of a source checkout, after a change that is meant to move
training results:

    python3 perfbench/make_reference.py

Each workload that trains runs one unit for each seed 0..REFERENCE_SEEDS-1,
untimed. Its held-out accuracy and its final loss_total (summed over the
unit's training runs) become the pins that the benchmark's output check
compares against; the benchmark maps every --seed onto these seeds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
ACC_TOLERANCE = 0.03    # absolute, on held-out accuracy
LOSS_RTOL = 1e-4        # relative, on the final loss; room for BLAS rounding across CPUs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    pins = {"heldout_acc": {}, "final_loss": {}}
    work = ROOT / ".perfbench" / f"reference-{os.getpid()}"
    patches = spans.Patcher()
    probe = spans.RunProbe()
    probe.install(patches)
    try:
        for name, cls in workloads.WORKLOADS.items():
            if not cls.trains:
                continue
            for key in pins:
                pins[key][name] = {}
            for seed in range(workloads.REFERENCE_SEEDS):
                wl = cls(work, seed, probe, None)
                wl.setup()
                out = wl.check(wl.timed(0))
                if out.errors:
                    raise SystemExit(f"{name} seed {seed}: {out.errors}")
                for key in pins:
                    pins[key][name][str(seed)] = out.values[key]
                print(f"{name} seed {seed}: heldout_acc {out.values['heldout_acc']:.6f} "
                      f"final_loss {out.values['final_loss']:.9g}", flush=True)
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)
    reference = {"acc_tolerance": ACC_TOLERANCE, "loss_rtol": LOSS_RTOL, **pins}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
