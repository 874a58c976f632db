#!/usr/bin/env python3
"""Fresh-process start-up times of one or more spdg source checkouts.

    python3 scripts/cold_start.py --tree ../spdg-parent --tree . --launches 10

Each tree builds its own fixture artifacts (the seed-0 dataset, and a one-epoch
checkpoint with its bundle) from the same seeds in a temporary directory of its
own, since trees of different artifact formats cannot read each other's
datasets and checkpoints; the trees may be given in any order. Then, for
each bytecode setting, every tree launches two commands in turn on its own
artifacts, the tree order alternating from round to round:

- infer:  python -m spdg.cli infer --index 0 on those artifacts;
- import: python -c 'import spdg.cli'.

Bytecode "off" sets PYTHONDONTWRITEBYTECODE=1, so a tree's own modules compile
from source on every launch (installed packages keep their bytecode). Bytecode
"on" sets PYTHONPYCACHEPREFIX to a temporary directory, so each launch reads the
bytecode that an earlier one wrote there. In both settings each tree and command
gets one launch before the timed ones, whose time is discarded; it fills the
prefix and checks that the command exits 0. The script writes nothing inside
the trees; a tree that already holds src/spdg/__pycache__ is flagged, since its
"off" launches then read that bytecode.

Prints one JSON object: per setting, tree and command, the median, quartiles
and minimum wall time in seconds of the timed launches.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = ("infer", "import")
SETTINGS = ("off", "on")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _env(tree: Path, setting: str, prefix: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tree / "src")
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    if setting == "off":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
    return env


def _argv(command: str, artifacts: Path) -> list[str]:
    if command == "import":
        return [sys.executable, "-c", "import spdg.cli"]
    return [sys.executable, "-m", "spdg.cli", "infer", "--checkpoint", str(artifacts / "run" / "final"),
            "--bundle", str(artifacts / "run" / "bundle"), "--dataset", str(artifacts / "fixture"),
            "--index", "0"]


def _launch(argv: list[str], env: dict, cwd: Path) -> float:
    """Wall seconds of one launch; a nonzero exit stops the script."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"cold_start: {' '.join(argv[1:3])} under PYTHONPATH={env['PYTHONPATH']} "
                         f"exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def _build_artifacts(tree: Path, out: Path) -> None:
    env = _env(tree, "off", out)
    for argv in (["gen-data", "--out-dir", str(out / "fixture"), "--seed", "0"],
                 ["train", "--dataset", str(out / "fixture"), "--held-out", "sketch",
                  "--epochs", "1", "--seed", "0", "--out-dir", str(out / "run")]):
        _launch([sys.executable, "-m", "spdg.cli", *argv], env, out)


def _summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": min(times),
            "n": len(times)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        help="root of an spdg source checkout; give it once per tree")
    parser.add_argument("--launches", type=int, default=10, help="timed launches per tree, "
                        "command and setting (at least 2)")
    args = parser.parse_args(argv)
    trees = [Path(t).resolve() for t in args.tree]
    missing = [str(t) for t in trees if not (t / "src" / "spdg" / "cli.py").is_file()]
    if missing:
        parser.error(f"not an spdg checkout (no src/spdg/cli.py): {missing}")
    if len(set(trees)) != len(trees):
        parser.error("each --tree may be given once")
    if args.launches < 2:
        parser.error("--launches must be at least 2")

    times = {s: {str(t): {c: [] for c in COMMANDS} for t in trees} for s in SETTINGS}
    with tempfile.TemporaryDirectory(prefix="spdg-cold-start-") as tmp:
        tmp = Path(tmp)
        artifacts = {t: tmp / f"tree-{i}" for i, t in enumerate(trees)}
        for tree, out in artifacts.items():
            out.mkdir()
            _build_artifacts(tree, out)
        for setting in SETTINGS:
            envs = {t: _env(t, setting, tmp / f"pycache-{setting}") for t in trees}
            for tree in trees:          # untimed: fills the prefix, checks each command
                for command in COMMANDS:
                    _launch(_argv(command, artifacts[tree]), envs[tree], tmp)
            for round_ in range(args.launches):
                for tree in (trees if round_ % 2 == 0 else trees[::-1]):
                    for command in COMMANDS:
                        times[setting][str(tree)][command].append(
                            _launch(_argv(command, artifacts[tree]), envs[tree], tmp))

    print(json.dumps({
        "machine": {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0)),
                    "blas_threads": 1},
        "stale_bytecode": [str(t) for t in trees if (t / "src" / "spdg" / "__pycache__").exists()],
        "seconds": {s: {t: {c: _summary(v) for c, v in by_cmd.items()}
                        for t, by_cmd in by_tree.items()} for s, by_tree in times.items()},
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
