"""softmotion benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload boundary_pairs --seed 1 --seconds 12 --trace 0

Workloads: path_missions, pose_moves, boundary_pairs, tracker_stream and
oracle_verify (see perfbench/README.md).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs the five workloads one after another
and prints one line each.

Each workload runs in its own process with one BLAS/OpenMP thread, against
the library in ``src/`` of the checkout.  Set-up time is the median over
three processes, each timed from its start until it is ready for the first
timed operation and rescaled to the reference machine speed as in
worker.py.  Details (per-round failures, input make-up, spans) are written
to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import CAL_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("path_missions", "pose_moves", "boundary_pairs", "tracker_stream",
             "oracle_verify")
SETUP_SAMPLES = 3
#: Each run must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, mode: str, tmp: str, result: str | None, deadline: float):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    if result:
        cmd += ["--result", result]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - spawned, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {args.workload} exited with "
                           f"{proc.returncode}")
    return spawned, proc.stdout


def _setup_s(worker_out: dict, spawned: float) -> float:
    """Spawn to ready, less the first calibration, at the reference speed."""
    cal0, cal1 = worker_out["calibration_s"]
    return (worker_out["ready"] - spawned - cal0) * CAL_REF_S / (0.5 * (cal0 + cal1))


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, stem + ".json")
    try:
        spawned, _ = _worker(args, "run", tmp, result_path, deadline)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        setups = [_setup_s(res, spawned)]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                spawned, stdout = _worker(args, "setup", tmp, None, deadline)
                setups.append(_setup_s(json.loads(stdout.strip().splitlines()[-1]), spawned))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    res["setup_samples_s"] = setups
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1)
    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for op in res["details"].get("failed operations", []):
        print(f"{args.workload}: failed operation: {op}", file=sys.stderr)
    for problem in res["problems"][:20]:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)
    return {
        "correct": not res["problems"],
        "attempted": res["rounds"] * res["ops_per_round"],
        "failed": res["rounds"] * res["failed_per_round"],
        "metrics": dict(sorted(metrics.items())),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "softmotion", "__init__.py")):
        print("error: no softmotion sources under src/ of this checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            line = run_one(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(f"{name}:", file=sys.stderr)
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
