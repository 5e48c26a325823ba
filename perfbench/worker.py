"""One workload in one single-threaded process; started by run.py.

Modes:

* ``setup``: import, build the seeded inputs, run the warm-up operation,
  print the monotonic clock and the calibration times as JSON, and exit.
  run.py starts a few of these to take the median set-up time.
* ``run``: the same set-up, then a closed loop of whole rounds for at least
  ``--seconds`` (one caller; each operation starts when the previous one has
  returned), then the checks.  With ``--trace 1`` the window is split: the
  first half runs bare, the second half under the tracer, and the ratio of
  their round times is the tracing overhead.

Times that become metrics are rescaled to a reference machine speed: a
fixed loop (``_calibrate``) is timed at the start and the end of set-up and
after every quarter second of operations, and a stretch of time during
which the loop took ``c`` seconds is multiplied by ``CAL_REF_S / c``.  The
machine this was written on drifts between speeds up to 2x apart within
seconds, and the rescaling takes most of that drift out (README, "Spread").

The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import json
from array import array
import resource
import statistics
import sys
import time

_clock = time.perf_counter


#: The calibration loop runs after every CAL_EVERY_S seconds of operations.
CAL_EVERY_S = 0.25
CAL_TERMS = 400_000
#: Seconds the calibration loop takes at the reference machine speed.
CAL_REF_S = 0.010


def _calibrate() -> float:
    """Seconds of a fixed loop that runs in C and touches no softmotion code.

    ``sum`` over a range never returns to the interpreter loop, so neither a
    tracing hook nor another Python thread can slow it; only the machine's
    own speed does.
    """
    t0 = _clock()
    sum(range(CAL_TERMS))
    return _clock() - t0


def _window(wl, seconds: float):
    """Whole rounds until ``seconds`` of operations have run.

    Returns (rounds, busy seconds, busy seconds at the reference speed, op
    times, results of the last round, results of the first round).  Busy
    time is the sum of the operation times; each stretch of it between two
    calibrations is rescaled by CAL_REF_S over the mean of those two.
    """
    n = len(wl.inputs)
    times = array("d")      # 8 bytes an operation, so peak RSS barely follows speed
    first: list = []
    results: list = [None] * n
    rounds = 0
    busy = ref_busy = chunk = 0.0
    cal = _calibrate()
    while True:
        for i in range(n):
            t0 = _clock()
            try:
                results[i] = wl.run(i)
            except Exception as exc:    # a failed operation; counted, listed and checked
                results[i] = exc
            dt = _clock() - t0
            times.append(dt)
            chunk += dt
            if chunk >= CAL_EVERY_S or (i == n - 1 and busy + chunk >= seconds):
                cal_next = _calibrate()
                ref_busy += chunk * CAL_REF_S / (0.5 * (cal + cal_next))
                busy += chunk
                cal, chunk = cal_next, 0.0
        rounds += 1
        if not first:
            first = list(results)
        if busy >= seconds:
            return rounds, busy, ref_busy, times, results, first


def _p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", default=None)
    args = ap.parse_args()

    cal0 = _calibrate()
    import selftest
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    wl.prepare()
    wl.warm_up()
    ready = time.monotonic()
    setup = {"ready": ready, "calibration_s": [cal0, _calibrate()]}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    out: dict = dict(setup)
    if args.trace:
        import tracing
        rounds0, _, ref0, times0, results, first = _window(wl, args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            rounds1, _, ref1, _, results, _ = _window(wl, args.seconds / 2)
        finally:
            tr.uninstall()
        n = len(wl.inputs)
        values = tracing.per_layer_metrics(tr, rounds1 * n)
        values["trace.overhead_pct"] = 100.0 * (
            (ref1 / rounds1) / (ref0 / rounds0) - 1.0)
        ticks = wl.name == "tracker_stream"
        values["tracker.tick_p50_ms"] = statistics.median(times0) * 1e3 if ticks else 0.0
        values["tracker.tick_p99_ms"] = _p99(times0) * 1e3 if ticks else 0.0
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in tracing.UNITS.items()}
        rounds = rounds0 + rounds1
        out["spans"] = {k: {"calls": int(c), "inclusive_s": i, "self_s": s}
                        for k, (c, i, s) in sorted(tr.stats.items())}
        out["counts"] = tr.counts
    else:
        rounds, busy, ref_busy, times, results, first = _window(wl, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["unscaled_ops_per_s"] = rounds * len(wl.inputs) / busy
        metrics = {
            "ops_per_s": {"value": rounds * len(wl.inputs) / ref_busy, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
        out["op_ms_p50"] = statistics.median(times) * 1e3
        out["op_ms_p99"] = _p99(times) * 1e3
        out["op_samples"] = len(times)

    problems, failed, details = wl.verify(results, first)
    problems += [f"checker self-test did not hold: {name}" for name in selftest.failures()]
    out.update({
        "rounds": rounds,
        "ops_per_round": len(wl.inputs),
        "failed_per_round": len(failed),
        "problems": problems,
        "details": details,
        "makeup": wl.makeup,
        "metrics": metrics,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
