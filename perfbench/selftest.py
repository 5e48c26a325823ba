"""Self-tests of the checkers in checks.py: no check may pass vacuously.

Each test builds a correct output by hand (no softmotion code involved),
asserts that its checker accepts it, then corrupts it (one limit broken, one
endpoint moved, one row shifted) and asserts that the checker rejects it.
Run directly (``python3 perfbench/selftest.py``) or through ``failures()``,
which every benchmark run calls after its own checks.
"""
from __future__ import annotations

import copy
import sys

import checks

LIN = (0.9, 0.3, 0.15)
#: Rest to rest over 0.0144 m: four pure-jerk arcs of 0.2 s, 0.8 s in all.
TJ = 0.2
ARCS = (LIN[0], -LIN[0], -LIN[0], LIN[0])
D_ARCS = 2 * LIN[0] * TJ ** 3


def _segments():
    out, state = [], (0.0, 0.0, 0.0)
    for jerk in ARCS:
        out.append((TJ, jerk, state))
        state = checks.integrate(*state, jerk, TJ)
    return out


def _csv(dt=0.01):
    """Header and rows of the 0.0144 m move along x and y, sampled like plan-ptp."""
    segs = _segments()
    end = 4 * TJ
    ts = [k * dt for k in range(int(end / dt + 0.5)) if k * dt < end - 1e-12] + [end]
    header = ["t"] + [f"{n}_{q}" for n in ("x", "y") for q in ("pos", "vel", "acc", "jerk")]
    rows = []
    for t in ts:
        k = min(int(t / TJ), 3)
        _, jerk, start = segs[k]
        a, v, x = checks.integrate(*start, jerk, t - k * TJ)
        row = [t]
        for scale in (1.0, 0.5):
            row += [float(f"{c:.9g}") for c in (x * scale, v * scale, a * scale, jerk * scale)]
        rows.append(row)
    return header, rows


def _rejects(found, kind):
    return any(k == kind for k, _ in found)


def _tests():
    target = (0.0, 0.0, D_ARCS)
    segs = _segments()
    yield "segments accepted", not checks.check_segments(segs, (0, 0, 0), target, LIN)
    yield "amax broken", _rejects(checks.check_segments(segs, (0, 0, 0), target,
                                                        (0.9, 0.1, 0.15)), "accel")
    yield "vmax broken", _rejects(checks.check_segments(segs, (0, 0, 0), target,
                                                        (0.9, 0.3, 0.01)), "velocity")
    moved = (0.0, 0.0, D_ARCS + 1e-6)
    yield "endpoint moved", _rejects(checks.check_segments(segs, (0, 0, 0), moved, LIN),
                                     "boundary")
    bent = copy.deepcopy(segs)
    bent[1] = (TJ, 0.5 * bent[1][1], bent[1][2])
    yield "jerk off the set", _rejects(checks.check_segments(bent, (0, 0, 0), target, LIN),
                                       "jerk")
    yield "eight segments", _rejects(checks.check_segments(segs * 2, (0, 0, 0), target, LIN),
                                     "segments")
    mirrored = [(d, -j, tuple(-c for c in s)) for d, j, s in segs]
    yield "mirror accepted", not checks.negated_plan_problems(segs, mirrored)
    mirrored[2] = (TJ, -mirrored[2][1], mirrored[2][2])
    yield "mirror broken", bool(checks.negated_plan_problems(segs, mirrored))

    yield "0.15 m takes 11/6 s", abs(checks.rest_to_rest_time(0.15, *LIN) - 11 / 6) < 1e-12
    yield "0.0144 m takes 0.8 s", abs(checks.rest_to_rest_time(D_ARCS, *LIN) - 0.8) < 1e-12
    t, d = checks.connection(0.0, 0.0, 0.0, 0.15, LIN[0], LIN[1])
    yield "rest to vmax: 5/6 s over 0.0625 m", abs(t - 5 / 6) < 1e-12 and abs(d - 0.0625) < 1e-12

    header, rows = _csv()
    lims = [LIN, LIN]
    ok = checks.check_trajectory(header, rows, ["x", "y"], lims, 0.01,
                                 [0.0, 0.0], [D_ARCS, D_ARCS * 0.5])
    yield "CSV accepted", not ok
    bad = copy.deepcopy(rows)
    bad[40][2] = 0.2
    yield "CSV vmax broken", _rejects(checks.check_trajectory(
        header, bad, ["x", "y"], lims, 0.01, [0.0, 0.0], [D_ARCS, D_ARCS * 0.5]), "limits")
    bad = copy.deepcopy(rows)
    bad[-1][1] += 1e-4
    yield "CSV endpoint moved", _rejects(checks.check_trajectory(
        header, bad, ["x", "y"], lims, 0.01, [0.0, 0.0], [D_ARCS, D_ARCS * 0.5]), "goal")
    bad = copy.deepcopy(rows)
    bad[30][5] += 1e-5
    yield "CSV row shifted", _rejects(checks.check_trajectory(
        header, bad, ["x", "y"], lims, 0.01, [0.0, 0.0], [D_ARCS, D_ARCS * 0.5]),
        "integration")
    bad = copy.deepcopy(rows)
    bad[10][0] += 0.001
    yield "CSV grid broken", _rejects(checks.check_trajectory(
        header, bad, ["x", "y"], lims, 0.01, [0.0, 0.0], [D_ARCS, D_ARCS * 0.5]), "grid")
    yield "straight accepted", not checks.check_straight(rows, [1, 5], [0, 0],
                                                         [D_ARCS, D_ARCS * 0.5])
    bad = copy.deepcopy(rows)
    bad[30][5] *= 1.01
    yield "off the segment", bool(checks.check_straight(bad, [1, 5], [0, 0],
                                                        [D_ARCS, D_ARCS * 0.5]))
    yield "axes end together", not checks.still_moving_before_end(rows, [1, 5])
    bad = copy.deepcopy(rows)
    bad[-2][6:9] = [0.0, 0.0, 0.0]
    yield "axis ends early", bool(checks.still_moving_before_end(bad, [1, 5]))

    rep_header = ["waypoint", "axis", "v_in", "v_out", "displacement", "t_opt", "t_imp"]
    rep = [["1", "x", "0.15", "0.15", "0.125", "0.833333333", "0.833333333"],
           ["1", "y", "0.15", "0.15", "0.125", "0.833333333", "0.833333333"],
           ["1", "z", "0", "0.15", "0.0625", "0.833333333", "0.833333333"]]
    yield "report accepted", not checks.report_problems(rep_header, rep, 3, True)
    bad = copy.deepcopy(rep)
    bad[1][6] = "0.8"
    yield "report t_imp < t_opt", _rejects(checks.report_problems(rep_header, bad, 3, False),
                                           "t_imp")
    bad = copy.deepcopy(rep)
    bad[2][4] = "0.07"
    yield "README displacement moved", _rejects(
        checks.report_problems(rep_header, bad, 3, True), "readme")

    trace = []
    st = (0.0, 0.0, 0.0)
    for k in range(80):
        jerk = ARCS[min(k // 20, 3)]
        st = checks.integrate(*st, jerk, 0.01)
        trace.append([st])
    yield "tracker trace accepted", not checks.tick_problems(trace, [(0, 0, 0)], [LIN], 0.01)
    bad = copy.deepcopy(trace)
    bad[30] = [(bad[30][0][0] + 0.05, bad[30][0][1], bad[30][0][2])]
    yield "tracker jerk step", _rejects(checks.tick_problems(bad, [(0, 0, 0)], [LIN], 0.01),
                                        "step")
    yield "tracker amax broken", _rejects(
        checks.tick_problems(trace, [(0, 0, 0)], [(0.9, 0.1, 0.15)], 0.01), "limits")
    settled = [[(0.0, 0.15, 1.0)], [(0.0, -0.15, 2.0)]]
    yield "settled accepted", not checks.settle_problems(settled, [0, 1], [[0.2], [-0.15]],
                                                         [LIN])
    yield "not settled", _rejects(checks.settle_problems(settled, [0, 1], [[0.1], [-0.15]],
                                                         [LIN]), "settle")


def failures() -> list[str]:
    """Names of the self-tests that did not hold."""
    return [name for name, held in _tests() if not held]


if __name__ == "__main__":
    bad = failures()
    for name in bad:
        print(f"FAILED: {name}")
    print(f"{sum(1 for _ in _tests())} checker self-tests, {len(bad)} failed")
    sys.exit(1 if bad else 0)
