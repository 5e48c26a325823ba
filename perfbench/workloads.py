"""The five workloads: seeded inputs, one operation each, and their checks.

A workload builds its whole input list in ``prepare`` from the seed (and,
for the 1-D problems, from a fixed pool seed; the program sees only these
inputs), runs one untimed warm-up operation in ``warm_up``, then ``run(i)``
performs operation i of a round.  Rounds repeat
the same list, so every run attempts whole rounds and a deterministic fault
fails the same share of operations in every run.  ``verify`` checks the
outputs of the last round with ``checks`` after the timed window.

The library is always reached through module attributes at call time
(``cli.main``, ``planner.plan_min_time_1d``, ...), so the tracer in
``tracing.py`` sees every call it wraps.
"""
from __future__ import annotations

import math
import os

import numpy as np

import checks
from softmotion import cli, oracle, planner, tracker
from softmotion.orientation import Twist
from softmotion.profiles import KinematicLimits, KinematicState

#: softmotion's default limits, as (jmax, amax, vmax).
LIN = (0.9, 0.3, 0.15)
ANG = (0.6, 0.2, 0.1)
QUAT = tuple(0.5 * c for c in ANG)      # quaternion components run at half rate
LIMITS = KinematicLimits(*LIN)


def _segments(profile):
    return [(s.duration, s.jerk, (s.start.a, s.start.v, s.start.x))
            for s in profile.segments]


def _vec(values) -> str:
    return ",".join(repr(float(c)) for c in values)


def _unit(rng) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d)


def _quat_mul(p, q):
    n1, i1, j1, k1 = p
    n2, i2, j2, k2 = q
    return np.array([n1 * n2 - i1 * i2 - j1 * j2 - k1 * k2,
                     n1 * i2 + i1 * n2 + j1 * k2 - k1 * j2,
                     n1 * j2 + j1 * n2 + k1 * i2 - i1 * k2,
                     n1 * k2 + k1 * n2 + i1 * j2 - j1 * i2])


class Workload:
    name = ""
    dt = 0.0

    def __init__(self, seed: int, tmp: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.inputs: list = []
        self.makeup: dict = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def verify(self, results: list, first: list) -> tuple[list[str], set[int], dict]:
        """(problems, indices of failed operations, details) of one round."""
        raise NotImplementedError


def _failed_calls(results) -> set[int]:
    return {i for i, r in enumerate(results) if isinstance(r, BaseException)}


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def _round_mismatch(results, first) -> list[str]:
    return [f"operation {i} gave a different result in the first round"
            for i, (a, b) in enumerate(zip(results, first)) if not _same(a, b)][:5]


# ---------------------------------------------------------------------------
# path_missions: plan-path over waypoint files
# ---------------------------------------------------------------------------

README_MISSION = [[0.0, 0.0, 0.0], [0.15, 0.15, 0.0], [0.30, 0.30, 0.15]]
EDGE_SHAPES = {
    "repeated point": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.1, 0.0]],
    "collinear corner": [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]],
    "reversal": [[0.0, 0.0, 0.0], [0.1, 0.05, 0.0], [0.0, 0.0, 0.0]],
}
WARM_UP_PATH = [[0.0, 0.0, 0.0], [0.0, 0.1, 0.05], [0.0, 0.0, 0.0]]


#: Corner templates of the seeded paths (3, 4 and 5 points).  Each seed
#: permutes and mirrors the axes of every template.  Stretching cost jumps
#: with the geometry (a candidate duration that fails on one axis is retried
#: at the next one), so moving the points by even 1 cm changed the cost of a
#: path by up to 3.6x and the figures by 11-18 % between seeds; axis
#: symmetries keep the work of each path the same in every run.
PATH_TEMPLATES = (
    [[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.2, 0.2, 0.05]],
    [[0.0, 0.0, 0.0], [0.15, 0.1, 0.0], [0.3, 0.1, 0.1], [0.2, 0.25, 0.15]],
    [[0.0, 0.0, 0.0], [0.1, 0.2, 0.05], [0.25, 0.2, 0.0], [0.25, 0.05, 0.15],
     [0.05, 0.0, 0.1]],
)


def _run_cli(argv) -> int:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"softmotion {argv[0]} exited with {code}")
    return code


class PathMissions(Workload):
    name = "path_missions"
    dt = 0.01

    def prepare(self) -> None:
        paths = [("readme", README_MISSION)] + [(k, v) for k, v in EDGE_SHAPES.items()]
        corners = []
        for template in PATH_TEMPLATES:
            signs = self.rng.choice([-1.0, 1.0], size=3)
            pts = np.array(template)[:, self.rng.permutation(3)] * signs + 0.0
            for k in range(1, len(pts) - 1):
                d1, d2 = pts[k] - pts[k - 1], pts[k + 1] - pts[k]
                cos = d1 @ d2 / np.linalg.norm(d1) / np.linalg.norm(d2)
                corners.append(math.degrees(math.acos(max(-1.0, min(1.0, cos)))))
            paths.append((f"seeded {len(pts)}-point", pts.tolist()))
        for i, (label, pts) in enumerate(paths):
            wp = os.path.join(self.tmp, f"path-{i}.txt")
            with open(wp, "w", encoding="utf-8") as fh:
                fh.writelines(_vec(p) + "\n" for p in pts)
            argv = ["plan-path", "--waypoints", wp, "--dt", repr(self.dt),
                    "--out", os.path.join(self.tmp, f"path-{i}.csv"),
                    "--report", os.path.join(self.tmp, f"path-{i}-report.csv")]
            self.inputs.append((label, pts, argv))
        self.makeup = {"points per path": [len(p) for _, p, _ in self.inputs],
                       "seeded corner angles (deg)": [round(c, 1) for c in corners]}

    def warm_up(self) -> None:
        wp = os.path.join(self.tmp, "warm-up.txt")
        with open(wp, "w", encoding="utf-8") as fh:
            fh.writelines(_vec(p) + "\n" for p in WARM_UP_PATH)
        _run_cli(["plan-path", "--waypoints", wp, "--dt", repr(self.dt),
                   "--out", os.path.join(self.tmp, "warm-up.csv")])

    def run(self, i: int):
        return _run_cli(self.inputs[i][2])

    def verify(self, results, first):
        problems = []
        for i, (label, pts, argv) in enumerate(self.inputs):
            if isinstance(results[i], BaseException):
                continue
            header, rows = checks.read_table(argv[argv.index("--out") + 1])
            for kind, msg in checks.check_trajectory(
                    header, rows, ["x", "y", "z"], [LIN] * 3, self.dt, pts[0], pts[-1]):
                problems.append(f"{label}: {kind}: {msg}")
            header, report = checks.read_rows(argv[argv.index("--report") + 1])
            problems += [f"{label}: {kind}: {msg}" for kind, msg in
                         checks.report_problems(header, report, len(pts), label == "readme")]
        return problems, _failed_calls(results), {}


# ---------------------------------------------------------------------------
# pose_moves: plan-ptp between 3- and 7-coordinate endpoints
# ---------------------------------------------------------------------------

#: Durations of the seeded moves, each met to +-2 % by solving the benchmark's
#: closed form for the move length or rotation angle.  Sampling cost is
#: proportional to duration, so fixed durations keep the work of a round the
#: same for every seed; directions, start poses and rotation axes are random.
LINE_SECONDS = (2.0, 2.0, 2.0)
POSE_SECONDS = (3.0, 5.0, 7.0, 9.0)


def _solve_increasing(f, target, lo, hi):
    """x in [lo, hi] with f(x) = target, for f increasing, by bisection."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class PoseMoves(Workload):
    name = "pose_moves"
    dt = 0.001

    def _line(self, seconds):
        u = _unit(self.rng)
        length = _solve_increasing(lambda s: checks.straight_line_time(u * s, LIN),
                                   seconds * self.rng.uniform(0.98, 1.02), 1e-6, 10.0)
        p0 = self.rng.uniform(-0.3, 0.3, 3)
        return p0.tolist(), (p0 + u * length).tolist()

    def prepare(self) -> None:
        moves = [(*self._line(t), None) for t in LINE_SECONDS]
        for seconds in POSE_SECONDS:
            p0, pf = self._line(0.5 * seconds)
            q0 = self.rng.normal(size=4)
            q0 /= np.linalg.norm(q0)
            axis = _unit(self.rng)

            def turned(angle):
                rot = np.concatenate([[math.cos(angle / 2)], axis * math.sin(angle / 2)])
                return _quat_mul(q0, rot)

            angle = _solve_increasing(
                lambda a: checks.straight_line_time(turned(a) - q0, QUAT),
                seconds * self.rng.uniform(0.98, 1.02), 1e-6, 0.9 * math.pi)
            qf = turned(angle)
            if self.rng.random() < 0.5:
                qf = -qf            # same orientation, other hemisphere
            moves.append((p0 + q0.tolist(), pf + qf.tolist(), math.degrees(angle)))
        for i, (start, goal, angle) in enumerate(moves):
            out = os.path.join(self.tmp, f"pose-{i}.csv")
            argv = ["plan-ptp", "--from=" + _vec(start), "--to=" + _vec(goal),
                    "--dt", repr(self.dt), "--out", out]
            self.inputs.append((start, goal, argv))
        self.makeup = {"coordinates": [len(s) for s, _, _ in self.inputs],
                       "rotation angles (deg)": [round(a, 1) for _, _, a in moves if a]}

    def warm_up(self) -> None:
        _run_cli(["plan-ptp", "--from=0,0,0", "--to=0.1,0.05,0",
                           "--dt", repr(self.dt),
                           "--out", os.path.join(self.tmp, "warm-up.csv")])

    def run(self, i: int):
        return _run_cli(self.inputs[i][2])

    def verify(self, results, first):
        problems = []
        for i, (start, goal, argv) in enumerate(self.inputs):
            if isinstance(results[i], BaseException):
                continue
            problems += [f"move {i}: {kind}: {msg}"
                         for kind, msg in _pose_csv_problems(start, goal, argv[-1], self.dt)]
        return problems, _failed_calls(results), {}


def _pose_csv_problems(start, goal, path, dt):
    header, rows = checks.read_table(path)
    goal = list(goal)
    if len(start) == 7:
        q0 = np.array(start[3:])
        qf = np.array(goal[3:])
        if q0 @ qf < 0.0:
            goal[3:] = (-qf).tolist()
        names = ["x", "y", "z", "qn", "qi", "qj", "qk"]
        limits = [LIN] * 3 + [QUAT] * 4
    else:
        names = ["x", "y", "z"]
        limits = [LIN] * 3
    out = checks.check_trajectory(header, rows, names, limits, dt, start, goal)
    if out:
        return out
    out += checks.check_straight(rows, [1, 5, 9], start[:3], goal[:3])
    t_move = checks.straight_line_time([g - s for s, g in zip(start[:3], goal[:3])], LIN)
    if len(start) == 7:
        out += checks.check_straight(rows, [13, 17, 21, 25], start[3:], goal[3:])
        t_move = max(t_move, checks.straight_line_time(
            [g - s for s, g in zip(start[3:], goal[3:])], QUAT))
    out += checks.still_moving_before_end(rows, [1 + 4 * k for k in range(len(names))])
    if abs(rows[-1][0] - t_move) > 1e-6:
        out.append(("duration", f"ends at {rows[-1][0]}, the closed form gives {t_move}"))
    return out


# ---------------------------------------------------------------------------
# boundary_pairs and oracle_verify: a fixed pool of 1-D problems
# ---------------------------------------------------------------------------

#: The 1-D problems of boundary_pairs and oracle_verify are drawn blindly
#: from this seed, the same for every run; the run's seed mirrors each drawn
#: problem or not (negates a, v and x) and shuffles the round.  Both the
#: planner and the oracle solve a mirrored problem as the negation of the
#: original, so the operations that fail are the same ones, and as many, for
#: every seed, and no drawn problem is dropped for failing.
POOL_SEED = 0


def _negated(state):
    return tuple(-c for c in state)


def _mirror_and_shuffle(rng, pool, fixed=()):
    """Mirror each pooled (label, init, final, ...) case with chance 1/2 and
    shuffle them together with the ``fixed`` cases."""
    cases = list(fixed)
    for label, init, final, *rest in pool:
        if rng.random() < 0.5:
            label, init, final = label + ", mirrored", _negated(init), _negated(final)
        cases.append((label, init, final, *rest))
    return [cases[k] for k in rng.permutation(len(cases))]


# ---------------------------------------------------------------------------
# boundary_pairs: plan_min_time_1d, stratified by motion class
# ---------------------------------------------------------------------------

#: ROADMAP item 1: (a0, v0, af, vf, offset from the critical length).  The
#: first two come back beyond amax, the third raises RuntimeError.
REPRODUCERS = ((-0.0351, -0.1135, 0.0409, -0.1203, +0.0441),
               (0.0431, -0.0301, -0.1866, 0.0390, -0.0218),
               (0.2756, 0.0757, 0.2486, 0.1461, +0.0317))
CLASSES = ("critical", "type-1 cruise", "type-1 peak", "type-2")
PER_CLASS = 100


def random_boundary(rng, outgoing=False):
    """A feasible (a, v) pair, drawn as in tests/conftest.py::random_boundary."""
    jmax, amax, vmax = LIN
    while True:
        a = rng.uniform(-amax, amax)
        v = rng.uniform(-vmax, vmax)
        a_eff = -a if outgoing else a
        if abs(v + a_eff * abs(a_eff) / (2.0 * jmax)) <= vmax:
            return a, v


def _motion_class(init, final) -> str:
    """critical, type-1 or type-2 by the benchmark's own critical length."""
    d = final[2] - init[2]
    dc = checks.connection(init[0], init[1], final[0], final[1], LIN[0], LIN[1])[1]
    if abs(d - dc) <= 1e-12:
        return "critical"
    return "type-1" if d > dc else "type-2"


class BoundaryPairs(Workload):
    name = "boundary_pairs"

    def prepare(self) -> None:
        jmax, amax, vmax = LIN
        pool_rng = np.random.default_rng(POOL_SEED)
        pool = []
        for cls in CLASSES:
            for _ in range(PER_CLASS):
                a0, v0 = random_boundary(pool_rng)
                af, vf = random_boundary(pool_rng, outgoing=True)
                dc = checks.connection(a0, v0, af, vf, jmax, amax)[1]
                if cls == "critical":
                    D = dc
                elif cls == "type-2":
                    D = dc - pool_rng.uniform(0.0, 0.3)
                else:
                    cruise = (checks.connection(a0, v0, 0.0, vmax, jmax, amax)[1]
                              + checks.connection(0.0, vmax, af, vf, jmax, amax)[1])
                    if cls == "type-1 cruise":
                        D = cruise + pool_rng.uniform(0.0, 0.3)
                    else:
                        D = dc + pool_rng.uniform(0.0, 1.0) * (cruise - dc)
                pool.append((cls, (a0, v0, 0.0), (af, vf, D)))
        reproducers = []
        for a0, v0, af, vf, off in REPRODUCERS:
            dc = checks.connection(a0, v0, af, vf, jmax, amax)[1]
            reproducers.append(("reproducer", (a0, v0, 0.0), (af, vf, dc + off)))
        self.inputs = _mirror_and_shuffle(self.rng, pool, reproducers)
        self.states = [(KinematicState(*i), KinematicState(*f)) for _, i, f in self.inputs]
        classes = [_motion_class(i, f) for _, i, f in self.inputs]
        self.makeup = {"per stratum": {c: sum(1 for k, _, _ in self.inputs
                                              if k.split(",")[0] == c)
                                       for c in CLASSES + ("reproducer",)},
                       "mirrored": sum(1 for k, _, _ in self.inputs if "mirrored" in k),
                       "per motion class": {c: classes.count(c)
                                            for c in ("critical", "type-1", "type-2")}}

    def warm_up(self) -> None:
        planner.plan_min_time_1d(KinematicState(0.0, 0.05, 0.0),
                                 KinematicState(0.0, -0.02, 0.1), LIMITS)

    def run(self, i: int):
        init, final = self.states[i]
        return planner.plan_min_time_1d(init, final, LIMITS)

    def verify(self, results, first):
        """Failed: a raise or an |a| <= amax break alone (the item-1 fault)."""
        problems = []
        failed = _failed_calls(results)
        listed = ["{} {} {}: {!r}".format(*self.inputs[i], results[i]) for i in failed]
        for i, (label, init, final) in enumerate(self.inputs):
            if i in failed:
                continue
            segs = _segments(results[i])
            found = checks.check_segments(segs, init, final, LIN)
            if found and all(kind == "accel" for kind, _ in found):
                failed.add(i)
                listed.append(f"{label} {init} {final}: {found[0][1]}")
                continue
            problems += [f"{label} case {i}: {kind}: {msg}" for kind, msg in found]
            if _motion_class(init, final) == "type-2":
                try:
                    mirrored = planner.plan_min_time_1d(KinematicState(*_negated(init)),
                                                        KinematicState(*_negated(final)), LIMITS)
                except Exception as exc:    # a fault that breaks the symmetry; reported
                    problems.append(f"type-2 case {i}: the mirrored problem raised {exc!r}")
                    continue
                problems += [f"type-2 case {i}: {msg}" for _, msg in
                             checks.negated_plan_problems(segs, _segments(mirrored))]
        problems += _round_mismatch([_segments(r) if not isinstance(r, BaseException)
                                     else r for r in results],
                                    [_segments(r) if not isinstance(r, BaseException)
                                     else r for r in first])
        return problems, failed, {"failed operations": sorted(listed)}


# ---------------------------------------------------------------------------
# tracker_stream: PoseTracker.tick over a piecewise-constant twist stream
# ---------------------------------------------------------------------------

HOLDS = 12
TICK = 0.01


class TrackerStream(Workload):
    name = "tracker_stream"

    def prepare(self) -> None:
        self.holds = []
        for _ in range(HOLDS):
            ticks = int(self.rng.integers(250, 351))
            v = self.rng.uniform(-0.2, 0.2, 3)          # beyond 0.15 is clamped
            w = _unit(self.rng) * self.rng.uniform(0.03, 0.15)
            self.holds.append((ticks, v.tolist(), w.tolist()))
        self.inputs = []
        self.hold_end = []
        for ticks, v, w in self.holds:
            twist = Twist(tuple(v), tuple(w))
            self.inputs += [twist] * ticks
            self.hold_end.append(len(self.inputs) - 1)
        lin_refs = [c for _, v, _ in self.holds for c in v]
        self.makeup = {"hold ticks": [t for t, _, _ in self.holds],
                       "clamped linear share": sum(abs(c) > LIN[2] for c in lin_refs)
                       / len(lin_refs)}

    def _new_tracker(self):
        return tracker.PoseTracker(LIMITS, KinematicLimits(*ANG), dt=TICK)

    def warm_up(self) -> None:
        trk = self._new_tracker()
        for twist in self.inputs[:100]:
            trk.tick(twist)

    def run(self, i: int):
        if i == 0:
            self.trk = self._new_tracker()
        return self.trk.tick(self.inputs[i])

    def _states_pass(self):
        """One untimed pass; (a, v, x) of all seven raw axis states per tick.

        The raw quaternion states are only reachable through the tracker's
        inner axis bank; the public pose is renormalised.
        """
        trk = self._new_tracker()
        out = []
        for twist in self.inputs:
            trk.tick(twist)
            out.append([(s.a, s.v, s.x) for s in trk._inner.states])
        return out

    def verify(self, results, first):
        problems = []
        states = self._states_pass()
        if states != self._states_pass():
            problems.append("two passes over the same stream differ")
        problems += _round_mismatch(results, first)
        limits = [LIN] * 3 + [QUAT] * 4
        start = [(0.0, 0.0, c) for c in (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)]
        problems += [f"{kind}: {msg}" for kind, msg in
                     checks.tick_problems(states, start, limits, TICK)]
        problems += [f"{kind}: {msg}" for kind, msg in checks.settle_problems(
            states, self.hold_end, [v for _, v, _ in self.holds], limits[:3])]
        clamped = 0
        for row, twist in zip([start] + states, self.inputs):
            q = np.array([s[2] for s in row[3:]])
            qdot = 0.5 * _quat_mul((0.0, *twist.w), q / np.linalg.norm(q))
            clamped += int((np.abs(qdot) > QUAT[2]).sum())
        self.makeup["clamped quaternion-rate share"] = clamped / (4 * len(self.inputs))
        if results and results[-1].as_array().tolist() != _pose_of(states[-1]):
            problems.append("timed pass and checking pass end in different poses")
        return problems[:20], _failed_calls(results), {}


def _pose_of(row):
    q = np.array([s[2] for s in row[3:]])
    q = q / np.linalg.norm(q)
    return [row[0][2], row[1][2], row[2][2]] + q.tolist()


# ---------------------------------------------------------------------------
# oracle_verify: brute_force_min_time on desk-scale transitions
# ---------------------------------------------------------------------------

ORACLE_DT = 0.01
TRANSITIONS = 12
#: Rest-to-rest distances are drawn from U(REST_TO_REST_M).
REST_TO_REST_M = (0.01, 0.04)
REST_TO_REST_MOVES = 2


class OracleVerify(Workload):
    name = "oracle_verify"

    def prepare(self) -> None:
        jmax, amax, vmax = LIN
        pool_rng = np.random.default_rng(POOL_SEED)
        pool = []
        while len(pool) < TRANSITIONS:
            # tests/test_oracle.py::transition_instances: zero boundary
            # accelerations, displacement within 5 cm of the critical length,
            # planned duration at most 0.9 s and peak speed at least 0.06
            v0 = float(pool_rng.uniform(-0.12, 0.12))
            vf = float(pool_rng.uniform(-0.12, 0.12))
            dc = checks.connection(0.0, v0, 0.0, vf, jmax, amax)[1]
            D = dc + float(pool_rng.uniform(-0.05, 0.05))
            prof = planner.plan_min_time_1d(KinematicState(0.0, v0, 0.0),
                                            KinematicState(0.0, vf, D), LIMITS)
            peak = max(abs(checks.integrate(a, v, 0.0, j, t)[1])
                       for d, j, (a, v, _) in _segments(prof)
                       for t in (0.0, d, min(max(-a / j, 0.0), d) if j else 0.0))
            if prof.duration <= 0.9 and peak >= 0.06:
                pool.append(("transition", (0.0, v0, 0.0), (0.0, vf, D), prof.duration))
        for _ in range(REST_TO_REST_MOVES):
            D = float(pool_rng.uniform(*REST_TO_REST_M))
            pool.append(("rest to rest", (0.0, 0.0, 0.0), (0.0, 0.0, D),
                         checks.rest_to_rest_time(D, *LIN)))
        self.inputs = _mirror_and_shuffle(self.rng, pool)
        self.states = [(KinematicState(*i), KinematicState(*f)) for _, i, f, _ in self.inputs]
        self.makeup = {"reference durations (s)": [round(t, 3) for *_, t in self.inputs],
                       "mirrored": sum(1 for k, *_ in self.inputs if "mirrored" in k)}

    def warm_up(self) -> None:
        oracle.brute_force_min_time(KinematicState(0.0, 0.1, 0.0),
                                    KinematicState(0.0, 0.1, 0.06), LIMITS, ORACLE_DT)

    def run(self, i: int):
        init, final = self.states[i]
        return oracle.brute_force_min_time(init, final, LIMITS, ORACLE_DT)

    def verify(self, results, first):
        """Failed: a raise, or an answer more than two steps from the reference."""
        failed = _failed_calls(results)
        listed = ["{} {} {}: {!r}".format(*self.inputs[i][:3], results[i]) for i in failed]
        steps = []
        for i, (label, init, final, t_ref) in enumerate(self.inputs):
            if i in failed:
                continue
            steps.append(round((results[i] - t_ref) / ORACLE_DT, 2))
            if abs(results[i] - t_ref) > 2.0 * ORACLE_DT + 1e-9:
                failed.add(i)
                listed.append(f"{label} {init} {final}: oracle {results[i]} s "
                              f"against {t_ref} s")
        return _round_mismatch(results, first), failed, {
            "failed operations": sorted(listed),
            "oracle minus reference (steps)": sorted(steps)}


WORKLOADS = {cls.name: cls for cls in
             (PathMissions, PoseMoves, BoundaryPairs, TrackerStream, OracleVerify)}
