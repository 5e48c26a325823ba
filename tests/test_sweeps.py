"""Seeded property sweeps over whole layers of the library.

Each sweep is derandomized, so a run draws the same examples every time,
and states its time budget on one 2-CPU machine.
"""
import contextlib
import io
import math
import os
import sys
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from softmotion import (KinematicLimits, KinematicState, check_limits, cli,
                        critical_length, impose_common_time, plan_min_time_1d,
                        plan_waypoint_path, transition_problem)
from softmotion.fileio import DEFAULT_ANGULAR, DEFAULT_LINEAR
from test_waypoints import seam_discontinuity

LIN = KinematicLimits(jmax=0.900, amax=0.300, vmax=0.150)

# boundary speeds: the edge cases of the duration map (rest, +-vmax and a
# plateau breakpoint amax^2/jmax away from them), then any speed in bounds
SPEEDS = st.one_of(st.sampled_from([0.0, 0.05, -0.05, 0.1, -0.1, 0.15, -0.15]),
                   st.floats(-LIN.vmax, LIN.vmax))
# displacement past the critical length; 0 is the critical motion itself,
# and offsets log-uniform from 1e-12 to 1e-4 in size sit just off it
NEAR = st.builds(lambda sign, e: sign * 10.0 ** e,
                 st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -4.0))
OFFSETS = st.one_of(st.just(0.0), st.floats(-0.3, 0.3), NEAR)
CORNER_AXES = st.lists(st.tuples(SPEEDS, SPEEDS, OFFSETS), min_size=1, max_size=3)


# budget: 400 corners in about 8 s
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CORNER_AXES)
def test_corner_transitions_meet_time_displacement_and_limits(axes):
    problems = []
    for v0, vf, off in axes:
        dc = critical_length(KinematicState(0.0, v0), KinematicState(0.0, vf), LIN)
        prob = transition_problem(v0, vf, dc + off, LIN)
        assert all(check_limits(leg, LIN).ok
                   for leg in (prob.min_time, prob.halt, prob.restart))
        problems.append(prob)
    t_imp, profiles = impose_common_time(problems)
    assert t_imp >= max(p.t_opt for p in problems) - 1e-9
    for prof, prob in zip(profiles, problems):
        if not prof.segments:   # every segment below DROP_DURATION
            assert t_imp <= 1e-6 and abs(prob.displacement) <= 1e-9
            continue
        assert check_limits(prof, LIN).ok
        assert abs(prof.duration - t_imp) <= 1e-6
        end = prof.final_state
        assert abs((end.x - prob.init.x) - prob.displacement) <= 1e-9
        assert abs(end.v - prob.final.v) <= 1e-9


@st.composite
def boundary_state(draw, outgoing: bool) -> KinematicState:
    """A feasible (a, v) state: general, or at rest in a with a corner speed."""
    if draw(st.booleans()):
        speed = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.05, 0.1, 0.15]))
        return KinematicState(0.0, draw(st.sampled_from([speed, -speed])))
    a = draw(st.floats(-LIN.amax, LIN.amax))
    # the velocity the acceleration commits to must stay within vmax
    shift = (-a if outgoing else a) * abs(a) / (2.0 * LIN.jmax)
    lo, hi = max(-LIN.vmax, -LIN.vmax - shift), min(LIN.vmax, LIN.vmax - shift)
    return KinematicState(a, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))


ONE_D_PROBLEMS = st.tuples(boundary_state(False), boundary_state(True), OFFSETS)


# budget: 3 000 plans in about 7 s
@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(ONE_D_PROBLEMS)
def test_1d_plans_keep_limits_and_meet_boundaries(problem):
    init, final, off = problem
    dc = critical_length(init, final, LIN)
    final = KinematicState(final.a, final.v, dc + off)
    prof = plan_min_time_1d(init, final, LIN)
    assert check_limits(prof, LIN).ok
    end = prof.final_state if prof.segments else init
    assert max(abs(end.a - final.a), abs(end.v - final.v),
               abs(end.x - final.x)) <= 1e-9


# a polyline of 3 to 5 points at one scale from 1 mm to 1 m; about a third
# of the axis steps are zero, so axes dwell while others move
STEPS = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
PATHS = st.builds(
    lambda scale, start, steps: [start] + [
        [start[ax] + scale * sum(s[ax] for s in steps[:k + 1]) for ax in range(3)]
        for k in range(len(steps))],
    st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.lists(st.lists(STEPS, min_size=3, max_size=3), min_size=2, max_size=4))


# budget: 200 paths in about 5 s
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PATHS)
def test_waypoint_paths_are_continuous_and_rest_at_both_ends(points):
    for ax, prof in enumerate(plan_waypoint_path(points, LIN)):
        if not prof.segments:   # every step of the axis below DROP_DURATION
            assert all(abs(p[ax] - points[0][ax]) <= 1e-9 for p in points)
            continue
        assert check_limits(prof, LIN).ok
        assert seam_discontinuity(prof) <= 1e-9
        start, end = prof.start_state, prof.final_state
        assert abs(start.x - points[0][ax]) <= 1e-9
        assert max(abs(start.a), abs(start.v), abs(end.a), abs(end.v)) <= 1e-9
        assert abs(end.x - points[-1][ax]) <= 1e-9


def unit_quaternion(values):
    q = np.array(values)
    return q / np.linalg.norm(q)


POSITIONS = st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)
QUATERNIONS = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1).map(unit_quaternion)
# the goal keeps the start position or orientation now and then, and may
# name the start orientation from the other hemisphere
POSE_MOVES = st.tuples(POSITIONS, QUATERNIONS,
                       st.one_of(st.just(None), POSITIONS),
                       st.one_of(st.just(None), st.just("flip"), QUATERNIONS))


def csv_vec(values):
    return ",".join(repr(float(v)) for v in values)


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:   # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


# budget: 800 moves in about 6 s
@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(POSE_MOVES)
def test_pose_move_csvs_keep_limits_reach_the_goal_and_the_norm_floor(move):
    p0, q0, pf, qf = move
    pf = p0 if pf is None else pf
    qf = -q0 if isinstance(qf, str) else q0 if qf is None else qf
    code, text, err = run_cli(["plan-ptp", "--from=" + csv_vec(p0 + list(q0)),
                               "--to=" + csv_vec(pf + list(qf)), "--dt", "0.05"])
    assert code == 0, err
    lines = text.splitlines()
    columns = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    quat_limits = DEFAULT_ANGULAR.scaled(0.5)
    for k, name in enumerate(columns[1:], 1):
        axis, quantity = name.split("_")
        limits = DEFAULT_LINEAR if axis in "xyz" else quat_limits
        bound = {"pos": math.inf, "vel": limits.vmax, "acc": limits.amax,
                 "jerk": limits.jmax}[quantity]
        assert np.max(np.abs(rows[:, k])) <= bound * (1 + 1e-8) + 1e-9, name
    if q0 @ qf < 0.0:
        qf = -qf                        # the goal in the start's hemisphere
    goal = np.concatenate([pf, qf])
    assert np.max(np.abs(rows[-1, 1::4] - goal)) <= 1e-8
    assert np.max(np.abs(rows[-1, 2::4])) <= 1e-8
    theta = 2.0 * math.acos(min(1.0, abs(float(q0 @ qf))))
    drift = np.max(np.abs(np.linalg.norm(rows[:, 13::4], axis=1) - 1.0))
    assert drift <= 1.0 - math.cos(theta / 4.0) + 1e-8


# inputs that are mostly valid, so that most runs plan, mixed with each
# kind of bad field the CLI must reject: a number that is not finite or
# does not parse, a wrong count, an unknown key
NUMBERS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(
    ["0", "-0", "1e-300", "nan", "inf", "-inf", "x", "", "0x1"]))
GARBAGE = st.lists(NUMBERS, max_size=8).map(
    lambda vs: ",".join(v if isinstance(v, str) else repr(v) for v in vs))
POSES = st.tuples(POSITIONS, QUATERNIONS).map(lambda pq: csv_vec(pq[0] + list(pq[1])))
ENDPOINTS = st.one_of(st.tuples(POSITIONS.map(csv_vec), POSITIONS.map(csv_vec)),
                      st.tuples(POSES, POSES), st.tuples(POSES, GARBAGE),
                      st.tuples(GARBAGE, GARBAGE))
STEPS = st.sampled_from(["0.05", "0.05", "0.2", "0.5", "0.5", "0", "-0.1", "nan", "abc"])
GOOD_LIMIT = st.tuples(
    st.sampled_from(["linear.jmax", "linear.amax", "linear.vmax", "angular.jmax",
                     "angular.amax", "angular.vmax"]),
    st.sampled_from(["0.9", "0.3", "2", "0.15", "0.05"]))
BAD_LIMIT = st.tuples(st.sampled_from(["linear.jmax", "angular.vmax", "linear.speed", "#"]),
                      st.sampled_from(["0", "-1", "nan", "inf", "x", ""]))
LIMIT_LINES = st.lists(st.one_of(GOOD_LIMIT, GOOD_LIMIT, GOOD_LIMIT, BAD_LIMIT),
                       max_size=3).map(lambda kv: "".join(f"{k} {v}\n" for k, v in kv))
TABLE_LINES = st.one_of(
    st.lists(POSITIONS.map(csv_vec), min_size=3, max_size=5),
    st.lists(POSITIONS.map(csv_vec), min_size=3, max_size=5),
    st.lists(st.one_of(POSES, GARBAGE), max_size=5)).map(
    lambda lines: "".join(ln + "\n" for ln in lines))
#: stdin of track: references at times below 2 s, then a zero twist that
#: lets the tracker settle soon after 2 s
REFERENCES = st.lists(st.one_of(
    st.tuples(st.floats(0.0, 2.0), *[st.floats(-0.3, 0.3)] * 6).map(
        lambda r: " ".join(repr(v) for v in r)),
    st.sampled_from(["", "# comment", "1 2 3", "0.5 nan 0 0 0 0 0",
                     "0.5 0 0 inf 0 0 0", "0.5 x 0 0 0 0 0", "1 0 0 0 0 0 0 0"])),
    max_size=5).map(lambda lines: "\n".join(lines + ["2 0 0 0 0 0 0"]) + "\n")
COMMANDS = st.one_of(
    st.tuples(st.just("plan-ptp"), ENDPOINTS, STEPS, LIMIT_LINES),
    st.tuples(st.just("plan-path"), TABLE_LINES, STEPS, LIMIT_LINES, st.booleans()),
    st.tuples(st.just("track"), REFERENCES,
              st.sampled_from(["0.05", "0.05", "0.1", "0", "-1", "x"]),
              LIMIT_LINES),
    st.lists(st.sampled_from(["plan-ptp", "plan-path", "track", "--dt", "--from",
                              "0,0,0", "--bogus", "-", "--out"]), max_size=4))


# budget: 600 runs in about 6 s
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(COMMANDS)
def test_cli_exits_0_2_or_3_with_an_error_line_and_no_traceback(command):
    with tempfile.TemporaryDirectory() as tmp:
        def file_with(text):
            path = os.path.join(tmp, f"in{len(os.listdir(tmp))}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return path

        stdin = ""
        if isinstance(command, list):
            argv = command
        elif command[0] == "plan-ptp":
            _, (start, goal), dt, limits = command
            argv = ["plan-ptp", "--from=" + start, "--to=" + goal, "--dt", dt,
                    "--limits", file_with(limits)]
        elif command[0] == "plan-path":
            _, table, dt, limits, report = command
            argv = ["plan-path", "--waypoints", file_with(table), "--dt", dt,
                    "--limits", file_with(limits)]
            if report:
                argv += ["--report", os.path.join(tmp, "report.csv")]
        else:
            _, stdin, tick, limits = command
            argv = ["track", "--tick", tick, "--limits", file_with(limits)]
        code, _, err = run_cli(argv, stdin)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert any("error:" in line for line in err.splitlines()), (argv, code, err)
