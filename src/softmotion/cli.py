"""Command-line frontend.

Subcommands: plan-ptp (straight pose-to-pose motion), plan-path (waypoint
trajectory with a per-transition report), track (online reference
tracking over stdin/stdout) and oracle (brute-force minimal time).
Exit codes: 0 success, 2 usage or input error, 3 infeasible plan, exceeded
search budget or solver failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys

from .errors import (InfeasibleBoundary, InfeasibleDuration, SearchBudgetExceeded,
                     SolverFailure)
from .fileio import (LimitSet, fmt, parse_vector, read_limits, read_waypoints,
                     write_trajectory_csv, write_transition_report)
from .multiaxis import plan_ptp_nd
from .oracle import brute_force_min_time
from .orientation import Pose, Quaternion, Twist, plan_pose_axes
from .profiles import DROP_DURATION, KinematicState
from .tracker import PoseTracker
from .waypoints import plan_waypoint_path_detailed

_POSITION_NAMES = ["x", "y", "z"]
_POSE_NAMES = ["x", "y", "z", "qn", "qi", "qj", "qk"]
_VECTOR_OPTIONS = ("--from", "--to", "--init", "--final")
_NUMBER_START = set("0123456789.")


def _load_limits(path: str | None) -> LimitSet:
    if path is None:
        return LimitSet()
    return read_limits(path)


def _sample_period(text: str) -> float:
    """A --dt or --tick value: a finite number of seconds above zero."""
    try:
        dt = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(dt) and dt > 0.0):
        raise argparse.ArgumentTypeError("dt must be > 0")
    return dt


@contextlib.contextmanager
def _output(path: str):
    """The stream an output option names: stdout for "-", else the file,
    closed on leaving the block."""
    if path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def _cmd_plan_ptp(args) -> int:
    limits = _load_limits(args.limits)
    start = parse_vector(getattr(args, "from"))
    goal = parse_vector(args.to)
    if len(start) != len(goal) or len(start) not in (3, 7):
        print("error: --from and --to must both have 3 or 7 coordinates",
              file=sys.stderr)
        return 2
    if len(start) == 3:
        profiles = plan_ptp_nd(start, goal, limits.linear)
        names = _POSITION_NAMES
    else:
        pose0 = Pose(tuple(start[:3]), Quaternion.from_array(start[3:]))
        posef = Pose(tuple(goal[:3]), Quaternion.from_array(goal[3:]))
        profiles = plan_pose_axes(pose0, posef, limits.linear, limits.angular)
        names = _POSE_NAMES
    with _output(args.out) as out:
        write_trajectory_csv(out, profiles, names, args.dt)
    return 0


def _cmd_plan_path(args) -> int:
    limits = _load_limits(args.limits)
    points = read_waypoints(args.waypoints)
    if points.shape[1] != 3:
        print("error: plan-path plans positions only; give x,y,z waypoints "
              "without orientation columns", file=sys.stderr)
        return 2
    profiles, summaries = plan_waypoint_path_detailed(points, limits.linear)
    with _output(args.out) as out:
        write_trajectory_csv(out, profiles, _POSITION_NAMES, args.dt)
    if args.report is not None:
        with _output(args.report) as rep:
            write_transition_report(rep, summaries, _POSITION_NAMES)
    return 0


def _read_references(stream):
    """(t, twist) of each reference line as it is read; other lines warn."""
    for lineno, line in enumerate(stream, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 7:
            print(f"warning: line {lineno}: expected 7 fields, holding previous "
                  "reference", file=sys.stderr)
            continue
        try:
            values = [float(tok) for tok in toks]
        except ValueError:
            values = [math.nan]
        if not all(map(math.isfinite, values)):   # nan and inf count as malformed
            print(f"warning: line {lineno}: malformed number, holding previous "
                  "reference", file=sys.stderr)
            continue
        t, vx, vy, vz, wx, wy, wz = values
        yield t, Twist((vx, vy, vz), (wx, wy, wz))


def _cmd_track(args) -> int:
    limits = _load_limits(args.limits)
    tracker = PoseTracker(limits.linear, limits.angular, dt=args.tick)
    refs = _read_references(sys.stdin)
    pending = next(refs, None)
    if pending is None:
        return 0
    current = Twist((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    while True:
        # adopt every reference that is due; the next line is read only then
        while pending is not None and pending[0] <= tracker.time + DROP_DURATION:
            t_last, current = pending
            pending = next(refs, None)
        pose = tracker.tick(current)
        twist = tracker.twist()
        row = ([fmt(tracker.time)] + [fmt(c) for c in pose.as_array()]
               + [fmt(c) for c in twist.v] + [fmt(c) for c in twist.w])
        print(" ".join(row))
        if pending is not None:
            continue
        # end of input: the last reference and the safety end are known
        if tracker.time > t_last and tracker.settled(current):
            return 0
        if tracker.time > t_last + 120.0:
            print("warning: tracker did not settle; stopping", file=sys.stderr)
            return 0


def _cmd_oracle(args) -> int:
    limits = _load_limits(args.limits)
    init = parse_vector(args.init)
    final = parse_vector(args.final)
    if len(init) != 2 or len(final) != 2:
        print("error: --init and --final take 'a,v' pairs", file=sys.stderr)
        return 2
    t = brute_force_min_time(
        KinematicState(init[0], init[1], 0.0),
        KinematicState(final[0], final[1], args.displacement),
        limits.linear, args.dt)
    print(fmt(t))
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="softmotion",
        description="Jerk/acceleration/velocity-bounded trajectory planning.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "plan-ptp", help="straight pose-to-pose motion",
        description="Plan a synchronized straight motion and write it as a "
                    "sampled CSV. The qn, qi, qj, qk columns of a pose CSV are "
                    "the raw cubic quaternion components, up to 7.6e-2 off "
                    "unit norm for a quarter turn; renormalise them before use.")
    p.add_argument("--from", required=True, metavar="X,Y,Z[,QN,QI,QJ,QK]")
    p.add_argument("--to", required=True, metavar="X,Y,Z[,QN,QI,QJ,QK]")
    p.add_argument("--limits", default=None, metavar="FILE")
    p.add_argument("--dt", type=_sample_period, default=0.01)
    p.add_argument("--out", default="-", metavar="FILE")
    p.set_defaults(func=_cmd_plan_ptp)

    p = sub.add_parser("plan-path", help="waypoint trajectory with transitions")
    p.add_argument("--waypoints", required=True, metavar="FILE")
    p.add_argument("--limits", default=None, metavar="FILE")
    p.add_argument("--dt", type=_sample_period, default=0.01)
    p.add_argument("--out", default="-", metavar="FILE")
    p.add_argument("--report", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_plan_path)

    p = sub.add_parser("track", help="online tracking of a reference stream")
    p.add_argument("--limits", default=None, metavar="FILE")
    p.add_argument("--tick", type=_sample_period, default=0.01)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("oracle", help="brute-force minimal time")
    p.add_argument("--init", required=True, metavar="A,V")
    p.add_argument("--final", required=True, metavar="A,V")
    p.add_argument("--displacement", type=float, required=True)
    p.add_argument("--limits", default=None, metavar="FILE")
    p.add_argument("--dt", type=_sample_period, default=0.002)
    p.set_defaults(func=_cmd_oracle)
    return parser


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    """Join a vector that starts with a minus sign to its option.

    argparse reads "-0.1,0,0" as an option name, so "--from -0.1,0,0" is
    rewritten to "--from=-0.1,0,0".
    """
    out: list[str] = []
    for tok in argv:
        if (out and out[-1] in _VECTOR_OPTIONS and tok[:1] == "-"
                and tok[1:2] in _NUMBER_START):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_vectors(argv))
    try:
        return args.func(args)
    except (InfeasibleBoundary, InfeasibleDuration) as exc:
        print(f"error: infeasible plan: {exc}", file=sys.stderr)
        return 3
    except SearchBudgetExceeded as exc:
        print(f"error: search budget exceeded: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
