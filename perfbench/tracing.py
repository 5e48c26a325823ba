"""Spans around the calls into each softmotion layer, recorded from outside.

The tracer replaces a public function by a timing wrapper at the place its
caller looks it up (``softmotion.tracker.plan_min_time_1d`` is wrapped in
the tracker module, not in the planner), and restores every original on
``uninstall``.  Spans nest: a span's self time is its duration minus the
time of the wrapped spans it caused, and the wrapper's own bookkeeping is
charged to the child, so it never inflates its parent's self time.

Spans are aggregated in memory per key (calls, inclusive and self seconds)
and written out once when the run ends.
"""
from __future__ import annotations

import time

from softmotion import (adjust, cli, fileio, oracle, orientation, planner,
                        profiles, ptp, tracker, waypoints)

_clock = time.perf_counter


class CountingStream:
    """Text stream proxy that counts written rows and characters."""

    def __init__(self, stream, tracer) -> None:
        self._stream = stream
        self._tracer = tracer

    def write(self, text: str) -> int:
        self._tracer.counts["fileio.rows"] += text.count("\n")
        self._tracer.counts["fileio.chars"] += len(text)
        return self._stream.write(text)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}    # key -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {"fileio.rows": 0, "fileio.chars": 0}
        self._stack: list[float] = []              # wrapped-child seconds per open span
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, key, fn, classify=None, count=None, stream_arg=None):
        stats, stack, counts = self.stats, self._stack, self.counts

        def wrapper(*args, **kwargs):
            if stream_arg is not None:
                args = list(args)
                args[stream_arg] = CountingStream(args[stream_arg], self)
            stack.append(0.0)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                child = stack.pop()
                k = key if classify is None else f"{key}.{classify(*args, **kwargs)}"
                st = stats.setdefault(k, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += t1 - t0
                st[2] += t1 - t0 - child
                if count is not None:
                    counts[count] = counts.get(count, 0) + 1
                if stack:
                    stack[-1] += _clock() - t0

        return wrapper

    def patch(self, owner, attr: str, key: str, **kw) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(key, original, **kw))

    def install(self) -> None:
        """Wrap every public entry point the workloads reach, where it is looked up."""
        p = self.patch
        p(cli, "main", "cli.main")
        p(cli, "read_waypoints", "fileio.read_waypoints")
        p(cli, "write_trajectory_csv", "fileio.write_csv", stream_arg=0)
        p(cli, "write_transition_report", "fileio.write_report", stream_arg=0)
        p(cli, "plan_waypoint_path_detailed", "waypoints.plan")
        p(cli, "plan_ptp_nd", "multiaxis.plan")
        p(cli, "plan_pose_axes", "orientation.plan_pose")
        p(oracle, "brute_force_min_time", "oracle.solve")
        for mod in (waypoints, orientation):
            p(mod, "plan_ptp_nd_with_times", "multiaxis.plan")
        for mod in (fileio, orientation, tracker, waypoints, profiles):
            p(mod, "evaluate", "profiles.evaluate")
        for mod in (planner, ptp, adjust, profiles):
            p(mod, "make_profile", "profiles.make_profile")
        for mod in (adjust, tracker):
            p(mod, "critical_length", "planner.critical_length")
        p(planner, "plan_min_time_1d", "planner.plan", classify=_motion_class)
        p(adjust, "plan_min_time_1d", "planner.plan", classify=_motion_class,
          count="adjust.plans")
        p(tracker, "plan_min_time_1d", "planner.plan", classify=_motion_class,
          count="tracker.replans")
        p(planner, "solve_real_roots", "roots.solve")
        for mod in (waypoints, adjust):
            p(mod, "transition_problem", "adjust.transition_problem")
        p(waypoints, "impose_common_time", "adjust.impose_common_time")
        p(adjust, "feasibility_intervals", "adjust.feasibility_intervals")
        p(adjust, "plan_for_duration", "adjust.plan_for_duration")
        p(tracker, "omega_to_qdot", "orientation.omega_to_qdot")
        p(tracker.PoseTracker, "tick", "tracker.tick")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- metrics -------------------------------------------------------------

    def calls(self, key: str) -> int:
        return sum(int(st[0]) for k, st in self.stats.items()
                   if k == key or k.startswith(key + "."))

    def mean(self, key: str, scale: float, self_time: bool = False) -> float:
        calls = self.calls(key)
        if calls == 0:
            return 0.0
        total = sum(st[2 if self_time else 1] for k, st in self.stats.items()
                    if k == key or k.startswith(key + "."))
        return total / calls * scale


_classify = planner.classify


def _motion_class(init, final, limits, *rest, **kw) -> str:
    """critical, type1 or type2, as softmotion.planner.classify names it."""
    return _classify(init, final, final.x - init.x, limits).value


def per_layer_metrics(tr: Tracer, ops: int) -> dict[str, float]:
    """Every per-layer metric of one traced window of ``ops`` operations."""
    ms, us = 1e3, 1e6
    per_op = 1.0 / ops
    transitions = tr.calls("adjust.impose_common_time")
    plans = tr.calls("planner.plan")
    ticks = tr.calls("tracker.tick")
    m = {
        "cli.main_self_ms": tr.mean("cli.main", ms, self_time=True),
        "fileio.read_waypoints_ms": tr.mean("fileio.read_waypoints", ms),
        "fileio.write_csv_ms": tr.mean("fileio.write_csv", ms),
        "fileio.write_report_ms": tr.mean("fileio.write_report", ms),
        "fileio.rows": tr.counts["fileio.rows"] * per_op,
        "fileio.mb_written": tr.counts["fileio.chars"] / 1e6 * per_op,
        "profiles.evaluate_us": tr.mean("profiles.evaluate", us),
        "profiles.evaluate_calls": tr.calls("profiles.evaluate") * per_op,
        "profiles.make_profile_us": tr.mean("profiles.make_profile", us),
        "profiles.make_profile_calls": tr.calls("profiles.make_profile") * per_op,
        "waypoints.plan_self_ms": tr.mean("waypoints.plan", ms, self_time=True),
        "waypoints.transitions": transitions * per_op,
    }
    for name in ("transition_problem", "feasibility_intervals", "impose_common_time",
                 "plan_for_duration"):
        m[f"adjust.{name}_ms"] = tr.mean(f"adjust.{name}", ms)
        m[f"adjust.{name}_calls"] = tr.calls(f"adjust.{name}") * per_op
    for cls in ("critical", "type1", "type2"):
        m[f"planner.plan_us.{cls}"] = tr.mean(f"planner.plan.{cls}", us)
    m.update({
        "planner.plan_calls": plans * per_op,
        "planner.critical_length_us": tr.mean("planner.critical_length", us),
        "planner.calls_per_transition":
            tr.counts.get("adjust.plans", 0) / transitions if transitions else 0.0,
        "roots.solve_us": tr.mean("roots.solve", us),
        "roots.calls_per_plan": tr.calls("roots.solve") / plans if plans else 0.0,
        "multiaxis.plan_us": tr.mean("multiaxis.plan", us),
        "orientation.plan_pose_us": tr.mean("orientation.plan_pose", us),
        "orientation.omega_to_qdot_us": tr.mean("orientation.omega_to_qdot", us),
        "tracker.tick_self_us": tr.mean("tracker.tick", us, self_time=True),
        "tracker.replans_per_tick":
            tr.counts.get("tracker.replans", 0) / ticks if ticks else 0.0,
        "oracle.solve_s": tr.mean("oracle.solve", 1.0),
    })
    return m


#: Unit of every per-layer metric, in the order BENCHMARK.json lists them.
UNITS = {
    "cli.main_self_ms": "ms",
    "fileio.read_waypoints_ms": "ms",
    "fileio.write_csv_ms": "ms",
    "fileio.write_report_ms": "ms",
    "fileio.rows": "count",
    "fileio.mb_written": "MB",
    "profiles.evaluate_us": "us",
    "profiles.evaluate_calls": "count",
    "profiles.make_profile_us": "us",
    "profiles.make_profile_calls": "count",
    "waypoints.plan_self_ms": "ms",
    "waypoints.transitions": "count",
    "adjust.transition_problem_ms": "ms",
    "adjust.transition_problem_calls": "count",
    "adjust.feasibility_intervals_ms": "ms",
    "adjust.feasibility_intervals_calls": "count",
    "adjust.impose_common_time_ms": "ms",
    "adjust.impose_common_time_calls": "count",
    "adjust.plan_for_duration_ms": "ms",
    "adjust.plan_for_duration_calls": "count",
    "planner.plan_us.critical": "us",
    "planner.plan_us.type1": "us",
    "planner.plan_us.type2": "us",
    "planner.plan_calls": "count",
    "planner.critical_length_us": "us",
    "planner.calls_per_transition": "count",
    "roots.solve_us": "us",
    "roots.calls_per_plan": "count",
    "multiaxis.plan_us": "us",
    "orientation.plan_pose_us": "us",
    "orientation.omega_to_qdot_us": "us",
    "tracker.tick_self_us": "us",
    "tracker.replans_per_tick": "count",
    "tracker.tick_p50_ms": "ms",
    "tracker.tick_p99_ms": "ms",
    "oracle.solve_s": "s",
    "trace.overhead_pct": "%",
}
