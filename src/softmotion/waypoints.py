"""Waypoint path following: straight legs joined by smooth transitions.

The trajectory through a polyline is assembled in three steps.  First each
pair of consecutive points gets a synchronized straight-line motion that
would stop at the far end.  Second, at every interior point the tail of
the incoming leg and the head of the outgoing leg are cut away at their
cruise boundaries (both are zero-acceleration states) and replaced by a
per-axis transition planned by the general planner, so the trajectory
rounds the corner without stopping.  Third, the per-axis transition
durations are unified to the smallest time feasible for every axis.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjust import impose_common_time, transition_problem
from .errors import SolverFailure
from .multiaxis import plan_ptp_nd_with_times
from .profiles import (AxisProfile, KinematicLimits, KinematicState,
                       concat_profiles, evaluate, slice_profile)


@dataclass(frozen=True)
class TransitionSummary:
    """Per-axis numbers of one corner transition, for reporting."""

    waypoint: int
    axis: int
    v_in: float
    v_out: float
    displacement: float
    t_opt: float
    t_imp: float


def plan_waypoint_path(points, limits: KinematicLimits) -> list[AxisProfile]:
    """Per-axis trajectory through a polyline of at least three points."""
    profiles, _ = plan_waypoint_path_detailed(points, limits)
    return profiles


def plan_waypoint_path_detailed(points, limits: KinematicLimits,
                                ) -> tuple[list[AxisProfile], list[TransitionSummary]]:
    """plan_waypoint_path plus the per-transition report rows.

    The assembled trajectory is, per axis: head and cruise of the first
    leg, a transition at each interior waypoint, the cruise of each middle
    leg between its transitions, and the cruise and tail of the last leg.
    It starts and ends at rest and is continuous in position, velocity and
    acceleration across every seam; a seam that misses raises SolverFailure.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 3:
        raise ValueError("at least three points are required")
    n_axes = pts.shape[1]

    legs = []
    windows = []
    for k in range(len(pts) - 1):
        # a dwell leg (coincident points) is a 0 s hold per axis, with the
        # single-instant window (0, 0)
        prof, times = plan_ptp_nd_with_times(pts[k], pts[k + 1], limits)
        legs.append(prof)
        windows.append((times.cruise_start, times.cruise_end))

    transitions: list[list[AxisProfile]] = []
    summaries: list[TransitionSummary] = []
    for w in range(1, len(pts) - 1):
        leg_in, leg_out = legs[w - 1], legs[w]
        t_ic = windows[w - 1][1]
        t_fc = windows[w][0]
        problems = []
        for ax in range(n_axes):
            ic = _anchor_state(leg_in[ax], t_ic)
            fc = _anchor_state(leg_out[ax], t_fc)
            problems.append(transition_problem(ic.v, fc.v, fc.x - ic.x,
                                               limits, x0=ic.x))
        t_imp, tprofiles = impose_common_time(problems)
        transitions.append(tprofiles)
        for ax, prob in enumerate(problems):
            summaries.append(TransitionSummary(
                waypoint=w, axis=ax, v_in=prob.init.v, v_out=prob.final.v,
                displacement=prob.displacement, t_opt=prob.t_opt, t_imp=t_imp))

    out = []
    for ax in range(n_axes):
        pieces = [slice_profile(legs[0][ax], 0.0, windows[0][1])]
        for w in range(1, len(pts) - 1):
            pieces.append(transitions[w - 1][ax])
            leg = legs[w][ax]
            lo = windows[w][0]
            hi = windows[w][1] if w < len(pts) - 2 else leg.duration
            if hi > lo:
                pieces.append(slice_profile(leg, lo, hi))
        try:
            profile = concat_profiles(pieces)
        except ValueError as exc:      # a seam missed: the planners' fault, not the input's
            raise SolverFailure(f"axis {ax}: {exc}") from exc
        out.append(profile)
    return out, summaries


def _anchor_state(profile: AxisProfile, t: float) -> KinematicState:
    """Leg state at time t, held to the leg's span."""
    state, _ = evaluate(profile, min(max(t, 0.0), profile.duration))
    return state
