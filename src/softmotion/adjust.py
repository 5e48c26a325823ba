"""Stretching a transition motion to an imposed duration.

A transition links two zero-acceleration states (v0 at x0, vf at xf).  Its
minimal time t_opt comes from the general planner; the stop-and-restart
time t_stop (halt at the intermediate point, then continue) is always
achievable and any duration beyond it is reachable by dwelling at the
stop.  Between t_opt and t_stop the only limit-respecting way to slow down
is a profile whose cruise runs at some |vc| below vmax, and for some
durations no such vc exists, so the feasible set is a union of intervals.

``transition_problem`` solves an axis once: the minimal-time profile, the
halt and restart legs, and the duration map vc -> T sampled on one grid
(per sign of vc, 8 points per ms of slack t_stop - t_opt, 2048 to 65536,
plus the ramp-shape breakpoints).  Everything after it only reads the
problem, so each interval end is a duration the slowing search can build.
A gap in vc narrower than the grid spacing may go undetected.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleBoundary, InfeasibleDuration
from .planner import (CLAMP_TOL, connect_steps, critical_length,
                      plan_min_time_1d, steps_duration, sweep)
from .profiles import (AxisProfile, KinematicLimits, KinematicState,
                       make_profile)

#: Imposed durations are matched to this absolute tolerance (seconds).
DURATION_TOL = 1e-6
#: Slack (seconds) of a duration against t_opt, t_stop or an interval end.
TIME_TOL = 1e-9
#: Feasible intervals closer than this (seconds) merge into one.
MERGE_GAP = 1e-6
#: Slack (seconds) below the largest t_opt of an interval start candidate.
CANDIDATE_TOL = 1e-12
#: The cruise-velocity grid stops this fraction of vmax short of vc = 0.
GRID_END = 1e-9


@dataclass(frozen=True)
class TransitionProblem:
    """One axis transition, solved once under ``limits``.

    Both boundary accelerations are zero.  ``displacement`` equals
    final.x - init.x and is kept explicit because it is the quantity the
    slowing search preserves.  Build it with ``transition_problem``, which
    plans the minimal-time profile (duration ``t_opt``), the ``halt`` and
    ``restart`` legs (together ``t_stop``) and the duration ``runs``.
    """

    init: KinematicState
    final: KinematicState
    displacement: float
    limits: KinematicLimits
    min_time: AxisProfile
    halt: AxisProfile
    restart: AxisProfile
    runs: tuple[tuple[np.ndarray, np.ndarray], ...] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if abs(self.init.a) > 1e-9 or abs(self.final.a) > 1e-9:
            raise ValueError("transition boundary accelerations must be zero")
        if abs((self.final.x - self.init.x) - self.displacement) > 1e-9:
            raise ValueError("displacement disagrees with boundary positions")

    @property
    def t_opt(self) -> float:
        return self.min_time.duration

    @property
    def t_stop(self) -> float:
        return self.halt.duration + self.restart.duration


def transition_problem(v0: float, vf: float, displacement: float,
                       limits: KinematicLimits, x0: float = 0.0) -> TransitionProblem:
    """Plan one axis transition and sample its duration map."""
    init = KinematicState(0.0, v0, x0)
    final = KinematicState(0.0, vf, x0 + displacement)
    min_time = plan_min_time_1d(init, final, limits)
    sweep_stop = critical_length(init, KinematicState(0.0, 0.0), limits)
    stop = KinematicState(0.0, 0.0, init.x + sweep_stop)   # the natural standstill
    halt = plan_min_time_1d(init, stop, limits)
    restart = plan_min_time_1d(stop, final, limits, t0=halt.duration)
    problem = TransitionProblem(init, final, displacement, limits, min_time,
                                halt, restart, runs=())
    n = min(max(2048, int(8.0 * (problem.t_stop - problem.t_opt) / 1e-3)), 65536)
    return replace(problem, runs=tuple(_duration_runs(problem, n)))


def stop_time(problem: TransitionProblem, t_imp: float | None = None) -> AxisProfile:
    """The stored halt and restart legs as one profile.

    If ``t_imp`` exceeds t_stop, a dwell of the difference is inserted at
    the standstill between them.
    """
    steps = [(s.jerk, s.duration) for s in problem.halt.segments]
    if t_imp is not None and t_imp > problem.t_stop:
        steps.append((0.0, t_imp - problem.t_stop))
    steps += [(s.jerk, s.duration) for s in problem.restart.segments]
    return make_profile(steps, problem.init)


def slowing_pieces(problem: TransitionProblem, vc: float):
    """Duration and steps of the vc-cruise profile, or None when t_c < 0."""
    v0, vf = problem.init.v, problem.final.v
    ramp1 = connect_steps(0.0, v0, 0.0, vc, problem.limits)
    ramp2 = connect_steps(0.0, vc, 0.0, vf, problem.limits)
    s1 = sweep(ramp1, 0.0, v0)[2]
    s2 = sweep(ramp2, 0.0, vc)[2]
    t_c = (problem.displacement - s1 - s2) / vc
    if t_c < 0.0:
        return None
    steps = ramp1 + [(0.0, t_c)] + ramp2
    return steps_duration(steps), steps


def _ramp_arrays(va, vb, limits: KinematicLimits):
    """Array form of ``connect_steps(0.0, va, 0.0, vb)`` and its sweep from va.

    One of va, vb is an array of cruise velocities.  Each ramp is jerk
    +-jmax for ``edge`` seconds, a hold of ``hold`` seconds at +-amax (zero
    for a ramp without plateau) and the opposite jerk for ``edge`` seconds;
    ``dist`` is the displacement it sweeps from velocity va.  The shape is
    chosen by the scalar rules, and every value is computed by the scalar
    formulas in the same order, up to exact negations and halvings, so each
    element equals its scalar counterpart.  Terms that add the exactly-zero
    boundary accelerations are left out; they could only flip the sign of
    a zero.
    """
    j, am = limits.jmax, limits.amax
    dv = np.subtract(vb, va)
    jerk_down = dv < 0.0
    np.abs(dv, out=dv)
    # peak acceleration sqrt(j*|dv|); where j*|dv| <= 1e-15 both shapes
    # are valid and the one that wins has no duration at all
    edge = dv * j
    edge[edge <= 1e-15] = 0.0
    np.sqrt(edge, out=edge)
    plateau = edge > am
    edge /= j
    edge[plateau] = am / j
    hold = np.subtract(dv, 2 * am * am / (2 * j), out=dv)
    hold /= am
    hold[~plateau] = 0.0
    if np.any(hold < -CLAMP_TOL):
        raise InfeasibleBoundary("no phase-plane connection for a cruise velocity")
    hold[hold < 0.0] = 0.0
    # integrate_segment over (J, edge), (0, hold), (-J, edge) from (0, va, 0);
    # jt = J*edge is the acceleration after the first segment
    jt = edge * j
    np.negative(jt, out=jt, where=jerk_down)
    jt6 = jt / 6.0
    v1 = 0.5 * jt
    v1 *= edge
    v1 += va
    dist = jt6 * edge
    dist += va
    dist *= edge
    tmp = 0.5 * jt          # the hold: position, then velocity
    tmp *= hold
    tmp += v1
    tmp *= hold
    dist += tmp
    np.multiply(jt, hold, out=tmp)
    v1 += tmp
    np.multiply(jt, 0.5, out=tmp)   # the last segment: position
    tmp -= jt6
    tmp *= edge
    tmp += v1
    tmp *= edge
    dist += tmp
    return edge, hold, dist


def _slowing_durations(problem: TransitionProblem,
                       vc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Durations T and the mask t_c >= 0 of ``slowing_pieces`` over an array.

    Element for element, ``T[k]`` equals ``slowing_pieces(problem, vc[k])[0]``
    wherever ``ok[k]``, and ``ok[k]`` is False exactly where it returns None.
    """
    edge1, hold1, s1 = _ramp_arrays(problem.init.v, vc, problem.limits)
    total = np.add(edge1, hold1, out=hold1)
    total += edge1
    del edge1   # free it before the second ramp's temporaries
    edge2, hold2, s2 = _ramp_arrays(vc, problem.final.v, problem.limits)
    t_c = np.subtract(problem.displacement, s1, out=s1)
    t_c -= s2
    t_c /= vc
    ok = t_c >= 0.0
    total += t_c
    total += edge2
    total += hold2
    total += edge2
    return total, ok


def _vc_grid(limits: KinematicLimits, v0: float, vf: float,
             n: int) -> list[np.ndarray]:
    """Sampling grids of ``n`` cruise velocities per sign, negative side first.

    Ramp shapes change where |vc - v| crosses the plateau threshold
    amax^2/jmax; those breakpoints are inserted into each side so every
    grid cell sees a smooth duration map.
    """
    vm = limits.vmax
    eps = vm * GRID_END
    thr = limits.amax ** 2 / limits.jmax
    marks = {w for v in (v0, vf) for w in (v - thr, v + thr, v) if -vm < w < vm}
    sides = []
    for lo, hi in ((-vm, -eps), (eps, vm)):
        pts = np.linspace(lo, hi, n)
        inner = np.array(sorted(m for m in marks if lo < m < hi))
        at = np.searchsorted(pts, inner)
        fresh = pts[at] != inner
        sides.append(np.insert(pts, at[fresh], inner[fresh]))
    return sides


def _bisect_vc(problem: TransitionProblem, keep: float, drop: float,
               steps: int, accept=None):
    """Bisect the cruise velocities between ``keep`` and ``drop``.

    A midpoint replaces ``keep`` when its slowed profile exists and passes
    ``accept`` (if given) on its duration, and ``drop`` otherwise.  Returns
    both ends and the ``slowing_pieces`` result at ``keep`` (None if
    ``keep`` never moved).
    """
    res = None
    for _ in range(steps):
        mid = 0.5 * (keep + drop)
        if mid == keep or mid == drop:
            break
        r = slowing_pieces(problem, mid)
        if r is not None and (accept is None or accept(r[0])):
            keep, res = mid, r
        else:
            drop = mid
    return keep, drop, res


def _duration_runs(problem: TransitionProblem,
                   n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Maximal runs of cruise velocities with non-negative cruise time.

    Each side of the ``n``-point grid is evaluated in one array pass.  A
    run is a contiguous stretch of feasible cruise velocities of one sign,
    returned as increasing ``vc`` with the durations ``T`` there.  Where a
    run ends inside the grid, its edge (where the cruise time hits zero)
    is refined to about 1e-12 in vc by bisection and included, so the
    duration map is sampled through to the run ends.
    """
    eps = problem.limits.vmax * GRID_END

    def edge(good: float, bad: float) -> tuple[list, list]:
        vc, _, res = _bisect_vc(problem, good, bad, 60)
        return ([vc], [res[0]]) if abs(vc - good) > eps else ([], [])

    runs: list[tuple[np.ndarray, np.ndarray]] = []
    for side in _vc_grid(problem.limits, problem.init.v, problem.final.v, n):
        T, ok = _slowing_durations(problem, side)
        cuts = np.flatnonzero(ok[1:] != ok[:-1]) + 1
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), side.size]):
            if not ok[lo]:
                continue
            vc1, t1 = edge(float(side[lo]), float(side[lo - 1])) if lo > 0 else ([], [])
            vc2, t2 = (edge(float(side[hi - 1]), float(side[hi]))
                       if hi < side.size else ([], []))
            runs.append((np.concatenate([vc1, side[lo:hi], vc2]),
                         np.concatenate([t1, T[lo:hi], t2])))
    return runs


def plan_slowing_velocity(problem: TransitionProblem, t_imp: float) -> AxisProfile:
    """Transition stretched to t_imp by cruising below vmax.

    Reads the duration map of each run of the problem's grid and bisects
    only the cells where T - t_imp changes sign (the map is continuous and
    monotone between breakpoints); a sample with T = t_imp, the refined
    run edges included, is taken as it is.  Of the crossings that
    reproduce t_imp, the fastest cruise wins.  Raises InfeasibleDuration
    when t_imp falls in a gap where no cruise velocity yields a valid
    profile; a gap narrower than the grid spacing may go undetected.
    """
    if t_imp < problem.t_opt - TIME_TOL:
        raise InfeasibleDuration(f"t_imp={t_imp} is below the minimal time")
    if abs(problem.t_opt - t_imp) <= TIME_TOL:
        return problem.min_time

    best: tuple[float, list] | None = None
    for vcs, T in problem.runs:
        f = T - t_imp
        below = f < 0.0
        hits = f == 0.0
        hits[:-1] |= below[:-1] != below[1:]
        for k in np.flatnonzero(hits).tolist():
            vc_star = float(vcs[k])
            if f[k] != 0.0:
                was_below = bool(below[k])
                lo, hi, _ = _bisect_vc(
                    problem, vc_star, float(vcs[k + 1]), 100,
                    lambda t: ((t - t_imp) < 0.0) == was_below)
                vc_star = 0.5 * (lo + hi)
            r = slowing_pieces(problem, vc_star)
            if r is None or abs(r[0] - t_imp) > DURATION_TOL:
                continue
            if best is None or abs(vc_star) > abs(best[0]):
                best = (vc_star, r[1])
    if best is None:
        raise InfeasibleDuration(
            f"no slowed profile of duration {t_imp}: the duration lies in a gap")
    return make_profile(best[1], problem.init)


def feasibility_intervals(problem: TransitionProblem) -> list[tuple[float, float]]:
    """Closed intervals of achievable durations within [t_opt, t_stop].

    The duration map vc -> T is continuous on each maximal vc-run where the
    cruise time stays non-negative, so each run of the problem's grid
    contributes the interval [min T, max T] of its durations.  t_opt is
    always feasible (the minimal-time profile) and everything from t_stop
    upward is feasible via stop-and-dwell.  Gaps narrower than the grid
    spacing may go undetected.
    """
    t_opt, t_stop = problem.t_opt, problem.t_stop
    intervals = [(t_opt, t_opt), (t_stop, t_stop)]
    for _, T in problem.runs:
        lo, hi = max(float(T.min()), t_opt), min(float(T.max()), t_stop)
        if lo <= hi:
            intervals.append((lo, hi))
    intervals.sort()
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1] + MERGE_GAP:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def impose_common_time(
        problems: list[TransitionProblem]) -> tuple[float, list[AxisProfile]]:
    """Common duration for all axes and the per-axis profiles realizing it.

    The imposed time is the smallest t at or above every axis's minimal
    time that is feasible for every axis; the intersection of the per-axis
    feasible sets attains its minimum at one of the interval edges.  The
    largest stop time is always a valid fallback.
    """
    if not problems:
        raise ValueError("at least one axis problem is required")

    t_lo = max(p.t_opt for p in problems)
    axis_ivals = [feasibility_intervals(p) for p in problems]

    def feasible(axis: int, t: float) -> bool:
        if t >= problems[axis].t_stop - TIME_TOL:
            return True
        return any(lo - TIME_TOL <= t <= hi + TIME_TOL for lo, hi in axis_ivals[axis])

    fallback = max(max(p.t_stop for p in problems), t_lo)
    candidates = {t_lo}
    for ivals, p in zip(axis_ivals, problems):
        candidates.update(lo for lo, _ in ivals if lo >= t_lo - CANDIDATE_TOL)
        candidates.add(max(p.t_stop, t_lo))

    # the interval data is numerically approximate, so a candidate only
    # counts once every axis profile actually materializes at it; at the
    # fallback, stop-and-dwell always does
    for t in sorted(c for c in candidates if c < fallback):
        if not all(feasible(ax, t) for ax in range(len(problems))):
            continue
        try:
            return t, [plan_for_duration(p, t) for p in problems]
        except InfeasibleDuration:
            continue
    return fallback, [plan_for_duration(p, fallback) for p in problems]


def plan_for_duration(problem: TransitionProblem, t_imp: float) -> AxisProfile:
    """Profile of duration t_imp: minimal-time, slowed, or stop-and-dwell."""
    if abs(t_imp - problem.t_opt) > TIME_TOL and t_imp >= problem.t_stop - TIME_TOL:
        return stop_time(problem, t_imp)
    return plan_slowing_velocity(problem, t_imp)
