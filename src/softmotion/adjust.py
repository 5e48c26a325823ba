"""Stretching a transition motion to an imposed duration.

A transition links two zero-acceleration states (v0 at x0, vf at xf).  Its
minimal time t_opt comes from the general planner; the stop-and-restart
time t_stop (halt at the intermediate point, then continue) is always
achievable and any duration beyond it is reachable by dwelling at the
stop.  Between t_opt and t_stop the only limit-respecting way to slow down
is a profile whose cruise runs at some |vc| below vmax, and for some
durations no such vc exists, so the feasible set is a union of intervals.

That profile has a closed form.  A ramp over a velocity change d lasts
R(d) = 2 sqrt(d/jmax) when d <= amax^2/jmax, else d/amax + amax/jmax, and
sweeps the mean of its end velocities times R.  So a cruise at vc takes
T(vc) = (D + g(vc - v0) + g(vc - vf)) / vc with g(d) = d R(|d|) / 2, of
which the cruise itself lasts t_c = T - R1 - R2.  At a stationary point of
T the cruise time would be negative, so T is strictly monotone on every
run: a maximal interval of cruise velocities of one sign with t_c >= 0.  A
run meets every duration between those at its ends exactly once, and T
grows without bound where a run reaches vc = 0.

``transition_problem`` solves an axis once: the minimal-time profile, the
halt and restart legs, and the exact run ends.  Everything after it only
reads the problem, and each interval end is a duration the slowing search
builds.  Between the cuts v0, vf and v +- amax^2/jmax one unknown makes vc
and each sqrt(|vc - v|) rational, so each run end and crossing T(vc) = t_imp
is a root of one polynomial of degree 2, 4 or 6, moved to the float by ``_snap``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import InfeasibleDuration, SolverFailure
from .planner import (critical_length, cruise_steps, plan_min_time_1d,
                      steps_duration)
from .profiles import (CHAIN_TOL, AxisProfile, KinematicLimits,
                       KinematicState, check_limits, make_profile)
from .roots import padd, peval, pmul, pscale, solve_real_roots

#: Imposed durations are matched to this absolute tolerance (seconds).
DURATION_TOL = 1e-6
#: Slack (seconds) of a duration against t_opt, t_stop or an interval end.
TIME_TOL = 1e-9
#: Feasible intervals closer than this (seconds) merge into one.
MERGE_GAP = 1e-6
#: Slack (seconds) below the largest t_opt of an interval start candidate.
CANDIDATE_TOL = 1e-12


@dataclass(frozen=True)
class TransitionProblem:
    """One axis transition, solved once under ``limits``.

    Both boundary accelerations are zero.  ``displacement`` equals
    final.x - init.x and is kept explicit because it is the quantity the
    slowing search preserves.  Build it with ``transition_problem``, which
    plans the minimal-time profile (duration ``t_opt``), the ``halt`` and
    ``restart`` legs (together ``t_stop``) and the ``runs`` of cruise
    velocities, each a ``(vc_lo, vc_hi)`` pair.
    """

    init: KinematicState
    final: KinematicState
    displacement: float
    limits: KinematicLimits
    min_time: AxisProfile
    halt: AxisProfile
    restart: AxisProfile
    runs: tuple[tuple[float, float], ...] = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if abs(self.init.a) > CHAIN_TOL or abs(self.final.a) > CHAIN_TOL:
            raise ValueError("transition boundary accelerations must be zero")
        if abs((self.final.x - self.init.x) - self.displacement) > CHAIN_TOL:
            raise ValueError("displacement disagrees with boundary positions")

    @property
    def t_opt(self) -> float:
        return self.min_time.duration

    @property
    def t_stop(self) -> float:
        return self.halt.duration + self.restart.duration


def transition_problem(v0: float, vf: float, displacement: float,
                       limits: KinematicLimits, x0: float = 0.0) -> TransitionProblem:
    """Plan one axis transition and find its runs of cruise velocities."""
    init = KinematicState(0.0, v0, x0)
    final = KinematicState(0.0, vf, x0 + displacement)
    min_time = plan_min_time_1d(init, final, limits)
    sweep_stop = critical_length(init, KinematicState(0.0, 0.0), limits)
    stop = KinematicState(0.0, 0.0, init.x + sweep_stop)   # the natural standstill
    halt = plan_min_time_1d(init, stop, limits)
    restart = plan_min_time_1d(stop, final, limits)
    problem = TransitionProblem(init, final, displacement, limits, min_time,
                                halt, restart, runs=())
    return replace(problem, runs=_feasible_runs(problem))


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
    steps, t_c = cruise_steps(0.0, problem.init.v, 0.0, problem.final.v,
                              problem.displacement, vc, problem.limits)
    if t_c < 0.0:
        return None
    return steps_duration(steps), steps


def _cells(problem: TransitionProblem, lo: float, hi: float) -> list[float]:
    """[lo, hi] cut at v0, vf and v +- amax^2/jmax, where a ramp changes shape."""
    thr = problem.limits.amax ** 2 / problem.limits.jmax
    return sorted({lo, hi} | {w for v in (problem.init.v, problem.final.v)
                              for w in (v - thr, v, v + thr) if lo < w < hi})


def _cell_roots(problem: TransitionProblem, lo: float, hi: float,
                t_imp: float | None = None) -> list[float]:
    """Cruise velocities in (lo, hi) where t_c = 0, or T = t_imp if given.

    Between two cuts of ``_cells`` both ramp shapes are fixed, and one
    unknown w, monotone in vc, makes vc = V/q^2 and each triangular
    p = sqrt(|vc - v|) = P/q rational: w = vc, or p of the one triangular
    ramp, or with two, p0 + p1 on the hyperbola p0^2 - p1^2 = s (vf - v0)
    (vc beyond both) and tan(theta/2) on the circle p0^2 + p1^2 = |vf - v0|.
    A ramp lasts 2Y and sweeps (v + vc) Y, with qY = P/sqrt(jmax), or
    (s (vc - v)/amax + amax/jmax)/2 with a plateau (there q = 1): q^3 vc t_c
    and q^3 vc (T - t_imp) are polynomials in w of degree <= 6.
    """
    j, am = problem.limits.jmax, problem.limits.amax
    vs = (problem.init.v, problem.final.v)
    mid = 0.5 * (lo + hi)
    s = [math.copysign(1.0, mid - v) for v in vs]
    tri = [abs(mid - v) < am * am / j for v in vs]
    ends = [[math.sqrt(abs(vc - v)) for v in vs] for vc in (lo, hi)]   # p at lo, hi
    if all(tri) and s[0] == s[1]:
        c = s[0] * (vs[1] - vs[0])
        q, P = [0.0, 1.0], [[0.5 * c, 0.0, 0.5], [-0.5 * c, 0.0, 0.5]]
        ws = [p0 + p1 for p0, p1 in ends]
    elif all(tri):
        r = math.sqrt(abs(vs[1] - vs[0]))
        q, P = [1.0, 0.0, 1.0], [[r, 0.0, -r], [0.0, 2.0 * r]]
        ws = [p1 / (r + p0) for p0, p1 in ends]
    else:
        q, P = [1.0], [[0.0, 1.0]] * 2
        ws = [p[tri.index(True)] for p in ends] if any(tri) else [lo, hi]
    q2, k = pmul(q, q), tri.index(True) if any(tri) else None
    V = [0.0, 1.0] if k is None else padd(pscale(q2, vs[k]), pscale(pmul(P[k], P[k]), s[k]))
    h = padd(pscale(pmul(q2, q), problem.displacement),
             [] if t_imp is None else pscale(pmul(V, q), -t_imp))
    for v, sv, triangular, Pv in zip(vs, s, tri, P):
        Y = (pscale(Pv, 1.0 / math.sqrt(j)) if triangular else
             pscale(padd(pscale(padd(V, [-v]), sv / am), [am / j]), 0.5))
        h = padd(h, pmul(padd(pscale(V, -1.0 if t_imp is None else 1.0), pscale(q2, -v)), Y))
    qs = [(w, peval(q, w)) for w in solve_real_roots(h, *sorted(ws))]
    return sorted(vc for w, qw in qs if qw != 0.0 and lo < (vc := peval(V, w) / (qw * qw)) < hi)


def _snap(accept, edge: float, inner: float, outer: float, vmax: float) -> float:
    """The last velocity from ``inner`` towards ``outer`` where ``accept`` holds.

    ``accept`` holds at ``inner`` and not at ``outer`` (unless outer ==
    edge, a bound of the velocities).  ``edge`` is a root good to a few ulps
    of vmax, but at an exact root the rounded ramps can still give
    t_c = -1e-17, so doubling steps from ``edge`` bracket the flip of
    ``accept`` and a bisection closes the bracket.  An edge at vc = 0
    stays: a run's durations grow without bound there.
    """
    if edge == 0.0:
        return edge
    ok = accept(edge)
    near, far = edge, (outer if ok else inner)   # accept(far) != ok
    step = max(math.ulp(edge), math.ulp(vmax))
    while (far - (vc := edge + math.copysign(step, far - edge))) * (far - edge) > 0.0:
        if accept(vc) != ok:
            far = vc
            break
        near, step = vc, 2.0 * step
    keep, drop = (near, far) if ok else (far, near)
    while (mid := 0.5 * (keep + drop)) != keep and mid != drop:
        keep, drop = (mid, drop) if accept(mid) else (keep, mid)
    return keep


def _feasible_runs(problem: TransitionProblem) -> tuple[tuple[float, float], ...]:
    """Maximal runs (vc_lo, vc_hi) of cruise velocities with t_c >= 0.

    Each sign of vc is cut into ``_cells`` and each cell at the roots of
    ``_cell_roots``; t_c keeps its sign between consecutive cuts, so
    ``slowing_pieces`` at the middle of each piece decides it.  Feasible
    pieces that touch form one run.  A root within 8 ulps of vmax of 0 is
    the cut at 0: rounding puts it there when D is the halt-and-restart
    distance, and the sliver it would cut holds only durations at t_stop.
    """
    vm = problem.limits.vmax
    builds = lambda vc: slowing_pieces(problem, vc) is not None
    runs = []
    for lo, hi in ((-vm, 0.0), (0.0, vm)):
        cells = _cells(problem, lo, hi)
        cuts = [lo]
        for a, b in zip(cells, cells[1:]):
            cuts += [r for r in _cell_roots(problem, a, b)
                     if abs(r) > 8.0 * math.ulp(vm)] + [b]
        pieces = [(a, b) for a, b in zip(cuts, cuts[1:]) if a < 0.5 * (a + b) < b]
        mids = [0.5 * (a + b) for a, b in pieces] + [hi]
        ok = [builds(m) for m in mids[:-1]] + [False]
        for k, (a, b) in enumerate(pieces):
            if ok[k] and (k == 0 or not ok[k - 1]):
                first = k
            if ok[k] and not ok[k + 1]:
                runs.append((_snap(builds, pieces[first][0], mids[first],
                                   mids[first - 1] if first else lo, vm),
                             _snap(builds, b, mids[k], mids[k + 1], vm)))
    return tuple(runs)


def _end_duration(problem: TransitionProblem, vc: float) -> float:
    """Duration T at a run end; T grows without bound towards vc = 0."""
    return math.inf if vc == 0.0 else slowing_pieces(problem, vc)[0]


def _nearest_in_run(problem: TransitionProblem, run: tuple[float, float],
                    t_imp: float) -> float:
    """The cruise velocity of ``run`` whose duration is nearest t_imp.

    T is monotone along the run, so it crosses t_imp at one root of
    ``_cell_roots`` in the run's cells (none may show in a sliver run).
    ``_snap`` moves it, or the fast end, to the last velocity from the fast
    end that builds with T < t_imp.
    """
    (fast, t_fast), (slow, t_slow) = sorted(
        ((vc, _end_duration(problem, vc)) for vc in run), key=lambda e: e[1])
    if t_imp <= t_fast:
        return fast
    if t_imp >= t_slow:
        return slow
    cells = _cells(problem, *run)
    roots = [r for a, b in zip(cells, cells[1:]) for r in _cell_roots(problem, a, b, t_imp)]
    return _snap(lambda vc: (r := slowing_pieces(problem, vc)) is not None and r[0] < t_imp,
                 roots[0] if roots else fast, fast, slow, problem.limits.vmax)


def plan_slowing_velocity(problem: TransitionProblem, t_imp: float) -> AxisProfile:
    """Transition stretched to t_imp by cruising below vmax.

    Each run of the problem meets the durations between those at its ends
    once; its velocity nearest t_imp counts if its duration is within
    DURATION_TOL, and the fastest such cruise wins.  Raises
    InfeasibleDuration when t_imp falls in a gap where no cruise velocity
    yields a valid profile.
    """
    if t_imp < problem.t_opt - TIME_TOL:
        raise InfeasibleDuration(f"t_imp={t_imp} is below the minimal time")
    if abs(problem.t_opt - t_imp) <= TIME_TOL:
        return problem.min_time

    best: tuple[float, list] | None = None
    for run in problem.runs:
        vc = _nearest_in_run(problem, run, t_imp)
        t, steps = slowing_pieces(problem, vc)
        if abs(t - t_imp) <= DURATION_TOL and (best is None or abs(vc) > abs(best[0])):
            best = (vc, steps)
    if best is None:
        raise InfeasibleDuration(
            f"no slowed profile of duration {t_imp}: the duration lies in a gap")
    return make_profile(best[1], problem.init)


def feasibility_intervals(problem: TransitionProblem) -> list[tuple[float, float]]:
    """Closed intervals of achievable durations within [t_opt, t_stop].

    Each run contributes the durations between those at its ends.  t_opt
    is always feasible (the minimal-time profile) and everything from
    t_stop upward is feasible via stop-and-dwell.
    """
    t_opt, t_stop = problem.t_opt, problem.t_stop
    intervals = [(t_opt, t_opt), (t_stop, t_stop)]
    for run in problem.runs:
        T = [_end_duration(problem, vc) for vc in run]
        lo, hi = max(min(T), t_opt), min(max(T), t_stop)
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
    largest stop time is always feasible, so every axis is planned once.
    """
    if not problems:
        raise ValueError("at least one axis problem is required")

    t_lo = max(p.t_opt for p in problems)
    axes = [(p.t_stop, feasibility_intervals(p)) for p in problems]
    candidates = {t_lo} | {max(t_stop, t_lo) for t_stop, _ in axes} | {
        lo for _, ivals in axes for lo, _ in ivals if lo >= t_lo - CANDIDATE_TOL}
    t = min(c for c in candidates if all(
        c >= t_stop - TIME_TOL or any(lo - TIME_TOL <= c <= hi + TIME_TOL for lo, hi in ivals)
        for t_stop, ivals in axes))
    return t, [plan_for_duration(p, t) for p in problems]


def plan_for_duration(problem: TransitionProblem, t_imp: float) -> AxisProfile:
    """Profile of duration t_imp: minimal-time, slowed, or stop-and-dwell.

    Raises SolverFailure rather than return one that breaks a limit or D.
    """
    stop = abs(t_imp - problem.t_opt) > TIME_TOL and t_imp >= problem.t_stop - TIME_TOL
    profile = stop_time(problem, t_imp) if stop else plan_slowing_velocity(problem, t_imp)
    end = profile.final_state
    if (abs(end.x - problem.init.x - problem.displacement) > CHAIN_TOL
            or not check_limits(profile, problem.limits).ok):
        raise SolverFailure(f"profile of duration {t_imp} breaks a limit or misses D")
    return profile
