import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from softmotion import (InfeasibleDuration, KinematicState, SoftMotionError,
                        SolverFailure, check_limits, cli, critical_length,
                        feasibility_intervals, impose_common_time,
                        plan_for_duration, plan_slowing_velocity, stop_time,
                        transition_problem)
from softmotion import adjust
from softmotion.adjust import DURATION_TOL, slowing_pieces
from softmotion.planner import cruise_steps


def exhaustive_vc_times(problem, n=30001):
    """Independent oracle: dense sweep of the cruise-velocity map."""
    out = []
    vmax = problem.limits.vmax
    for vc in np.linspace(-vmax, vmax, n):
        if abs(vc) < 1e-6:
            continue
        res = slowing_pieces(problem, float(vc))
        if res is not None:
            out.append(res[0])
    return np.array(out)


def test_stop_time_trivial(lin):
    prob = transition_problem(0.0, 0.0, 0.0, lin)
    prof = stop_time(prob)
    assert prob.t_stop == 0.0
    # an axis that neither moves nor stops is a 0 s hold at its start
    assert prof.duration == 0.0 and len(prof.segments) == 1
    assert prof.start_state == prof.final_state == prob.init


def test_stop_time_cruise_case(lin):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    assert prob.t_opt == pytest.approx(0.125 / 0.15, abs=1e-9)
    prof = stop_time(prob)
    # brake sweeps 0.0625 m, restart sweeps the remaining 0.0625 m
    assert prob.t_stop == pytest.approx(2.0 * 5.0 / 6.0, abs=1e-9)
    end = prof.final_state
    assert end.v == pytest.approx(0.15, abs=1e-9)
    assert end.x == pytest.approx(0.125, abs=1e-9)


def test_stop_time_inserts_dwell(lin):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    t_stop = prob.t_stop
    padded = stop_time(prob, t_stop + 0.5)
    assert padded.duration == pytest.approx(t_stop + 0.5, abs=1e-9)
    dwell = [s for s in padded.segments
             if s.jerk == 0.0 and abs(s.start.v) < 1e-12 and abs(s.start.a) < 1e-12]
    assert dwell and dwell[0].duration == pytest.approx(0.5, abs=1e-9)


def test_slowing_at_t_opt_returns_minimal_profile(lin):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    prof = plan_slowing_velocity(prob, prob.t_opt)
    assert prof.duration == pytest.approx(prob.t_opt, abs=1e-9)


def test_slowing_velocity_stretch(lin):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    t_imp = 1.0
    prof = plan_slowing_velocity(prob, t_imp)
    assert abs(prof.duration - t_imp) <= 1e-6
    end = prof.final_state
    assert end.x == pytest.approx(0.125, abs=1e-9)
    assert end.v == pytest.approx(0.15, abs=1e-9)
    assert check_limits(prof, lin).ok
    cruise = [s for s in prof.segments if s.jerk == 0.0 and abs(s.start.a) < 1e-9]
    assert cruise and abs(cruise[0].start.v) < lin.vmax
    # the dense sweep finds the same duration reachable
    times = exhaustive_vc_times(prob)
    assert np.min(np.abs(times - t_imp)) < 1e-3


def test_slowing_reaches_the_lower_end_of_an_interval(lin):
    # the interval's lower end is a refined run edge, the last sample of
    # its run; the slowing search must build a profile there
    prob = transition_problem(0.1, 0.0, 0.041666666666666664, lin)
    ivals = feasibility_intervals(prob)
    assert ivals[-1][0] == pytest.approx(0.9224477589623111, abs=1e-12)
    prof = plan_slowing_velocity(prob, ivals[-1][0])
    assert abs(prof.duration - 0.9224477589623111) <= 1e-6
    assert prof.final_state.x == pytest.approx(prob.displacement, abs=1e-9)
    assert check_limits(prof, lin).ok


def test_ramp_transition_has_a_duration_gap(lin):
    # ramp 0 -> 0.15 over the critical displacement: no slack at all, so
    # stretching beyond t_opt is impossible until the stop time
    prob = transition_problem(0.0, 0.15, 0.0625, lin)
    with pytest.raises(InfeasibleDuration):
        plan_slowing_velocity(prob, 0.84)
    times = exhaustive_vc_times(prob)
    assert np.all(np.abs(times - 0.84) > 1e-3)


def test_feasibility_intervals_rest_to_rest(lin):
    prob = transition_problem(0.0, 0.0, 0.1, lin)
    ivals = feasibility_intervals(prob)
    assert ivals[0][0] == pytest.approx(prob.t_opt, abs=1e-6)
    assert ivals[-1][1] == pytest.approx(prob.t_stop, abs=1e-6)
    # a rest-to-rest motion can always be slowed: one solid interval
    assert len(ivals) == 1


def test_feasibility_intervals_gap_case(lin):
    prob = transition_problem(0.0, 0.15, 0.0625, lin)
    ivals = feasibility_intervals(prob)
    # only the endpoints are feasible; everything between is a gap
    assert ivals[0] == pytest.approx((prob.t_opt, prob.t_opt), abs=1e-6)
    assert ivals[-1] == pytest.approx((prob.t_stop, prob.t_stop), abs=1e-6)


def test_t_opt_always_feasible(lin):
    rng = np.random.default_rng(47)
    for _ in range(20):
        v0 = float(rng.uniform(-0.14, 0.14))
        vf = float(rng.uniform(-0.14, 0.14))
        base = transition_problem(v0, vf, 0.0, lin)
        d = float(rng.uniform(-0.1, 0.1))
        prob = transition_problem(v0, vf, d, lin)
        prof = plan_for_duration(prob, prob.t_opt)
        assert prof.duration == pytest.approx(prob.t_opt, abs=1e-9)


def test_plan_for_duration_exactness(lin):
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 15:
        v0 = float(rng.uniform(-0.1, 0.1))
        vf = float(rng.uniform(-0.1, 0.1))
        d = float(rng.uniform(-0.15, 0.15))
        prob = transition_problem(v0, vf, d, lin)
        t_imp = float(rng.uniform(prob.t_opt, prob.t_stop + 0.3))
        try:
            prof = plan_for_duration(prob, t_imp)
        except InfeasibleDuration:
            continue
        checked += 1
        assert abs(prof.duration - t_imp) <= 1e-6
        end = prof.final_state
        assert end.x - prob.init.x == pytest.approx(d, abs=1e-9)
        assert check_limits(prof, lin).ok


def test_impose_common_time_single_and_identical(lin):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    t_imp, profs = impose_common_time([prob])
    assert t_imp == pytest.approx(prob.t_opt, abs=1e-9)
    t_imp, profs = impose_common_time([prob, prob])
    assert t_imp == pytest.approx(prob.t_opt, abs=1e-9)
    for p in profs:
        assert abs(p.duration - t_imp) <= 1e-6


def test_impose_common_time_three_axis_mission(lin):
    problems = [transition_problem(0.15, 0.15, 0.125, lin),
                transition_problem(0.15, 0.15, 0.125, lin),
                transition_problem(0.0, 0.15, 0.0625, lin)]
    t_imp, profs = impose_common_time(problems)
    assert t_imp == pytest.approx(5.0 / 6.0, abs=1e-6)
    for p, prob in zip(profs, problems):
        assert abs(p.duration - t_imp) <= 1e-6
        end = p.final_state
        assert end.x - prob.init.x == pytest.approx(prob.displacement, abs=1e-9)


def test_stretched_profiles_respect_limits_everywhere(lin):
    # stretching must never raise jerk above the bound to fit the duration
    prob = transition_problem(0.12, 0.12, 0.09, lin)
    for t_imp in np.linspace(prob.t_opt, prob.t_stop + 0.4, 9):
        try:
            prof = plan_for_duration(prob, float(t_imp))
        except InfeasibleDuration:
            continue
        assert check_limits(prof, lin).ok


def equivalence_cases(lin, count=520):
    """Seeded (v0, vf, D) with the edge cases of the duration map."""
    rng = np.random.default_rng(2024)
    thr = lin.amax ** 2 / lin.jmax
    for k in range(count):
        v0, vf = (float(v) for v in rng.uniform(-lin.vmax, lin.vmax, 2))
        kind = k % 5
        if kind == 1:
            v0 = 0.0
        elif kind == 2:
            vf = v0
        elif kind == 3:   # v0 - thr or v0 + thr is vf, a plateau breakpoint
            vf = v0 - thr if v0 - thr > -lin.vmax else v0 + thr
        dc = critical_length(KinematicState(0.0, v0), KinematicState(0.0, vf), lin)
        d = dc if kind == 4 else dc + float(rng.uniform(-0.3, 0.3))
        yield v0, vf, d


#: Cruise velocities per sign of the dense scan.
SCAN = 128


@functools.lru_cache(maxsize=None)
def scanned_case(v0, vf, d, limits):
    """The problem and a dense scalar scan of its slowed durations.

    ``slowing_pieces`` runs at SCAN cruise velocities per sign, from vmax/SCAN
    to vmax.  Returns the problem, the ascending velocities and their
    durations (nan where the cruise time is negative).
    """
    prob = transition_problem(v0, vf, d, limits)
    side = np.linspace(limits.vmax / SCAN, limits.vmax, SCAN)
    vcs = np.concatenate([-side[::-1], side])
    T = np.full(vcs.size, np.nan)
    for k, vc in enumerate(vcs.tolist()):
        res = slowing_pieces(prob, vc)
        if res is not None:
            T[k] = res[0]
    return prob, vcs, T


def end_duration(prob, vc):
    """Duration at a run end; a run that reaches vc = 0 has no upper bound."""
    return np.inf if vc == 0.0 else slowing_pieces(prob, vc)[0]


def scanned_intervals(prob, vcs, T):
    """Durations the scan shows feasible: [min, max] of each scanned run."""
    ok = ~np.isnan(T)
    cuts = np.flatnonzero((ok[1:] != ok[:-1]) | (np.sign(vcs[1:]) != np.sign(vcs[:-1]))) + 1
    return [(float(T[lo:hi].min()), float(T[lo:hi].max()))
            for lo, hi in zip([0, *cuts], [*cuts, vcs.size]) if ok[lo]]


def test_exact_runs_match_a_dense_scan(lin):
    edge_tol = 1e-12   # in vc: the run ends are roots good to a few ulps
    checked = 0
    for v0, vf, d in equivalence_cases(lin):
        prob, vcs, T = scanned_case(v0, vf, d, lin)
        ok = ~np.isnan(T)
        inside = np.zeros(vcs.size, bool)
        strictly = np.zeros(vcs.size, bool)
        for lo, hi in prob.runs:
            assert lo < hi and lo * hi >= 0.0
            # each end is the last velocity that builds, to the float
            for vc, outwards in ((lo, -np.inf), (hi, np.inf)):
                if vc != 0.0 and abs(vc) != lin.vmax:
                    assert slowing_pieces(prob, vc) is not None
                    assert slowing_pieces(prob, math.nextafter(vc, outwards)) is None
            inside |= (vcs >= lo - edge_tol) & (vcs <= hi + edge_tol)
            strictly |= (vcs > lo + edge_tol) & (vcs < hi - edge_tol)
            # T is monotone along the run and bounded by its end durations
            ends = sorted(end_duration(prob, vc) for vc in (lo, hi))
            sel = (vcs >= lo) & (vcs <= hi)
            t = T[sel]
            assert np.all(t >= ends[0] - 1e-12) and np.all(t <= ends[1] + 1e-12)
            if t.size < 2:
                continue
            step = np.diff(t)
            assert np.all(step >= -1e-12) or np.all(step <= 1e-12)
            # each finite end matches the scanned run end to one scan step
            for vc, near, inner in ((lo, t[0], t[1]), (hi, t[-1], t[-2])):
                if vc != 0.0:
                    gap = abs(end_duration(prob, vc) - near)
                    assert gap <= 2.0 * abs(near - inner) + 1e-9
        # every velocity that builds lies in a run, and no run holds one
        # that does not
        assert np.all(inside[ok])
        assert not np.any(strictly[~ok])
        # every scanned duration is a feasible one
        ivals = feasibility_intervals(prob)
        for t in T[ok]:
            assert t >= prob.t_opt - 1e-9
            assert t >= prob.t_stop - 1e-9 or any(
                lo - 1e-9 <= t <= hi + 1e-9 for lo, hi in ivals)
        # a slowed profile inside the first proper interval
        t_imp = next((0.5 * (lo + hi) for lo, hi in ivals if hi > lo), None)
        if t_imp is not None:
            prof = plan_slowing_velocity(prob, t_imp)
            assert abs(prof.duration - t_imp) <= 1e-6
            assert prof.final_state.x - prob.init.x == pytest.approx(d, abs=1e-9)
            assert check_limits(prof, lin).ok
        checked += 1
    assert checked == 520


def test_every_cell_root_is_a_zero_of_the_cruise_time(lin):
    # no squaring: each root the cell polynomial gives is a real run end
    count = 0
    for v0, vf, d in equivalence_cases(lin):
        prob = scanned_case(v0, vf, d, lin)[0]
        for side in ((-lin.vmax, 0.0), (0.0, lin.vmax)):
            cells = adjust._cells(prob, *side)
            for a, b in zip(cells, cells[1:]):
                for vc in adjust._cell_roots(prob, a, b):
                    if a < vc < b:
                        t_c = cruise_steps(0.0, v0, 0.0, vf, d, vc, lin)[1]
                        assert abs(vc * t_c) <= 1e-12
                        count += 1
    assert count > 200


def test_crossings_are_the_last_velocity_below_the_imposed_duration(lin):
    checked = 0
    for v0, vf, d in equivalence_cases(lin):
        prob = scanned_case(v0, vf, d, lin)[0]
        for run in prob.runs:
            if run[1] - run[0] <= 1e-12:
                continue
            (fast, t_fast), (slow, t_slow) = sorted(
                ((vc, end_duration(prob, vc)) for vc in run), key=lambda e: e[1])
            top = t_slow if math.isfinite(t_slow) else max(t_fast, prob.t_stop) + 1.0
            for k in range(1, 8):
                t_imp = t_fast + (top - t_fast) * k / 8.0
                if not t_fast < t_imp < t_slow:
                    continue
                vc = adjust._nearest_in_run(prob, run, t_imp)
                built = slowing_pieces(prob, vc)
                assert built is not None and built[0] < t_imp
                after = slowing_pieces(prob, math.nextafter(vc, slow))
                assert after is None or after[0] >= t_imp
                prof = plan_for_duration(prob, t_imp)
                assert abs(prof.duration - t_imp) <= DURATION_TOL
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("v0, vf", [(0.15, 0.0), (0.0, 0.15)])
def test_no_sliver_run_at_the_halt_and_restart_distance(lin, v0, vf):
    # D is the halt-and-restart distance, so t_c vanishes at vc = 0 and a
    # rounded root lands a few ulps from it; that root is the cut at 0
    prob = transition_problem(v0, vf, 0.0625, lin)
    assert not any(abs(lo) <= 1e-15 and abs(hi) <= 1e-15 for lo, hi in prob.runs)
    [(lo, hi)] = feasibility_intervals(prob)
    assert lo == hi == pytest.approx(5.0 / 6.0, abs=1e-15)


def above_vmax(problem, vc):
    """A fake slowed profile that lasts 1 s but rises 0.2 m/s above v0."""
    tau = math.sqrt(0.2 / problem.limits.jmax)
    j = problem.limits.jmax
    return 1.0, [(j, tau), (-j, tau), (0.0, 1.0 - 2.0 * tau)]


def holding_v0(problem, vc):
    """A fake slowed profile that lasts 1 s but holds v0 throughout."""
    return 1.0, [(0.0, 1.0)]


@pytest.mark.parametrize("fake", [above_vmax, holding_v0])
def test_plan_for_duration_fails_closed(lin, monkeypatch, fake):
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    assert prob.t_opt < 1.0 < prob.t_stop
    monkeypatch.setattr(adjust, "slowing_pieces", fake)
    with pytest.raises(SolverFailure):
        plan_for_duration(prob, 1.0)


def test_cli_exits_3_on_a_profile_that_misses_its_displacement(
        lin, monkeypatch, tmp_path, capsys):
    built = slowing_pieces
    monkeypatch.setattr(adjust, "slowing_pieces", lambda problem, vc: (
        (r := built(problem, vc)) and (r[0], [(0.0, r[0])])))
    wp = tmp_path / "wp.txt"
    wp.write_text("0,0,0\n0.15,0.1,0\n0.3,0.1,0.1\n")
    code = cli.main(["plan-path", "--waypoints", str(wp), "--dt", "0.01",
                     "--out", str(tmp_path / "traj.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: solver failed")


README_CORNER = [(0.15, 0.15, 0.125), (0.15, 0.15, 0.125), (0.0, 0.15, 0.0625)]


def test_impose_common_time_is_least_on_the_dense_scan(lin):
    cases = list(equivalence_cases(lin))
    corners = [README_CORNER] + [cases[k:k + 3] for k in range(0, len(cases) - 2, 3)]
    for corner in corners:
        scans = [scanned_case(*case, lin) for case in corner]
        problems = [prob for prob, _, _ in scans]
        t_imp, profs = impose_common_time(problems)
        for prof, prob in zip(profs, problems):
            assert abs(prof.duration - t_imp) <= 1e-6
            assert prof.final_state.x - prob.init.x == pytest.approx(
                prob.displacement, abs=1e-9)
            assert check_limits(prof, lin).ok
        # the least duration feasible on every axis by the scan alone
        axis_sets = [[(p.t_opt, p.t_opt), (p.t_stop, np.inf)]
                     + scanned_intervals(p, vcs, T) for p, vcs, T in scans]
        t_lo = max(p.t_opt for p in problems)
        candidates = sorted({t_lo} | {max(lo, t_lo) for ivals in axis_sets
                                      for lo, _ in ivals})
        t_scan = next(t for t in candidates if all(
            any(lo - 1e-9 <= t <= hi + 1e-9 for lo, hi in ivals)
            for ivals in axis_sets))
        assert t_imp <= t_scan + 1e-9


PLANNING = ("plan_min_time_1d", "critical_length", "_feasible_runs")


def count_calls(monkeypatch, names):
    """Call counts of the named ``adjust`` functions from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(adjust, name), **kw):
            counts[_name] += 1
            return _original(*args, **kw)
        monkeypatch.setattr(adjust, name, counted)
    return counts


def test_transition_problem_plans_each_part_once(lin, monkeypatch):
    counts = count_calls(monkeypatch, PLANNING)
    prob = transition_problem(0.15, 0.15, 0.125, lin)
    # the minimal-time profile, the halt and the restart leg; no runs yet
    assert counts == {"plan_min_time_1d": 3, "critical_length": 1,
                      "_feasible_runs": 0}
    fresh = transition_problem(0.15, 0.15, 0.125, lin)
    runs = prob.runs
    assert counts["_feasible_runs"] == 1
    # the runs are solved once and kept
    assert prob.runs is runs and counts["_feasible_runs"] == 1
    # the runs take no part in equality, hashing and repr
    assert fresh == prob and hash(fresh) == hash(prob)
    assert repr(fresh) == repr(prob) and replace(prob) == prob
    assert counts["_feasible_runs"] == 1


@pytest.mark.parametrize("axes, strategy", [
    (README_CORNER, "min-time"),
    ([(0.1, 0.1, 0.15), (0.0, 0.0, 0.1)], "slowed"),
    ([(0.15, 0.15, 0.125), (0.0, 0.0, 0.25)], "stop-and-dwell"),
])
def test_impose_common_time_does_no_planning(lin, monkeypatch, axes, strategy):
    problems = [transition_problem(*axis, lin) for axis in axes]
    counts = count_calls(monkeypatch, PLANNING)
    solved = []
    runs = adjust._feasible_runs
    monkeypatch.setattr(adjust, "_feasible_runs",
                        lambda problem: solved.append(problem) or runs(problem))
    t_imp, profs = impose_common_time(problems)
    assert counts["plan_min_time_1d"] == counts["critical_length"] == 0
    # an axis solves its runs at most once, and none is solved when no
    # axis can end strictly between its t_opt and its t_stop
    assert len(set(map(id, solved))) == len(solved)
    first = problems[0]
    if strategy == "min-time":
        assert t_imp == pytest.approx(max(p.t_opt for p in problems), abs=1e-9)
        assert not solved
    elif strategy == "slowed":
        assert first.t_opt < t_imp < first.t_stop
        assert solved and solved[0] is first
    else:
        assert t_imp > first.t_stop
        assert not solved
    assert abs(profs[0].duration - t_imp) <= 1e-6


def eager_impose_common_time(problems):
    """``impose_common_time`` with every axis's runs read, as it was first.

    The reference for the lazy one, which must give the same float and the
    same profiles.
    """
    tol = adjust.TIME_TOL
    t_lo = max(p.t_opt for p in problems)
    axes = [(p.t_stop, feasibility_intervals(p)) for p in problems]
    candidates = {t_lo} | {max(t_stop, t_lo) for t_stop, _ in axes} | {
        lo for _, ivals in axes for lo, _ in ivals if lo >= t_lo - adjust.CANDIDATE_TOL}
    t = min(c for c in candidates if all(
        c >= t_stop - tol or any(lo - tol <= c <= hi + tol for lo, hi in ivals)
        for t_stop, ivals in axes))
    return t, [plan_for_duration(p, t) for p in problems]


def common_time_outcome(impose, problems):
    """The common time and every axis's segments, or the error raised."""
    try:
        t, profiles = impose(problems)
    except SoftMotionError as exc:
        return type(exc), str(exc)
    return t, [prof.segments for prof in profiles]


def halt_and_restart_distance(v0, vf, limits):
    return (critical_length(KinematicState(0.0, v0), KinematicState(0.0, 0.0), limits)
            + critical_length(KinematicState(0.0, 0.0), KinematicState(0.0, vf), limits))


def pool_axes(rng, limits, count):
    """Seeded (v0, vf, D) with the edge cases of the duration map."""
    vm, thr = limits.vmax, limits.amax ** 2 / limits.jmax
    for k in range(count):
        v0, vf = (float(v) for v in rng.uniform(-vm, vm, 2))
        kind = k % 7
        if kind == 1:
            v0 = 0.0
        elif kind == 2:
            vf = v0
        elif kind == 3:
            vf = v0 - thr if v0 - thr > -vm else v0 + thr
        elif kind == 6:
            v0 = vf = 0.0
        dc = critical_length(KinematicState(0.0, v0), KinematicState(0.0, vf), limits)
        if kind == 4:
            d = dc
        elif kind == 5:
            d = halt_and_restart_distance(v0, vf, limits)
        elif kind == 6:
            d = 0.0
        else:
            d = dc + float(rng.uniform(-4.0, 4.0)) * vm * vm / limits.amax
        yield v0, vf, d


def crossing_pair(f, target, lo, hi):
    """Adjacent floats lo < hi with f(lo) < target <= f(hi), f increasing."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if f(mid) < target else (lo, mid)
    return lo, hi


def engineered_groups(lin):
    """Axis groups at the edges of the skip rules of ``impose_common_time``."""
    rest = transition_problem(0.0, 0.0, 0.0, lin)
    # t_stop rounds 2e-16 below t_opt; the answer is t_stop, not t_opt
    pitfall = transition_problem(0.03771685344636044, 0.0021047487830573863,
                                 0.007822932794374307, lin)
    assert pitfall.t_stop < pitfall.t_opt
    groups = [[pitfall, rest], [rest, pitfall, pitfall], [rest], [rest, rest]]
    for v0, vf in ((0.15, 0.0), (0.0, 0.15), (0.1, -0.05), (0.12, 0.02), (-0.03, -0.14)):
        halt = transition_problem(v0, vf, halt_and_restart_distance(v0, vf, lin), lin)
        groups += [[halt, rest], [halt, transition_problem(v0, -vf, 0.05, lin)]]
    # t_opt ties within a few 1e-16, as components one ulp off round values
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, -math.inf))
    keep = float
    for v0, vf, d in ((0.15, 0.15, 0.125), (0.0, 0.15, 0.0625), (0.1, 0.0, 0.05),
                      (0.12, -0.05, 0.02)):
        base = transition_problem(v0, vf, d, lin)
        ties = [transition_problem(f(v0), g(vf), h(d), lin)
                for f, g, h in ((up, down, down), (down, up, up), (keep, down, up))]
        assert all(abs(tie.t_opt - base.t_opt) <= 1e-15 for tie in ties)
        groups += [[base, tie] for tie in ties] + [[*ties, base]]
    # t_opt a hair below the largest: between 1e-12 and 1e-9 under it
    for v0, vf, d in ((0.15, 0.15, 0.125), (0.1, 0.05, 0.1), (0.0, 0.12, 0.2)):
        top = transition_problem(v0, vf, d, lin)
        near = [transition_problem(v0, vf, d * (1.0 - s), lin) for s in (1e-11, 5e-11, 1e-10)]
        assert all(1e-12 < top.t_opt - p.t_opt < 1e-9 for p in near)
        groups += [[top, p] for p in near] + [[p, top, rest] for p in near]
    # t_stop within TIME_TOL of the largest t_opt, on either side of w
    for (v0, vf, d), (u0, uf) in (((0.1, 0.05, 0.2), (0.1, 0.05)),
                                  ((0.15, 0.15, 0.25), (-0.05, 0.12))):
        top = transition_problem(v0, vf, d, lin)
        start = halt_and_restart_distance(u0, uf, lin)
        for offset in (-0.5 * adjust.TIME_TOL, -adjust.CANDIDATE_TOL, 0.0,
                       0.5 * adjust.TIME_TOL):
            for dd in crossing_pair(lambda dd: transition_problem(u0, uf, dd, lin).t_stop,
                                    top.t_opt + offset, start, start + 1.0):
                side = transition_problem(u0, uf, dd, lin)
                assert abs(side.t_stop - top.t_opt) <= adjust.TIME_TOL
                groups += [[top, side], [side, top, rest]]
    # a minimal-time profile more than MERGE_GAP slower than halt and
    # restart, and one 1e-13 s slower still: both t_opt lie in [w, t_lo]
    base = transition_problem(0.1, 0.05, 0.1, lin)
    slow = [replace(base, min_time=stop_time(base, base.t_stop + 1e-3 + e)) for e in (0.0, 1e-13)]
    assert 0.0 < slow[1].t_opt - slow[0].t_opt < adjust.CANDIDATE_TOL
    return groups + [slow, slow[::-1], [slow[0], rest]]


def test_lazy_runs_give_the_eager_common_time_bit_for_bit(lin, ang):
    rng = np.random.default_rng(28)
    pools = [[transition_problem(*axis, limits) for axis in pool_axes(rng, limits, 140)]
             for limits in (lin, ang)]
    groups = engineered_groups(lin)
    for k in range(1200):
        pool = pools[k % 2]
        picks = [pool[i] for i in rng.integers(len(pool), size=2 + k % 2)]
        if k % 5 == 0:
            picks.append(picks[0])   # a repeated axis
        groups.append(picks)
    for group in groups:
        fresh = [replace(p) for p in group]   # no runs solved yet
        lazy = common_time_outcome(impose_common_time, fresh)
        assert common_time_outcome(eager_impose_common_time, group) == lazy
