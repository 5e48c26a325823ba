import itertools
import math
import struct

import numpy as np
import pytest

from conftest import random_boundary
from softmotion import (InfeasibleBoundary, KinematicLimits, KinematicState,
                        MotionType, SolverFailure, brute_force_min_time,
                        check_limits, classify, critical_length, evaluate,
                        mirror_problem, plan_min_time_1d, stop_time,
                        transition_problem)
from softmotion import planner, roots
from softmotion.profiles import CHAIN_TOL, LIMIT_TOL, integrate_segment
from softmotion.roots import padd, peval


def test_critical_length_examples(lin):
    assert critical_length(KinematicState(0, 0), KinematicState(0, 0), lin) == 0.0
    assert critical_length(KinematicState(0, 0), KinematicState(0, 0.15),
                           lin) == pytest.approx(0.0625, abs=1e-12)
    assert critical_length(KinematicState(0, 0.15), KinematicState(0, 0.15),
                           lin) == 0.0


def test_classify(lin):
    rest = KinematicState(0, 0)
    assert classify(rest, rest, 0.1, lin) is MotionType.TYPE1
    assert classify(rest, rest, -0.1, lin) is MotionType.TYPE2
    assert classify(rest, KinematicState(0, 0.15), 0.0625, lin) is MotionType.CRITICAL


def test_mirror_problem_involution(lin):
    init = KinematicState(0.1, -0.05, 0.2)
    final = KinematicState(-0.2, 0.1, 0.5)
    mi, mf, md = mirror_problem(init, final, 0.3)
    assert (mi.a, mi.v, mi.x) == (-0.1, 0.05, -0.2)
    assert (mf.a, mf.v, mf.x) == (0.2, -0.1, -0.5)
    assert md == -0.3
    back = mirror_problem(mi, mf, md)
    assert back == (init, final, 0.3)


def test_mirror_symmetry_of_plans(lin):
    # solving the mirrored problem and flipping jerks reproduces the plan
    rng = np.random.default_rng(17)
    for _ in range(100):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        init = KinematicState(a0, v0, 0.0)
        dc = critical_length(init, KinematicState(af, vf), lin)
        final = KinematicState(af, vf, dc + rng.uniform(-0.2, 0.2))
        direct = plan_min_time_1d(init, final, lin)
        mi, mf, _ = mirror_problem(init, final, final.x - init.x)
        mirrored = plan_min_time_1d(mi, mf, lin)
        assert len(direct.segments) == len(mirrored.segments)
        for s_d, s_m in zip(direct.segments, mirrored.segments):
            assert s_d.duration == pytest.approx(s_m.duration, abs=1e-9)
            assert s_d.jerk == pytest.approx(-s_m.jerk, abs=1e-12)
            assert s_d.start.v == pytest.approx(-s_m.start.v, abs=1e-9)


def test_plan_examples(lin):
    cruise = plan_min_time_1d(KinematicState(0, 0.15, 0),
                              KinematicState(0, 0.15, 0.125), lin)
    assert cruise.duration == pytest.approx(0.125 / 0.15, abs=1e-9)
    assert len(cruise.segments) == 1
    assert cruise.segments[0].jerk == 0.0

    # equal states: a 0 s hold that meets both, evaluable like any plan
    same = KinematicState(0, 0.1, 0.3)
    hold = plan_min_time_1d(same, same, lin)
    assert hold.duration == 0.0 and len(hold.segments) == 1
    assert hold.start_state == hold.final_state == same
    assert evaluate(hold, 0.0) == (same, 0.0)

    ramp = plan_min_time_1d(KinematicState(0, 0, 0),
                            KinematicState(0, 0.15, 0.0625), lin)
    assert ramp.duration == pytest.approx(5.0 / 6.0, abs=1e-9)
    assert [round(s.duration, 9) for s in ramp.segments] == pytest.approx(
        [1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0], abs=1e-8)


def test_random_plans_meet_contract(lin):
    rng = np.random.default_rng(23)
    for _ in range(300):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        init = KinematicState(a0, v0, rng.uniform(-1, 1))
        dc = critical_length(init, KinematicState(af, vf), lin)
        final = KinematicState(af, vf, init.x + dc + rng.uniform(-0.3, 0.3))
        prof = plan_min_time_1d(init, final, lin)
        assert len(prof.segments) <= 7
        if prof.segments:
            end = prof.final_state
            assert end.a == pytest.approx(final.a, abs=1e-9)
            assert end.v == pytest.approx(final.v, abs=1e-9)
            assert end.x == pytest.approx(final.x, abs=1e-9)
            assert check_limits(prof, lin).ok
            prof.validate_chaining()


def test_interior_cruises_run_at_vmax(lin):
    # zero-jerk zero-acceleration interior segments are saturated cruises,
    # and a single plan never cruises at both +vmax and -vmax
    rng = np.random.default_rng(29)
    for _ in range(200):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        init = KinematicState(a0, v0, 0.0)
        dc = critical_length(init, KinematicState(af, vf), lin)
        final = KinematicState(af, vf, dc + rng.uniform(-0.5, 0.5))
        prof = plan_min_time_1d(init, final, lin)
        cruise_vs = [s.start.v for s in prof.segments
                     if s.jerk == 0.0 and abs(s.start.a) <= 1e-9]
        for v in cruise_vs:
            assert abs(v) == pytest.approx(lin.vmax, abs=1e-9)
        assert len({np.sign(v) for v in cruise_vs}) <= 1


def test_total_time_continuous_across_critical_length(lin):
    # The minimal time varies continuously through dc when the boundary
    # velocities straddle (or touch) zero.  When both are strictly on one
    # side, pushing the displacement against that sign forces a velocity
    # excursion across zero whose cost does not vanish, so the minimal time
    # genuinely jumps there (verified against the brute-force oracle); for
    # those problems only the natural side is swept.
    # the slope of minimal time in displacement scales like the reciprocal
    # of the characteristic speed, so the 1e-3-per-1e-6-step bound also
    # needs boundary speeds away from zero
    rng = np.random.default_rng(31)
    offsets = np.arange(-2e-5, 2e-5 + 1e-12, 1e-6)
    for _ in range(10):
        v0 = float(rng.uniform(0.02, lin.vmax))
        vf = -float(rng.uniform(0.02, lin.vmax))
        if rng.random() < 0.5:
            v0, vf = vf, v0
        init = KinematicState(0.0, v0, 0.0)
        dc = critical_length(init, KinematicState(0.0, vf), lin)
        times = [plan_min_time_1d(init, KinematicState(0.0, vf, dc + o), lin).duration
                 for o in offsets]
        assert (np.abs(np.diff(times)) < 1e-3).all()
    for _ in range(5):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        v0 = sign * float(rng.uniform(0.02, lin.vmax))
        vf = sign * float(rng.uniform(0.02, lin.vmax))
        init = KinematicState(0.0, v0, 0.0)
        dc = critical_length(init, KinematicState(0.0, vf), lin)
        one_sided = sign * np.arange(0.0, 2e-5 + 1e-12, 1e-6)
        times = [plan_min_time_1d(init, KinematicState(0.0, vf, dc + o), lin).duration
                 for o in one_sided]
        assert (np.abs(np.diff(times)) < 1e-3).all()


def test_infeasible_boundaries_rejected(lin):
    rest = KinematicState(0, 0, 0)
    with pytest.raises(InfeasibleBoundary):
        plan_min_time_1d(KinematicState(0.4, 0, 0), rest, lin)
    with pytest.raises(InfeasibleBoundary):
        plan_min_time_1d(KinematicState(0, 0.2, 0), rest, lin)
    # saturated velocity with same-sign acceleration demand
    with pytest.raises(InfeasibleBoundary):
        plan_min_time_1d(KinematicState(0.1, 0.15, 0), rest, lin)
    with pytest.raises(InfeasibleBoundary):
        plan_min_time_1d(rest, KinematicState(-0.1, 0.15, 0.2), lin)


def test_short_transitions_match_oracle(lin):
    rng = np.random.default_rng(37)
    dt = 0.005
    done = 0
    while done < 5:
        v0 = float(rng.uniform(-0.12, 0.12))
        vf = float(rng.uniform(-0.12, 0.12))
        init = KinematicState(0.0, v0, 0.0)
        dc = critical_length(init, KinematicState(0.0, vf), lin)
        final = KinematicState(0.0, vf, dc + float(rng.uniform(-0.05, 0.05)))
        t_plan = plan_min_time_1d(init, final, lin).duration
        if t_plan > 0.9:
            continue
        done += 1
        t_oracle = brute_force_min_time(init, final, lin, dt)
        assert t_plan <= t_oracle + 2.0 * dt + 1e-9
        assert t_oracle <= t_plan + 3.0 * dt + 1e-9


def _assert_contract(prof, init, final, lin):
    """Within every limit, and both boundary states met to 1e-9."""
    assert check_limits(prof, lin).ok
    for want, got in ((init, prof.start_state), (final, prof.final_state)):
        assert max(abs(got.a - want.a), abs(got.v - want.v),
                   abs(got.x - want.x)) <= 1e-9


# (a0, v0, af, vf, final.x - dc) and the least duration of a witness: 150
# constant-jerk steps from a linear program that keep every limit and meet
# both states, so the optimum is at or below it.  The planner used to break
# amax on the first two (|a| = 0.48 in 2.2486 s, 0.314 in 1.2698 s) and
# raise SolverFailure on the third, which lies above the critical length
# but no type-1 shape reaches: its fastest motion goes down, up and down.
WITNESSED = [((-0.0351, -0.1135, 0.0409, -0.1203, 0.0441), 2.4892),
             ((0.0431, -0.0301, -0.1866, 0.0390, -0.0218), 1.2707),
             ((0.2756, 0.0757, 0.2486, 0.1461, 0.0317), 2.268)]


@pytest.mark.parametrize("case, witness", WITNESSED,
                         ids=["amax-61pct", "amax-5pct", "down-up-down"])
def test_template_corners_keep_limits_within_witness(lin, case, witness):
    a0, v0, af, vf, off = case
    init = KinematicState(a0, v0, 0.0)
    dc = critical_length(init, KinematicState(af, vf), lin)
    final = KinematicState(af, vf, dc + off)
    prof = plan_min_time_1d(init, final, lin)
    _assert_contract(prof, init, final, lin)
    assert prof.duration <= witness


# ((a0, v0), (af, vf), D) within a few 1e-8 of the critical length or of
# vmax, each once mis-planned: missed by 1e-7 (rest to rest), past vmax by
# 2.6e-8 and 3.6e-8, a plain ValueError for a negative step (four cases),
# an empty plan 4.6e-9 off, and a 1.1e-9 s pulse leaving a and x 1e-9 off
NEAR_CRITICAL = [
    ((0, 0), (0, 0), 1e-7),
    ((0, 0), (0, -0.15), -0.0625513818974472),
    ((0, -0.15), (0, -0.04066412609679641), -0.06660679694078848),
    ((0, 0.15), (0, 0), 0.062499999976468545),
    ((0, -0.11405211448296891), (0, 0), -0.040688493762725056),
    ((0, 0.1), (0, 1e-12), 0.03333333332910972),
    ((0, -0.1), (0, -1e-12), -0.03333333332968507),
    ((0, -1e-12), (0, -1e-12), 4.593344976785028e-09),
    ((0, 0), (0, 0), -1e-9),
]


@pytest.mark.parametrize("start, end, D", NEAR_CRITICAL)
def test_near_critical_plans_meet_contract(lin, start, end, D):
    init, final = KinematicState(*start, 0.0), KinematicState(*end, D)
    _assert_contract(plan_min_time_1d(init, final, lin), init, final, lin)


def test_tiny_leading_coefficient_keeps_every_root(lin):
    # (0, 0) -> (0, 1e-12) over dc + 0.0625: a genuine tiny leading
    # coefficient once blew the root bound up to ~1e11, so every root merged
    init, final = KinematicState(0, 0, 0), KinematicState(0, 1e-12)
    dc = critical_length(init, final, lin)
    final = KinematicState(0, 1e-12, dc + 0.0625)
    prof = plan_min_time_1d(init, final, lin)
    _assert_contract(prof, init, final, lin)
    assert prof.duration == pytest.approx(1.30495588, abs=1e-8)


# (a0, v0, af, vf, D) within 2e-10 of the critical length, each once
# planned much slower than the direct connection.  Per-template
# acceleration screens dropped the roots a polish would repair on the
# first three (1.016, 2.249 and 1.312 s against 0.440, 0.589 and 0.570 s
# at D = dc).  The other six took 1.115, 1.973, 0.997, 1.819, 1.300 and
# 1.421 s against 0.578, 0.233, 0.207, 0.695, 0.854 and 0.428 s while B4
# was a squared-out quartic with a polished root.  Each fast plan is the
# connection with one step a little below zero, clamped.
NEAR_CRITICAL_SLOW = [
    (-0.28270584264262416, 0.11565779074234031, -0.12892771865132574,
     0.0001909533634131544, 0.022957447428433742),
    (0.25703162628669235, 0.03850010015861888, -0.04794559110820612,
     0.14688470774582893, 0.0654373826141995),
    (0.07253618121570304, -0.13863392819470727, 0.04426387939298437,
     -0.03283547926993462, -0.047691916842588604),
    (0.08389395352899748, -0.10928564850495609, -0.21717726716462699,
     -0.09788357624601846, -0.04868136968135375),
    (0.0645563398477414, 0.09507529664889336, 0.05655600868880589,
     0.12144367864746294, 0.02531916188666827),
    (-0.11710419558128829, 0.04889697395065132, -0.10255492504569702,
     0.016564562848624786, 0.006699936330068547),
    (0.23254669685073875, 0.08133728995374986, -0.03210996497514179,
     0.061833860263016766, 0.06473969844847033),
    (-0.15594757322804562, -0.11626927542803123, 0.019365693265314177,
     -0.01929234603407612, -0.07357036705275799),
    (-0.007124390786876544, -0.07828404168452832, 0.19449049563732618,
     -0.00826226112208503, -0.022715982969000344),
]


@pytest.mark.parametrize("case", NEAR_CRITICAL_SLOW)
def test_near_critical_plans_are_no_slower_than_the_connection(lin, case):
    a0, v0, af, vf, D = case
    init, final = KinematicState(a0, v0, 0.0), KinematicState(af, vf, D)
    prof = plan_min_time_1d(init, final, lin)
    _assert_contract(prof, init, final, lin)
    dc = critical_length(init, final, lin)
    at_dc = plan_min_time_1d(init, KinematicState(af, vf, dc), lin)
    assert prof.duration <= at_dc.duration + 1e-9


def test_each_template_polynomial_sweeps_its_own_rebuild(lin):
    # one step list per template gives both its displacement polynomial and
    # its rebuild (the steps at u), so the two agree wherever the steps are
    # non-negative, and the steps reach (af, vf) for every u.  B4's
    # durations are quadratics over u and its polynomial is u^3 x, whose
    # two lowest coefficients vanish identically (u^3 x = u^2 (K^2/4J^2 +
    # ...)); every third draw has K = 0 (v0 = vf, |a0| = |af|), where the
    # three low coefficients are exact zeros and u^3 divides the polynomial
    rng = np.random.default_rng(31)
    checked = {}
    for n in range(300):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        k0 = n % 3 == 0
        if k0:
            af, vf = rng.choice([-1.0, 1.0]) * a0, v0
        for name, (steps, k, _, _) in zip(("B1", "B2", "B3", "B4"),
                                          planner._templates(a0, v0, af, vf, lin)):
            # durations are steps(u) / u**k, and the sweep gives u^3k x
            x = planner._sweep_poly(steps, [0.0] * k + [a0], [0.0] * 2 * k + [v0])
            if k:
                assert abs(x[0]) + abs(x[1]) <= 1e-15 * max(map(abs, x))
            if k and k0:
                assert x[:3] == [0.0, 0.0, 0.0]
            for u in rng.uniform(-1.0, 1.0, 8):
                steps_at_u = [(jerk, peval(d, u) / u ** k) for jerk, d in steps]
                if min(t for _, t in steps_at_u) < 0.0:
                    continue
                a, v, exact = planner.sweep(steps_at_u, a0, v0)
                assert max(abs(a - af), abs(v - vf)) <= 1e-12   # for every u
                diff = abs(peval(x, u) - u ** (3 * k) * exact)
                assert diff <= 1e-12 * abs(u) ** (3 * k) * max(1.0, abs(exact))
                key = name, bool(k) and k0
                checked[key] = checked.get(key, 0) + 1
    assert sorted(checked) == [("B1", False), ("B2", False), ("B3", False),
                               ("B4", False), ("B4", True)]
    assert min(checked.values()) >= 10


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_compiled_templates_match_the_list_sweep_bit_for_bit(lin):
    # the compiled u^k (x - D) of each template against _sweep_poly on its
    # step lists, signed zeros included: random boundaries, boundary
    # accelerations at +-0.0 and +-amax, v0 = vf, K = 0 (B4's exact zeros),
    # and every problem mirrored too, where s * 0.0 gives -0.0
    rng = np.random.default_rng(41)
    am, corners = lin.amax, (0.0, -0.0, lin.amax, -lin.amax)
    checked = 0
    for n in range(400):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        if n % 4 == 1:
            a0, af = rng.choice(corners), rng.choice(corners)
            v0 = rng.uniform(-1.0, 1.0) * (lin.vmax - a0 * a0 / (2.0 * lin.jmax))
            vf = rng.uniform(-1.0, 1.0) * (lin.vmax - af * af / (2.0 * lin.jmax))
        if n % 4 == 2:
            vf = v0
        if n % 4 == 3:                 # K = 0
            af, vf = rng.choice([-1.0, 1.0]) * a0, v0
        D = rng.choice([0.0, rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-12.0, 0.0)])
        for s in (1.0, -1.0):
            args = s * a0, s * v0, s * af, s * vf, s * D
            for i, (steps, k, _, _) in enumerate(planner._templates(*args[:4], lin)):
                x = planner._sweep_poly(steps, [0.0] * k + [args[0]], [0.0] * 2 * k + [args[1]])
                listed = padd(x[2 * k:], [0.0] * k + [-args[4]])
                compiled = planner._template_poly(i, k)(*args, lin.jmax, am)
                assert _bits(compiled) == _bits(listed), (i, args)
                checked += 1
    assert checked == 400 * 2 * 4


def test_each_template_and_degree_is_traced_once(lin, monkeypatch):
    # a boundary_pairs-style sweep (type-1 cruise and peak, type-2 and
    # critical displacements) traces each template once and each degree of
    # the Descartes map once, however many plans and pieces ask for them
    traced = []
    trace = roots.trace

    def counted(fn, nargs):
        traced.append((fn.__qualname__, nargs))
        return trace(fn, nargs)

    monkeypatch.setattr(planner, "trace", counted)
    monkeypatch.setattr(roots, "trace", counted)
    planner._template_poly.cache_clear()
    roots._compiled_map.cache_clear()
    rng = np.random.default_rng(43)
    for n in range(120):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        dc = critical_length(KinematicState(a0, v0), KinematicState(af, vf), lin)
        D = dc + (0.0, -0.3, 0.3, 3.0)[n % 4] * rng.uniform()
        plan_min_time_1d(KinematicState(a0, v0), KinematicState(af, vf, D), lin)
    templates = [t for t in traced if t[0] != "_descartes_map"]
    degrees = [nargs - 3 for name, nargs in traced if name == "_descartes_map"]
    assert len(templates) == 4 and planner._template_poly.cache_info().misses == 4
    assert sorted(degrees) == sorted(set(degrees)) and {2, 4} <= set(degrees)
    assert planner._template_poly.cache_info().hits > 40


def test_every_admissible_template_root_lies_in_its_interval(lin):
    # the solver only searches each template's interval, so no real root
    # outside it may give a valid plan.  All real roots come from np.roots,
    # over displacements on both sides of dc, near it and far from it;
    # every third draw has K = 0 (v0 = vf, |a0| = |af|)
    rng = np.random.default_rng(37)
    hits = {}
    for n in range(600):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        if n % 3 == 0:
            af, vf = rng.choice([-1.0, 1.0]) * a0, v0
        try:
            dc = critical_length(KinematicState(a0, v0), KinematicState(af, vf), lin)
        except InfeasibleBoundary:     # (a0, v0) reversed may overshoot vmax
            continue
        D = dc + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10.0, 0.0)
        for name, (steps, k, lo, hi) in zip(("B1", "B2", "B3", "B4"),
                                            planner._templates(a0, v0, af, vf, lin)):
            x = planner._sweep_poly(steps, [0.0] * k + [a0], [0.0] * 2 * k + [v0])
            x[3 * k] -= D
            coeffs = np.trim_zeros(np.array(x[::-1]), "b")
            for z in np.roots(coeffs):
                u = float(z.real)
                if z.imag != 0.0 or (k and u == 0.0):
                    continue
                rebuilt = [(jerk, peval(d, u) / u ** k) for jerk, d in steps]
                if planner._admissible(rebuilt, a0, v0, af, vf, D, lin):
                    assert lo <= u <= hi, (name, a0, v0, af, vf, D, u)
                    hits[name, n % 3 == 0] = hits.get((name, n % 3 == 0), 0) + 1
    assert {name for name, _ in hits} == {"B1", "B2", "B3", "B4"}
    assert min(hits.values()) >= 5


def _peak_speed(steps, a0, v0):
    """Largest |v| of the steps run from (a0, v0): at step ends and at a = 0."""
    st, peak = KinematicState(a0, v0), abs(v0)
    for jerk, dur in steps:
        dur = max(dur, 0.0)
        if jerk != 0.0 and 0.0 < -st.a / jerk < dur:
            peak = max(peak, abs(integrate_segment(st, jerk, -st.a / jerk).v))
        st = integrate_segment(st, jerk, dur)
        peak = max(peak, abs(st.v))
    return peak


def test_valid_cruise_is_never_outrun(lin):
    # a valid cruise that holds vmax for t_c >= 0 ends its side's search, so
    # the templates after it are never solved.  Solve them anyway: one may
    # beat the cruise only by peaking above vmax within _admissible's slack,
    # and then by at most LIMIT_TOL (T + 1) / vmax.  D lies just past the
    # cruise's two ramps, where such templates exist, or well beyond them;
    # one draw in ten, near or far, has a boundary speed of exactly +-vmax
    rng = np.random.default_rng(43)
    am, vm = lin.amax, lin.vmax
    stopped, outrun = 0, {}
    for n in range(2400):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        on_vmax = n % 20 < 2
        if on_vmax:
            s = rng.choice([-1.0, 1.0])
            if rng.random() < 0.5:
                a0, v0 = -s * rng.uniform(0.0, am), s * vm
            else:
                af, vf = s * rng.uniform(0.0, am), s * vm
        ramps = -planner.cruise_steps(a0, v0, af, vf, 0.0, vm, lin)[1] * vm
        if n % 2:
            D = ramps + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0)
        else:
            D = ramps + rng.uniform(0.0, 0.5)
        t_c = planner.cruise_steps(a0, v0, af, vf, D, vm, lin)[1]
        candidates = list(planner._type1_candidates(a0, v0, af, vf, D, lin))
        (cruise, cruising), rest = candidates[0], candidates[1:]
        assert cruising == (t_c >= 0.0) and not any(c for _, c in rest)
        if not (cruising and planner._admissible(cruise, a0, v0, af, vf, D, lin)):
            continue
        stopped += 1
        t_cruise = planner.steps_duration(cruise)
        for steps, _ in rest:
            gain = t_cruise - planner.steps_duration(steps)
            if gain > planner._TIE_TOL and planner._admissible(steps, a0, v0, af,
                                                               vf, D, lin):
                outrun[on_vmax] = outrun.get(on_vmax, 0) + 1
                assert _peak_speed(steps, a0, v0) > vm, (a0, v0, af, vf, D)
                assert gain <= LIMIT_TOL * (t_cruise + 1.0) / vm
        dc = critical_length(KinematicState(a0, v0), KinematicState(af, vf), lin)
        if D > dc + CHAIN_TOL:        # the planner stops at the cruise
            assert planner._min_time_steps(a0, v0, af, vf, D, lin) == cruise
    assert stopped >= 1000
    assert outrun.get(False, 0) >= 10 and outrun.get(True, 0) >= 1


def _walk_by_segments(steps, a0, v0):
    """sweep, walked with integrate_segment over KinematicStates."""
    st = KinematicState(a0, v0, 0.0)
    for jerk, dur in steps:
        st = integrate_segment(st, jerk, max(dur, 0.0))
    return st.a, st.v, st.x


def _admissible_by_segments(steps, a0, v0, af, vf, D, limits):
    """_admissible, walked with integrate_segment over KinematicStates."""
    am, vm = limits.amax + LIMIT_TOL, limits.vmax + LIMIT_TOL
    st = KinematicState(a0, v0, 0.0)
    for jerk, dur in steps:
        if dur < -planner.CLAMP_TOL:
            return False
        dur = max(dur, 0.0)
        if jerk != 0.0:
            t_star = -st.a / jerk
            if 0.0 < t_star < dur and abs(integrate_segment(st, jerk, t_star).v) > vm:
                return False
        st = integrate_segment(st, jerk, dur)
        if abs(st.a) > am or abs(st.v) > vm:
            return False
    return max(abs(st.a - af), abs(st.v - vf), abs(st.x - D)) <= CHAIN_TOL


def test_float_walks_match_integrate_segment_bit_for_bit(lin):
    # sweep and _admissible carry (a, v, x) as floats through profiles.cubic:
    # the same bits, signed zeros included, and the same verdicts as a walk
    # of integrate_segment.  Durations are zero, a little below zero (clamped
    # above -CLAMP_TOL, rejected below it) or up to 0.5 s; every third list
    # is a plan, and the targets sit on or near the walk's end
    rng = np.random.default_rng(47)
    verdicts = set()
    for n in range(3000):
        a0, v0 = random_boundary(rng, lin)
        if n % 3 == 0:
            af, vf = random_boundary(rng, lin, outgoing=True)
            dc = critical_length(KinematicState(a0, v0), KinematicState(af, vf), lin)
            steps = planner._min_time_steps(a0, v0, af, vf,
                                            dc + rng.uniform(-0.3, 0.3), lin)
        else:
            steps = [(float(rng.choice([lin.jmax, -lin.jmax, 0.0, rng.uniform(-1, 1)])),
                      float(rng.choice([0.0, -rng.uniform(0.0, 2e-9),
                                        rng.uniform(0.0, 0.5)])))
                     for _ in range(rng.integers(0, 8))]
        want = _walk_by_segments(steps, a0, v0)
        got = planner.sweep(steps, a0, v0)
        assert [c.hex() for c in got] == [c.hex() for c in want]
        af, vf, D = (c + float(rng.choice([0.0, 1e-10, 1e-8])) for c in want)
        verdict = _admissible_by_segments(steps, a0, v0, af, vf, D, lin)
        assert planner._admissible(steps, a0, v0, af, vf, D, lin) is verdict
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _outcome(walk, *args):
    try:
        return walk(*args)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_walks_raise_where_integrate_segment_raises(lin, bad):
    # a non-finite jerk or duration in any step, or a non-finite start,
    # raises ValueError in both walks; a duration of -inf is below zero, so
    # sweep clamps it and _admissible rejects it, in both walks alike
    good = [(0.9, 0.1), (0.0, 0.2), (-0.9, 0.1)]
    af, vf, D = _walk_by_segments(good, 0.0, 0.0)
    assert planner._admissible(good, 0.0, 0.0, af, vf, D, lin)
    raised = 0
    for k, (jerk, dur) in enumerate(good):
        for step in ((bad, dur), (jerk, bad)):
            steps = good[:k] + [step] + good[k + 1:]
            want = _outcome(_walk_by_segments, steps, 0.0, 0.0)
            assert _outcome(planner.sweep, steps, 0.0, 0.0) == want
            args = (steps, 0.0, 0.0, af, vf, D, lin)
            assert (_outcome(planner._admissible, *args)
                    == _outcome(_admissible_by_segments, *args))
            raised += want is ValueError
    assert raised == (3 if bad == -math.inf else 6)
    for steps in (good, []):
        with pytest.raises(ValueError):
            planner.sweep(steps, bad, 0.0)
        with pytest.raises(ValueError):
            planner._admissible(steps, 0.0, bad, af, vf, D, lin)


def test_stop_and_dwell_meets_displacement_near_critical(lin):
    # the restart leg is rest to rest over -1e-9 m.  Planned as one 1.1e-9 s
    # pulse it left a and x 1.0e-9 off, just inside the leg's own tolerance,
    # so the joined stop-and-dwell profile could miss by more; a real
    # three-step motion meets both
    dc = critical_length(KinematicState(0, 0.125), KinematicState(0, 0), lin)
    prob = transition_problem(0.125, 0.0, dc - 1e-9, lin)
    assert len(prob.restart.segments) == 3
    end = stop_time(prob).final_state
    assert abs(end.x - prob.final.x) <= 1e-12
    assert abs(end.a) <= 1e-12 and abs(end.v) <= 1e-12


def test_empty_plan_is_checked_against_its_boundary(lin, monkeypatch):
    # a plan whose every step is dropped still has to meet the final state
    init = KinematicState(0, -1e-12, 0)
    final = KinematicState(0, -1e-12, 4.593344976785028e-09)
    monkeypatch.setattr(planner, "_min_time_steps", lambda *args: [])
    with pytest.raises(SolverFailure):
        plan_min_time_1d(init, final, lin)


def _connect_steps_two_branch(a0, v0, af, vf, limits):
    """The up and down shapes of ``connect_steps`` written out one by one."""
    j, am = limits.jmax, limits.amax
    cands = []
    s_up = j * (vf - v0) + 0.5 * (a0 * a0 + af * af)
    if s_up >= -1e-15:
        apk = math.sqrt(max(s_up, 0.0))
        if apk >= a0 - 1e-12 and apk >= af - 1e-12:
            if apk <= am:
                cands.append([(j, (apk - a0) / j), (-j, (apk - af) / j)])
            else:
                hold = ((vf - v0) - (2 * am * am - a0 * a0 - af * af) / (2 * j)) / am
                cands.append([(j, (am - a0) / j), (0.0, hold), (-j, (am - af) / j)])
    s_dn = -j * (vf - v0) + 0.5 * (a0 * a0 + af * af)
    if s_dn >= -1e-15:
        avl = -math.sqrt(max(s_dn, 0.0))
        if avl <= a0 + 1e-12 and avl <= af + 1e-12:
            if avl >= -am:
                cands.append([(-j, (a0 - avl) / j), (j, (af - avl) / j)])
            else:
                hold = ((v0 - vf) - (2 * am * am - a0 * a0 - af * af) / (2 * j)) / am
                cands.append([(-j, (a0 + am) / j), (0.0, hold), (j, (af + am) / j)])
    best = None
    for steps in cands:
        if any(t < -planner.CLAMP_TOL for _, t in steps):
            continue
        steps = [(jj, max(t, 0.0)) for jj, t in steps]
        if best is None or (planner.steps_duration(steps)
                            < planner.steps_duration(best)):
            best = steps
    if best is None:
        raise InfeasibleBoundary("no phase-plane connection")
    return best


def test_connect_steps_matches_two_branch_form_bit_for_bit(lin):
    # one signed loop against the up and down shapes written out: every step
    # is the same float, and both raise on the same inputs.  Edge values
    # (0, the limits, the excursion bound v = -+vmax -+ a|a|/(2 jmax)) are
    # drawn as often as uniform ones, a little beyond the limits included
    rng = np.random.default_rng(13)
    j, am, vm = lin.jmax, lin.amax, lin.vmax

    def draw_a():
        return rng.choice([0.0, am, -am, rng.uniform(-1.1 * am, 1.1 * am)])

    def draw_v(a):
        edge = a * abs(a) / (2.0 * j)
        return rng.choice([0.0, vm, -vm, vm - edge, -vm - edge, vm + edge,
                           -vm + edge, rng.uniform(-1.1 * vm, 1.1 * vm)])

    raised = 0
    for _ in range(20000):
        a0, af = float(draw_a()), float(draw_a())
        v0, vf = float(draw_v(a0)), float(draw_v(af))
        try:
            want = _connect_steps_two_branch(a0, v0, af, vf, lin)
        except InfeasibleBoundary:
            with pytest.raises(InfeasibleBoundary):
                planner.connect_steps(a0, v0, af, vf, lin)
            raised += 1
            continue
        got = planner.connect_steps(a0, v0, af, vf, lin)
        assert [(float(jj).hex(), float(t).hex()) for jj, t in got] == \
            [(float(jj).hex(), float(t).hex()) for jj, t in want], (a0, v0, af, vf)
    assert 0 < raised < 20000


def test_connect_steps_on_non_finite_inputs_matches_two_branch_form(lin, ang):
    # NaN and +-inf in each of a0, v0, af, vf, on top of feasible and edge
    # boundary values: the same steps bit for bit, or the same exception type
    rng = np.random.default_rng(29)
    bases = [(0.0, 0.0, 0.0, 0.0), (0.3, 0.0, -0.3, 0.15), (-0.1, -0.15, 0.0, 0.1)]
    for lim in (lin, ang):
        bases += [(*random_boundary(rng, lim), *random_boundary(rng, lim, True))
                  for _ in range(20)]
    outcomes = set()
    for lim in (lin, ang):
        for base in bases:
            for i in range(4):
                for bad in (math.nan, math.inf, -math.inf):
                    args = list(base)
                    args[i] = bad
                    try:
                        want = _connect_steps_two_branch(*args, lim)
                    except Exception as exc:  # noqa: BLE001 - the type is compared
                        with pytest.raises(type(exc)):
                            planner.connect_steps(*args, lim)
                        outcomes.add(type(exc).__name__)
                        continue
                    got = planner.connect_steps(*args, lim)
                    assert [(jj.hex(), t.hex()) for jj, t in got] == \
                        [(jj.hex(), t.hex()) for jj, t in want], args
                    outcomes.add("steps")
    assert outcomes == {"steps", "InfeasibleBoundary"}


def _connect_steps_with_max(a0, v0, af, vf, limits):
    """``connect_steps`` as written with builtin ``max`` for its clamps."""
    j, am = limits.jmax, limits.amax
    best = None
    best_total = 0.0
    half_sq = 0.5 * (a0 * a0 + af * af)
    for s in (1.0, -1.0):
        sq = s * j * (vf - v0) + half_sq
        if not sq >= -planner._SQUARE_TOL:
            continue
        r = math.sqrt(max(sq, 0.0))
        sa0, saf = s * a0, s * af
        if not (r >= sa0 - planner._PEAK_TOL and r >= saf - planner._PEAK_TOL):
            continue
        if r <= am:
            up, hold, down = (r - sa0) / j, 0.0, (r - saf) / j
        else:
            up, down = (am - sa0) / j, (am - saf) / j
            hold = ((s * vf - s * v0)
                    - (2 * am * am - a0 * a0 - af * af) / (2 * j)) / am
        tol = planner.CLAMP_TOL
        if up < -tol or hold < -tol or down < -tol:
            continue
        up, hold, down = max(up, 0.0), max(hold, 0.0), max(down, 0.0)
        total = 0.0 + up + hold + down
        if best is None or total < best_total:
            best = ([(s * j, up), (-s * j, down)] if r <= am
                    else [(s * j, up), (0.0, hold), (-s * j, down)])
            best_total = total
    if best is None:
        raise InfeasibleBoundary(
            f"no phase-plane connection from (a={a0}, v={v0}) to (a={af}, v={vf})")
    return best


def _steps_outcome(fn, *args):
    """Every step's bits, or the exception's type and message."""
    try:
        steps = fn(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc).__name__, str(exc)
    return [(float(jj).hex(), float(t).hex()) for jj, t in steps]


def test_connect_steps_matches_its_max_form_bit_for_bit(lin, ang):
    # `0.0 if x < 0.0 else x` in place of max(x, 0.0): the same steps, bit
    # for bit, and the same exceptions, on a seeded sweep and on the cases
    # where a clamp meets a signed zero or a limit exactly
    exact = KinematicLimits(jmax=2.0, amax=1.0, vmax=1.0)   # powers of two
    signs = [0.0, -0.0]
    cases = [(exact, args) for args in itertools.product(signs, repeat=4)]
    # sq is exactly 0 (a peak of 0) on one shape; equal (a, v) make it 0 on both
    zero_sq = [(1.0, 0.0, 0.0, 0.25), (-1.0, 0.0, 0.0, -0.25), (0.0, 0.5, 0.0, 0.5),
               (0.0, -0.0, -0.0, 0.0), (1.0, -0.0, 0.0, 0.25)]

    def squares(a0, v0, af, vf):
        return {s * 2.0 * (vf - v0) + 0.5 * (a0 * a0 + af * af) for s in (1.0, -1.0)}

    assert all(0.0 in squares(*args) for args in zero_sq)
    # sq is exactly 1 on one shape: the peak sqrt(sq) lands exactly on amax
    at_amax = [(0.0, 0.0, 0.0, 0.5), (0.0, 0.0, -0.0, -0.5), (1.0, 0.0, 0.0, 0.25),
               (0.0, -0.25, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0)]
    assert all(1.0 in squares(*args) for args in at_amax)
    cases += [(exact, args) for args in zero_sq + at_amax]
    rng = np.random.default_rng(41)
    for lim in (lin, ang, exact):
        j, am, vm = lim.jmax, lim.amax, lim.vmax
        for _ in range(40):
            a, v = random_boundary(rng, lim)
            cases.append((lim, (a, v, a, v)))                 # equal states
            cases.append((lim, (-0.0, v, 0.0, v)))
            args = [a, v, *random_boundary(rng, lim, True)]
            for i in range(4):                                # one signed zero each
                for z in signs:
                    cases.append((lim, tuple(args[:i] + [z] + args[i + 1:])))

        def draw_a():
            return float(rng.choice([0.0, -0.0, am, -am,
                                     rng.uniform(-1.1 * am, 1.1 * am)]))

        def draw_v(a):
            edge = a * abs(a) / (2.0 * j)
            return float(rng.choice([0.0, -0.0, vm, -vm, vm - edge, -vm - edge,
                                     rng.uniform(-1.1 * vm, 1.1 * vm)]))

        for _ in range(4000):
            a0, af = draw_a(), draw_a()
            cases.append((lim, (a0, draw_v(a0), af, draw_v(af))))
    for lim in (lin, ang):
        cases += [(lim, (math.nan, 0.0, 0.0, 0.1)), (lim, (0.0, 0.0, 0.0, math.inf))]
    assert len(cases) >= 10000
    kinds = set()
    for lim, args in cases:
        want = _steps_outcome(_connect_steps_with_max, *args, lim)
        assert _steps_outcome(planner.connect_steps, *args, lim) == want, (args, lim)
        kinds.add(len(want) if isinstance(want, list) else want[0])
    assert kinds == {2, 3, "InfeasibleBoundary"}          # two- and three-step shapes
    # sq = -0.0 cannot reach the clamp (half_sq >= +0.0, and -0.0 + +0.0 is
    # +0.0), so the expression is checked on it and other edges directly
    for x in (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-16, 1.0, -1.0,
              math.inf, -math.inf, math.nan):
        assert (0.0 if x < 0.0 else x).hex() == max(x, 0.0).hex()
