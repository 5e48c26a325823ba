import numpy as np
import pytest

from softmotion import (KinematicLimits, KinematicState, brute_force_min_time,
                        check_limits, evaluate, plan_ptp_1d, plan_ptp_nd,
                        ptp_saturation_threshold, ptp_times)


def test_times_reach_both_plateaus(lin):
    tt = ptp_times(0.15, lin)
    assert tt.tj == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert tt.ta == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert tt.tv == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert tt.total == pytest.approx(11.0 / 6.0, abs=1e-12)
    assert plan_ptp_1d(0.15, lin).duration == pytest.approx(11.0 / 6.0, abs=1e-12)


def test_zero_distance_gives_a_hold(lin):
    # a 0 s hold at x0, like plan_ptp_nd's for coincident endpoints: it has
    # the start and final states the docstring promises
    for x0 in (0.0, -0.25):
        prof = plan_ptp_1d(0.0, lin, x0=x0)
        assert prof == plan_ptp_nd([x0], [x0], lin)[0]
        assert prof.duration == 0.0
        assert prof.start_state == prof.final_state == KinematicState(0.0, 0.0, x0)


def test_pure_jerk_case(lin):
    tt = ptp_times(0.0144, lin)
    assert tt.tj == pytest.approx(0.2, abs=1e-12)
    assert tt.ta == 0.0
    assert tt.tv == 0.0
    assert plan_ptp_1d(0.0144, lin).duration == pytest.approx(0.8, abs=1e-12)


def test_saturation_threshold(lin):
    assert ptp_saturation_threshold(lin) == pytest.approx(0.125, abs=1e-9)
    squat = KinematicLimits(0.9, 10.0, 0.15)
    assert ptp_saturation_threshold(squat) == pytest.approx(
        2.0 * 0.15 * np.sqrt(0.15 / 0.9), abs=1e-12)
    assert ptp_times(ptp_saturation_threshold(lin), lin).tv == pytest.approx(
        0.0, abs=1e-12)


def test_boundaries_exact(lin):
    for d in (0.01, 0.0667, 0.1, 0.125, 0.3, -0.2):
        prof = plan_ptp_1d(d, lin)
        s0, sf = prof.start_state, prof.final_state
        assert (s0.a, s0.v, s0.x) == (0.0, 0.0, 0.0)
        assert abs(sf.a) <= 1e-9 and abs(sf.v) <= 1e-9
        assert sf.x == pytest.approx(d, abs=1e-9)
        assert check_limits(prof, lin).ok
        assert len(prof.segments) <= 7


def test_jerk_sign_pattern(lin):
    prof = plan_ptp_1d(0.15, lin)
    signs = [np.sign(s.jerk) for s in prof.segments]
    assert signs == [1, 0, -1, 0, -1, 0, 1]
    mirrored = plan_ptp_1d(-0.15, lin)
    assert [np.sign(s.jerk) for s in mirrored.segments] == [-1, 0, 1, 0, 1, 0, -1]
    assert mirrored.final_state.x == pytest.approx(-0.15, abs=1e-12)


def test_time_reversal_symmetry(lin):
    prof = plan_ptp_1d(0.11, lin)
    T = prof.duration
    for t in np.linspace(0.0, T, 41):
        fwd, _ = evaluate(prof, t)
        bwd, _ = evaluate(prof, T - t)
        assert fwd.v == pytest.approx(bwd.v, abs=1e-9)
        assert fwd.a == pytest.approx(-bwd.a, abs=1e-9)


def test_total_time_monotone_and_continuous_through_case_boundaries(lin):
    # sweep through the plateau thresholds at 0.0667 m and 0.125 m
    for center in (2.0 * lin.amax ** 3 / lin.jmax ** 2, 0.125):
        ds = np.arange(center - 5e-3, center + 5e-3, 1e-4)
        ts = [plan_ptp_1d(float(d), lin).duration for d in ds]
        diffs = np.diff(ts)
        assert (diffs > -1e-12).all()          # non-decreasing
        assert (np.abs(diffs) < 1e-3).all()    # no jump across the boundary


def test_optimality_against_oracle(lin):
    rng = np.random.default_rng(11)
    dt = 0.01
    for _ in range(20):
        d = float(rng.uniform(0.001, 0.5))
        t_plan = plan_ptp_1d(d, lin).duration
        t_oracle = brute_force_min_time(KinematicState(0, 0, 0),
                                        KinematicState(0, 0, d), lin, dt)
        assert t_plan <= t_oracle + 2.0 * dt + 1e-9
