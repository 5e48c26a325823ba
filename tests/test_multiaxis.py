import numpy as np
import pytest

from softmotion import (AxisProfile, CubicSegment, KinematicState, SolverFailure,
                        check_limits, evaluate, multiaxis, plan_ptp_1d,
                        plan_ptp_nd, plan_ptp_nd_with_times,
                        scale_limits_for_duration)


def test_three_axis_example(lin):
    profs = plan_ptp_nd([0, 0, 0], [0.15, 0.15, 0.0], lin)
    assert len(profs) == 3
    T = 11.0 / 6.0
    for p in profs:
        assert p.duration == pytest.approx(T, abs=1e-9)
    # X and Y identical, Z holds position
    for t in np.linspace(0.0, T, 13):
        x, _ = evaluate(profs[0], t)
        y, _ = evaluate(profs[1], t)
        z, _ = evaluate(profs[2], t)
        assert x.x == pytest.approx(y.x, abs=1e-12)
        assert z.x == 0.0 and z.v == 0.0


def test_one_dimensional_case_matches_plan_ptp_1d(lin):
    nd = plan_ptp_nd([0.2], [0.35], lin)[0]
    ref = plan_ptp_1d(0.15, lin, x0=0.2)
    assert nd.duration == pytest.approx(ref.duration, rel=1e-12)
    for t in np.linspace(0.0, ref.duration, 17):
        a, _ = evaluate(nd, t)
        b, _ = evaluate(ref, t)
        assert a.x == pytest.approx(b.x, abs=1e-12)


def test_coincident_points_give_holds(lin):
    # one zero-jerk hold per axis at p0, lasting the duration (0 s if None)
    p0 = [0.1, -0.2]
    for duration, hold in ((None, 0.0), (0.0, 0.0), (1.25, 1.25)):
        profs, times = plan_ptp_nd_with_times(p0, p0, lin, duration)
        assert times.total == hold
        assert profs == [AxisProfile(segments=(
            CubicSegment(hold, 0.0, KinematicState(0.0, 0.0, x)),)) for x in p0]
    assert plan_ptp_nd(p0, p0, lin) == plan_ptp_nd_with_times(p0, p0, lin)[0]


def test_collinearity_and_synchronization(lin):
    rng = np.random.default_rng(41)
    for _ in range(25):
        p0 = rng.uniform(-0.3, 0.3, 3)
        pf = p0 + rng.uniform(-0.4, 0.4, 3)
        profs = plan_ptp_nd(p0, pf, lin)
        T = profs[0].duration
        for p in profs:
            assert p.duration == pytest.approx(T, abs=1e-9)
        moving = [i for i in range(3) if abs(pf[i] - p0[i]) > 1e-12]
        for t in np.linspace(0.0, T, 29):
            fracs = []
            for i in moving:
                st, _ = evaluate(profs[i], t)
                fracs.append((st.x - p0[i]) / (pf[i] - p0[i]))
            assert max(fracs) - min(fracs) <= 1e-6


def test_dominant_axis_runs_at_full_limits(lin):
    profs = plan_ptp_nd([0, 0, 0], [0.04, -0.21, 0.1], lin)
    jerks = [max((abs(s.jerk) for s in p.segments), default=0.0) for p in profs]
    assert max(jerks) == pytest.approx(lin.jmax, rel=1e-12)
    for p in profs:
        assert check_limits(p, lin).ok


def test_scale_limits_identity(lin):
    out = scale_limits_for_duration(lin, 2.0, 2.0)
    assert (out.jmax, out.amax, out.vmax) == (lin.jmax, lin.amax, lin.vmax)


def test_scale_limits_dilation_law(lin):
    d = 0.15
    t_opt = plan_ptp_1d(d, lin).duration
    scaled = scale_limits_for_duration(lin, t_opt, 2.0 * t_opt)
    assert scaled.jmax == pytest.approx(lin.jmax / 8.0, rel=1e-12)
    assert scaled.amax == pytest.approx(lin.amax / 4.0, rel=1e-12)
    assert scaled.vmax == pytest.approx(lin.vmax / 2.0, rel=1e-12)
    slow = plan_ptp_1d(d, scaled)
    assert slow.duration == pytest.approx(2.0 * t_opt, abs=1e-9)
    fast = plan_ptp_1d(d, lin)
    for t in np.linspace(0.0, t_opt, 19):
        a, _ = evaluate(fast, t)
        b, _ = evaluate(slow, 2.0 * t)
        assert b.x == pytest.approx(a.x, abs=1e-9)


def test_scale_limits_dilation_random(lin):
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = float(rng.uniform(0.002, 0.4))
        s = float(rng.uniform(1.0, 4.0))
        t_opt = plan_ptp_1d(d, lin).duration
        slow = plan_ptp_1d(d, scale_limits_for_duration(lin, t_opt, s * t_opt))
        assert slow.duration == pytest.approx(s * t_opt, abs=1e-9)


def test_scale_limits_rejects_shorter_duration(lin):
    with pytest.raises(ValueError):
        scale_limits_for_duration(lin, 1.0, 0.5)


def planned_under_doubled_limits(length, limits):
    return plan_ptp_1d(length, limits.scaled(2.0))


def test_straight_line_fails_closed(lin, monkeypatch):
    monkeypatch.setattr(multiaxis, "plan_ptp_1d", planned_under_doubled_limits)
    with pytest.raises(SolverFailure, match="axis 0 reaches"):
        plan_ptp_nd([0.0, 0.0, 0.0], [0.3, 0.1, 0.0], lin)
