import numpy as np
import pytest

from softmotion import (check_limits, evaluate, plan_ptp_nd_with_times,
                        plan_waypoint_path, plan_waypoint_path_detailed)


def seam_discontinuity(profile):
    worst = 0.0
    for t in profile.boundaries()[1:-1]:
        left, _ = evaluate(profile, t - 1e-12)
        right, _ = evaluate(profile, t + 1e-12)
        worst = max(worst, abs(left.a - right.a), abs(left.v - right.v),
                    abs(left.x - right.x))
    return worst


def test_three_point_mission_report(lin):
    p0 = np.zeros(3)
    p1 = p0 + np.array([0.15, 0.15, 0.0])
    pf = p1 + np.array([0.15, 0.15, 0.15])
    profiles, report = plan_waypoint_path_detailed([p0, p1, pf], lin)

    by_axis = {r.axis: r for r in report}
    assert by_axis[0].v_in == pytest.approx(0.15, abs=1e-9)
    assert by_axis[1].v_in == pytest.approx(0.15, abs=1e-9)
    assert by_axis[2].v_in == pytest.approx(0.0, abs=1e-9)
    for ax in range(3):
        assert by_axis[ax].v_out == pytest.approx(0.15, abs=1e-9)
    assert by_axis[0].displacement == pytest.approx(0.125, abs=1e-9)
    assert by_axis[1].displacement == pytest.approx(0.125, abs=1e-9)
    assert by_axis[2].displacement == pytest.approx(0.0625, abs=1e-9)
    for ax in range(3):
        assert by_axis[ax].t_opt == pytest.approx(5.0 / 6.0, abs=1e-3)
        assert by_axis[ax].t_imp == pytest.approx(5.0 / 6.0, abs=1e-3)

    for ax, prof in enumerate(profiles):
        start, end = prof.start_state, prof.final_state
        assert (start.a, start.v) == (0.0, 0.0)
        assert abs(end.a) <= 1e-9 and abs(end.v) <= 1e-9
        assert end.x == pytest.approx(pf[ax], abs=1e-9)
        assert check_limits(prof, lin).ok
        assert seam_discontinuity(prof) <= 1e-9


def test_five_point_path_takes_the_smallest_common_duration(lin):
    # the corner's smallest common duration is the lower end of one axis's
    # feasible interval, a refined run edge of its duration map
    pts = [[0, 0, 0], [0.1, 0.2, 0.05], [0.25, 0.2, 0], [0.25, 0.05, 0.15],
           [0.05, 0, 0.1]]
    _, report = plan_waypoint_path_detailed(np.array(pts, dtype=float), lin)
    first = [r for r in report if r.waypoint == 1]
    assert len(first) == 3
    for row in first:
        assert row.t_imp == pytest.approx(0.8818082367952901, abs=1e-9)


def test_collinear_long_legs_cruise_through(lin):
    # legs long enough to cruise: the transition is a pure constant-velocity
    # run, no slowdown at the middle point
    pts = [np.array([0.0]), np.array([0.5]), np.array([1.0])]
    profiles, report = plan_waypoint_path_detailed(pts, lin)
    assert report[0].v_in == pytest.approx(0.15, abs=1e-9)
    assert report[0].v_out == pytest.approx(0.15, abs=1e-9)
    prof = profiles[0]
    # the mid-path region between the two leg cruises is one flat cruise
    mid_states = [evaluate(prof, t)[0] for t in np.linspace(1.5, 4.5, 25)]
    for st in mid_states:
        assert st.v == pytest.approx(0.15, abs=1e-9)
        assert abs(st.a) <= 1e-9
    assert prof.final_state.x == pytest.approx(1.0, abs=1e-9)


def test_identical_points_all_dwell(lin):
    profiles = plan_waypoint_path([np.zeros(2)] * 3, lin)
    for prof in profiles:
        assert prof.duration == 0.0


def test_duplicate_interior_point(lin):
    pts = [np.array([0.0, 0.0]), np.array([0.1, 0.0]), np.array([0.1, 0.0]),
           np.array([0.1, 0.2])]
    profiles, _ = plan_waypoint_path_detailed(pts, lin)
    for ax, prof in enumerate(profiles):
        assert check_limits(prof, lin).ok
        assert seam_discontinuity(prof) <= 1e-9
        assert prof.final_state.x == pytest.approx(pts[-1][ax], abs=1e-9)


def test_requires_three_points(lin):
    with pytest.raises(ValueError):
        plan_waypoint_path([np.zeros(3), np.ones(3)], lin)


def test_transition_conditions_match_pipeline(lin):
    # each corner is anchored at the incoming leg's cruise end and the
    # outgoing leg's cruise start, both zero-acceleration states
    p0 = np.zeros(3)
    p1 = np.array([0.15, 0.15, 0.0])
    pf = np.array([0.30, 0.30, 0.15])
    leg_in, times_in = plan_ptp_nd_with_times(p0, p1, lin)
    leg_out, times_out = plan_ptp_nd_with_times(p1, pf, lin)
    _, report = plan_waypoint_path_detailed([p0, p1, pf], lin)
    assert [r.axis for r in report] == [0, 1, 2]
    for r in report:
        ic, _ = evaluate(leg_in[r.axis], times_in.cruise_end)
        fc, _ = evaluate(leg_out[r.axis], times_out.cruise_start)
        assert abs(ic.a) <= 1e-9 and abs(fc.a) <= 1e-9
        assert r.v_in == pytest.approx(ic.v, abs=1e-12)
        assert r.v_out == pytest.approx(fc.v, abs=1e-12)
        assert r.displacement == pytest.approx(fc.x - ic.x, abs=1e-12)
        assert r.t_opt == pytest.approx(5.0 / 6.0, abs=1e-3)
    assert report[0].v_in == pytest.approx(0.15, abs=1e-9)
    assert report[2].v_in == pytest.approx(0.0, abs=1e-9)
    assert report[0].displacement == pytest.approx(0.125, abs=1e-9)
    assert report[2].displacement == pytest.approx(0.0625, abs=1e-9)


def test_cruise_window_with_and_without_plateau(lin):
    legs, times = plan_ptp_nd_with_times([0.0], [0.15], lin)
    assert times.cruise_start == pytest.approx(2.0 / 3.0 + 1.0 / 6.0, abs=1e-9)
    assert times.cruise_end == pytest.approx(1.0, abs=1e-9)
    for t in (times.cruise_start, times.cruise_end):
        st, _ = evaluate(legs[0], t)
        assert abs(st.a) <= 1e-9
        assert st.v == pytest.approx(lin.vmax, abs=1e-9)
    short, times = plan_ptp_nd_with_times([0.0], [0.05], lin)
    assert times.cruise_start == times.cruise_end    # collapses to the peak instant
    st, _ = evaluate(short[0], times.cruise_start)
    assert abs(st.a) <= 1e-9


def test_random_paths_end_to_end(lin):
    rng = np.random.default_rng(59)
    for _ in range(8):
        n_pts = int(rng.integers(3, 6))
        pts = np.cumsum(rng.uniform(-0.25, 0.25, (n_pts, 3)), axis=0)
        profiles, report = plan_waypoint_path_detailed(pts, lin)
        for ax, prof in enumerate(profiles):
            assert check_limits(prof, lin).ok
            assert seam_discontinuity(prof) <= 1e-9
            assert prof.final_state.x == pytest.approx(pts[-1][ax], abs=1e-9)
            assert abs(prof.final_state.v) <= 1e-9
        durations = {round(p.duration, 6) for p in profiles}
        assert len(durations) <= 1
