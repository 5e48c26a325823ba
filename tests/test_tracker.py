import numpy as np
import pytest

from softmotion import KinematicState, OnlineTracker, PoseTracker, Twist


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
def test_rejects_a_bad_tick_period(lin, dt):
    with pytest.raises(ValueError, match="tick period must be > 0"):
        OnlineTracker(lin, n_axes=1, dt=dt)


def test_at_rest_zero_reference_stays_put(lin):
    tracker = OnlineTracker(lin, n_axes=1)
    for _ in range(10):
        (state,) = tracker.tick([0.0])
    assert state == KinematicState(0.0, 0.0, 0.0)


def test_step_reference_ramp(lin):
    dt = 0.01
    tracker = OnlineTracker(lin, n_axes=1, dt=dt)
    reach_tick = None
    overshoot = 0.0
    states = []
    for k in range(1, 121):
        (state,) = tracker.tick([0.15])
        states.append(state)
        overshoot = max(overshoot, state.v - 0.15)
        if reach_tick is None and abs(state.v - 0.15) <= 1e-9:
            reach_tick = k
    assert reach_tick is not None
    assert abs(reach_tick * dt - 5.0 / 6.0) <= dt + 1e-12
    assert overshoot <= 1e-9
    # position advanced by the critical length plus the post-ramp coast
    t_reach = reach_tick * dt
    coast = 0.15 * (t_reach - 5.0 / 6.0)
    assert states[reach_tick - 1].x == pytest.approx(0.0625 + coast, abs=1e-9)
    # converged for good: no limit cycle
    for _ in range(200):
        (state,) = tracker.tick([0.15])
        assert state.v == 0.15
        assert state.a == 0.0


def test_traces_are_bit_identical(lin):
    rng = np.random.default_rng(73)
    refs = rng.uniform(-0.2, 0.2, 300)

    def run():
        tracker = OnlineTracker(lin, n_axes=1)
        return [tracker.tick([float(r)])[0] for r in refs]

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert (a.a, a.v, a.x) == (b.a, b.v, b.x)


def test_reversal_respects_limits(lin):
    tracker = OnlineTracker(lin, n_axes=1)
    worst_a = 0.0
    for k in range(200):
        ref = 0.15 if k < 40 else -0.15
        (state,) = tracker.tick([ref])
        worst_a = max(worst_a, abs(state.a))
        assert abs(state.a) <= lin.amax + 1e-9
        assert abs(state.v) <= lin.vmax + 1e-9
    assert state.v == pytest.approx(-0.15, abs=1e-9)
    assert worst_a > 0.2   # the reversal actually works the actuator


def test_reference_clamped_to_vmax(lin):
    tracker = OnlineTracker(lin, n_axes=1)
    for _ in range(200):
        (state,) = tracker.tick([0.4])
    assert state.v == pytest.approx(lin.vmax, abs=1e-12)


def test_multi_axis_independent(lin):
    tracker = OnlineTracker(lin, n_axes=3)
    for _ in range(150):
        s = tracker.tick([0.1, -0.05, 0.0])
    assert s[0].v == pytest.approx(0.1, abs=1e-9)
    assert s[1].v == pytest.approx(-0.05, abs=1e-9)
    assert s[2] == KinematicState(0.0, 0.0, 0.0)


def test_pose_tracker_rotation(lin, ang):
    tracker = PoseTracker(lin, ang, dt=0.01)
    spin = Twist((0.0, 0.0, 0.0), (0.0, 0.0, 0.1))
    for _ in range(400):
        pose = tracker.tick(spin)
    assert pose.orient.norm == pytest.approx(1.0, abs=1e-12)
    # still translating nowhere
    assert np.allclose(pose.p, 0.0, atol=1e-12)
    # rotated around z by a few degrees at least, and drift stayed tiny
    assert abs(pose.orient.q[2]) > 0.05
    assert tracker.norm_drift < 1e-4


def test_pose_tracker_translation(lin, ang):
    tracker = PoseTracker(lin, ang, dt=0.01)
    fwd = Twist((0.15, 0.0, 0.0), (0.0, 0.0, 0.0))
    for _ in range(100):
        pose = tracker.tick(fwd)
    tw = tracker.twist()
    assert tw.v[0] == pytest.approx(0.15, abs=1e-9)
    assert pose.p[0] > 0.06


def test_pose_tracker_settles_on_a_held_twist(lin, ang):
    tracker = PoseTracker(lin, ang, dt=0.01)
    twist = Twist((0.4, -0.05, 0.0), (0.0, 0.0, 0.0))    # x beyond vmax
    assert not tracker.settled(twist)
    for _ in range(5):
        tracker.tick(twist)
    assert not tracker.settled(twist)
    for _ in range(200):
        tracker.tick(twist)
    assert tracker.settled(twist)
    assert tracker.twist().v[0] == pytest.approx(lin.vmax, abs=1e-9)
    assert not tracker.settled(Twist((0.0, -0.05, 0.0), (0.0, 0.0, 0.0)))
    assert not tracker.settled(Twist((0.4, -0.05, 0.0), (0.0, 0.0, 0.1)))
