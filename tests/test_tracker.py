import hashlib
import math
import struct

import numpy as np
import pytest
from conftest import random_boundary

from softmotion import (InfeasibleBoundary, KinematicLimits, KinematicState,
                        OnlineTracker, PoseTracker, Quaternion, Twist,
                        omega_to_qdot, qdot_to_omega, tracker)
from softmotion.planner import (check_boundary_state, connect_steps,
                                critical_length, plan_min_time_1d)
from softmotion.profiles import DROP_DURATION, cubic, evaluate


def reference_tick_axis(state, lim, ref, dt):
    """One axis tick planned in full: the critical length, the minimal-time
    plan over it, and that plan evaluated at dt."""
    ref = max(-lim.vmax, min(lim.vmax, ref))
    if state.a == 0.0 and state.v == ref:
        return KinematicState(0.0, ref, state.x + ref * dt)
    target_x = state.x + critical_length(state, KinematicState(0.0, ref), lim)
    profile = plan_min_time_1d(state, KinematicState(0.0, ref, target_x), lim)
    total = profile.duration
    if total <= dt:
        return KinematicState(0.0, ref, profile.final_state.x + ref * (dt - total))
    return evaluate(profile, dt)[0]


def _bits(state):
    return struct.pack("<3d", state.a, state.v, state.x)


def _assert_closed_form_tick(state, lim, ref, dt):
    new = OnlineTracker(lim, states=[state], dt=dt).tick([ref])[0]
    assert _bits(new) == _bits(reference_tick_axis(state, lim, ref, dt)), \
        (state, lim, ref, dt)
    assert abs(new.v - state.v) <= lim.amax * dt + 1e-12
    assert abs(new.a - state.a) <= lim.jmax * dt + 1e-12
    assert abs(new.a) <= lim.amax + 1e-9 and abs(new.v) <= lim.vmax + 1e-9
    return new


@pytest.mark.parametrize("dt", [0.0, -0.01, float("nan"), float("inf")])
def test_rejects_a_bad_tick_period(lin, dt):
    with pytest.raises(ValueError, match="tick period must be > 0"):
        OnlineTracker(lin, n_axes=1, dt=dt)


def test_rejects_an_axis_count_that_differs_from_the_limits(lin, ang):
    with pytest.raises(ValueError, match="n_axes=5"):
        OnlineTracker([lin, ang], n_axes=5)
    with pytest.raises(ValueError, match="n_axes=1"):
        OnlineTracker([lin, ang], n_axes=1)
    assert len(OnlineTracker([lin, ang], n_axes=2).tick([0.1, -0.1])) == 2
    assert len(OnlineTracker([lin, ang]).tick([0.1, -0.1])) == 2


def _all_bits(states):
    return b"".join(_bits(s) for s in states)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_reference_raises_and_changes_no_state(lin, bad):
    # max(-vmax, min(vmax, nan)) is vmax: unchecked, a NaN drove the axis
    trk = OnlineTracker(lin, n_axes=1)
    with pytest.raises(ValueError, match="non-finite reference"):
        trk.tick([bad])
    assert trk.states == [KinematicState()] and trk.time == 0.0
    trk = OnlineTracker(lin, n_axes=3)
    for _ in range(20):
        trk.tick([0.1, -0.05, 0.12])
    before, time = _all_bits(trk.states), trk.time
    for i in range(3):
        refs = [0.1, -0.05, 0.12]
        refs[i] = bad
        with pytest.raises(ValueError, match="non-finite reference"):
            trk.tick(refs)
        assert _all_bits(trk.states) == before and trk.time == time


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_twist_raises_and_changes_no_state(lin, ang, bad):
    # unchecked, a NaN in v moved x, and one in w made every quaternion rate
    # NaN; settled clamped a NaN or +inf in v to vmax and could answer True
    trk = PoseTracker(lin, ang, dt=0.01)
    good = Twist((0.1, -0.05, 0.02), (0.05, -0.1, 0.12))
    for _ in range(50):
        trk.tick(good)
    # the raw quaternion is off the unit sphere, so a renormalization shows
    assert math.fsum(s.x * s.x for s in trk._inner.states[3:]) != 1.0
    before = _all_bits(trk._inner.states)
    drift, time = trk.norm_drift, trk.time
    for field in ("v", "w"):
        for i in range(3):
            v, w = list(good.v), list(good.w)
            (v if field == "v" else w)[i] = bad
            for call in (trk.tick, trk.settled):
                with pytest.raises(ValueError, match="non-finite twist"):
                    call(Twist(tuple(v), tuple(w)))
            assert _all_bits(trk._inner.states) == before
            assert trk.norm_drift == drift and trk.time == time
    trk.tick(good)
    assert _all_bits(trk._inner.states) != before


def test_pose_tracker_states_are_pinned(lin, ang):
    # a seeded stream of three 200-tick holds: the second clamps x beyond
    # vmax, and every w is nonzero, so the quaternion axes replan each tick.
    # The digest of all seven raw states, tick by tick, is the planned tick's
    rng = np.random.default_rng(24)
    trk = PoseTracker(lin, ang, dt=0.01)
    digest = hashlib.sha256()
    for k in range(3):
        v = rng.uniform(-0.12, 0.12, 3)
        if k == 1:
            v[0] = 0.4
        w = rng.uniform(-0.08, 0.08, 3)
        twist = Twist(tuple(v.tolist()), tuple(w.tolist()))
        for _ in range(200):
            trk.tick(twist)
            for s in trk._inner.states:
                digest.update(f"{s.a.hex()} {s.v.hex()} {s.x.hex()};".encode())
        if k == 1:
            assert trk._inner.states[0].v == lin.vmax
    assert digest.hexdigest() == \
        "807708d44dba8749b534f6d0d06436cdc7c3f738ad4c39f1050441e0ea47578d"


def _seeded_twists(seed, holds=3, ticks=120):
    """Held twists with every w nonzero; the second hold clamps x and w."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(holds):
        v = rng.uniform(-0.12, 0.12, 3)
        w = rng.uniform(-0.08, 0.08, 3)
        if k == 1:
            v[0] = 0.4
            w *= 3.0
        out += [Twist(tuple(v.tolist()), tuple(w.tolist()))] * ticks
    return out


def _hex(values):
    return [float(c).hex() for c in values]


def _fresh_pose_and_twist(trk):
    """Pose and twist computed from the raw states alone, as the tracker did
    before it kept its unit quaternion between calls."""
    states = trk._inner.states
    orient = Quaternion.from_array([s.x for s in states[3:]]).normalized()
    w, _ = qdot_to_omega(orient, np.array([s.v for s in states[3:]]))
    return ([s.x for s in states[:3]] + orient.as_array().tolist(),
            [s.v for s in states[:3]] + w.tolist())


def test_each_tick_returns_the_normalized_raw_pose(lin, ang):
    # the bits of q / np.linalg.norm(q) over the inner raw states, which is
    # how the benchmark checks the last pose of a stream
    trk = PoseTracker(lin, ang, dt=0.01)
    for twist in _seeded_twists(26):
        pose = trk.tick(twist)
        states = trk._inner.states
        q = np.array([s.x for s in states[3:]])
        expected = [s.x for s in states[:3]] + (q / np.linalg.norm(q)).tolist()
        assert _hex(pose.as_array()) == _hex(expected)


def test_pose_and_twist_between_ticks_match_fresh_values(lin, ang):
    trk = PoseTracker(lin, ang, dt=0.01)
    for k, twist in enumerate(_seeded_twists(27)):
        trk.tick(twist)
        if k % 7 == 0:
            trk.settled(twist)
        pose, tw = _fresh_pose_and_twist(trk)
        for _ in range(2):
            assert _hex(trk.pose().as_array()) == _hex(pose)
            got = trk.twist()
            assert _hex(got.v + got.w) == _hex(tw)
    # states replaced from outside are read afresh, even when they compare
    # equal to the last ones: -0.0 == 0.0, but the unit quaternion keeps
    # the sign of the zero
    trk = PoseTracker(lin, ang, dt=0.01)
    assert math.copysign(1.0, trk.pose().orient.q[0]) == 1.0
    trk._inner.states = trk._inner.states[:4] + [
        KinematicState(0.0, 0.0, -0.0)] + trk._inner.states[5:]
    assert math.copysign(1.0, trk.pose().orient.q[0]) == -1.0
    states = list(trk._inner.states)
    states[3] = KinematicState(0.0, 0.0, 0.6)
    states[6] = KinematicState(0.0, 0.0, 0.8)
    trk._inner.states = states
    assert _hex(trk.pose().as_array()) == _hex(_fresh_pose_and_twist(trk)[0])


def test_a_rejected_tick_leaves_no_trace(lin, ang):
    # a twist rejected for a non-finite component, at any point of a stream,
    # changes none of the bits the following good ticks produce
    twists = _seeded_twists(28, ticks=60)
    clean = PoseTracker(lin, ang, dt=0.01)
    trk = PoseTracker(lin, ang, dt=0.01)
    for k, twist in enumerate(twists):
        if k % 13 == 5:
            trk.pose()
            with pytest.raises(ValueError, match="non-finite twist"):
                trk.tick(Twist(twist.v, (twist.w[0], math.nan, twist.w[2])))
        assert _hex(trk.tick(twist).as_array()) == \
            _hex(clean.tick(twist).as_array())
        assert _all_bits(trk._inner.states) == _all_bits(clean._inner.states)
        assert trk.norm_drift.hex() == clean.norm_drift.hex()
        assert trk.time == clean.time


def test_a_track_row_takes_one_norm(lin, ang, monkeypatch):
    # tick, twist and settled, as softmotion track calls them each row
    calls = []
    norm = np.linalg.norm

    def counting(x, *args, **kwargs):
        calls.append(1)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    trk = PoseTracker(lin, ang, dt=0.01)
    trk.pose()                      # the start pose, normalized once
    for twist in _seeded_twists(29, ticks=40):
        calls.clear()
        trk.tick(twist)
        trk.twist()
        trk.settled(twist)
        trk.pose()
        assert len(calls) == 1


def test_omega_to_qdot_returns_the_array_bits_as_floats():
    rng = np.random.default_rng(30)
    for _ in range(500):
        q = rng.normal(size=4)
        orient = Quaternion.from_array(q / np.linalg.norm(q))
        w = tuple(rng.uniform(-0.2, 0.2, 3).tolist())
        rate = omega_to_qdot(orient, w)
        assert type(rate) is tuple and len(rate) == 4
        assert all(type(c) is float for c in rate)
        pure = Quaternion(0.0, w)
        assert _hex(rate) == _hex(0.5 * pure.multiply(orient).as_array())


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
    for bad in (math.nan, math.inf):        # both would clamp to vmax
        with pytest.raises(ValueError, match="non-finite twist"):
            tracker.settled(Twist((bad, -0.05, 0.0), (0.0, 0.0, 0.0)))
    assert not tracker.settled(Twist((0.0, -0.05, 0.0), (0.0, 0.0, 0.0)))
    assert not tracker.settled(Twist((0.4, -0.05, 0.0), (0.0, 0.0, 0.1)))
    # under rotation the quaternion rate turns with the orientation; the
    # angular velocity read back from it settles within |w|^2 dt / 2
    spin = Twist((0.0, 0.0, 0.0), (0.1, 0.0, 0.0))
    tracker = PoseTracker(lin, ang, dt=0.01)
    for _ in range(20):
        tracker.tick(spin)
    assert not tracker.settled(spin)
    for _ in range(180):
        tracker.tick(spin)
    assert tracker.settled(spin)
    assert not tracker.settled(Twist((0.0, 0.0, 0.0), (0.1, 0.0, 1e-4)))
    assert not tracker.settled(Twist((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))


def test_pose_tracker_scales_a_twist_beyond_vmax(lin, ang):
    # |w| = 0.114 rad/s against vmax 0.1: the tick tracks w scaled to vmax
    # along its axis, so no quaternion component reaches its rate limit and
    # the read-back angular velocity stays on the scaled reference
    twist = Twist((0.0, 0.0, 0.0), (0.05, -0.02, 0.1))
    norm = float(np.linalg.norm(twist.w))
    held = [c * ang.vmax / norm for c in twist.w]
    tol = 0.5 * ang.vmax ** 2 * 0.01
    tracker = PoseTracker(lin, ang, dt=0.01)
    for k in range(1, 3001):
        tracker.tick(twist)
        if k >= 100:
            assert max(abs(a - b) for a, b in zip(tracker.twist().w, held)) <= tol
            assert tracker.settled(twist)
    assert not tracker.settled(Twist((0.0, 0.0, 0.0), tuple(held[:2]) + (0.0,)))


EXACT = KinematicLimits(jmax=2.0, amax=1.0, vmax=1.0)   # powers of two: exact steps


def test_closed_form_tick_matches_the_planned_tick(lin, ang):
    rng = np.random.default_rng(2024)
    limit_sets = [lin, ang.scaled(0.5)]
    dts = [0.001, 0.01, 0.037, 0.5]
    for k in range(20000):
        lim = limit_sets[k % 2]
        a, v = random_boundary(rng, lim)
        state = KinematicState(a, v, float(rng.uniform(-10.0, 10.0)))
        ref = float(rng.uniform(-1.2, 1.2)) * lim.vmax
        _assert_closed_form_tick(state, lim, ref, dts[k % 4])


@pytest.mark.parametrize("dt", [0.001, 0.01, 0.037, 0.5])
def test_closed_form_tick_edge_cases(lin, dt):
    j, am, vm = lin.jmax, lin.amax, lin.vmax
    cases = [
        (KinematicState(0.0, 0.1, 3.0), 0.1),             # fast path
        (KinematicState(0.0, -vm, -2.0), -vm),            # fast path at -vmax
        (KinematicState(0.0, 0.1 - 1e-6, 1.0), 0.1),      # lands within the tick
        (KinematicState(0.0, 0.0, 0.5), vm),              # ref = +vmax
        (KinematicState(0.0, 0.05, -0.5), -vm),           # ref = -vmax
        (KinematicState(0.0, 0.0, 0.0), 2.0 * vm),        # clamped to +vmax
        (KinematicState(am, 0.0, 0.2), 0.0),              # a = +amax
        (KinematicState(-am, 0.0, -0.2), -0.1),           # a = -amax
        (KinematicState(am, vm - am * am / (2 * j), 0.0), vm),   # saturated
    ]
    for state, ref in cases:
        _assert_closed_form_tick(state, lin, ref, dt)
    # a connection with a positive step below DROP_DURATION, which is dropped
    state = KinematicState(0.1, 0.1 - 0.1 * 0.1 / (2 * j) - 1e-13, 0.0)
    assert 0.0 < connect_steps(state.a, state.v, 0.0, 0.1, lin)[0][1] < DROP_DURATION
    _assert_closed_form_tick(state, lin, 0.1, dt)
    # the same state ticked until it rests on the reference
    for _ in range(int(1.0 / dt) + 2):
        state = _assert_closed_form_tick(state, lin, 0.1, dt)
    assert state.a == 0.0 and state.v == 0.1


def test_closed_form_tick_on_exact_boundaries():
    # the connection's two steps total exactly the tick
    state = KinematicState(0.0, 0.375, 1.0)
    assert connect_steps(0.0, 0.375, 0.0, 0.5, EXACT) == [(2.0, 0.25), (-2.0, 0.25)]
    end = _assert_closed_form_tick(state, EXACT, 0.5, 0.5)
    assert (end.a, end.v) == (0.0, 0.5)
    # ticks that end on a segment boundary: after the ramp, after the plateau
    state = KinematicState(0.0, -0.5, 0.0)
    assert connect_steps(0.0, -0.5, 0.0, 0.5, EXACT) == [
        (2.0, 0.5), (0.0, 0.5), (-2.0, 0.5)]
    for dt in (0.25, 0.5, 1.0, 1.5, 2.0):
        _assert_closed_form_tick(state, EXACT, 0.5, dt)


def _tick_with_builtins(states, limits, v_ref, dt):
    """The new states of OnlineTracker's tick as written with a per-axis
    method and the max/min clamp."""
    def tick_axis(state, lim, ref):
        if state.a == 0.0 and state.v == ref:
            return KinematicState(0.0, ref, state.x + ref * dt)
        check_boundary_state(state, lim, outgoing=False)
        t = 0.0
        a, v, x = state.a, state.v, state.x
        for jerk, dur in connect_steps(a, v, 0.0, ref, lim):
            if dur < DROP_DURATION:
                continue
            if t + dur > dt:
                return KinematicState(*cubic(a, v, x, jerk, dt - t))
            a, v, x = cubic(a, v, x, jerk, dur)
            t += dur
        return KinematicState(0.0, ref, x + ref * (dt - t))

    out = []
    for state, lim, ref in zip(states, limits, v_ref):
        ref = float(ref)
        if not math.isfinite(ref):
            raise ValueError(f"non-finite reference velocity {ref}")
        out.append(tick_axis(state, lim, max(-lim.vmax, min(lim.vmax, ref))))
    return out


def _exact(values):
    """Type and bits of each value (an int limit stays an int)."""
    return [(type(c).__name__, c.hex() if isinstance(c, float) else repr(c))
            for c in values]


def _tick_outcome(tick, *args):
    try:
        states = tick(*args)
    except Exception as exc:  # noqa: BLE001 - type and message are compared
        return type(exc).__name__, str(exc)
    return [_exact((s.a, s.v, s.x)) for s in states]


def test_tick_matches_the_builtin_clamp_and_per_axis_tick(lin, ang):
    # the flat loop and its comparison clamp against the per-axis method and
    # max(-vmax, min(vmax, ref)): the same state bits, or the same exception
    rng = np.random.default_rng(53)
    limit_sets = [lin, ang.scaled(0.5), EXACT]
    dts = [0.001, 0.01, 0.037, 0.5]
    cases = []
    for k in range(12000):
        lim = limit_sets[k % 3]
        vm = lim.vmax
        a, v = random_boundary(rng, lim)
        if k % 50 == 0:
            a = lim.amax * 1.01                               # infeasible: raises
        ref = [vm, -vm, 0.0, -0.0, v, 2.0 * vm, -2.0 * vm,
               math.nextafter(vm, math.inf), math.nextafter(-vm, -math.inf),
               math.nextafter(vm, 0.0), math.nan, math.inf,
               float(rng.uniform(-1.2, 1.2)) * vm][k % 13]
        a = [a, 0.0, -0.0][k % 7 % 3]          # some resting states: the fast path
        cases.append((KinematicState(a, v, float(rng.uniform(-10.0, 10.0))), lim,
                      ref, dts[k % 4]))
    ints = KinematicLimits(jmax=2, amax=1, vmax=1)   # the limit keeps its type
    for ref in (1.0, -1.0, 1.5, -1.5, 0.5, -0.0):
        cases.append((KinematicState(0.0, 0.5, 0.0), ints, ref, 0.25))
        held = max(-ints.vmax, min(ints.vmax, ref))          # the fast path
        cases.append((KinematicState(0.0, held, 0.0), ints, ref, 0.25))
    kinds = set()
    for state, lim, ref, dt in cases:
        want = _tick_outcome(_tick_with_builtins, [state], [lim], [ref], dt)
        trk = OnlineTracker(lim, states=[state], dt=dt)
        got = _tick_outcome(trk.tick, [ref])
        assert got == want, (state, lim, ref, dt)
        kinds.add(want[0] if isinstance(want, tuple) else "state")
    assert kinds == {"state", "ValueError", "InfeasibleBoundary"}
    # seven axes at once, as a PoseTracker ticks them
    limits = [lin] * 3 + [ang.scaled(0.5)] * 4
    trk = OnlineTracker(limits, dt=0.01)
    for k in range(300):
        if k % 40 == 0:
            v_ref = [float(c) for c in rng.uniform(-0.3, 0.3, 7)]
        want = _tick_outcome(_tick_with_builtins, trk.states, limits, v_ref, 0.01)
        assert _tick_outcome(trk.tick, v_ref) == want


def test_a_pose_tick_builds_one_state_per_axis(lin, ang, monkeypatch):
    # and calls connect_steps only on the axes that are not already resting
    # on their clamped reference with a = 0
    built, connected = [], []
    real_connect = tracker.connect_steps

    def counting_state(*args):
        built.append(args)
        return KinematicState(*args)

    def counting_connect(a0, v0, af, vf, lim):
        connected.append((a0, v0, vf))
        return real_connect(a0, v0, af, vf, lim)

    trk = PoseTracker(lin, ang, dt=0.01)
    monkeypatch.setattr(tracker, "KinematicState", counting_state)
    monkeypatch.setattr(tracker, "connect_steps", counting_connect)
    limits = trk._inner.limits
    stream = ([Twist((0.1, -0.4, 0.0), (0.0, 0.0, 0.0))] * 150
              + _seeded_twists(31, ticks=60))
    fast = slow = 0
    for twist in stream:
        _, orient = trk._orientation()
        refs = (*twist.v, *omega_to_qdot(orient, trk._held_w(twist.w)))
        refs = [max(-lim.vmax, min(lim.vmax, r)) for lim, r in zip(limits, refs)]
        expect = [(s.a, s.v, r) for s, r in zip(trk._inner.states, refs)
                  if not (s.a == 0.0 and s.v == r)]
        built.clear()
        connected.clear()
        trk.tick(twist)
        assert len(built) == 7
        assert connected == expect
        fast += 7 - len(expect)
        slow += len(expect)
    assert fast > 1000 and slow > 1000


@pytest.mark.parametrize("dt", [0.01, 0.001, 0.037])
def test_time_is_the_tick_count_times_dt(lin, ang, dt):
    trk = OnlineTracker(lin, n_axes=1, dt=dt)
    for n in range(1, 5001):
        trk.tick([0.0])
        assert trk.ticks == n and trk.time == n * dt
    pose = PoseTracker(lin, ang, dt=dt)
    for n in range(1, 101):
        pose.tick(Twist((0.05, 0.0, 0.0), (0.0, 0.0, 0.02)))
        assert pose.time == n * dt
    # a running sum of dt falls behind: at 4 813 ticks of 10 ms it is more
    # than DROP_DURATION short of 48.13, where n * dt is not
    total = 0.0
    for _ in range(4813):
        total += 0.01
    assert total + DROP_DURATION < 48.13 <= 4813 * 0.01 + DROP_DURATION


def test_infeasible_initial_state_raises_on_the_first_tick(lin):
    for state in (KinematicState(lin.amax * 1.01, 0.0, 0.0),
                  KinematicState(-lin.amax * 1.01, 0.0, 0.0),
                  KinematicState(0.2, 0.14, 0.0),      # 0.14 + 0.2^2/1.8 > vmax
                  KinematicState(-0.2, -0.14, 0.0)):
        trk = OnlineTracker(lin, states=[state])
        with pytest.raises(InfeasibleBoundary):
            trk.tick([0.0])


def test_pose_tracker_never_plans_a_profile(lin, ang, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the tracker tick planned a profile")

    for name in ("plan_min_time_1d", "critical_length", "evaluate"):
        monkeypatch.setattr(tracker, name, fail)
    spin = Twist((0.0, 0.0, 0.0), (0.05, -0.1, 0.12))
    trk = PoseTracker(lin, ang, dt=0.01)
    for _ in range(150):
        pose = trk.tick(spin)
    assert abs(pose.orient.q[2]) > 0.01
    fwd = Twist((0.12, -0.2, 0.03), (0.0, 0.0, 0.0))
    trk = PoseTracker(lin, ang, dt=0.01)
    for _ in range(150):
        trk.tick(fwd)
    assert trk.settled(fwd)


def test_quaternion_stays_on_the_unit_sphere_for_300_s(lin, ang):
    rng = np.random.default_rng(0)
    trk = PoseTracker(lin, ang, dt=0.01)
    for _ in range(100):                       # 100 holds of 3 s
        w = rng.uniform(-1.0, 1.0, 3)
        w *= rng.uniform(0.0, 0.17) / np.linalg.norm(w)
        twist = Twist((0.0, 0.0, 0.0), tuple(w.tolist()))
        for _ in range(300):
            pose = trk.tick(twist)
    assert trk.norm_drift < 5e-4
    assert pose.orient.norm == pytest.approx(1.0, abs=1e-12)
