import math

import numpy as np
import pytest
from conftest import random_boundary

from softmotion import (AxisProfile, CubicSegment, KinematicState, Pose,
                        Quaternion, SoftMotionError, check_limits,
                        concat_profiles, evaluate, integrate_segment,
                        make_profile, plan_min_time_1d, plan_pose_axes,
                        plan_ptp_1d, plan_waypoint_path, sample, sample_times,
                        slice_profile)
from softmotion.profiles import sample_axes, segment_tables


def brute_integrate(state, jerk, dt, steps=1_000_000):
    """Explicit fine-step integration, the independent cross-check."""
    a, v, x = state.a, state.v, state.x
    h = dt / steps
    for _ in range(steps):
        x += v * h + 0.5 * a * h * h + jerk * h ** 3 / 6.0
        v += a * h + 0.5 * jerk * h * h
        a += jerk * h
    return a, v, x


def test_integrate_closed_form_matches_fine_stepping():
    out = integrate_segment(KinematicState(0, 0, 0), 0.9, 1.0 / 3.0)
    assert out.a == pytest.approx(0.3, abs=1e-15)
    assert out.v == pytest.approx(0.05, abs=1e-15)
    assert out.x == pytest.approx(1.0 / 180.0, abs=1e-15)
    ba, bv, bx = brute_integrate(KinematicState(0, 0, 0), 0.9, 1.0 / 3.0,
                                 steps=100_000)
    assert out.a == pytest.approx(ba, abs=1e-6)
    assert out.v == pytest.approx(bv, abs=1e-6)
    assert out.x == pytest.approx(bx, abs=1e-6)


def test_integrate_identity():
    s = KinematicState(0.1, -0.2, 0.3)
    assert integrate_segment(s, 0.0, 0.0) == s


def test_integrate_cruise():
    out = integrate_segment(KinematicState(0, 0.15, 0), 0.0, 0.125 / 0.15)
    assert out.a == 0.0
    assert out.v == 0.15
    assert out.x == pytest.approx(0.125, abs=1e-12)


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        integrate_segment(KinematicState(0, 0, 0), 0.1, -0.5)
    with pytest.raises(ValueError):
        integrate_segment(KinematicState(0, 0, 0), math.nan, 0.5)
    with pytest.raises(ValueError):
        KinematicState(math.inf, 0, 0)


def test_integrate_split_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = KinematicState(*rng.uniform(-1, 1, 3))
        jerk = rng.uniform(-1, 1)
        t1, t2 = rng.uniform(0, 2, 2)
        once = integrate_segment(s, jerk, t1 + t2)
        twice = integrate_segment(integrate_segment(s, jerk, t1), jerk, t2)
        for attr in ("a", "v", "x"):
            lhs, rhs = getattr(once, attr), getattr(twice, attr)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_profile_chaining(lin):
    prof = plan_ptp_1d(0.15, lin)
    prof.validate_chaining()
    for k in range(len(prof.segments) - 1):
        e, s = prof.segments[k].end, prof.segments[k + 1].start
        assert abs(e.a - s.a) <= 1e-9
        assert abs(e.v - s.v) <= 1e-9
        assert abs(e.x - s.x) <= 1e-9


def test_evaluate_bounds_and_boundaries(lin):
    prof = plan_ptp_1d(0.15, lin)
    st, _ = evaluate(prof, 0.0)
    assert st == prof.segments[0].start
    end, _ = evaluate(prof, prof.duration)
    fin = prof.final_state
    assert abs(end.a - fin.a) <= 1e-9
    assert abs(end.v - fin.v) <= 1e-9
    assert abs(end.x - fin.x) <= 1e-9
    with pytest.raises(ValueError):
        evaluate(prof, prof.duration + 1.0)
    with pytest.raises(ValueError):
        evaluate(AxisProfile(), 0.0)


def test_evaluate_cruise_samples_constant_velocity(lin):
    # cruise-only transition: every 10 ms sample runs at constant speed
    seg = CubicSegment(duration=0.125 / 0.15, jerk=0.0,
                       start=KinematicState(0.0, 0.15, 0.0))
    prof = AxisProfile(segments=(seg,))
    for t in sample_times(prof, 0.01):
        st, jerk = evaluate(prof, t)
        assert st.v == pytest.approx(0.15, abs=1e-15)
        assert jerk == 0.0


def test_duration_sums_left_to_right():
    # sum() would give 1.0 from Python 3.12 on; the loop gives the same on every version
    prof = make_profile([(0.0, 0.1)] * 10, KinematicState(0.0, 0.1, 0.0))
    assert prof.duration == 0.9999999999999999
    assert prof.duration == prof.boundaries()[-1]


def _seeded_profiles(lin, ang):
    rng = np.random.default_rng(808)
    out = []
    for i in range(200):
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        x0 = rng.uniform(-0.2, 0.2)
        try:
            prof = plan_min_time_1d(KinematicState(a0, v0, x0),
                                    KinematicState(af, vf, x0 + rng.uniform(-0.3, 0.3)),
                                    lin)
        except SoftMotionError:
            continue
        out.append(prof)
    for i in range(12):
        q = rng.normal(size=4)
        posef = Pose(tuple(rng.uniform(-0.2, 0.2, 3)),
                     Quaternion.from_array(q / np.linalg.norm(q)))
        pose0 = Pose((0.0, 0.0, 0.0), Quaternion.identity())
        out += plan_pose_axes(pose0, posef, lin, ang)
    hold = CubicSegment(duration=1.5, jerk=0.0, start=KinematicState(0.0, 0.0, 0.3))
    cruise = CubicSegment(duration=2.0, jerk=0.0, start=KinematicState(0.0, 0.1, -0.05))
    out += [AxisProfile(segments=(hold,)), AxisProfile(segments=(cruise,)),
            plan_ptp_1d(0.6, lin), plan_ptp_1d(0.0, lin, x0=0.3)]
    return out


def test_sample_equals_evaluate_bit_for_bit(lin, ang):
    rng = np.random.default_rng(809)
    profiles = _seeded_profiles(lin, ang)
    assert len(profiles) >= 250
    for prof in profiles:
        end = prof.duration
        ts = np.concatenate([
            prof.boundaries(),                       # every segment boundary exactly
            [-1.0, -1e-13, -0.0, end + 1e-13, end + 1.0, np.nextafter(end, 0.0)],
            sample_times(prof, 0.0137),
            rng.uniform(0.0, end, 40)])
        got = sample(prof, ts)
        ref = [[], [], [], []]
        for t in ts:
            state, jerk = evaluate(prof, min(max(t, 0.0), end))
            for col, val in zip(ref, (state.x, state.v, state.a, jerk)):
                col.append(val)
        for arr, col in zip(got, ref):
            # == and the same sign of every zero: the same bits
            assert arr.tolist() == col
            assert np.array_equal(np.signbit(arr), np.signbit(col))


def _axes_of_every_shape(lin):
    """Profiles with 1 to many segments and of many durations, 0 s included."""
    hold = CubicSegment(duration=1.5, jerk=0.0, start=KinematicState(0.0, 0.0, 0.3))
    cruise = CubicSegment(duration=2.0, jerk=0.0, start=KinematicState(0.0, -0.1, 0.05))
    path = plan_waypoint_path([[0.0, 0.0, 0.0], [0.15, 0.1, 0.0], [0.3, 0.1, 0.1],
                               [0.2, 0.25, 0.15]], lin)
    dwell = plan_min_time_1d(KinematicState(0.1, -0.05, 0.02),
                             KinematicState(0.0, 0.0, -0.1), lin)
    axes = [AxisProfile(segments=(hold,)), AxisProfile(segments=(cruise,)),
            plan_ptp_1d(0.6, lin), plan_ptp_1d(-0.2, lin), plan_ptp_1d(0.03, lin),
            dwell, plan_ptp_1d(0.0, lin, x0=0.1)]
    return axes + path


def test_sample_axes_equals_evaluate_bit_for_bit(lin):
    axes = _axes_of_every_shape(lin)
    assert {1, 7} <= {len(p.segments) for p in axes}
    assert max(len(p.segments) for p in axes) > 15       # the joined path
    rng = np.random.default_rng(20)
    edges = np.concatenate([p.boundaries() for p in axes])
    ends = np.array([0.0] + [p.duration for p in axes])
    ts = np.concatenate([
        edges,                                  # every boundary of every axis
        ends[:, None] + [-1.0, -1e-13, 1e-13, 1.0],
        sample_times(max(axes, key=lambda p: p.duration), 0.0137),
        rng.uniform(0.0, ends.max(), 400),
        [-0.0, 0.0]], axis=None)
    # blocks of the sorted instants, as the CSV writer samples them, and the
    # whole set in random order; the 0 s hold makes every block of the full
    # group take the holding branch, while the path axes alone share a span
    # and the blocks within it skip it
    blocks = np.array_split(np.sort(ts), len(ts) // 16) + [rng.permutation(ts)]
    for group in (axes, axes[7:]):
        tables = segment_tables(group)
        inside = 0
        for block in blocks:
            inside += 0.0 <= block.min() and block.max() <= tables.span
            got = sample_axes(tables, block)
            for i, prof in enumerate(group):
                ref = [[], [], [], []]
                for t in block.tolist():
                    state, jerk = evaluate(prof, min(max(t, 0.0), prof.duration))
                    for col, val in zip(ref, (state.x, state.v, state.a, jerk)):
                        col.append(val)
                for arr, col in zip(got, ref):
                    # == and the same sign of every zero: the same bits
                    assert arr[i].tolist() == col
                    assert np.array_equal(np.signbit(arr[i]), np.signbit(col))
        assert inside == 0 if group is axes else 0 < inside < len(blocks)


def test_sample_keeps_the_shape_of_the_times(lin):
    prof = plan_ptp_1d(0.3, lin)
    ts = np.array([[-0.2, 0.3, 0.7], [1.3, 2.3, 8.3]])
    got = sample(prof, ts)
    for (r, c), t in np.ndenumerate(ts):
        state, jerk = evaluate(prof, min(max(t, 0.0), prof.duration))
        assert [arr[r, c] for arr in got] == [state.x, state.v, state.a, jerk]


def test_sample_rejects_an_empty_profile(lin):
    with pytest.raises(ValueError):
        sample(AxisProfile(), [0.0])
    with pytest.raises(ValueError):
        segment_tables([plan_ptp_1d(0.1, lin), AxisProfile()])


def test_saturated_jerk_segments_stay_on_parabola(lin):
    # along any planner-produced jerk segment, (a, v) stays on the parabola
    # anchored at its own zero-acceleration velocity
    prof = plan_ptp_1d(0.11, lin)
    for seg in prof.segments:
        if seg.jerk == 0.0:
            continue
        # v(a) = v0 +- a^2/(2 jmax) along max (+) and min (-) jerk, where v0
        # is the velocity at the a = 0 crossing
        sgn = 1.0 if seg.jerk > 0 else -1.0
        v_anchor = seg.start.v - sgn * seg.start.a ** 2 / (2.0 * lin.jmax)
        for dt in np.linspace(0.0, seg.duration, 17):
            st = seg.state_at(dt)
            assert v_anchor + sgn * st.a ** 2 / (2.0 * lin.jmax) == pytest.approx(
                st.v, abs=1e-9)


def test_check_limits_planner_profile_clean(lin):
    assert check_limits(plan_ptp_1d(0.3, lin), lin).ok


def test_check_limits_flags_jerk(lin):
    seg = CubicSegment(duration=0.1, jerk=2.0 * lin.jmax,
                       start=KinematicState(0, 0, 0))
    report = check_limits(AxisProfile(segments=(seg,)), lin)
    assert not report.ok
    assert any(v.quantity == "jerk" for v in report.violations)


def test_check_limits_finds_interior_velocity_peak(lin):
    # velocity tops out strictly inside a segment where a crosses zero
    s0 = KinematicState(0.25, 0.14, 0.0)
    seg = CubicSegment(duration=0.5, jerk=-lin.jmax, start=s0)
    report = check_limits(AxisProfile(segments=(seg,)), lin)
    peaks = [v for v in report.violations if v.quantity == "velocity"]
    assert peaks
    t_star = 0.25 / lin.jmax
    assert peaks[0].time == pytest.approx(t_star, abs=1e-12)


def test_slice_concat(lin):
    prof = plan_ptp_1d(0.15, lin)
    mid = prof.duration / 2.0
    left = slice_profile(prof, 0.0, mid)
    right = slice_profile(prof, mid, prof.duration)
    whole = concat_profiles([left, right])
    for t in np.linspace(0.0, prof.duration, 23):
        a, _ = evaluate(prof, t)
        b, _ = evaluate(whole, t)
        assert a.x == pytest.approx(b.x, abs=1e-12)
    # 0 s slices are 0 s holds, which the chain drops: a trailing one would
    # end the profile on jerk 0 in place of its last segment's jerk
    first = slice_profile(prof, 0.0, 0.0)
    middle = slice_profile(prof, mid, mid)
    last = slice_profile(prof, prof.duration, prof.duration)
    assert first.duration == middle.duration == last.duration == 0.0
    padded = concat_profiles([first, left, middle, right, last])
    assert padded.segments == whole.segments
    assert evaluate(padded, padded.duration)[1] == prof.segments[-1].jerk != 0.0
    # unless every part is 0 s: then the chain is the first of them
    assert concat_profiles([first, first]).segments == first.segments
    # a 0 s part still has to chain
    with pytest.raises(ValueError, match="do not chain"):
        concat_profiles([left, first, right])


def test_make_profile_drops_noise_segments(lin):
    prof = make_profile([(0.9, 0.1), (0.0, 1e-14), (-0.9, 0.1)],
                        KinematicState(0, 0, 0))
    assert len(prof.segments) == 2
    # every step dropped: a 0 s hold at the start state
    start = KinematicState(0.1, 0.05, 0.2)
    for steps in ([], [(0.9, 1e-14), (0.0, -1e-10)]):
        assert make_profile(steps, start).segments == (
            CubicSegment(duration=0.0, jerk=0.0, start=start),)


def loop_sample_times(profile, dt):
    """The Python loop that the array grid of sample_times replaced."""
    ts = []
    end = profile.duration
    k = 0
    while k * dt < end - 1e-12:
        ts.append(k * dt)
        k += 1
    ts.append(end)
    return ts


def _span(end):
    """A one-segment hold of end seconds (an empty profile when end == 0)."""
    if end == 0.0:
        return AxisProfile()
    return AxisProfile(segments=(
        CubicSegment(duration=end, jerk=0.0, start=KinematicState(0.0, 0.0, 0.0)),))


def sample_time_cases():
    """Seeded (dt, end), with the edge cases of the end-1e-12 cut."""
    rng = np.random.default_rng(4711)
    cases = [(0.25, 2.0),         # exact multiple of dt
             (0.1, 0.3),          # rounded multiple: 3 * 0.1 > 0.3
             (0.01, 0.0),         # empty profile: one row
             (0.01, 4e-13),       # shorter than the cut: one row
             (0.5, 0.2)]          # dt beyond the end: two rows
    for _ in range(300):
        dt = float(rng.choice([0.001, 0.01, 0.0137, rng.uniform(1e-3, 0.2)]))
        k = int(rng.integers(1, 3000))
        # at, just inside and just outside 1e-12 of grid point k, or anywhere
        off = float(rng.choice([0.0, 1e-12, -1e-12, 0.5e-12, -0.5e-12, 2e-12,
                                rng.uniform(-0.5, 0.5) * dt]))
        cases.append((dt, k * dt + off))
    return cases


def test_sample_times_matches_the_loop():
    rows = set()
    for dt, end in sample_time_cases():
        prof = _span(end)
        got = sample_times(prof, dt)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        ref = loop_sample_times(prof, dt)
        assert got.tolist() == ref
        rows.add(len(ref))
    assert 1 in rows and 2 in rows


@pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
def test_sample_times_rejects_a_bad_period(dt):
    with pytest.raises(ValueError, match="dt must be > 0"):
        sample_times(_span(1.0), dt)


def test_every_exported_name_resolves():
    import softmotion
    assert len(set(softmotion.__all__)) == len(softmotion.__all__)
    for name in softmotion.__all__:
        assert getattr(softmotion, name) is not None, name
    namespace = {}
    exec("from softmotion import *", namespace)
    assert set(softmotion.__all__) <= set(namespace)
