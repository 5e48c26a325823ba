"""Seeded property sweeps over whole layers of the library.

Each sweep is derandomized, so a run draws the same examples every time,
and states its time budget on one 2-CPU machine.
"""
from hypothesis import given, settings, strategies as st

from softmotion import (KinematicLimits, KinematicState, check_limits,
                        critical_length, impose_common_time, plan_min_time_1d,
                        plan_waypoint_path, transition_problem)
from test_waypoints import seam_discontinuity

LIN = KinematicLimits(jmax=0.900, amax=0.300, vmax=0.150)

# boundary speeds: the edge cases of the duration map (rest, +-vmax and a
# plateau breakpoint amax^2/jmax away from them), then any speed in bounds
SPEEDS = st.one_of(st.sampled_from([0.0, 0.05, -0.05, 0.1, -0.1, 0.15, -0.15]),
                   st.floats(-LIN.vmax, LIN.vmax))
# displacement past the critical length; 0 is the critical motion itself,
# and offsets log-uniform from 1e-12 to 1e-4 in size sit just off it
NEAR = st.builds(lambda sign, e: sign * 10.0 ** e,
                 st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -4.0))
OFFSETS = st.one_of(st.just(0.0), st.floats(-0.3, 0.3), NEAR)
CORNER_AXES = st.lists(st.tuples(SPEEDS, SPEEDS, OFFSETS), min_size=1, max_size=3)


# budget: 400 corners in about 8 s
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CORNER_AXES)
def test_corner_transitions_meet_time_displacement_and_limits(axes):
    problems = []
    for v0, vf, off in axes:
        dc = critical_length(KinematicState(0.0, v0), KinematicState(0.0, vf), LIN)
        prob = transition_problem(v0, vf, dc + off, LIN)
        assert all(check_limits(leg, LIN).ok
                   for leg in (prob.min_time, prob.halt, prob.restart))
        problems.append(prob)
    t_imp, profiles = impose_common_time(problems)
    assert t_imp >= max(p.t_opt for p in problems) - 1e-9
    for prof, prob in zip(profiles, problems):
        if not prof.segments:   # every segment below DROP_DURATION
            assert t_imp <= 1e-6 and abs(prob.displacement) <= 1e-9
            continue
        assert check_limits(prof, LIN).ok
        assert abs(prof.duration - t_imp) <= 1e-6
        end = prof.final_state
        assert abs((end.x - prob.init.x) - prob.displacement) <= 1e-9
        assert abs(end.v - prob.final.v) <= 1e-9


@st.composite
def boundary_state(draw, outgoing: bool) -> KinematicState:
    """A feasible (a, v) state: general, or at rest in a with a corner speed."""
    if draw(st.booleans()):
        speed = draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.05, 0.1, 0.15]))
        return KinematicState(0.0, draw(st.sampled_from([speed, -speed])))
    a = draw(st.floats(-LIN.amax, LIN.amax))
    # the velocity the acceleration commits to must stay within vmax
    shift = (-a if outgoing else a) * abs(a) / (2.0 * LIN.jmax)
    lo, hi = max(-LIN.vmax, -LIN.vmax - shift), min(LIN.vmax, LIN.vmax - shift)
    return KinematicState(a, lo + draw(st.floats(0.0, 1.0)) * (hi - lo))


ONE_D_PROBLEMS = st.tuples(boundary_state(False), boundary_state(True), OFFSETS)


# budget: 3 000 plans in about 7 s
@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(ONE_D_PROBLEMS)
def test_1d_plans_keep_limits_and_meet_boundaries(problem):
    init, final, off = problem
    dc = critical_length(init, final, LIN)
    final = KinematicState(final.a, final.v, dc + off)
    prof = plan_min_time_1d(init, final, LIN)
    assert check_limits(prof, LIN).ok
    end = prof.final_state if prof.segments else init
    assert max(abs(end.a - final.a), abs(end.v - final.v),
               abs(end.x - final.x)) <= 1e-9


# a polyline of 3 to 5 points at one scale from 1 mm to 1 m; about a third
# of the axis steps are zero, so axes dwell while others move
STEPS = st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
PATHS = st.builds(
    lambda scale, start, steps: [start] + [
        [start[ax] + scale * sum(s[ax] for s in steps[:k + 1]) for ax in range(3)]
        for k in range(len(steps))],
    st.floats(-3.0, 0.0).map(lambda e: 10.0 ** e),
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    st.lists(st.lists(STEPS, min_size=3, max_size=3), min_size=2, max_size=4))


# budget: 200 paths in about 5 s
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PATHS)
def test_waypoint_paths_are_continuous_and_rest_at_both_ends(points):
    for ax, prof in enumerate(plan_waypoint_path(points, LIN)):
        if not prof.segments:   # every step of the axis below DROP_DURATION
            assert all(abs(p[ax] - points[0][ax]) <= 1e-9 for p in points)
            continue
        assert check_limits(prof, LIN).ok
        assert seam_discontinuity(prof) <= 1e-9
        start, end = prof.start_state, prof.final_state
        assert abs(start.x - points[0][ax]) <= 1e-9
        assert max(abs(start.a), abs(start.v), abs(end.a), abs(end.v)) <= 1e-9
        assert abs(end.x - points[-1][ax]) <= 1e-9
