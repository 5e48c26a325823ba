"""Seeded property sweeps over whole layers of the library.

Each sweep is derandomized, so a run draws the same examples every time,
and states its time budget on one 2-CPU machine.
"""
from hypothesis import given, reject, settings, strategies as st

from softmotion import (KinematicLimits, KinematicState, SolverFailure,
                        check_limits, critical_length, impose_common_time,
                        transition_problem)

LIN = KinematicLimits(jmax=0.900, amax=0.300, vmax=0.150)

# boundary speeds: the edge cases of the duration map (rest, +-vmax and a
# plateau breakpoint amax^2/jmax away from them), then any speed in bounds
SPEEDS = st.one_of(st.sampled_from([0.0, 0.05, -0.05, 0.1, -0.1, 0.15, -0.15]),
                   st.floats(-LIN.vmax, LIN.vmax))
# displacement past the critical length; 0 is the critical motion itself
OFFSETS = st.one_of(st.just(0.0), st.floats(-0.3, 0.3))
CORNER_AXES = st.lists(st.tuples(SPEEDS, SPEEDS, OFFSETS), min_size=1, max_size=3)


# budget: 400 corners in about 8 s
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(CORNER_AXES)
def test_corner_transitions_meet_time_displacement_and_limits(axes):
    problems = []
    for v0, vf, off in axes:
        dc = critical_length(KinematicState(0.0, v0), KinematicState(0.0, vf), LIN)
        # stretching builds on the 1-D plans of the problem.  The 1-D planner
        # has two known faults of its own (FOUND lines in CHANGES.md, ROADMAP
        # item 1): it misses displacements within about 1e-10 to 2e-7 of the
        # critical length, and some legs near vmax overshoot it by ~3e-8.
        # This sweep checks stretching, so it draws again on those.
        try:
            prob = transition_problem(v0, vf, dc + off, LIN)
        except SolverFailure:
            reject()
        if not all(check_limits(leg, LIN).ok
                   for leg in (prob.min_time, prob.halt, prob.restart)):
            reject()
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
