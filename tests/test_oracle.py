import numpy as np
import pytest

from conftest import random_boundary
from softmotion import (KinematicState, SearchBudgetExceeded,
                        brute_force_min_time, critical_length,
                        plan_min_time_1d)


def test_identical_states_take_no_time(lin):
    s = KinematicState(0.0, 0.05, 0.2)
    assert brute_force_min_time(s, s, lin, 0.01) == 0.0


def test_pinned_pure_jerk_distance(lin):
    # rest-to-rest over 0.0144 m: closed form gives exactly 0.800 s
    t = brute_force_min_time(KinematicState(0, 0, 0),
                             KinematicState(0, 0, 0.0144), lin, 0.002)
    assert t == pytest.approx(0.800, abs=0.004)


def peak_speed(profile):
    worst = 0.0
    for seg in profile.segments:
        worst = max(worst, abs(seg.start.v), abs(seg.end.v))
        if seg.jerk != 0.0:
            t_star = -seg.start.a / seg.jerk
            if 0.0 < t_star < seg.duration:
                worst = max(worst, abs(seg.state_at(t_star).v))
    return worst


def transition_instances(rng, lin, count, dt_free=0.05):
    """Desk-scale transitions that actually move.

    Creep motions (peak speed below 0.06 m/s) are excluded: the oracle's
    goal ball scales with dt while the time sensitivity to displacement
    scales with the reciprocal of the peak speed, so for near-stationary
    instances a +-dt-sized ball can no longer separate optimal from
    slightly-short trajectories.
    """
    out = []
    while len(out) < count:
        v0 = float(rng.uniform(-0.12, 0.12))
        vf = float(rng.uniform(-0.12, 0.12))
        init = KinematicState(0.0, v0, 0.0)
        dc = critical_length(init, KinematicState(0.0, vf), lin)
        final = KinematicState(0.0, vf, dc + float(rng.uniform(-dt_free, dt_free)))
        prof = plan_min_time_1d(init, final, lin)
        if prof.duration > 0.9 or peak_speed(prof) < 0.06:
            continue
        out.append((init, final, prof.duration))
    return out


def test_brackets_planner_on_short_transitions(lin):
    # planner <= oracle + 2 dt (the optimality bound) and the oracle's own
    # lateness stays within grid-rounding reach (about 3 steps)
    rng = np.random.default_rng(79)
    dt = 0.005
    for init, final, t_plan in transition_instances(rng, lin, 6):
        t_oracle = brute_force_min_time(init, final, lin, dt)
        assert t_plan <= t_oracle + 2.0 * dt + 1e-9
        assert t_oracle <= t_plan + 3.0 * dt + 1e-9


def test_nonzero_boundary_accelerations(lin):
    rng = np.random.default_rng(83)
    dt = 0.005
    done = 0
    while done < 3:
        a0, v0 = random_boundary(rng, lin)
        af, vf = random_boundary(rng, lin, outgoing=True)
        init = KinematicState(a0, v0, 0.0)
        dc = critical_length(init, KinematicState(af, vf), lin)
        final = KinematicState(af, vf, dc + float(rng.uniform(-0.03, 0.03)))
        t_plan = plan_min_time_1d(init, final, lin).duration
        if t_plan > 0.8:
            continue
        done += 1
        t_oracle = brute_force_min_time(init, final, lin, dt)
        assert t_plan <= t_oracle + 2.0 * dt + 1e-9


def test_budget_exceeded_is_distinct(lin):
    with pytest.raises(SearchBudgetExceeded):
        brute_force_min_time(KinematicState(0, 0, 0),
                             KinematicState(0, 0, 0.15), lin, 0.005,
                             node_cap=50)


def test_rejects_bad_dt(lin):
    with pytest.raises(ValueError):
        brute_force_min_time(KinematicState(0, 0, 0),
                             KinematicState(0, 0, 0.01), lin, 0.0)


@pytest.mark.parametrize("dt", [-0.01, float("nan"), float("inf")])
def test_rejects_a_non_positive_or_non_finite_dt(lin, dt):
    with pytest.raises(ValueError, match="dt must be > 0"):
        brute_force_min_time(KinematicState(0, 0, 0),
                             KinematicState(0, 0, 0.01), lin, dt)


def test_cell_extremes_match_lexsort_with_ties():
    # The frontier keeps, per cell key, the first least-x and the last
    # greatest-x row of the stable (key, x) order; ties in x and -0.0 must
    # resolve by arrival order exactly as np.lexsort does.
    from softmotion.oracle import _cell_extremes
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        key = (rng.integers(0, 25, n) + (1 << 20)) * (1 << 27)
        x = rng.integers(-3, 4, n).astype(float)
        x[rng.random(n) < 0.2] = -0.0
        order = np.lexsort((x, key))
        ks = key[order]
        first = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
        last = np.r_[first[1:], n] - 1
        expected = order[np.stack([first, last], axis=1).ravel()]
        assert np.array_equal(_cell_extremes(key, x), expected)
