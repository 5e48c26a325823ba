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


@pytest.mark.parametrize("D, dt, match", [
    (5.0, 0.01, "displacement"),      # 3 334 steps at vmax; 3 794 to plan
    (1e150, 0.01, "displacement"),    # its coarse step would overflow
    (0.0144, 0.0004, "horizon"),      # the fine pass would plan 2 320 steps
])
def test_layer_budget_fails_before_the_search(lin, D, dt, match):
    from softmotion.oracle import LAYER_CAP
    assert LAYER_CAP == 2000
    with pytest.raises(SearchBudgetExceeded, match=f"{match}.*layer cap"):
        brute_force_min_time(KinematicState(0, 0, 0),
                             KinematicState(0, 0, D), lin, dt)


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


def lexsort_extremes(key, x):
    """The reference pick: the ends of every key's run in np.lexsort order."""
    order = np.lexsort((x, key))
    ks = key[order]
    first = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    last = np.r_[first[1:], len(ks)] - 1
    return order[np.stack([first, last], axis=1).ravel()]


def test_cell_extremes_match_lexsort_on_search_keys():
    # keys built as _search builds them, with m and the velocity bin both
    # varying and negative, sparse bounding boxes, one row, one cell, and
    # ties in x including -0.0 against 0.0
    from softmotion.oracle import _cell_extremes, _cell_key
    wv = 0.25 * 0.3 * 0.01
    rng = np.random.default_rng(11)
    cases = [(np.array([-3]), np.array([-0.0101]), np.array([0.25])),
             (np.full(50, -7), np.full(50, -2.4 * wv), rng.integers(-2, 3, 50) * 0.5)]
    for _ in range(300):
        n = int(rng.integers(1, 400))
        if rng.random() < 0.2:      # a few cells far apart: a sparse box
            m = rng.choice([-200, -3, 150], n)
            v = rng.choice([-1000.5, 0.5, 999.5], n) * wv
        else:
            m = rng.integers(-40, 41, n)
            v = rng.uniform(-0.15, 0.15, n) * float(rng.choice([0.02, 1.0]))
        x = rng.integers(-3, 4, n) * 1e-3
        x[rng.random(n) < 0.2] = -0.0
        x[rng.random(n) < 0.2] = 0.0
        cases.append((m, v, x))
    for m, v, x in cases:
        key = _cell_key(m, v, wv)
        assert np.array_equal(_cell_extremes(key, x), lexsort_extremes(key, x))


def test_pinned_answers(lin):
    # Answers recorded once; any change to the search that moves one of them
    # by a single step, or by one ulp, fails here.
    rng = np.random.default_rng(31)
    dts = [0.01] * 8 + [0.005] * 2
    answers = [brute_force_min_time(init, final, lin, dt)
               for (init, final, _), dt in zip(transition_instances(rng, lin, 10), dts)]
    a0, v0 = random_boundary(rng, lin)
    af, vf = random_boundary(rng, lin, outgoing=True)
    init = KinematicState(a0, v0, 0.0)
    dc = critical_length(init, KinematicState(af, vf), lin)
    final = KinematicState(af, vf, dc + float(rng.uniform(-0.03, 0.03)))
    assert a0 != 0.0 and af != 0.0
    answers.append(brute_force_min_time(init, final, lin, 0.01))
    assert answers == [0.8300000000000001, 0.63, 0.66, 0.42, 0.78, 0.71, 0.87, 0.76,
                       0.805, 0.765, 0.96]
