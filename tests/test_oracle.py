import hashlib

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


def lexsort_extremes(key, x):
    """The reference pick: the ends of every key's run in np.lexsort order."""
    order = np.lexsort((x, key))
    ks = key[order]
    first = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    last = np.r_[first[1:], len(ks)] - 1
    return order[np.stack([first, last], axis=1).ravel()]


def every_row(rows):
    """A bound that every row passes."""
    return np.ones(len(rows), dtype=bool)


def random_keys(rng):
    """Up to 400 rows in up to 25 cells, with ties in x and -0.0 against 0.0."""
    n = int(rng.integers(1, 400))
    key = (rng.integers(0, 25, n) + (1 << 20)) * (1 << 27)
    x = rng.integers(-3, 4, n).astype(float)
    x[rng.random(n) < 0.2] = -0.0
    return key, x


def search_rows(rng, wv):
    """Up to 400 (m, v, x) rows keyed as _search keys them: m and the
    velocity bin both varying and negative, at times a sparse bounding box,
    and ties in x including -0.0 against 0.0."""
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
    return m, v, x


def test_cell_extremes_match_lexsort_with_ties():
    # The frontier keeps, per cell key, the first least-x and the last
    # greatest-x row of the stable (key, x) order; ties in x and -0.0 must
    # resolve by arrival order exactly as np.lexsort does.
    from softmotion.oracle import _cell_extremes
    rng = np.random.default_rng(5)
    for _ in range(300):
        key, x = random_keys(rng)
        assert np.array_equal(_cell_extremes(key, x, every_row), lexsort_extremes(key, x))


def test_cell_extremes_match_lexsort_on_search_keys():
    # search keys, plus one row and one cell
    from softmotion.oracle import _cell_extremes, _cell_key
    wv = 0.25 * 0.3 * 0.01
    rng = np.random.default_rng(11)
    cases = [(np.array([-3]), np.array([-0.0101]), np.array([0.25])),
             (np.full(50, -7), np.full(50, -2.4 * wv), rng.integers(-2, 3, 50) * 0.5)]
    cases += [search_rows(rng, wv) for _ in range(300)]
    for m, v, x in cases:
        key = _cell_key(m, v, wv)
        assert np.array_equal(_cell_extremes(key, x, every_row), lexsort_extremes(key, x))


def test_cell_extremes_with_a_bound_match_lexsort_over_the_passing_rows():
    # _cell_extremes tests the bound on each cell's two extremes first, and
    # on a whole cell only where one of them fails; its pick must still be
    # the reference pick over the rows that pass
    from softmotion.oracle import _BLOCK, _cell_extremes, _cell_key
    wv = 0.25 * 0.3 * 0.01
    one = np.int64((1 << 20) * (1 << 27))       # the key of one cell
    cases = [
        # the least row (row 1, first of equals) fails: row 3 ties it
        (np.full(5, one), np.array([3.0, 1.0, 2.0, 1.0, 5.0]), [1, 0, 1, 1, 1]),
        # the greatest row (row 2, last of equals) fails: row 0 ties it
        (np.full(4, one), np.array([5.0, 1.0, 5.0, 2.0]), [1, 1, 0, 1]),
        # both fail, and -0.0 ties 0.0
        (np.full(5, one), np.array([0.0, -0.0, 0.0, -0.0, 0.0]), [0, 1, 1, 1, 0]),
        # every row of the second cell fails; the first keeps its pick
        (np.array([one, one + 1, one, one + 1]), np.array([1.0, 2.0, 3.0, 4.0]),
         [1, 0, 1, 0]),
        # every row fails: an empty pick
        (np.full(3, one), np.array([1.0, 2.0, 3.0]), [0, 0, 0]),
    ]
    rng = np.random.default_rng(13)
    for _ in range(200):
        key, x = random_keys(rng)
        cases.append((key, x, rng.random(len(key)) < rng.choice([0.0, 0.5, 0.9, 1.0])))
    for _ in range(200):
        m, v, x = search_rows(rng, wv)
        cases.append((_cell_key(m, v, wv), x, rng.random(len(m)) < rng.choice([0.5, 0.9])))
    # more rows than a block, so the bound is tested in chunks
    n = 3 * _BLOCK
    m, v = rng.integers(-40, 41, n), rng.uniform(-0.15, 0.15, n)
    cases.append((_cell_key(m, v, wv), rng.integers(-3, 4, n) * 1e-3, rng.random(n) < 0.7))
    for key, x, passes in cases:
        passes = np.asarray(passes, dtype=bool)
        chunks = []

        def keep(rows):
            chunks.append(len(rows))
            return passes[rows]

        ok = np.flatnonzero(passes)
        expected = ok[lexsort_extremes(key[ok], x[ok])] if len(ok) else ok
        assert np.array_equal(_cell_extremes(key, x, keep), expected)
        assert max(chunks) <= _BLOCK


def test_a_layer_that_fails_the_time_bound_ends_the_search(lin, monkeypatch):
    # From rest, 0.1 m/s takes about 0.67 s, so none of the six successors
    # of the first layer fits a 0.05 s horizon: the pick is empty
    from softmotion import oracle
    picks = []
    cell_extremes = oracle._cell_extremes

    def counted(key, x, keep):
        pick = cell_extremes(key, x, keep)
        picks.append((len(key), len(pick)))
        return pick

    monkeypatch.setattr(oracle, "_cell_extremes", counted)
    assert oracle._search(0.0, 0.0, 0.0, 0.1, 0.0, 0.01, 0.05, lin, oracle.NODE_CAP) is None
    assert picks == [(6, 0)]


def test_pinned_frontiers(lin, monkeypatch):
    # Every layer's frontier (m, v, x), hashed as _successors receives it,
    # recorded once: a change to the pruning or to the cell pick that moves
    # one state by one ulp, or reorders a frontier, fails here.
    from softmotion import oracle
    digest = hashlib.sha256()
    successors = oracle._successors

    def hashed(m, v, x, *rest):
        for col in (m, v, x):
            digest.update(col.tobytes())
        return successors(m, v, x, *rest)

    monkeypatch.setattr(oracle, "_successors", hashed)
    rng = np.random.default_rng(31)
    answers = [brute_force_min_time(init, final, lin, dt)
               for (init, final, _), dt in zip(transition_instances(rng, lin, 3),
                                               [0.02, 0.02, 0.01])]
    a0, v0 = random_boundary(rng, lin)
    af, vf = random_boundary(rng, lin, outgoing=True)
    init = KinematicState(a0, v0, 0.0)
    dc = critical_length(init, KinematicState(af, vf), lin)
    final = KinematicState(af, vf, dc + float(rng.uniform(-0.03, 0.03)))
    assert a0 != 0.0 and af != 0.0
    answers += [brute_force_min_time(init, final, lin, dt) for dt in (0.02, 0.01)]
    # a horizon three steps above the answer: the connection-time bound
    # drops about a quarter of the rows it tests
    answers.append(oracle._search(0.0, 0.0, 0.0, 0.0, 0.0144, 0.01, 0.82, lin,
                                  oracle.NODE_CAP))
    assert answers == [0.8200000000000001, 0.64, 0.66, 0.8200000000000001,
                       0.8300000000000001, 0.79]
    assert digest.hexdigest() == ("75eb579340c9495030850c984fc311fa"
                                  "ce02052b4f7ba655b02717df9993d609")


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
