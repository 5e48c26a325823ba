"""Independent brute-force minimal-time verifier.

A layered breadth-first search over the jerk choices {-jmax, 0, +jmax}
applied for fixed dt steps.  Acceleration therefore lives on an exact
lattice; per (acceleration, velocity-bin) cell only the two states with
extreme positions are kept.  Because the reachable set of a linear system
at fixed time is convex, every position between the two retained exact
trajectories is continuously reachable, so the goal test checks whether
the segment between them meets the goal box.  The reported time is the
first k*dt at which that happens.

Tolerances scale with dt (half a jerk step on acceleration, and so on), so
the answer is not a certified bound: at coarse steps it can fall below the
true optimum, and at dt = 10 ms it has answered 3.1 steps below it (0.72 s
against the planned 0.7512 s of a desk-scale transition).

The module is deliberately independent of the planner: its only inputs
are the dynamics and the limits, and its own closed-form stop-and-cruise
bound seeds the search horizon.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SearchBudgetExceeded, SolverFailure
from .profiles import KinematicLimits, KinematicState

#: Active frontier rows allowed before the search gives up.
NODE_CAP = 5_000_000
#: Layers (dt steps) a search pass may plan for; a longer horizon gives up
#: before the pass starts.  The test suite and the benchmark plan at most 469.
LAYER_CAP = 2_000

_PEAK_TOL = 1e-12       # an extreme acceleration this far short of a or af reaches it
_SQUARE_TOL = 1e-15     # a squared extreme acceleration down to -_SQUARE_TOL is zero
_CLAMP_TOL = 1e-9       # a braking step down to -_CLAMP_TOL s long clamps to zero
_LIMIT_SLACK = 1e-12    # a successor may exceed amax and vmax by this much
_BOX_SLACK = 1e-12      # added to each half-width of the goal box in a, v and x
_OVERLAP_TOL = 1e-15    # two parameter ranges on a segment overlap up to this gap
_FLAT = 1e-300          # a segment changing v or x by less than this is flat in it
_NEVER = 1e30           # time of a shape that cannot connect, read back as 0 s


def _connect_time_vec(a, v, af, vf, jm, am):
    """Least time from each (a, v) to (af, vf), position ignored: the faster
    of the up-peak and the down-valley (a, v) connection, 0 where neither
    shape connects."""
    a2 = a * a
    af2 = af * af
    dvf = vf - v
    half = 0.5 * (a2 + af2)
    hold = (2 * am * am - a2 - af2) / (2 * jm)
    s_up = jm * dvf + half
    apk = np.sqrt(np.maximum(s_up, 0.0))
    up_ok = (s_up >= 0.0) & (apk >= a - _PEAK_TOL) & (apk >= af - _PEAK_TOL)
    hold_u = (dvf - hold) / am
    t_up = np.where(apk <= am, (2.0 * apk - a - af) / jm,
                    (2.0 * am - a - af) / jm + np.maximum(hold_u, 0.0))
    s_dn = -jm * dvf + half
    avl = -np.sqrt(np.maximum(s_dn, 0.0))
    dn_ok = (s_dn >= 0.0) & (avl <= a + _PEAK_TOL) & (avl <= af + _PEAK_TOL)
    hold_d = (-dvf - hold) / am     # -(vf - v) is v - vf exactly
    t_dn = np.where(avl >= -am, (a + af - 2.0 * avl) / jm,
                    (a + af + 2.0 * am) / jm + np.maximum(hold_d, 0.0))
    t = np.minimum(np.where(up_ok, t_up, _NEVER), np.where(dn_ok, t_dn, _NEVER))
    return np.where(t >= _NEVER, 0.0, np.maximum(t, 0.0))


def _stop_time_sweep(a: float, v: float, jm: float, am: float) -> tuple[float, float]:
    """Time and swept distance of the minimal braking motion to (0, 0)."""
    best: tuple[float, float] | None = None
    for sgn in (1.0, -1.0):   # jerk sign of the first arc
        s = -sgn * jm * v + 0.5 * a * a
        if s < -_SQUARE_TOL:
            continue
        ext = sgn * math.sqrt(max(s, 0.0))
        if sgn > 0 and ext < max(a, 0.0) - _PEAK_TOL:
            continue
        if sgn < 0 and ext > min(a, 0.0) + _PEAK_TOL:
            continue
        if abs(ext) <= am:
            steps = ((sgn * jm, (ext - a) / (sgn * jm)),
                     (-sgn * jm, ext / (sgn * jm)))
        else:
            ext_c = sgn * am
            hold = (-v - (2 * am * am - a * a) / (2 * sgn * jm)) / ext_c
            steps = ((sgn * jm, (ext_c - a) / (sgn * jm)), (0.0, hold),
                     (-sgn * jm, ext_c / (sgn * jm)))
        if any(d < -_CLAMP_TOL for _, d in steps):
            continue
        aa, vv, xx = a, v, 0.0
        total = 0.0
        for jerk, dur in steps:
            dur = max(dur, 0.0)
            xx += vv * dur + 0.5 * aa * dur * dur + jerk * dur ** 3 / 6.0
            vv += aa * dur + 0.5 * jerk * dur * dur
            aa += jerk * dur
            total += dur
        if best is None or total < best[0]:
            best = (total, xx)
    if best is None:   # boundary states beyond the limits; crude but safe
        best = (2.0 * (am / jm + abs(v) / am), v * (am / jm + abs(v) / am))
    return best


def _segment_meets_box(v1, x1, v2, x2, vf, xf, tol_v, tol_x) -> bool:
    dv = v2 - v1
    dx = x2 - x1
    sv = np.where(np.abs(dv) < _FLAT, _FLAT, dv)
    sx = np.where(np.abs(dx) < _FLAT, _FLAT, dx)
    l1 = (vf - tol_v - v1) / sv
    l2 = (vf + tol_v - v1) / sv
    lov, hiv = np.minimum(l1, l2), np.maximum(l1, l2)
    flat = np.abs(dv) < _FLAT
    okf = np.abs(v1 - vf) <= tol_v
    lov = np.where(flat, np.where(okf, 0.0, 1.0), lov)
    hiv = np.where(flat, np.where(okf, 1.0, 0.0), hiv)
    m1 = (xf - tol_x - x1) / sx
    m2 = (xf + tol_x - x1) / sx
    lox, hix = np.minimum(m1, m2), np.maximum(m1, m2)
    flat = np.abs(dx) < _FLAT
    okf = np.abs(x1 - xf) <= tol_x
    lox = np.where(flat, np.where(okf, 0.0, 1.0), lox)
    hix = np.where(flat, np.where(okf, 1.0, 0.0), hix)
    lo = np.maximum(np.maximum(lov, lox), 0.0)
    hi = np.minimum(np.minimum(hiv, hix), 1.0)
    return bool((lo <= hi + _OVERLAP_TOL).any())


#: Rows per block in _successors.  Each _connect_time_vec call has a fixed
#: cost, so smaller blocks lose: one oracle_verify round (seed 1, one 2-CPU
#: x86-64 machine) took 1.90 s at 2048 rows, 1.60 s at 4096, 1.41 s at 8192
#: and 1.40 s at 16384.
_BLOCK = 8192


def _successors(m, v, x, a, t_next, a0, qa, af, vf, D, dt, t_ub, limits,
                xlo_b, xhi_b, tol_x):
    """Successor rows that stay inside the limits and the box and whose
    optimistic time to go still fits the horizon: first every row's
    -jmax successor, then its 0 and then its +jmax successor.

    A row passes when t_next + max(connect time - 2*dt, distance / vmax)
    <= t_ub.  Rounded addition is monotone, so that equals both bounds
    passing on their own, which is how it is tested here.
    """
    jm, am, vm = limits.jmax, limits.amax, limits.vmax
    dv = 0.5 * jm * dt * dt
    d6 = jm * dt ** 3 / 6.0
    kept = ([], [], [])     # (m, v, x) of each block, per jerk choice
    for s in range(0, len(m), _BLOCK):
        blk = slice(s, s + _BLOCK)
        mp, vp, xp, ap = m[blk], v[blk], x[blk], a[blk]
        v_drift = vp + ap * dt
        x_drift = xp + (vp * dt + 0.5 * ap * dt * dt)
        for step in (-1, 0, 1):
            m2 = mp + step
            v2 = v_drift + step * dv if step else v_drift
            x2 = x_drift + step * d6 if step else x_drift
            a2 = a0 + m2 * qa
            xgap = np.maximum(np.abs(D - x2) - tol_x, 0.0)
            keep = ((np.abs(a2) <= am + _LIMIT_SLACK) & (np.abs(v2) <= vm + _LIMIT_SLACK)
                    & (x2 >= xlo_b) & (x2 <= xhi_b)
                    & (t_next + xgap / vm <= t_ub)
                    & (t_next + (_connect_time_vec(a2, v2, af, vf, jm, am) - 2 * dt)
                       <= t_ub))
            kept[step + 1].append((m2[keep], v2[keep], x2[keep]))
    # every -jmax row first, then every 0 row, then every +jmax row
    return tuple(np.concatenate(col) for col in zip(*kept[0], *kept[1], *kept[2]))


def _cell_key(m, v, wv):
    """Key of the (acceleration index, velocity bin of width wv) cell of
    each row: m + 2**20 above bit 27, the bin + 2**26 below it."""
    vb = np.floor(v / wv).astype(np.int64)
    return (m + (1 << 20)) * (1 << 27) + (vb + (1 << 26))


def _cell_extremes(key, x):
    """Indices of the least-x row (first of equals) and the greatest-x row
    (last of equals) of every key, in key order, each pair as (least, greatest).

    A key packs the acceleration index above bit 27 and the velocity bin
    below it.  Numbered row by row, the cells of the bounding box of the
    occupied (index, bin) pairs keep key order.  Four scatters over that
    box (np.minimum.at, np.maximum.at) take each cell's least and greatest
    x, then the first row at its least and the last row at its greatest:
    linear in the rows and the box, with no sort.  -0.0 == 0.0, so ties
    between them resolve by arrival order too, as in np.lexsort((x, key)).
    """
    m = key >> 27
    vb = key & ((1 << 27) - 1)
    m_lo, vb_lo = m.min(), vb.min()
    width = vb.max() - vb_lo + 1
    cell = (m - m_lo) * width + (vb - vb_lo)
    size = (m.max() - m_lo + 1) * width
    lo = np.full(size, np.inf)
    hi = np.full(size, -np.inf)
    np.minimum.at(lo, cell, x)
    np.maximum.at(hi, cell, x)
    n = len(key)
    rows = np.arange(n)
    first = np.full(size, n)
    last = np.full(size, -1)
    np.minimum.at(first, cell, np.where(x == lo[cell], rows, n))
    np.maximum.at(last, cell, np.where(x == hi[cell], rows, -1))
    occupied = np.flatnonzero(first < n)
    return np.stack([first[occupied], last[occupied]], axis=1).ravel()


def _search(a0, v0, af, vf, D, dt, t_ub, limits, node_cap):
    jm, am, vm = limits.jmax, limits.amax, limits.vmax
    qa = jm * dt
    wv = 0.25 * am * dt
    tol_a = 0.5 * jm * dt + _BOX_SLACK
    tol_v = 0.5 * am * dt + _BOX_SLACK
    tol_x = 0.5 * vm * dt + _BOX_SLACK
    margin = vm * (vm / am + am / jm) / 2 + 0.15 * vm
    xlo_b, xhi_b = min(0.0, D) - margin, max(0.0, D) + margin
    k_max = int(math.ceil(t_ub / dt)) + 2
    if k_max > LAYER_CAP:
        raise SearchBudgetExceeded(
            f"oracle horizon of {k_max} steps exceeds the layer cap {LAYER_CAP}")

    m = np.zeros(2, dtype=np.int64)
    v = np.array([v0, v0])
    x = np.array([0.0, 0.0])
    for k in range(k_max):
        a = a0 + m * qa
        cand = (np.abs(a - af) <= tol_a) & (np.abs(v - vf) <= tol_v + 2 * wv)
        cpair = cand[0::2] | cand[1::2]
        if cpair.any():
            i = np.flatnonzero(cpair)
            if _segment_meets_box(v[2 * i], x[2 * i], v[2 * i + 1], x[2 * i + 1],
                                  vf, D, tol_v, tol_x):
                return k * dt
        m2, v2, x2 = _successors(m, v, x, a, (k + 1) * dt, a0, qa, af, vf, D, dt,
                                 t_ub, limits, xlo_b, xhi_b, tol_x)
        if len(m2) == 0:
            return None
        pick = _cell_extremes(_cell_key(m2, v2, wv), x2)
        m, v, x = m2[pick], v2[pick], x2[pick]
        if len(m) > node_cap:
            raise SearchBudgetExceeded(
                f"oracle frontier {len(m)} exceeds the node cap {node_cap}")
    return None


def brute_force_min_time(init: KinematicState, final: KinematicState,
                         limits: KinematicLimits, dt: float,
                         node_cap: int = NODE_CAP) -> float:
    """Smallest k*dt at which the quantized system reaches the goal box.

    The displacement is final.x - init.x.  A cheap coarse pass (larger
    step) first tightens the search horizon; the fine pass then prunes
    every state whose optimistic time to go overshoots it.  Desk-scale
    instances only: a displacement beyond LAYER_CAP (2 000) steps at vmax,
    a pass whose horizon spans more than LAYER_CAP steps of its dt, or a
    frontier past the node cap raises SearchBudgetExceeded, which is
    distinct from plain infeasibility, and finding no trajectory within the
    widened horizon raises SolverFailure.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be > 0")
    jm, am, vm = limits.jmax, limits.amax, limits.vmax
    a0, v0 = init.a, init.v
    af, vf = final.a, final.v
    D = final.x - init.x
    if abs(D) > LAYER_CAP * vm * dt:
        # even at vmax no pass within the cap reaches D: refuse before the
        # coarse pass, whose step would grow with D
        raise SearchBudgetExceeded(
            f"oracle displacement {D} takes more steps than the layer cap {LAYER_CAP}")
    ts0, s0 = _stop_time_sweep(a0, v0, jm, am)
    tsf, sf = _stop_time_sweep(-af, vf, jm, am)
    t_ub0 = ts0 + tsf + abs(D - s0 - sf) / vm + 2.0 * (vm / am + am / jm)
    dt_c = max(dt, t_ub0 / 120.0)
    if dt_c > dt * 1.5:
        t_c = _search(a0, v0, af, vf, D, dt_c, t_ub0 + 10 * dt_c, limits, node_cap)
        t_ub = (t_c + 10.0 * dt_c + 4.0 * dt) if t_c is not None else (t_ub0 + 10 * dt_c)
    else:
        t_ub = t_ub0 + 10 * dt
    t = _search(a0, v0, af, vf, D, dt, t_ub, limits, node_cap)
    if t is None:
        t = _search(a0, v0, af, vf, D, dt, 2.0 * t_ub + 0.5, limits, node_cap)
    if t is None:
        raise SolverFailure("oracle found no trajectory within its horizon")
    return t
