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

_PEAK_TOL = 1e-12       # an extreme acceleration this far short of a or af reaches it
_SQUARE_TOL = 1e-15     # a squared extreme acceleration down to -_SQUARE_TOL is zero
_CLAMP_TOL = 1e-9       # a braking step down to -_CLAMP_TOL s long clamps to zero
_LIMIT_SLACK = 1e-12    # a successor may exceed amax and vmax by this much
_BOX_SLACK = 1e-12      # added to each half-width of the goal box in a, v and x
_OVERLAP_TOL = 1e-15    # two parameter ranges on a segment overlap up to this gap
_FLAT = 1e-300          # a segment changing v or x by less than this is flat in it
_NEVER = 1e30           # time of a shape that cannot connect, read back as 0 s


def _connect_time_vec(a, v, af, vf, jm, am):
    a2 = a * a
    af2 = af * af
    s_up = jm * (vf - v) + 0.5 * (a2 + af2)
    apk = np.sqrt(np.maximum(s_up, 0.0))
    up_ok = (s_up >= 0.0) & (apk >= a - _PEAK_TOL) & (apk >= af - _PEAK_TOL)
    hold_u = ((vf - v) - (2 * am * am - a2 - af2) / (2 * jm)) / am
    t_up = np.where(apk <= am, (2.0 * apk - a - af) / jm,
                    (2.0 * am - a - af) / jm + np.maximum(hold_u, 0.0))
    s_dn = -jm * (vf - v) + 0.5 * (a2 + af2)
    avl = -np.sqrt(np.maximum(s_dn, 0.0))
    dn_ok = (s_dn >= 0.0) & (avl <= a + _PEAK_TOL) & (avl <= af + _PEAK_TOL)
    hold_d = ((v - vf) - (2 * am * am - a2 - af2) / (2 * jm)) / am
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


#: Rows per block in _successors: short enough that the many temporaries
#: of _connect_time_vec stay in cache.
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
    out_m, out_v, out_x = [], [], []
    for step in (-1, 0, 1):
        for s in range(0, len(m), _BLOCK):
            blk = slice(s, s + _BLOCK)
            mp, vp, xp, ap = m[blk], v[blk], x[blk], a[blk]
            m2 = mp + step
            v2 = vp + ap * dt
            x2 = xp + (vp * dt + 0.5 * ap * dt * dt)
            if step:
                v2 += step * dv
                x2 += step * d6
            a2 = a0 + m2 * qa
            xgap = np.maximum(np.abs(D - x2) - tol_x, 0.0)
            keep = ((np.abs(a2) <= am + _LIMIT_SLACK) & (np.abs(v2) <= vm + _LIMIT_SLACK)
                    & (x2 >= xlo_b) & (x2 <= xhi_b)
                    & (t_next + xgap / vm <= t_ub)
                    & (t_next + (_connect_time_vec(a2, v2, af, vf, jm, am) - 2 * dt)
                       <= t_ub))
            out_m.append(m2[keep])
            out_v.append(v2[keep])
            out_x.append(x2[keep])
    return np.concatenate(out_m), np.concatenate(out_v), np.concatenate(out_x)


def _cell_extremes(key, x):
    """Indices of the least-x row (first of equals) and the greatest-x row
    (last of equals) of every key, in key order, each pair as (least, greatest).

    Complex numbers sort by real part, then imaginary part, so one stable
    sort of key + 1j*x orders the rows exactly as np.lexsort((x, key)) but
    faster: the rows arrive as three nearly key-sorted runs.  The key stays
    below 2**53, so it is exact as a float.
    """
    z = np.empty(len(key), dtype=np.complex128)
    z.real = key
    z.imag = x
    order = np.argsort(z, kind="stable")
    ks = key[order]
    first = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    last = np.r_[first[1:], len(ks)] - 1
    return order[np.stack([first, last], axis=1).ravel()]


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
        vb = np.floor(v2 / wv).astype(np.int64)
        key = (m2 + (1 << 20)) * (1 << 27) + (vb + (1 << 26))
        pick = _cell_extremes(key, x2)
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
    instances only; exceeding the node cap raises SearchBudgetExceeded,
    which is distinct from plain infeasibility, and finding no trajectory
    within the widened horizon raises SolverFailure.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be > 0")
    jm, am, vm = limits.jmax, limits.amax, limits.vmax
    a0, v0 = init.a, init.v
    af, vf = final.a, final.v
    D = final.x - init.x
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
