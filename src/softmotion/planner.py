"""Minimal-time single-axis planning for arbitrary boundary accelerations
and velocities.

The planner works in the acceleration-velocity plane.  Saturated-jerk
evolutions are parabolas there, acceleration plateaus are vertical lines,
and a cruise is a point on the a = 0 axis.  Two facts organize everything:

* The *direct connection* of two (a, v) states (bang-bang jerk with at
  most one acceleration plateau) sweeps a specific displacement, the
  critical length dc.  It is the unique minimal-time motion when the
  requested displacement equals dc.

* Every other motion is built from the type-1 templates: jerk sign
  pattern [+J, 0, -J, 0, -J, 0, +J], any subset of which may collapse, or
  that pattern mirrored (everything negated, odd symmetry).  The critical
  length only picks which is tried first: type 1 above dc, the mirrored
  (type-2) templates below.  The other side is tried when none of the
  first side's candidates is valid, since some problems above dc are
  solved fastest by a down-up-down motion.

A type-1 solution either cruises at +vmax (both ramps are direct
connections, cruise time from the leftover distance) or peaks below vmax.
The peak case is solved by enumerating which plateaus are present and
reducing each template to a single-unknown polynomial: quadratic and
quartic for the plateau cases, and for the plateau-free case a quartic
arising from the intersection of three parabolas.  Real roots come from
solve_real_roots, ascending and distinct (none for an all-zero
polynomial); every candidate is polished, then checked once on its step
durations, |a|, |v| and both boundary states, and the fastest valid one
wins.
"""
from __future__ import annotations

import enum
import math

from .errors import InfeasibleBoundary, SolverFailure
from .profiles import (AxisProfile, KinematicLimits, KinematicState,
                       integrate_segment, make_profile)
from .roots import padd, pmul, pscale, solve_real_roots

__all__ = [
    "CLAMP_TOL", "MotionType", "Steps", "connect_steps", "critical_length",
    "classify", "mirror_problem", "plan_min_time_1d", "steps_duration",
    "sweep",
]

CLAMP_TOL = 1e-9         # durations above -CLAMP_TOL are clamped to zero
_BC_TOL = 1e-9           # boundary reproduction tolerance in a, v, x
_CRITICAL_TOL = 1e-12    # |D - dc| up to which the direct connection is the plan


class MotionType(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    CRITICAL = "critical"


Steps = list[tuple[float, float]]     # (jerk, duration) runs


def sweep(steps: Steps, a0: float, v0: float) -> tuple[float, float, float]:
    """Final (a, v, x) of the steps run from (a0, v0) at x = 0."""
    st = KinematicState(a0, v0, 0.0)
    for jerk, dur in steps:
        st = integrate_segment(st, jerk, max(dur, 0.0))
    return st.a, st.v, st.x


def steps_duration(steps: Steps) -> float:
    """Total duration of the steps, negative durations counted as zero."""
    # summed left to right on every Python version (sum() of floats is
    # compensated from 3.12 on), as the array form in adjust also sums
    total = 0.0
    for _, t in steps:
        total += max(t, 0.0)
    return total


def check_boundary_state(state: KinematicState, limits: KinematicLimits,
                         outgoing: bool) -> None:
    """Reject states the planner cannot serve without breaking a bound.

    Besides |a| <= amax and |v| <= vmax, a state with nonzero acceleration
    commits the axis to a velocity excursion of a*|a|/(2*jmax) before the
    acceleration can be wound back to zero; if that excursion overshoots
    vmax the state is intrinsically infeasible.  For the final state the
    same argument applies backward in time (acceleration sign flipped).
    """
    a, v = state.a, state.v
    j, am, vm = limits.jmax, limits.amax, limits.vmax
    if abs(a) > am + _BC_TOL:
        raise InfeasibleBoundary(f"|a|={abs(a)} exceeds amax={am}")
    if abs(v) > vm + _BC_TOL:
        raise InfeasibleBoundary(f"|v|={abs(v)} exceeds vmax={vm}")
    a_eff = -a if outgoing else a
    excursion = v + a_eff * abs(a_eff) / (2.0 * j)
    if excursion > vm + _BC_TOL or excursion < -vm - _BC_TOL:
        raise InfeasibleBoundary(
            f"state (a={a}, v={v}) forces velocity to {excursion}, beyond vmax={vm}")


def connect_steps(a0: float, v0: float, af: float, vf: float,
                  limits: KinematicLimits) -> Steps:
    """Minimal-time phase-plane connection of (a0,v0) to (af,vf); x is free.

    Bang-bang with a single switch: jerk +J up to a peak acceleration then
    -J down (clamped at +amax with a plateau), or the mirrored down-up
    shape.  At most one of the two shapes is valid away from degeneracy.
    """
    j, am = limits.jmax, limits.amax
    cands: list[Steps] = []
    half_sq = 0.5 * (a0 * a0 + af * af)
    for s in (1.0, -1.0):
        # jerk s*J out to the extreme acceleration s*r, then -s*J back to af;
        # written with s*x - s*y, which is y - x bit for bit (signed zeros too)
        sq = s * j * (vf - v0) + half_sq
        if sq >= -1e-15:
            r = math.sqrt(max(sq, 0.0))
            sa0, saf = s * a0, s * af
            if r >= sa0 - 1e-12 and r >= saf - 1e-12:
                if r <= am:
                    cands.append([(s * j, (r - sa0) / j), (-s * j, (r - saf) / j)])
                else:      # clamped at s*amax with a plateau
                    hold = ((s * vf - s * v0)
                            - (2 * am * am - a0 * a0 - af * af) / (2 * j)) / am
                    cands.append([(s * j, (am - sa0) / j), (0.0, hold),
                                  (-s * j, (am - saf) / j)])
    best: Steps | None = None
    for steps in cands:
        if any(t < -CLAMP_TOL for _, t in steps):
            continue
        steps = [(jj, max(t, 0.0)) for jj, t in steps]
        if best is None or steps_duration(steps) < steps_duration(best):
            best = steps
    if best is None:
        raise InfeasibleBoundary(
            f"no phase-plane connection from (a={a0}, v={v0}) to (a={af}, v={vf})")
    return best


def critical_length(init: KinematicState, final: KinematicState,
                    limits: KinematicLimits) -> float:
    """Displacement swept by the minimal-time direct (a, v) connection.

    This value of xf - x0 is the boundary between type-1 and type-2
    motions; position fields of the inputs are ignored.
    """
    check_boundary_state(init, limits, outgoing=False)
    check_boundary_state(final, limits, outgoing=True)
    steps = connect_steps(init.a, init.v, final.a, final.v, limits)
    return sweep(steps, init.a, init.v)[2]


def classify(init: KinematicState, final: KinematicState, displacement: float,
             limits: KinematicLimits) -> MotionType:
    """Type-1 above the critical length, type-2 below, critical at it.

    The class names the templates the planner tries first, not always the
    shape of the plan it returns.
    """
    dc = critical_length(init, final, limits)
    if abs(displacement - dc) <= _CRITICAL_TOL:
        return MotionType.CRITICAL
    return MotionType.TYPE1 if displacement > dc else MotionType.TYPE2


def mirror_problem(init: KinematicState, final: KinematicState,
                   displacement: float) -> tuple[KinematicState, KinematicState, float]:
    """Odd symmetry: negate both states and the displacement.

    Solving the mirrored problem and flipping every jerk sign solves the
    original, which turns any type-2 problem into a type-1 problem.
    The mapping is an involution.
    """
    neg = lambda s: KinematicState(-s.a, -s.v, -s.x)
    return neg(init), neg(final), -displacement


# ---------------------------------------------------------------------------
# type-1 template solving
# ---------------------------------------------------------------------------

def _arc_poly(a_in: list[float], a_out: list[float], v_in: list[float],
              x_in: list[float], jerk: float) -> tuple[list[float], list[float]]:
    """Velocity/position polynomials after a jerk arc from a_in to a_out."""
    t = pscale(padd(a_out, pscale(a_in, -1.0)), 1.0 / jerk)
    dv = pscale(padd(pmul(a_out, a_out), pscale(pmul(a_in, a_in), -1.0)),
                1.0 / (2.0 * jerk))
    dx = padd(pmul(v_in, t),
              pmul(pmul(t, t), pscale(padd(pscale(a_in, 2.0), a_out), 1.0 / 6.0)))
    return padd(v_in, dv), padd(x_in, dx)


def _hold_poly(a: list[float], t: list[float], v_in: list[float],
               x_in: list[float]) -> tuple[list[float], list[float]]:
    dv = pmul(a, t)
    dx = padd(pmul(v_in, t), pscale(pmul(a, pmul(t, t)), 0.5))
    return padd(v_in, dv), padd(x_in, dx)


def _type1_candidates(a0: float, v0: float, af: float, vf: float, D: float,
                      limits: KinematicLimits) -> list["_Candidate"]:
    """Every type-1 template solution for displacement D > critical length.

    Each candidate carries its defining scalar so it can be re-built
    exactly; the velocity balance is enforced by construction for every
    value of that scalar, which is what makes later polishing safe.
    """
    j, am, vm = limits.jmax, limits.amax, limits.vmax
    out: list[_Candidate] = []
    u = [0.0, 1.0]

    # cruise at +vmax: two direct connections joined by a constant-velocity run
    try:
        r1 = connect_steps(a0, v0, 0.0, vm, limits)
        r2 = connect_steps(0.0, vm, af, vf, limits)
        s1 = sweep(r1, a0, v0)[2]
        s2 = sweep(r2, 0.0, vm)[2]
        t_cruise = (D - s1 - s2) / vm
        if t_cruise >= -CLAMP_TOL:
            rebuild = lambda tc, r1=r1, r2=r2: r1 + [(0.0, max(tc, 0.0))] + r2
            out.append(_Candidate(rebuild, t_cruise))
    except InfeasibleBoundary:
        pass

    # B1: plateaus at +amax and -amax; unknown u = first plateau time,
    # second plateau time is u + delta by velocity balance.
    delta = ((af * af - a0 * a0) / (2.0 * j) - (vf - v0)) / am
    v1 = [v0 + (am * am - a0 * a0) / (2.0 * j)]
    x1 = [sweep([(j, (am - a0) / j)], a0, v0)[2]]
    v2, x2 = _hold_poly([am], u, v1, x1)
    v3, x3 = _arc_poly([am], [-am], v2, x2, -j)
    v4, x4 = _hold_poly([-am], padd(u, [delta]), v3, x3)
    _, x5 = _arc_poly([-am], [af], v4, x4, j)

    def rebuild_b1(t2: float) -> Steps:
        return [(j, (am - a0) / j), (0.0, max(t2, 0.0)), (-j, 2.0 * am / j),
                (0.0, max(t2 + delta, 0.0)), (j, (af + am) / j)]

    for r in solve_real_roots(padd(x5, [-D])):
        if r < -CLAMP_TOL or r + delta < -CLAMP_TOL:
            continue
        out.append(_Candidate(rebuild_b1, r))

    # B2: plateau at +amax only; unknown u = valley acceleration a2,
    # plateau time follows from velocity balance (quadratic in u).
    c20 = (vf - v0 - (2.0 * am * am - a0 * a0 + af * af) / (2.0 * j)) / am
    t2p = padd([c20], pscale(pmul(u, u), 1.0 / (j * am)))
    v2, x2 = _hold_poly([am], t2p, v1, x1)
    v3, x3 = _arc_poly([am], u, v2, x2, -j)
    _, x4 = _arc_poly(u, [af], v3, x3, j)

    def rebuild_b2(a2: float) -> Steps:
        return [(j, (am - a0) / j), (0.0, max(c20 + a2 * a2 / (j * am), 0.0)),
                (-j, (am - a2) / j), (j, (af - a2) / j)]

    for r in solve_real_roots(padd(x4, [-D])):
        t2 = c20 + r * r / (j * am)
        if t2 < -CLAMP_TOL or r < -am - 1e-12 or r > min(af, am) + 1e-12:
            continue
        out.append(_Candidate(rebuild_b2, r))

    # B3: plateau at -amax only; unknown u = peak acceleration a1.
    c60 = ((af * af - a0 * a0 - 2.0 * am * am) / (2.0 * j) - (vf - v0)) / am
    t6p = padd([c60], pscale(pmul(u, u), 1.0 / (j * am)))
    v1p, x1p = _arc_poly([a0], u, [v0], [0.0], j)
    v2, x2 = _arc_poly(u, [-am], v1p, x1p, -j)
    v3, x3 = _hold_poly([-am], t6p, v2, x2)
    _, x4 = _arc_poly([-am], [af], v3, x3, j)

    def rebuild_b3(a1: float) -> Steps:
        return [(j, (a1 - a0) / j), (-j, (a1 + am) / j),
                (0.0, max(c60 + a1 * a1 / (j * am), 0.0)), (j, (af + am) / j)]

    for r in solve_real_roots(padd(x4, [-D])):
        t6 = c60 + r * r / (j * am)
        if t6 < -CLAMP_TOL or r > am + 1e-12 or r < max(a0, -am) - 1e-12:
            continue
        out.append(_Candidate(rebuild_b3, r))

    # B4: no plateaus; three parabolic arcs.  With u the peak acceleration,
    # velocity balance ties the valley to a2^2 = u^2 + K, and eliminating
    # the square root turns the displacement equation into a degree-six
    # polynomial (E - D)^2 = (u^2 + K) F^2.  Its two leading coefficients
    # cancel structurally (E and F share 1/J^2-scaled tops), so only the
    # quartic H[:5] is solved; their rounding residue would skew the roots.
    K = j * (v0 - vf) + 0.5 * (af * af - a0 * a0)
    v1p, x1p = _arc_poly([a0], u, [v0], [0.0], j)
    c = [x1p, [0.0], [0.0], [0.0]]     # position as sum c[k](u) * a2^k

    def acc(k: int, p: list[float]) -> None:
        c[k] = padd(c[k], p)

    u2 = pmul(u, u)
    u3 = pmul(u2, u)
    # middle arc u -> a2 at -J: dx = v1*(u - a2)/J + (u - a2)^2 (2u + a2)/(6 J^2)
    # and (u - a2)^2 (2u + a2) expands to 2u^3 - 3u^2 a2 + a2^3
    acc(0, pscale(pmul(v1p, u), 1.0 / j))
    acc(1, pscale(v1p, -1.0 / j))
    acc(0, pscale(u3, 2.0 / (6.0 * j * j)))
    acc(1, pscale(u2, -3.0 / (6.0 * j * j)))
    acc(3, [1.0 / (6.0 * j * j)])
    # velocity entering the last arc: v2 = v1 + u^2/(2J) - a2^2/(2J)
    v2_0 = padd(v1p, pscale(u2, 1.0 / (2.0 * j)))
    v2_2 = [-1.0 / (2.0 * j)]
    # last arc a2 -> af at +J: dx = v2*(af - a2)/J + (af - a2)^2 (2 a2 + af)/(6 J^2)
    # and (af - a2)^2 (2 a2 + af) expands to af^3 - 3 af a2^2 + 2 a2^3
    acc(0, pscale(v2_0, af / j))
    acc(1, pscale(v2_0, -1.0 / j))
    acc(2, pscale(v2_2, af / j))
    acc(3, pscale(v2_2, -1.0 / j))
    acc(0, [af ** 3 / (6.0 * j * j)])
    acc(2, [-3.0 * af / (6.0 * j * j)])
    acc(3, [2.0 / (6.0 * j * j)])
    w = padd(u2, [K])                 # a2^2 reduced
    E = padd(c[0], pmul(c[2], w))
    F = padd(c[1], pmul(c[3], w))
    EmD = padd(E, [-D])
    H = padd(pmul(EmD, EmD), pscale(pmul(w, pmul(F, F)), -1.0))

    def make_rebuild_b4(sign: float):
        def rebuild(a1: float) -> Steps:
            a2 = sign * math.sqrt(max(a1 * a1 + K, 0.0))
            return [(j, max((a1 - a0) / j, 0.0)), (-j, max((a1 - a2) / j, 0.0)),
                    (j, max((af - a2) / j, 0.0))]
        return rebuild

    for r in solve_real_roots(H[:5]):
        s2v = r * r + K
        if s2v < -1e-12:
            continue
        s = math.sqrt(max(s2v, 0.0))
        for a2 in (-s, s):
            t1 = (r - a0) / j
            t3 = (r - a2) / j
            t5 = (af - a2) / j
            if min(t1, t3, t5) < -CLAMP_TOL:
                continue
            if r > am + 1e-12 or a2 < -am - 1e-12:
                continue
            out.append(_Candidate(make_rebuild_b4(1.0 if a2 >= 0.0 else -1.0), r))
    return out


class _Candidate:
    """A template solution: rebuild(u) regenerates the steps for any u."""

    __slots__ = ("rebuild", "u")

    def __init__(self, rebuild, u: float) -> None:
        self.rebuild = rebuild
        self.u = u

    def steps(self) -> Steps:
        return self.rebuild(self.u)


def _refine_candidate(cand: _Candidate, a0: float, v0: float, D: float) -> Steps:
    """Polish the candidate's defining scalar against the exact sweep.

    The template polynomials locate u to ~1e-10 relative; a few secant
    iterations on the closed-form displacement map push the residual to
    double-precision rounding.  Every rebuild keeps the velocity balance,
    so only the displacement needs polishing.
    """
    scale = max(1.0, abs(D))

    def resid(uu: float) -> float:
        return sweep(cand.rebuild(uu), a0, v0)[2] - D

    u0, u1 = cand.u, cand.u
    f0 = resid(u0)
    if abs(f0) < 1e-15 * scale:
        return cand.rebuild(u0)
    u1 = u0 + max(1e-9, 1e-7 * abs(u0))
    f1 = resid(u1)
    best_u, best_f = (u0, abs(f0)) if abs(f0) < abs(f1) else (u1, abs(f1))
    for _ in range(60):
        if f1 == f0:
            break
        u2 = u1 - f1 * (u1 - u0) / (f1 - f0)
        if not math.isfinite(u2):
            break
        u0, f0 = u1, f1
        u1 = u2
        f1 = resid(u1)
        if abs(f1) < best_f:
            best_u, best_f = u1, abs(f1)
        if abs(f1) < 1e-16 * scale:
            break
    return cand.rebuild(best_u)


def _admissible(steps: Steps, a0: float, v0: float, af: float, vf: float,
                D: float, limits: KinematicLimits) -> bool:
    """True when the steps keep every bound and reach (af, vf, D).

    The one screen of every candidate: no step below -CLAMP_TOL, |a| and |v|
    within amax and vmax at step ends and at interior a = 0 points, and the
    final (a, v, x) within _BC_TOL of (af, vf, D).
    """
    am, vm = limits.amax + _BC_TOL, limits.vmax + _BC_TOL
    st = KinematicState(a0, v0, 0.0)
    for jerk, dur in steps:
        if dur < -CLAMP_TOL:
            return False
        dur = max(dur, 0.0)
        if jerk != 0.0:
            t_star = -st.a / jerk
            if 0.0 < t_star < dur and abs(integrate_segment(st, jerk, t_star).v) > vm:
                return False
        st = integrate_segment(st, jerk, dur)
        if abs(st.a) > am or abs(st.v) > vm:
            return False
    return max(abs(st.a - af), abs(st.v - vf), abs(st.x - D)) <= _BC_TOL


def _fastest_type1(a0: float, v0: float, af: float, vf: float, D: float,
                   limits: KinematicLimits) -> Steps | None:
    """The fastest polished type-1 candidate that passes _admissible."""
    best: Steps | None = None
    best_t = math.inf
    for cand in _type1_candidates(a0, v0, af, vf, D, limits):
        steps = _refine_candidate(cand, a0, v0, D)
        t = steps_duration(steps)
        if t < best_t - 1e-12 and _admissible(steps, a0, v0, af, vf, D, limits):
            best, best_t = steps, t
    return best


def plan_min_time_1d(init: KinematicState, final: KinematicState,
                     limits: KinematicLimits, t0: float = 0.0) -> AxisProfile:
    """Minimal-time profile between two full kinematic states.

    The displacement is final.x - init.x.  The result has at most seven
    constant-jerk segments, matches both boundary states within 1e-9 and
    respects all limits.  Infeasible boundary states raise
    InfeasibleBoundary; a problem that no candidate solves, or a plan that
    misses the final state, raises SolverFailure.
    """
    check_boundary_state(init, limits, outgoing=False)
    check_boundary_state(final, limits, outgoing=True)
    D = final.x - init.x
    steps = _min_time_steps(init.a, init.v, final.a, final.v, D, limits)
    profile = make_profile(steps, init, t0=t0)
    end = profile.final_state if profile.segments else init
    err = max(abs(end.a - final.a), abs(end.v - final.v), abs(end.x - final.x))
    if err > _BC_TOL:
        raise SolverFailure(f"planner failed to meet boundary ({err:.2e})")
    return profile


def _min_time_steps(a0: float, v0: float, af: float, vf: float, D: float,
                    limits: KinematicLimits) -> Steps:
    connect = connect_steps(a0, v0, af, vf, limits)
    dc = sweep(connect, a0, v0)[2]
    if abs(D - dc) <= _CRITICAL_TOL:
        return connect
    # the critical length picks the direction tried first; a problem above
    # it can still need the mirrored (down-up-down) shapes, and vice versa
    for sign in ((1.0, -1.0) if D > dc else (-1.0, 1.0)):
        steps = _fastest_type1(sign * a0, sign * v0, sign * af, sign * vf,
                               sign * D, limits)
        if steps is not None:
            return [(sign * jerk, dur) for jerk, dur in steps]
    raise SolverFailure(f"no candidate meets (a={af}, v={vf}) over D={D}")
