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
  solved fastest by a down-up-down motion; within 1e-9 of dc both sides
  compete.

A type-1 solution either cruises at +vmax (both ramps are direct
connections, cruise time from the leftover distance) or peaks below vmax.
Each peak template (B1-B4: which acceleration plateaus are present) is
written once, as (jerk, duration) steps whose durations are polynomials in
one unknown u.  One symbolic sweep, the Horner form of the cubic segment,
turns the steps into the template's displacement polynomial.  It is traced
once per template and compiled to straight-line code (roots.trace), whose
coefficients are the sweep's bit for bit: where the list product skips a
zero factor the code adds a signed zero to a sum that is never -0.0.  The
same steps evaluated at a root are the candidate.  The plateau-free B4 takes
for u the drop from its peak to its valley acceleration: on the valley
hyperbola both are rational in u, its durations are quadratics over u,
and u times its displacement is a quartic, with no square root to square
out.  Roots are only sought where u can hold a plan: B1's plateau time in
[max(0, -delta), 2 vmax / amax] (amax held for u seconds moves v by amax u,
never more than 2 vmax), B2's valley and B3's peak acceleration within
amax, B4's u in [-2 amax, 0], each end widened by the slack the final
check accepts.  The roots come back good to a few ulps, so no candidate is
polished.  Every candidate is checked once on its step durations, |a|, |v|
and both boundary states, and the fastest valid one wins.  A valid cruise
that holds vmax ends its side's search: no plan's velocity rises above the
envelope of the fastest ramp up from the start, vmax and the fastest ramp
down into the end, which the cruise rides, so only a plan that exceeds vmax
inside the check's slack is faster.
"""
from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterator

from .errors import InfeasibleBoundary, SolverFailure
from .profiles import (CHAIN_TOL, CLAMP_TOL, LIMIT_TOL, AxisProfile,
                       KinematicLimits, KinematicState, cubic, make_profile)
from .roots import padd, peval, pmul, pscale, solve_real_roots, trace

__all__ = [
    "CLAMP_TOL", "MotionType", "Steps", "connect_steps", "critical_length",
    "classify", "cruise_steps", "mirror_problem", "plan_min_time_1d",
    "steps_duration", "sweep",
]

_CRITICAL_TOL = 1e-12    # |D - dc| up to which the direct connection is the plan
_SQUARE_TOL = 1e-15      # a squared peak acceleration down to -_SQUARE_TOL is zero
_PEAK_TOL = 1e-12        # a peak acceleration this far short of a0 or af still reaches it
_TIE_TOL = 1e-12         # a later candidate wins only if faster by more than this


class MotionType(enum.Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    CRITICAL = "critical"


Steps = list[tuple[float, float]]     # (jerk, duration) runs


def _finite(a: float, v: float, x: float) -> tuple[float, float, float]:
    """(a, v, x) as given; ValueError where a KinematicState of them raises."""
    if not (math.isfinite(a) and math.isfinite(v) and math.isfinite(x)):
        raise ValueError(f"non-finite kinematic state {(a, v, x)}")
    return a, v, x


def sweep(steps: Steps, a0: float, v0: float) -> tuple[float, float, float]:
    """Final (a, v, x) of the steps run from (a0, v0) at x = 0.

    integrate_segment's walk on plain floats, bit for bit.  cubic never makes
    a non-finite value finite again, so one check at the end raises as it does.
    """
    a, v, x = a0, v0, 0.0
    for jerk, dur in steps:
        a, v, x = cubic(a, v, x, jerk, max(dur, 0.0))
    return _finite(a, v, x)


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
    if abs(a) > am + LIMIT_TOL:
        raise InfeasibleBoundary(f"|a|={abs(a)} exceeds amax={am}")
    if abs(v) > vm + LIMIT_TOL:
        raise InfeasibleBoundary(f"|v|={abs(v)} exceeds vmax={vm}")
    a_eff = -a if outgoing else a
    excursion = v + a_eff * abs(a_eff) / (2.0 * j)
    if excursion > vm + LIMIT_TOL or excursion < -vm - LIMIT_TOL:
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
    best: Steps | None = None
    best_total = 0.0
    half_sq = 0.5 * (a0 * a0 + af * af)
    for s in (1.0, -1.0):
        # jerk s*J out to the extreme acceleration s*r, then -s*J back to af;
        # written with s*x - s*y, which is y - x bit for bit (signed zeros too)
        sq = s * j * (vf - v0) + half_sq
        if not sq >= -_SQUARE_TOL:      # a NaN skips the shape too
            continue
        r = math.sqrt(max(sq, 0.0))
        sa0, saf = s * a0, s * af
        if not (r >= sa0 - _PEAK_TOL and r >= saf - _PEAK_TOL):
            continue
        if r <= am:
            up, hold, down = (r - sa0) / j, 0.0, (r - saf) / j
        else:      # clamped at s*amax with a plateau
            up, down = (am - sa0) / j, (am - saf) / j
            hold = ((s * vf - s * v0)
                    - (2 * am * am - a0 * a0 - af * af) / (2 * j)) / am
        if up < -CLAMP_TOL or hold < -CLAMP_TOL or down < -CLAMP_TOL:
            continue
        up, hold, down = max(up, 0.0), max(hold, 0.0), max(down, 0.0)
        # steps_duration of the steps: a zero hold adds +0.0 to a sum that
        # is never -0.0, so the two-step total keeps its bits
        total = 0.0 + up + hold + down
        if best is None or total < best_total:
            best = ([(s * j, up), (-s * j, down)] if r <= am
                    else [(s * j, up), (0.0, hold), (-s * j, down)])
            best_total = total
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
    The mapping is an involution.  _min_time_steps applies it inline to
    plain floats; this form stays public because ``softmotion`` exports it
    to callers and tests that mirror whole problems.
    """
    neg = lambda s: KinematicState(-s.a, -s.v, -s.x)
    return neg(init), neg(final), -displacement


def cruise_steps(a0: float, v0: float, af: float, vf: float, D: float,
                 vc: float, limits: KinematicLimits) -> tuple[Steps, float]:
    """Direct connections to and from a cruise at vc, over D: (steps, t_c).

    The cruise lasts t_c = (D - s1 - s2) / vc, s1 and s2 the ramps'
    displacements, unclamped: each caller has its own rule for t_c < 0.
    """
    ramp1 = connect_steps(a0, v0, 0.0, vc, limits)
    ramp2 = connect_steps(0.0, vc, af, vf, limits)
    s1 = sweep(ramp1, a0, v0)[2]
    s2 = sweep(ramp2, 0.0, vc)[2]
    t_c = (D - s1 - s2) / vc
    return ramp1 + [(0.0, t_c)] + ramp2, t_c


# ---------------------------------------------------------------------------
# type-1 template solving
# ---------------------------------------------------------------------------

def _templates(a0: float, v0: float, af: float, vf: float,
               limits: KinematicLimits) -> list[tuple[list, int, float, float]]:
    """The peak templates B1-B4 as (steps, k, lo, hi).

    Each step duration is a polynomial in the template's unknown u divided
    by u**k (k = 1 for B4, else 0).  Velocity balance holds for every u by
    construction.  No u outside [lo, hi] passes _admissible: at each end a
    step lasts -CLAMP_TOL, or |a| (|v| for B1's upper end) is LIMIT_TOL over.
    """
    j, am = limits.jmax, limits.amax
    slack = j * CLAMP_TOL                  # acceleration swept in -CLAMP_TOL
    a_lim = am + LIMIT_TOL                 # the largest |a| _admissible accepts
    (b1, b2, b3, b4), delta = _template_steps(a0, v0, af, vf, j, am)
    return [(b1, 0, max(0.0, -delta) - CLAMP_TOL, 2.0 * (limits.vmax + LIMIT_TOL) / am),
            (b2, 0, -a_lim, min(af, am) + slack),
            (b3, 0, max(a0, -am) - slack, a_lim),
            (b4, 1, -2.0 * a_lim, slack)]


def _template_steps(a0, v0, af, vf, j, am) -> tuple[list, float]:
    """B1-B4's step lists and B1's delta; arithmetic only, so traceable."""
    up = (j, [(am - a0) / j])              # a0 -> +amax
    peak = (j, [-a0 / j, 1.0 / j])         # a0 -> u
    last = (j, [(af + am) / j])            # -amax -> af
    hold = 1.0 / (j * am)
    # B1: plateaus at +amax and -amax; u = the first plateau's time, the
    # second lasts u + delta
    delta = ((af * af - a0 * a0) / (2.0 * j) - (vf - v0)) / am
    b1 = [up, (0.0, [0.0, 1.0]), (-j, [2.0 * am / j]), (0.0, [delta, 1.0]), last]
    # B2: plateau at +amax only; u = the valley acceleration
    c20 = (vf - v0 - (2.0 * am * am - a0 * a0 + af * af) / (2.0 * j)) / am
    b2 = [up, (0.0, [c20, 0.0, hold]), (-j, [am / j, -1.0 / j]), (j, [af / j, -1.0 / j])]
    # B3: plateau at -amax only; u = the peak acceleration
    c60 = ((af * af - a0 * a0 - 2.0 * am * am) / (2.0 * j) - (vf - v0)) / am
    b3 = [peak, (-j, [am / j, 1.0 / j]), (0.0, [c60, 0.0, hold]), last]
    # B4: no plateau; u = e - p <= 0 for the peak p and the valley e.  On the
    # valley hyperbola e^2 = p^2 + K, p = (K/u - u)/2 and e = (K/u + u)/2,
    # so the durations (p - a0)/J, (p - e)/J and (af - e)/J are quadratics over u
    K = j * (v0 - vf) + 0.5 * (af * af - a0 * a0)
    b4 = [(j, [0.5 * K / j, -a0 / j, -0.5 / j]), (-j, [0.0, 0.0, -1.0 / j]),
          (j, [-0.5 * K / j, af / j, -0.5 / j])]
    return [b1, b2, b3, b4], delta


@functools.cache
def _template_poly(i: int, k: int):
    """u^k (x - D) of template i as compiled code of (a0, v0, af, vf, D, jmax, amax)."""
    def poly(a0, v0, af, vf, D, j, am):
        x = _sweep_poly(_template_steps(a0, v0, af, vf, j, am)[0][i],
                        [0.0] * k + [a0], [0.0] * 2 * k + [v0])
        return padd(x[2 * k:], [0.0] * k + [-D])
    return trace(poly, 7)


def _sweep_poly(steps: list, a0: list[float], v0: list[float]) -> list[float]:
    """Displacement of template steps run from (a0, v0), a polynomial in u.

    The Horner form of profiles._cubic, on polynomials.  For steps whose
    durations are d/u, start from (u a0, u^2 v0): the recurrence keeps its
    form in (u a, u^2 v, u^3 x) with durations d, so the result is u^3 x.
    """
    a, v, x = a0, v0, [0.0]
    for jerk, d in steps:
        jd = pscale(d, jerk)
        x = padd(x, pmul(padd(v, pmul(padd(pscale(a, 0.5), pscale(jd, 1.0 / 6.0)), d)), d))
        v = padd(v, pmul(padd(a, pscale(jd, 0.5)), d))
        a = padd(a, jd)
    return x


def _type1_candidates(a0: float, v0: float, af: float, vf: float, D: float,
                      limits: KinematicLimits) -> Iterator[tuple[Steps, bool]]:
    """Every type-1 template solution for displacement D, as (steps, cruising).

    The cruise at +vmax comes first, then each peak template's steps at each
    real root of its displacement polynomial, solved only when asked for.
    ``cruising`` marks a cruise with t_c >= 0.  If valid, it is outrun only by
    a template that exceeds vmax within LIMIT_TOL (see the module docstring),
    by about LIMIT_TOL * (T + 1) / vmax at most for a plan of T seconds.  A
    cruise with t_c < 0 holds vmax for no time and meets D only within
    CHAIN_TOL.  Roots are good to a few ulps, so no candidate needs a polish,
    and nothing is screened here: _admissible checks every step, the cruise
    included, and make_profile clamps.
    """
    try:
        cruise, t_c = cruise_steps(a0, v0, af, vf, D, limits.vmax, limits)
    except InfeasibleBoundary:
        pass
    else:
        yield cruise, t_c >= 0.0
    for i, (steps, k, lo, hi) in enumerate(_templates(a0, v0, af, vf, limits)):
        # u^k (x - D).  B4's sweep is u^3 x = u^2 (K^2 / 4J^2 + ...), so its
        # two lowest coefficients vanish identically and hold only rounding;
        # at K = 0 the next one is an exact zero, and u divides out too
        poly = _template_poly(i, k)(a0, v0, af, vf, D, limits.jmax, limits.amax)
        if k and poly[0] == 0.0:
            del poly[0]
        for u in solve_real_roots(poly, lo, hi):
            if u != 0.0 or not k:     # B4 has no durations at u = 0
                yield [(jerk, peval(d, u) / u ** k) for jerk, d in steps], False


def _admissible(steps: Steps, a0: float, v0: float, af: float, vf: float,
                D: float, limits: KinematicLimits) -> bool:
    """True when the steps keep every bound and reach (af, vf, D).

    The one screen of every candidate: no step below -CLAMP_TOL, |a| and |v|
    within amax and vmax at step ends and at interior a = 0 points, and the
    final (a, v, x) within CHAIN_TOL of (af, vf, D).
    """
    am, vm = limits.amax + LIMIT_TOL, limits.vmax + LIMIT_TOL
    a, v, x = _finite(a0, v0, 0.0)
    for jerk, dur in steps:
        if dur < -CLAMP_TOL:
            return False
        dur = max(dur, 0.0)
        if jerk != 0.0:
            t_star = -a / jerk
            if 0.0 < t_star < dur and abs(_finite(*cubic(a, v, x, jerk, t_star))[1]) > vm:
                return False
        a, v, x = _finite(*cubic(a, v, x, jerk, dur))
        if abs(a) > am or abs(v) > vm:
            return False
    return max(abs(a - af), abs(v - vf), abs(x - D)) <= CHAIN_TOL


def plan_min_time_1d(init: KinematicState, final: KinematicState,
                     limits: KinematicLimits) -> AxisProfile:
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
    profile = make_profile(steps, init)
    end = profile.final_state
    err = max(abs(end.a - final.a), abs(end.v - final.v), abs(end.x - final.x))
    if err > CHAIN_TOL:
        raise SolverFailure(f"planner failed to meet boundary ({err:.2e})")
    return profile


def _min_time_steps(a0: float, v0: float, af: float, vf: float, D: float,
                    limits: KinematicLimits) -> Steps:
    connect = connect_steps(a0, v0, af, vf, limits)
    dc = sweep(connect, a0, v0)[2]
    if abs(D - dc) <= _CRITICAL_TOL:
        return connect
    # the critical length picks the side tried first (1: type-1 templates,
    # -1: the mirrored ones); a problem above it can still need the
    # down-up-down shapes, and vice versa.  Within CHAIN_TOL of it the fast
    # plans on either side are the connection with one step a little below
    # zero, clamped, so both sides compete.  A valid cruise at s * vmax ends
    # its side (see _type1_candidates)
    best: Steps | None = None
    best_t = math.inf
    for s in ((1.0, -1.0) if D > dc else (-1.0, 1.0)):
        if best is not None and abs(D - dc) > CHAIN_TOL:
            break
        for steps, cruising in _type1_candidates(s * a0, s * v0, s * af, s * vf,
                                                 s * D, limits):
            steps = [(s * jerk, dur) for jerk, dur in steps]
            t = steps_duration(steps)
            if t < best_t - _TIE_TOL and _admissible(steps, a0, v0, af, vf, D, limits):
                best, best_t = steps, t
                if cruising:
                    break
    if best is None:
        raise SolverFailure(f"no candidate meets (a={af}, v={vf}) over D={D}")
    return best
