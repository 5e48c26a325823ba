"""Rest-to-rest point-to-point planning.

The canonical minimal-time motion between two stops is built from at most
seven constant-jerk segments with the sign pattern [+J, 0, -J, 0, -J, 0, +J]
and durations (Tj, Ta, Tj, Tv, Tj, Ta, Tj).  Symmetry reduces the problem to
three times: Tj (jerk ramp), Ta (acceleration plateau, zero when amax is not
reached) and Tv (velocity cruise, zero when vmax is not reached).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .profiles import (AxisProfile, CubicSegment, KinematicLimits,
                       KinematicState, make_profile)


@dataclass(frozen=True)
class PtpTimes:
    """The three defining durations of a symmetric seven-segment motion."""

    tj: float
    ta: float
    tv: float

    @property
    def total(self) -> float:
        return 4.0 * self.tj + 2.0 * self.ta + self.tv

    @property
    def cruise_start(self) -> float:
        return 2.0 * self.tj + self.ta

    @property
    def cruise_end(self) -> float:
        return 2.0 * self.tj + self.ta + self.tv


def accel_plateau_threshold(limits: KinematicLimits) -> float:
    """Distance above which the acceleration plateau (Ta > 0) appears."""
    return 2.0 * limits.amax ** 3 / limits.jmax ** 2


def ptp_saturation_threshold(limits: KinematicLimits) -> float:
    """Smallest rest-to-rest distance at which vmax is exactly reached.

    With a plateau (vmax*jmax >= amax^2) the up-ramp lasts 2*Tj + Ta with
    Tj = amax/jmax and Ta = vmax/amax - amax/jmax, sweeping vmax*(2Tj+Ta)/2
    each way; otherwise the ramp is pure jerk with Tj = sqrt(vmax/jmax).
    """
    j, a, v = limits.jmax, limits.amax, limits.vmax
    if v * j >= a * a:
        return v * (a / j + v / a)
    return 2.0 * v * math.sqrt(v / j)


def ptp_times(distance: float, limits: KinematicLimits) -> PtpTimes:
    """Closed-form (Tj, Ta, Tv) for a non-negative rest-to-rest distance."""
    if distance < 0.0:
        raise ValueError("ptp_times takes a non-negative distance")
    j, a, v = limits.jmax, limits.amax, limits.vmax
    if distance == 0.0:
        return PtpTimes(0.0, 0.0, 0.0)
    d_sat = ptp_saturation_threshold(limits)
    if distance >= d_sat:
        if v * j >= a * a:
            tj = a / j
            ta = v / a - a / j
        else:
            tj = math.sqrt(v / j)
            ta = 0.0
        tv = (distance - d_sat) / v
        return PtpTimes(tj, ta, tv)
    d_acc = accel_plateau_threshold(limits)
    if distance > d_acc and v * j >= a * a:
        tj = a / j
        ta = 0.5 * (-3.0 * tj + math.sqrt(tj * tj + 4.0 * distance / a))
        return PtpTimes(tj, max(ta, 0.0), 0.0)
    return PtpTimes((distance / (2.0 * j)) ** (1.0 / 3.0), 0.0, 0.0)


def hold(x: float, duration: float) -> AxisProfile:
    """An axis at rest at x for duration seconds: one zero-jerk segment."""
    return AxisProfile(segments=(CubicSegment(duration=duration, jerk=0.0,
                                              start=KinematicState(0.0, 0.0, x)),))


def plan_ptp_1d(distance: float, limits: KinematicLimits,
                x0: float = 0.0) -> AxisProfile:
    """Minimal-time rest-to-rest motion covering a signed distance.

    Returns a profile starting at (a=0, v=0, x=x0) and ending exactly at
    (0, 0, x0 + distance).  Negative distances mirror the positive plan,
    and a zero distance is a 0 s hold at x0.  Zero-length pieces (Ta or Tv
    at a case boundary) are dropped, so the result has at most seven
    segments.
    """
    if not math.isfinite(distance):
        raise ValueError("distance must be finite")
    if distance == 0.0:
        return hold(x0, 0.0)
    sign = 1.0 if distance > 0.0 else -1.0
    tt = ptp_times(abs(distance), limits)
    jm = sign * limits.jmax
    steps = [
        (jm, tt.tj), (0.0, tt.ta), (-jm, tt.tj),
        (0.0, tt.tv),
        (-jm, tt.tj), (0.0, tt.ta), (jm, tt.tj),
    ]
    return make_profile(steps, KinematicState(0.0, 0.0, x0))
