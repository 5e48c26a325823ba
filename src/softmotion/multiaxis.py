"""Straight-line multi-axis point-to-point motions with a common duration.

All axes of a synchronized move share one scalar progress profile: the
motion is planned once along the segment length under the limits projected
onto the dominant axis, then distributed to the axes by their direction
cosines.  The dominant axis therefore runs exactly at the configured
limits (its motion is minimal time) while the others are scaled down by a
common factor on jerk, acceleration and velocity, which keeps the same
timing, and the position trace is a straight line by construction.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import SolverFailure
from .profiles import AxisProfile, KinematicLimits, check_limits, scale_profile
from .ptp import PtpTimes, hold, plan_ptp_1d, ptp_times

#: Segment lengths and direction cosines below this are zero.
NULL_TOL = 1e-15


def scale_limits_for_duration(limits: KinematicLimits, t_opt: float,
                              t_imp: float) -> KinematicLimits:
    """Limits under which the same displacement replans to duration t_imp.

    Uniform time dilation by s = t_imp / t_opt maps a minimal-time profile
    to the minimal-time profile of the limit set (jmax/s^3, amax/s^2,
    vmax/s), preserving the position trace up to the reparametrization
    t -> t/s.  Exact for any s >= 1.
    """
    if not (t_opt > 0.0 and math.isfinite(t_opt)):
        raise ValueError("t_opt must be positive")
    if t_imp < t_opt:
        raise ValueError(f"t_imp={t_imp} is below the minimal time {t_opt}")
    s = t_imp / t_opt
    return KinematicLimits(limits.jmax / s ** 3, limits.amax / s ** 2,
                           limits.vmax / s)


def plan_ptp_nd(p0, pf, limits: KinematicLimits) -> list[AxisProfile]:
    """Synchronized rest-to-rest motion along the straight segment p0 -> pf.

    Every axis gets a profile of the same duration (the largest single-axis
    minimal time); axes with zero displacement hold position for that
    duration.  Coincident endpoints yield a 0 s hold per axis at p0.
    """
    profiles, _ = plan_ptp_nd_with_times(p0, pf, limits)
    return profiles


def _scalar_problem(p0, pf, limits: KinematicLimits):
    """(p0, length, unit direction, projected limits) of the segment p0 -> pf.

    The scalar progress profile runs along the segment length under the
    limits projected onto the dominant axis.  Coincident endpoints give a
    length of 0 and no direction.  A non-finite coordinate raises
    ValueError.
    """
    p0 = np.asarray(p0, dtype=float)
    pf = np.asarray(pf, dtype=float)
    if p0.shape != pf.shape or p0.ndim != 1 or p0.size < 1:
        raise ValueError("p0 and pf must be 1-D vectors of equal dimension")
    if not (np.isfinite(p0).all() and np.isfinite(pf).all()):
        raise ValueError(f"non-finite endpoint: p0={p0.tolist()}, pf={pf.tolist()}")
    delta = pf - p0
    length = float(np.linalg.norm(delta))
    if length < NULL_TOL:
        return p0, 0.0, None, limits
    unit = delta / length
    dominant = float(np.max(np.abs(unit)))
    return p0, length, unit, limits.scaled(1.0 / dominant)


def min_time_nd(p0, pf, limits: KinematicLimits) -> float:
    """Minimal duration of the straight-line move p0 -> pf, in closed form.

    The total of the times ``plan_ptp_nd_with_times`` plans by, without
    planning: 0 for coincident endpoints.
    """
    _, length, _, scalar_limits = _scalar_problem(p0, pf, limits)
    return ptp_times(length, scalar_limits).total


def plan_ptp_nd_with_times(p0, pf, limits: KinematicLimits,
                           duration: float | None = None,
                           ) -> tuple[list[AxisProfile], PtpTimes]:
    """plan_ptp_nd plus the shared (Tj, Ta, Tv) of the scalar progress profile.

    With a ``duration`` above the minimal time, the scalar profile is
    replanned under the projected limits dilated to that duration (see
    scale_limits_for_duration), and the times describe the stretched
    profile.  A duration below the minimal time raises ValueError.  Every
    profile is checked against ``limits`` before it is returned: one that
    breaks a limit raises SolverFailure.  Coincident endpoints give every
    axis a hold at p0 for ``duration`` (0 s when it is None), and times
    whose total is that duration.
    """
    p0, length, unit, scalar_limits = _scalar_problem(p0, pf, limits)
    if unit is None:
        rest = 0.0 if duration is None else duration
        return [hold(float(x), rest) for x in p0], PtpTimes(0.0, 0.0, rest)
    times = ptp_times(length, scalar_limits)
    if duration is not None and duration != times.total:
        scalar_limits = scale_limits_for_duration(scalar_limits, times.total,
                                                  duration)
        times = ptp_times(length, scalar_limits)
    scalar = plan_ptp_1d(length, scalar_limits)
    profiles = []
    for i, u in enumerate(unit):
        if abs(u) < NULL_TOL:
            profiles.append(hold(float(p0[i]), scalar.duration))
        else:
            profiles.append(scale_profile(scalar, float(u), x_offset=float(p0[i])))
    for i, prof in enumerate(profiles):
        report = check_limits(prof, limits)
        if not report.ok:
            bad = report.violations[0]
            raise SolverFailure(f"axis {i} reaches {bad.quantity} {bad.value!r} "
                                f"at t={bad.time:.6g}, above its limit {bad.bound!r}")
    return profiles, times
