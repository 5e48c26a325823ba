"""7-coordinate pose space: position plus unit quaternion.

Orientation is planned coordinate-wise: the four quaternion components are
treated as synchronized axes exactly like the three position components,
under angular limits mapped by the factor 1/2 (a unit quaternion driven at
angular speed w has component rates of magnitude |w|/2).  The planned
component polynomials drift off the unit sphere between the endpoints;
sampling renormalizes, and the drift is monitored rather than corrected
mid-profile.  The online ``PoseTracker`` instead renormalizes its quaternion
every tick.  Its four components still ramp independently, so one tick
drifts too: below 5e-4 for a 10 ms tick at the default limits (measured at
most 2.9e-4 over 300 s twist streams with |w| <= 0.17 rad/s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .multiaxis import min_time_nd, plan_ptp_nd_with_times
from .profiles import (AxisProfile, KinematicLimits, evaluate, sample_axes,
                       sample_times, segment_tables)

_UNIT_TOL = 1e-3      # largest |norm - 1| accepted for an input orientation

#: Quaternions with a norm below this cannot be normalized.
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion with scalar part n and vector part q = (i, j, k)."""

    n: float
    q: tuple[float, float, float]

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, (0.0, 0.0, 0.0))

    @staticmethod
    def from_array(arr) -> "Quaternion":
        n, i, j, k = (float(c) for c in arr)
        return Quaternion(n, (i, j, k))

    @staticmethod
    def from_axis_angle(axis, angle: float) -> "Quaternion":
        ax = np.asarray(axis, dtype=float)
        ax = ax / np.linalg.norm(ax)
        half = 0.5 * angle
        s = math.sin(half)
        return Quaternion(math.cos(half), (ax[0] * s, ax[1] * s, ax[2] * s))

    def as_array(self) -> np.ndarray:
        return np.array([self.n, *self.q], dtype=float)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.as_array()))

    def normalized(self) -> "Quaternion":
        nrm = self.norm
        if nrm < NORM_FLOOR:
            raise ValueError("cannot normalize a near-zero quaternion")
        return Quaternion.from_array(self.as_array() / nrm)

    def dot(self, other: "Quaternion") -> float:
        return float(self.as_array() @ other.as_array())

    def multiply(self, other: "Quaternion") -> "Quaternion":
        n1, (i1, j1, k1) = self.n, self.q
        n2, (i2, j2, k2) = other.n, other.q
        return Quaternion(
            n1 * n2 - i1 * i2 - j1 * j2 - k1 * k2,
            (n1 * i2 + i1 * n2 + j1 * k2 - k1 * j2,
             n1 * j2 + j1 * n2 + k1 * i2 - i1 * k2,
             n1 * k2 + k1 * n2 + i1 * j2 - j1 * i2),
        )


@dataclass(frozen=True)
class Pose:
    """Position and orientation of the end effector."""

    p: tuple[float, float, float]
    orient: Quaternion

    def as_array(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.p, dtype=float),
                               self.orient.as_array()])


@dataclass(frozen=True)
class Twist:
    """Linear and angular velocity of the end effector."""

    v: tuple[float, float, float]
    w: tuple[float, float, float]


def _check_unit(orient: Quaternion) -> None:
    nrm = math.hypot(orient.n, *orient.q)   # a tolerance check: no numpy needed
    if abs(nrm - 1.0) > _UNIT_TOL:
        raise ValueError(f"quaternion norm {nrm} deviates from 1 beyond {_UNIT_TOL}")


def omega_to_qdot(orient: Quaternion, w) -> np.ndarray:
    """Quaternion rate of a unit orientation rotating at angular velocity w.

    Computed as half the quaternion product of the pure quaternion (0, w)
    with the current orientation; the result is orthogonal to the
    orientation, so the unit norm is preserved to first order.
    """
    _check_unit(orient)
    wx, wy, wz = (float(c) for c in w)
    pure = Quaternion(0.0, (wx, wy, wz))
    return 0.5 * pure.multiply(orient).as_array()


def qr_matrix(orient: Quaternion) -> np.ndarray:
    """The 4x4 rate-transform matrix of a quaternion, orthogonal at unit norm.

    Rows, acting on 4-vectors ordered (i, j, k, n):

        [  n   k  -j   i ]
        [ -k   n   i   j ]
        [  j  -i   n   k ]
        [ -i  -j  -k   n ]
    """
    n, (i, j, k) = orient.n, orient.q
    return np.array([
        [n, k, -j, i],
        [-k, n, i, j],
        [j, -i, n, k],
        [-i, -j, -k, n],
    ])


def qdot_to_omega(orient: Quaternion, qdot) -> tuple[np.ndarray, float]:
    """Angular velocity recovered from a quaternion rate.

    Applies [w; r] = 2 * Qr^T * qdot with qdot reordered vector-first.
    The fourth component r is the norm-growth residual, zero for rates
    produced by omega_to_qdot.  Exact inverse because Qr is orthogonal for
    unit quaternions.
    """
    _check_unit(orient)
    qd = np.asarray(qdot, dtype=float)
    vec_first = np.array([qd[1], qd[2], qd[3], qd[0]])
    out = 2.0 * qr_matrix(orient).T @ vec_first
    return out[:3], float(out[3])


def plan_pose_axes(pose0: Pose, posef: Pose, limits_linear: KinematicLimits,
                   limits_angular: KinematicLimits) -> list[AxisProfile]:
    """Synchronized 7-axis motion between two poses, all axes one duration.

    Positions run under the linear limits, quaternion components under the
    angular limits halved.  The slower of the two groups' minimal times
    (``min_time_nd``) sets the common duration, and each group is planned
    once at it: the faster one under time-dilated limits.  The target
    quaternion is flipped into the hemisphere of the start so the component
    path never crosses q.q0 < 0.
    Every axis comes from plan_ptp_nd_with_times, which checks it against
    its group's limits (linear, or angular halved) and raises SolverFailure
    rather than return a profile that breaks one; an axis that does not
    move holds its start (the normalized q0 for a quaternion component).
    """
    _check_unit(pose0.orient)
    _check_unit(posef.orient)
    q0 = pose0.orient.normalized().as_array()
    qf = posef.orient.normalized().as_array()
    if float(q0 @ qf) < 0.0:
        qf = -qf
    quat_limits = limits_angular.scaled(0.5)

    duration = max(min_time_nd(pose0.p, posef.p, limits_linear),
                   min_time_nd(q0, qf, quat_limits))
    pos_profiles, _ = plan_ptp_nd_with_times(pose0.p, posef.p, limits_linear, duration)
    quat_profiles, _ = plan_ptp_nd_with_times(q0, qf, quat_limits, duration)
    return pos_profiles + quat_profiles


def pose_at(profiles: list[AxisProfile], t: float) -> Pose:
    """Sampled pose at time t; the quaternion is renormalized."""
    if len(profiles) != 7:
        raise ValueError("pose sampling needs 7 axis profiles")
    vals = [evaluate(p, min(max(t, p.t0), p.end_time))[0].x for p in profiles]
    quat = Quaternion.from_array(vals[3:]).normalized()
    return Pose((vals[0], vals[1], vals[2]), quat)


def quaternion_norm_drift(profiles: list[AxisProfile], dt: float = 0.01) -> float:
    """Largest |norm - 1| of the raw planned quaternion over a sampling grid.

    This is the pre-renormalization drift of the planned component
    polynomials.  Component-wise plans between rest endpoints pass through
    the 4-space chord midpoint, so a rotation by an angle theta has an
    intrinsic drift floor of 1 - cos(theta/4) regardless of limits or
    timing (about 7.6e-2 for a quarter turn).
    """
    if len(profiles) != 7:
        raise ValueError("pose sampling needs 7 axis profiles")
    quat_profiles = profiles[3:]
    ref = max(quat_profiles, key=lambda p: p.duration)
    ts = sample_times(ref, dt)
    comps = sample_axes(segment_tables(quat_profiles), ts)[0]
    return float(np.max(np.abs(np.linalg.norm(comps, axis=0) - 1.0)))
