"""Online velocity-reference tracking with fixed-tick replanning.

Each tick the tracker replans every axis from its current state to the
reference velocity at zero acceleration, over exactly the critical-length
displacement, the displacement swept by the direct phase-plane
connection.  That displacement makes the plan join the reference without
overshoot; any other value would force the axis to wander and oscillate
around the target velocity.  Replanning from a mid-ramp state reproduces
the remainder of the previous ramp, so a constant reference is reached in
minimal time and then held exactly.

Because the plan is always the direct connection, a tick never builds a
profile: it takes the connection's (jerk, duration) steps once and walks
(a, v, x) through them as plain floats with ``profiles.cubic`` up to the
end of the tick, building one checked ``KinematicState`` per axis: the one
it returns.  cubic never makes a non-finite value finite again, so a
non-finite step on the way still raises ValueError when that state is
built.  The result has the same bits as planning the critical-length
motion with ``plan_min_time_1d`` and evaluating it at ``dt``.

``PoseTracker`` takes one quaternion norm a tick, with ``np.linalg.norm``:
the unit quaternion that ends one tick's pose starts the next, with no
rebuilt states and no numpy array on the way.  The norm stays numpy's
because the pose is pinned to the bits of ``q / np.linalg.norm(q)``;
``math.hypot`` rounds some near-unit 4-vectors differently.
"""
from __future__ import annotations

import math

import numpy as np

from .orientation import (NORM_FLOOR, Pose, Quaternion, Twist, omega_to_qdot,
                          qdot_to_omega)
from .planner import check_boundary_state, connect_steps
from .profiles import (CHAIN_TOL, DROP_DURATION, KinematicLimits,
                       KinematicState, cubic)
# not called here; perfbench's tracer patches these names on this module
from .planner import critical_length, plan_min_time_1d  # noqa: F401
from .profiles import evaluate  # noqa: F401


class OnlineTracker:
    """Fixed-tick tracker for a bank of independent axes.

    One caller advances the tracker; distinct instances are independent.
    References are sampled once per tick (zero-order hold between ticks)
    and clamped to the velocity limit.  State traces are deterministic:
    identical reference traces give bit-identical states.
    """

    def __init__(self, limits, n_axes: int | None = None,
                 states=None, dt: float = 0.01) -> None:
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("tick period must be > 0")
        if isinstance(limits, KinematicLimits):
            if n_axes is None:
                n_axes = 1 if states is None else len(states)
            limits = [limits] * n_axes
        self.limits: list[KinematicLimits] = list(limits)
        n = len(self.limits)
        if n_axes is not None and n_axes != n:
            raise ValueError(f"n_axes={n_axes} but {n} axis limits are given")
        if states is None:
            states = [KinematicState() for _ in range(n)]
        if len(states) != n:
            raise ValueError("one initial state per axis is required")
        self.states: list[KinematicState] = list(states)
        self.dt = dt
        self.time = 0.0

    def tick(self, v_ref) -> list[KinematicState]:
        """Advance all axes by one tick toward the reference velocities.

        A non-finite reference raises ValueError and leaves every state as
        it was.
        """
        self._advance(v_ref, [s.x for s in self.states])
        return list(self.states)

    def _advance(self, v_ref, positions) -> None:
        """Tick every axis from its (a, v) and positions[i] in place of its x.

        A position may differ from the state's x only where a caller moved
        it without changing a or v (PoseTracker's renormalized quaternion).
        """
        refs = [float(r) for r in v_ref]
        if len(refs) != len(self.states):
            raise ValueError("one reference per axis is required")
        new_states = []
        for state, x, lim, ref in zip(self.states, positions, self.limits, refs):
            if not math.isfinite(ref):
                raise ValueError(f"non-finite reference velocity {ref}")
            ref = max(-lim.vmax, min(lim.vmax, ref))
            new_states.append(self._tick_axis(state, x, lim, ref))
        self.states = new_states
        self.time += self.dt

    def _tick_axis(self, state: KinematicState, x: float, lim: KinematicLimits,
                   ref: float) -> KinematicState:
        """One axis' tick from (state.a, state.v, x)."""
        if state.a == 0.0 and state.v == ref:
            return KinematicState(0.0, ref, x + ref * self.dt)
        check_boundary_state(state, lim, outgoing=False)     # reads a and v only
        dt = self.dt
        t = 0.0
        a, v = state.a, state.v
        # make_profile's segments, walked as evaluate would at t = dt: a tick
        # ending on a boundary resolves to the later segment
        for jerk, dur in connect_steps(a, v, 0.0, ref, lim):
            if dur < DROP_DURATION:
                continue
            if t + dur > dt:
                return KinematicState(*cubic(a, v, x, jerk, dt - t))
            a, v, x = cubic(a, v, x, jerk, dur)
            t += dur
        # landed exactly on the reference: coast the rest of the tick
        return KinematicState(0.0, ref, x + ref * (dt - t))


class PoseTracker:
    """Seven-axis pose tracker driven by end-effector twist references.

    Position axes track the linear velocity reference directly; the
    quaternion axes track the quaternion rate derived from the angular
    reference, scaled down to the angular vmax along its own axis, and the
    current orientation.  Each tick starts from the quaternion positions
    put back on the unit sphere (their rates and accelerations are left
    alone), so ``norm_drift``, the largest |norm - 1| seen at the start of
    a tick, measures the drift of a single tick.  The orientation exposed
    to the caller is renormalized.

    The raw quaternion is normalized once per tick: the unit quaternion
    that ends a tick's pose is the one the next tick starts from, and
    ``pose``, ``twist`` and ``settled`` read it too.  The norm is
    ``np.linalg.norm``, whose bits are those of ``q / np.linalg.norm(q)``
    and ``Quaternion.normalized``; a plain-float norm such as ``math.hypot``
    rounds differently on some near-unit 4-vectors, and would change every
    pose and state that follows.
    """

    def __init__(self, limits_linear: KinematicLimits,
                 limits_angular: KinematicLimits,
                 pose0: Pose | None = None, dt: float = 0.01) -> None:
        if pose0 is None:
            pose0 = Pose((0.0, 0.0, 0.0), Quaternion.identity())
        quat_limits = limits_angular.scaled(0.5)
        states = [KinematicState(0.0, 0.0, float(c)) for c in pose0.as_array()]
        self._inner = OnlineTracker([limits_linear] * 3 + [quat_limits] * 4,
                                    states=states, dt=dt)
        self.norm_drift = 0.0
        self._w_max = limits_angular.vmax
        # (states list, norm, unit quaternion) of the last normalization; keyed
        # on the list's identity, since every tick replaces the list
        self._normalized: tuple = (None, 0.0, None)

    @property
    def time(self) -> float:
        return self._inner.time

    def _orientation(self) -> tuple[float, Quaternion]:
        """(norm, unit quaternion) of the raw quaternion states."""
        states = self._inner.states
        if self._normalized[0] is not states:
            raw = [s.x for s in states[3:]]
            nrm = float(np.linalg.norm(raw))
            if nrm < NORM_FLOOR:
                raise ValueError("cannot normalize a near-zero quaternion")
            n, i, j, k = (c / nrm for c in raw)  # the bits of Quaternion.normalized()
            self._normalized = (states, nrm, Quaternion(n, (i, j, k)))
        return self._normalized[1], self._normalized[2]

    def pose(self) -> Pose:
        x, y, z = (s.x for s in self._inner.states[:3])
        return Pose((x, y, z), self._orientation()[1])

    def twist(self) -> Twist:
        states = self._inner.states
        w, _ = qdot_to_omega(self._orientation()[1],
                             np.array([s.v for s in states[3:]]))
        return Twist((states[0].v, states[1].v, states[2].v),
                     tuple(float(c) for c in w))

    def _held_w(self, w):
        """The angular reference a tick tracks: w scaled to |w| <= vmax."""
        norm = math.hypot(*w)
        if norm <= self._w_max:
            return w
        return tuple(c * (self._w_max / norm) for c in w)

    def settled(self, twist: Twist) -> bool:
        """True when the tracker holds this twist; a non-finite twist
        component raises ValueError, as in ``tick``.

        Each position axis sits at zero acceleration and at the clamped
        velocity a tick would track, both within CHAIN_TOL.  The quaternion
        rate turns with the orientation, so instead the angular velocity read
        back from it must be within one tick's change of the rate target,
        |w|^2 dt / 2 (at least CHAIN_TOL), of the scaled reference tracked.
        """
        _check_finite(twist)
        for state, lim, target in zip(self._inner.states, self._inner.limits,
                                      twist.v):
            target = max(-lim.vmax, min(lim.vmax, target))
            if abs(state.a) > CHAIN_TOL or abs(state.v - target) > CHAIN_TOL:
                return False
        w = self._held_w(twist.w)
        tol = max(0.5 * sum(c * c for c in w) * self._inner.dt, CHAIN_TOL)
        return all(abs(a - b) <= tol for a, b in zip(self.twist().w, w))

    def tick(self, twist: Twist) -> Pose:
        """Advance one tick toward the twist; the pose reached is returned.

        A non-finite twist component raises ValueError before any state,
        ``norm_drift`` included, changes.
        """
        _check_finite(twist)
        nrm, orient = self._orientation()
        self.norm_drift = max(self.norm_drift, abs(nrm - 1.0))
        qdot = omega_to_qdot(orient, self._held_w(twist.w))
        x, y, z = (s.x for s in self._inner.states[:3])
        self._inner._advance((*twist.v, *qdot), (x, y, z, orient.n, *orient.q))
        return self.pose()


def _check_finite(twist: Twist) -> None:
    """Raise ValueError on a non-finite twist component (a nan or inf would
    otherwise clamp to a limit and read as a reference)."""
    for c in (*twist.v, *twist.w):
        if not math.isfinite(c):
            raise ValueError(f"non-finite twist component {c}")
