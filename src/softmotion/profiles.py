"""Kinematic substrate: constant-jerk segments and piecewise-cubic axis profiles.

A trajectory for one axis is an ordered run of constant-jerk segments.
Position is piecewise cubic, velocity piecewise quadratic, acceleration
piecewise linear and jerk piecewise constant.  All evolution is closed
form; nothing in this module integrates numerically.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Segments shorter than this are numerical noise from case boundaries
#: and are dropped during profile construction.
DROP_DURATION = 1e-12

#: Absolute tolerance at which two states agree in a, v and x, as at the
#: seam of two chained segments or where a plan meets its boundary state.
CHAIN_TOL = 1e-9

#: Slack above jmax, amax and vmax that check_limits and the planner
#: still accept.
LIMIT_TOL = 1e-9

#: Step durations down to -CLAMP_TOL are rounding noise and clamp to zero.
CLAMP_TOL = 1e-9

#: Largest gap in a, v or x at which two profiles still chain end to start.
SEAM_TOL = 1e-7

#: Grid instants closer than this to the profile end give way to the end.
GRID_CUT = 1e-12


@dataclass(frozen=True)
class KinematicState:
    """Instantaneous (acceleration, velocity, position) of one axis."""

    a: float = 0.0
    v: float = 0.0
    x: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.v) and math.isfinite(self.x)):
            raise ValueError(f"non-finite kinematic state {(self.a, self.v, self.x)}")


@dataclass(frozen=True)
class KinematicLimits:
    """Per-axis bounds on |jerk|, |acceleration| and |velocity|.

    Bounds are symmetric about zero: the admissible jerk set is
    {-jmax, 0, +jmax} for planned motions, acceleration stays in
    [-amax, amax] and velocity in [-vmax, vmax].
    """

    jmax: float
    amax: float
    vmax: float

    def __post_init__(self) -> None:
        for name, val in (("jmax", self.jmax), ("amax", self.amax), ("vmax", self.vmax)):
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {val}")

    def scaled(self, factor: float) -> "KinematicLimits":
        """Common multiplicative factor on all three bounds (amplitude scaling)."""
        return KinematicLimits(self.jmax * factor, self.amax * factor, self.vmax * factor)


@dataclass(frozen=True)
class CubicSegment:
    """One constant-jerk piece: start state, jerk value and duration."""

    duration: float
    jerk: float
    start: KinematicState

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0.0):
            raise ValueError(f"segment duration must be >= 0, got {self.duration}")
        if not math.isfinite(self.jerk):
            raise ValueError("segment jerk must be finite")

    def state_at(self, dt: float) -> KinematicState:
        """State dt seconds into the segment (0 <= dt <= duration)."""
        return integrate_segment(self.start, self.jerk, dt)

    @property
    def end(self) -> KinematicState:
        return integrate_segment(self.start, self.jerk, self.duration)


def integrate_segment(start: KinematicState, jerk: float, dt: float) -> KinematicState:
    """Advance a state by dt under constant jerk, using the exact cubic forms.

    a(dt) = a0 + j*dt
    v(dt) = v0 + a0*dt + j*dt^2/2
    x(dt) = x0 + v0*dt + a0*dt^2/2 + j*dt^3/6
    """
    if not (math.isfinite(jerk) and math.isfinite(dt)):
        raise ValueError("jerk and dt must be finite")
    if dt < 0.0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    a, v, x = cubic(start.a, start.v, start.x, jerk, dt)
    return KinematicState(a=a, v=v, x=x)


def cubic(a0, v0, x0, jerk, dt):
    """(a, v, x) after dt under constant jerk, for floats or arrays alike.

    The one home of the closed form: ``integrate_segment``,
    ``sample_axes`` and the planner's float walks all call it, so their
    results agree bit for bit.  It checks nothing; ``integrate_segment`` is
    the checked form.
    """
    return (a0 + jerk * dt,
            v0 + (a0 + 0.5 * jerk * dt) * dt,
            x0 + (v0 + (0.5 * a0 + jerk * dt / 6.0) * dt) * dt)


@dataclass(frozen=True)
class AxisProfile:
    """Ordered run of constant-jerk segments for one axis, from t = 0.

    Immutable after construction; safe to evaluate concurrently.  Segment
    boundary states chain continuously (the builder guarantees it, and
    ``validate_chaining`` can re-check within CHAIN_TOL).  Profiles chain
    by joining segments (``concat_profiles``), not on a shared clock.
    Every profile has at least one segment: an axis at rest is a 0 s hold.
    """

    segments: tuple[CubicSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a profile needs at least one segment")

    @property
    def duration(self) -> float:
        # left to right like boundaries(): sum() is compensated from Python 3.12 on
        total = 0.0
        for s in self.segments:
            total += s.duration
        return total

    @property
    def start_state(self) -> KinematicState:
        return self.segments[0].start

    @property
    def final_state(self) -> KinematicState:
        return self.segments[-1].end

    def boundaries(self) -> list[float]:
        """Times of all segment boundaries, 0.0 first; the last is the duration
        bit for bit (the same sum)."""
        ts = [0.0]
        for s in self.segments:
            ts.append(ts[-1] + s.duration)
        return ts

    def evaluate(self, t: float) -> tuple[KinematicState, float]:
        return evaluate(self, t)

    def validate_chaining(self, tol: float = CHAIN_TOL) -> None:
        for k in range(len(self.segments) - 1):
            e = self.segments[k].end
            s = self.segments[k + 1].start
            if max(abs(e.a - s.a), abs(e.v - s.v), abs(e.x - s.x)) > tol:
                raise ValueError(f"discontinuity between segments {k} and {k + 1}")


def evaluate(profile: AxisProfile, t: float) -> tuple[KinematicState, float]:
    """State and jerk at time 0 <= t <= duration, within CHAIN_TOL.

    Boundary instants resolve to the later segment; the profile end returns
    the final boundary state with the last segment's jerk.
    """
    ts = profile.boundaries()
    if t < -CHAIN_TOL or t > ts[-1] + CHAIN_TOL:
        raise ValueError(f"t={t} outside profile span [0, {ts[-1]}]")
    t = min(max(t, 0.0), ts[-1])
    k = bisect_right(ts, t) - 1
    if k >= len(profile.segments):  # exactly at the end
        k = len(profile.segments) - 1
    seg = profile.segments[k]
    return seg.state_at(t - ts[k]), seg.jerk


class SegmentTables(NamedTuple):
    """The segments of m profiles as arrays, to sample them at many instants.

    Row i of ``bounds`` holds profile i's boundaries, padded with inf to
    one width L; column i*L + k of ``coeffs`` holds (a0, v0, x0, jerk) of
    its segment k.  ``last`` is each profile's last segment index,
    ``offsets`` is i*L and ``ends`` its duration, all three as (m, 1)
    columns.  ``span`` is the shortest duration: no time in [0, span] is
    held.
    """

    bounds: np.ndarray
    coeffs: np.ndarray
    last: np.ndarray
    offsets: np.ndarray
    ends: np.ndarray
    span: float


def segment_tables(profiles: list[AxisProfile]) -> SegmentTables:
    """The tables ``sample_axes`` reads, built once for a list of profiles."""
    m = len(profiles)
    width = max(len(p.segments) for p in profiles) + 1
    bounds = np.full((m, width), np.inf)
    coeffs = np.zeros((4, m, width))
    ends = np.empty((m, 1))
    for i, p in enumerate(profiles):
        b = p.boundaries()
        bounds[i, :len(b)] = b
        coeffs[:, i, :len(b) - 1] = np.transpose(
            [(s.start.a, s.start.v, s.start.x, s.jerk) for s in p.segments])
        ends[i, 0] = b[-1]
    last = np.array([[len(p.segments) - 1] for p in profiles])
    return SegmentTables(
        bounds=bounds, coeffs=coeffs.reshape(4, m * width), last=last,
        offsets=np.arange(m).reshape(m, 1) * width, ends=ends,
        span=float(np.min(ends)))


def sample_axes(tables: SegmentTables, ts) -> tuple[np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Position, velocity, acceleration and jerk of every profile at the 1-D
    times ts, each an (m, len(ts)) array.

    Times are first held to [0, duration], so instants outside a profile
    read its start or final state.  Every value equals, bit for bit, what
    ``evaluate`` returns at the held time.
    """
    t = np.asarray(ts, dtype=float)
    m = len(tables.bounds)
    if t.size and 0.0 <= t.min() and t.max() <= tables.span:
        # every time lies in [0, span]: no np.where below would pick its
        # bound, so the times stay as they are
        held = np.broadcast_to(t, (m, t.size))
    else:
        # held like evaluate's min(max(t, 0.0), duration); np.where keeps
        # its pick between equal values, so signed zeros match
        held = np.where(0.0 > t, 0.0, t)
        held = np.where(tables.ends < held, tables.ends, held)
    k = np.empty((m, t.size), dtype=np.intp)
    for i in range(m):
        k[i] = tables.bounds[i].searchsorted(held[i], "right")
    k -= 1
    np.minimum(k, tables.last, out=k)
    k += tables.offsets
    a0, v0, x0, jerk = tables.coeffs.take(k, axis=1)
    a, v, x = cubic(a0, v0, x0, jerk, held - tables.bounds.take(k))
    return x, v, a, jerk


def sample(profile: AxisProfile, ts) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray, np.ndarray]:
    """Position, velocity, acceleration and jerk arrays at the times ts.

    The one-profile case of ``sample_axes``, each array of the shape of ts:
    times are held to [0, duration], and every value equals, bit for bit,
    what ``evaluate`` returns at the held time.
    """
    t = np.asarray(ts, dtype=float)
    return tuple(col[0].reshape(t.shape)
                 for col in sample_axes(segment_tables([profile]), t.ravel()))


def make_profile(steps, start: KinematicState) -> AxisProfile:
    """Build a profile by integrating (jerk, duration) steps from a start state.

    Steps shorter than DROP_DURATION are dropped (their kinematic effect at
    that scale is below double-precision resolution for second-scale moves).
    When every step drops, the profile is a 0 s hold at ``start``.
    """
    segs = []
    state = start
    for jerk, dur in steps:
        if dur < 0.0:
            if dur < -CLAMP_TOL:
                raise ValueError(f"negative segment duration {dur}")
            dur = 0.0
        if dur < DROP_DURATION:
            continue
        segs.append(CubicSegment(duration=dur, jerk=jerk, start=state))
        state = segs[-1].end
    if not segs:
        segs.append(CubicSegment(duration=0.0, jerk=0.0, start=start))
    return AxisProfile(segments=tuple(segs))


def slice_profile(profile: AxisProfile, t_lo: float, t_hi: float) -> AxisProfile:
    """The motion of [t_lo, t_hi] of an existing profile, from t = 0."""
    if t_hi < t_lo:
        raise ValueError("t_hi must be >= t_lo")
    state, _ = evaluate(profile, t_lo)
    ts = profile.boundaries()
    steps = []
    t = t_lo
    for k, seg in enumerate(profile.segments):
        seg_end = ts[k + 1]
        if seg_end <= t_lo + DROP_DURATION:
            continue
        upto = min(seg_end, t_hi)
        if upto > t:
            steps.append((seg.jerk, upto - t))
            t = upto
        if t >= t_hi - DROP_DURATION:
            break
    return make_profile(steps, state)


def concat_profiles(parts: list[AxisProfile]) -> AxisProfile:
    """Chain profiles end to start; each part must begin where the previous ends.

    A 0 s part must chain too, but adds no segment, unless every part is
    0 s: then the chain is the first part.
    """
    if not parts:
        raise ValueError("no profiles to chain")
    for prev, nxt in zip(parts, parts[1:]):
        end, start = prev.final_state, nxt.start_state
        if max(abs(end.a - start.a), abs(end.v - start.v),
               abs(end.x - start.x)) > SEAM_TOL:
            raise ValueError("profiles do not chain continuously")
    segs = []
    for p in parts:
        if p.duration > 0.0:
            segs.extend(p.segments)
    return AxisProfile(segments=tuple(segs)) if segs else parts[0]


def scale_profile(profile: AxisProfile, r: float, x_offset: float = 0.0) -> AxisProfile:
    """Amplitude scaling: every kinematic quantity multiplied by r, same timing."""
    segs = []
    for seg in profile.segments:
        st = seg.start
        segs.append(CubicSegment(
            duration=seg.duration,
            jerk=seg.jerk * r,
            start=KinematicState(a=st.a * r, v=st.v * r, x=st.x * r + x_offset),
        ))
    return AxisProfile(segments=tuple(segs))


def sample_times(profile: AxisProfile, dt: float) -> np.ndarray:
    """Sampling grid k*dt below duration - GRID_CUT, then the exact duration.

    The grid values rise with k, so the instants below the cut are a
    prefix of the candidates; the candidates run two past the estimated
    cut, which covers any rounding of that estimate.  A 0 s profile gets
    the one instant 0.0.
    """
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be > 0")
    end = profile.duration
    cut = end - GRID_CUT
    ts = np.arange(int(cut / dt) + 3) * dt
    return np.append(ts[ts < cut], end)


@dataclass(frozen=True)
class LimitViolation:
    """One spot where a profile exceeds a bound."""

    quantity: str        # "jerk" | "acceleration" | "velocity"
    segment: int
    time: float          # time of the extremum
    value: float
    bound: float


@dataclass(frozen=True)
class LimitReport:
    violations: tuple[LimitViolation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def check_limits(profile: AxisProfile, limits: KinematicLimits) -> LimitReport:
    """Verify |jerk| <= jmax, |a| <= amax and |v| <= vmax over a whole profile.

    Extrema are located analytically per segment: acceleration is linear so
    its extrema sit at segment ends; velocity is quadratic with a stationary
    point where a = 0 inside the segment.  No sampling is involved.
    """
    out = []
    ts = profile.boundaries()
    for k, seg in enumerate(profile.segments):
        t_start = ts[k]
        if abs(seg.jerk) > limits.jmax + LIMIT_TOL:
            out.append(LimitViolation("jerk", k, t_start, seg.jerk, limits.jmax))
        ends = [(0.0, seg.start), (seg.duration, seg.end)]
        worst = max(ends, key=lambda c: abs(c[1].a))
        if abs(worst[1].a) > limits.amax + LIMIT_TOL:
            out.append(LimitViolation("acceleration", k, t_start + worst[0],
                                      worst[1].a, limits.amax))
        candidates = list(ends)
        if seg.jerk != 0.0:
            t_star = -seg.start.a / seg.jerk
            if 0.0 < t_star < seg.duration:
                candidates.append((t_star, seg.state_at(t_star)))
        worst = max(candidates, key=lambda c: abs(c[1].v))
        if abs(worst[1].v) > limits.vmax + LIMIT_TOL:
            out.append(LimitViolation("velocity", k, t_start + worst[0],
                                      worst[1].v, limits.vmax))
    return LimitReport(tuple(out))
