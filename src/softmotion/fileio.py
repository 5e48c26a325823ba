"""File formats shared by the command-line tools.

Limits file: one ``key value`` pair per line, ``#`` starts a comment.
Recognized keys are linear.jmax, linear.amax, linear.vmax and their
angular.* counterparts; missing keys fall back to the defaults below.

Waypoints file: one point per line, comma separated, either ``x,y,z`` or
``x,y,z,qn,qi,qj,qk``; all lines must share the same width.

Trajectory CSV: header ``t`` then ``<axis>_pos,<axis>_vel,<axis>_acc,
<axis>_jerk`` per axis; samples on the grid t0 + k*dt plus the exact final
time.  All numbers are serialized with 9 significant digits, so output is
byte-identical across runs.  Rows are sampled and formatted in blocks of
grid instants, one array pass per axis and block; the bytes are the same
as formatting each value with ``fmt`` after ``evaluate``.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .profiles import AxisProfile, KinematicLimits, sample, sample_times
from .profiles import evaluate  # noqa: F401  (perfbench/tracing.py wraps fileio.evaluate)

DEFAULT_LINEAR = KinematicLimits(jmax=0.900, amax=0.300, vmax=0.150)
DEFAULT_ANGULAR = KinematicLimits(jmax=0.600, amax=0.200, vmax=0.100)

#: Grid instants sampled and formatted together; bounds the writer's memory.
_BLOCK_ROWS = 256

_LIMIT_KEYS = ("linear.jmax", "linear.amax", "linear.vmax",
               "angular.jmax", "angular.amax", "angular.vmax")


@dataclass(frozen=True)
class LimitSet:
    linear: KinematicLimits = DEFAULT_LINEAR
    angular: KinematicLimits = DEFAULT_ANGULAR


def fmt(x: float) -> str:
    """Canonical 9-significant-digit serialization."""
    return f"{float(x):.9g}"


def read_limits(path: str) -> LimitSet:
    values = {"linear.jmax": DEFAULT_LINEAR.jmax,
              "linear.amax": DEFAULT_LINEAR.amax,
              "linear.vmax": DEFAULT_LINEAR.vmax,
              "angular.jmax": DEFAULT_ANGULAR.jmax,
              "angular.amax": DEFAULT_ANGULAR.amax,
              "angular.vmax": DEFAULT_ANGULAR.vmax}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace("=", " ").split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'key value', got {line!r}")
            key, raw = parts
            if key not in _LIMIT_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = float(raw)
    return LimitSet(
        linear=KinematicLimits(values["linear.jmax"], values["linear.amax"],
                               values["linear.vmax"]),
        angular=KinematicLimits(values["angular.jmax"], values["angular.amax"],
                                values["angular.vmax"]),
    )


def read_waypoints(path: str) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            vals = [float(tok) for tok in line.split(",")]
            if len(vals) not in (3, 7):
                raise ValueError(
                    f"{path}:{lineno}: waypoints need 3 or 7 coordinates, got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no waypoints found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: mixed 3- and 7-coordinate waypoints")
    return np.array(rows, dtype=float)


def parse_vector(text: str) -> list[float]:
    vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if len(vals) not in (2, 3, 7):
        raise ValueError(f"expected 2, 3 or 7 comma-separated numbers, got {len(vals)}")
    return vals


def write_trajectory_csv(stream: io.TextIOBase, profiles: list[AxisProfile],
                         names: list[str], dt: float,
                         rest_positions: list[float] | None = None) -> None:
    """Sampled trajectory table; one row per grid instant.

    The grid is sample_times of the axis that ends last.  Axes with empty
    profiles (no motion at all) report their rest position with zero
    derivatives.
    """
    if len(profiles) != len(names):
        raise ValueError("one name per axis profile is required")
    if rest_positions is None:
        rest_positions = [0.0] * len(profiles)
    longest = max(profiles, key=lambda p: p.end_time, default=AxisProfile())
    grid = sample_times(longest, dt)
    header = ["t"]
    for name in names:
        header += [f"{name}_pos", f"{name}_vel", f"{name}_acc", f"{name}_jerk"]
    stream.write(",".join(header) + "\n")
    rowfmt = ",".join(["%.9g"] * len(header)) + "\n"
    for lo in range(0, len(grid), _BLOCK_ROWS):
        ts = grid[lo:lo + _BLOCK_ROWS]
        zero = np.zeros(len(ts))
        cols = [ts]
        for prof, rest in zip(profiles, rest_positions):
            if prof.segments:
                cols += sample(prof, ts)
            else:
                cols += [np.full(len(ts), float(rest)), zero, zero, zero]
        stream.write("".join(rowfmt % row for row in zip(*[c.tolist() for c in cols])))


def write_transition_report(stream: io.TextIOBase, summaries, axis_names) -> None:
    """Per-transition table: boundary velocities, displacement and timing."""
    stream.write("waypoint,axis,v_in,v_out,displacement,t_opt,t_imp\n")
    for s in summaries:
        stream.write(",".join([
            str(s.waypoint), axis_names[s.axis], fmt(s.v_in), fmt(s.v_out),
            fmt(s.displacement), fmt(s.t_opt), fmt(s.t_imp)]) + "\n")
