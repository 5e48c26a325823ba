"""File formats shared by the command-line tools.

Limits file: one ``key value`` pair per line, ``#`` starts a comment.
Recognized keys are linear.jmax, linear.amax, linear.vmax and their
angular.* counterparts; missing keys fall back to the defaults below.

Waypoints file: one point per line, comma separated, either ``x,y,z`` or
``x,y,z,qn,qi,qj,qk``; all lines must share the same width.

Trajectory CSV: header ``t`` then ``<axis>_pos,<axis>_vel,<axis>_acc,
<axis>_jerk`` per axis; samples on the grid k*dt plus the exact final
time.  All numbers are serialized with 9 significant digits (``fmt``), so
output is byte-identical across runs.  Rows are sampled in blocks of grid
instants: the axes' segment tables are built once per write, every block
is one ``sample_axes`` pass over all axes, and ``_csv_rows``
formats a block in numpy; its bytes equal ``fmt`` of each value, value by
value.
For 1e-4 <= |x| < 1e3 it scales |x| by an exact power of ten to 9 integer
digits and rounds once: the product is off by at most half an ulp (6e-8),
so that rounding is the correctly rounded one Python uses, unless the
scaled value lies within 2.5e-7 of a half.  ``fmt`` itself formats such
near-ties and the values outside that range other than zero (exponent
form, nan, inf).  The digits come from lookup tables four at a time, into
a fixed-width 20-byte cell per value; the NUL bytes left unused are
deleted.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .profiles import (AxisProfile, KinematicLimits, sample_axes, sample_times,
                       segment_tables)
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


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """ASCII digit tables, four bytes to a uint32 word.

    heads[w, 2*i] is word w of the first 8 bytes of a cell for the integer
    part i = 0..1000: its digits end at byte 6 behind NUL padding, byte 7
    is the point, and bytes 0 and 1 are left for the separator and the
    sign; heads[w, 2*i + 1] has no point, for a value with no fraction.
    groups[2*g] holds four fraction digits g = 0..9999, and
    groups[2*g + 1] the same digits with trailing zeros as NULs, for the
    group that ends the fraction.
    """
    def digits(unit, n):            # the ASCII digit of unit in 0, 1, .., n - 1
        return np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8), unit), n // unit // 10 + 1)[:n]

    heads = np.zeros((2, 1001, 2, 4), np.uint8)
    heads[1, :, 0, 3] = ord(".")
    for j in range(4):              # the digit of 10**j, at byte 6 - j
        column = heads[(6 - j) // 4, :, :, (6 - j) % 4]
        column[:] = digits(10 ** j, 1001)[:, None]
        if j:
            column[:10 ** j] = 0    # no leading zeros
    groups = np.zeros((10000, 2, 4), np.uint8)
    for j in range(4):              # the digit of 10**(3 - j), at byte j
        groups[:, 0, j] = groups[:, 1, j] = digits(10 ** (3 - j), 10000)
        groups[::10 ** (4 - j), 1, j] = 0   # digits j.. all zero
    return heads.view(np.uint32).reshape(2, -1), groups.view(np.uint32).ravel()


_HEADS, _GROUPS = _digit_tables()
#: the decade index of |x| counts these powers of ten at or below it; it is
#: exact, as each float equals 10**X or lies above it with no float between
_DECADE_EDGES = [10.0 ** X for X in range(-4, 4)]
#: 10**(8 - X) at index X + 5 for the decades X = -4..2 of |x|; index 0
#: takes zero, nan and values below 1e-4 (scaled below 1e7, so never
#: fast), index 8 those at or above 1e3
_SCALES = np.array([1e11] + [float(10 ** (8 - X)) for X in range(-4, 3)] + [np.nan])
#: a scaled value this close to a half may round the other way than the
#: exact product would (its error is at most 6e-8), so fmt formats it
_NEAR_TIE = 0.5 - 2.5e-7


def _csv_rows(block: np.ndarray) -> str:
    """CSV text of a (rows, cols) float64 block: ``fmt`` of every value,
    ``,`` between values and ``\n`` after each row."""
    rows, cols = block.shape
    x = block.ravel()
    n = x.size
    buf = bytearray(20 * (n + 1))   # a cell per value, then the last newline
    cells = np.frombuffer(buf, np.uint32).reshape(n + 1, 5)
    slow = _fill_cells(x, cells[:n])
    chars = cells.view(np.uint8)
    np.multiply(np.signbit(x), np.uint8(ord("-")), out=chars[:n, 1])
    sep = chars[:n, 0].reshape(rows, cols)
    sep[:, 0] = ord("\n")           # ends the row before
    sep[:, 1:] = ord(",")
    chars[0, 0] = 0
    chars[n, 0] = ord("\n")
    if slow.size:
        text = [fmt(v) for v in x[slow].tolist()]
        chars[slow, 1:] = np.array(text, dtype="S19").view(np.uint8).reshape(-1, 19)
    return str(buf.translate(None, b"\0"), "ascii")


def _fill_cells(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write the digits and point of each value of x into its (5,) uint32
    cell; return the indices of the values left to ``fmt``."""
    y = np.abs(x)
    with np.errstate(invalid="ignore"):     # signalling nan
        decade = np.zeros(len(x), np.int32)
        for edge in _DECADE_EDGES:
            decade += y >= edge
        scale = _SCALES.take(decade)
        y *= scale
        m = np.rint(y)              # the 9 significant digits
        y -= m
        np.abs(y, out=y)
        fast = y < _NEAR_TIE
        fast &= m >= 1e8            # false below 1e-4 and for nan and inf
        fast |= x == 0.0
    slow = np.flatnonzero(~fast)
    m[slow] = 0.0
    scale[slow] = 1.0
    whole = np.divide(m, scale, out=y)     # m = 1e9 carries: 10**(X + 1)
    np.floor(whole, out=whole)
    index = whole.astype(np.int32)
    tmp = np.multiply(whole, scale, out=whole)
    m -= tmp
    m *= np.divide(1e12, scale, out=scale)   # the fraction in units of 1e-12
    index += index
    index += m == 0.0               # no fraction, no point
    cells[:, 0] = _HEADS[0].take(index)
    cells[:, 1] = _HEADS[1].take(index)
    group = scale
    for word, unit in ((2, 1e8), (3, 1e4)):
        np.divide(m, unit, out=group)
        np.floor(group, out=group)
        m -= np.multiply(group, unit, out=tmp)
        group += group
        index = group.astype(np.int32)
        index += m == 0.0           # nothing follows: drop trailing zeros
        cells[:, word] = _GROUPS.take(index)
    m += m
    index = m.astype(np.int32)
    index += 1
    cells[:, 4] = _GROUPS.take(index)
    return slow


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
                         names: list[str], dt: float) -> None:
    """Sampled trajectory table; one row per grid instant.

    The grid is sample_times of the axis that ends last.  Every axis needs
    a profile with segments (an axis at rest is a hold, as the planners
    return it); an empty profile raises ValueError before anything is
    written.
    """
    if len(profiles) != len(names):
        raise ValueError("one name per axis profile is required")
    tables = segment_tables(profiles)
    grid = sample_times(max(profiles, key=lambda p: p.duration), dt)
    header = ["t"]
    for name in names:
        header += [f"{name}_pos", f"{name}_vel", f"{name}_acc", f"{name}_jerk"]
    stream.write(",".join(header) + "\n")
    rows = np.empty((min(len(grid), _BLOCK_ROWS), len(header)))
    for lo in range(0, len(grid), _BLOCK_ROWS):
        ts = grid[lo:lo + _BLOCK_ROWS]
        block = rows[:len(ts)]
        block[:, 0] = ts
        # column 1 + 4 i + q holds quantity q (pos, vel, acc, jerk) of axis i
        for q, values in enumerate(sample_axes(tables, ts)):
            block[:, 1 + q::4] = values.T
        stream.write(_csv_rows(block))


def write_transition_report(stream: io.TextIOBase, summaries, axis_names) -> None:
    """Per-transition table: boundary velocities, displacement and timing."""
    stream.write("waypoint,axis,v_in,v_out,displacement,t_opt,t_imp\n")
    for s in summaries:
        stream.write(",".join([
            str(s.waypoint), axis_names[s.axis], fmt(s.v_in), fmt(s.v_out),
            fmt(s.displacement), fmt(s.t_opt), fmt(s.t_imp)]) + "\n")
