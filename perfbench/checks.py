"""Checks of softmotion outputs that share no code with softmotion.

Every check here works from the inputs and the limits alone: it integrates
constant-jerk segments with its own cubic formulas, finds velocity extrema
analytically, parses the CSV files itself and derives rest-to-rest times in
closed form.  Nothing in this module imports softmotion, so a fault in the
library cannot hide itself by also breaking its own checker.

Each check returns a list of problems; an empty list means the output passed.
A problem is a ``(kind, message)`` pair, where ``kind`` names the property
that broke ("accel", "velocity", "jerk", "boundary", ...).
"""
from __future__ import annotations

import csv
import math

#: Boundary states and segment chaining are promised to 1e-9.
STATE_TOL = 1e-9
#: The CSV files carry 9 significant digits; a printed value may differ
#: from the exact one by half a unit in its ninth digit.
FMT_REL = 1e-8


def integrate(a: float, v: float, x: float, j: float, t: float):
    """State (a, v, x) after t seconds at constant jerk j."""
    return (a + j * t,
            v + a * t + 0.5 * j * t * t,
            x + v * t + 0.5 * a * t * t + j * t * t * t / 6.0)


# ---------------------------------------------------------------------------
# segment lists: [(duration, jerk, (a, v, x) at the segment start), ...]
# ---------------------------------------------------------------------------

def check_segments(segments, init, target, limits, max_segments=7):
    """Problems of a planned 1-D motion from ``init`` to ``target``.

    ``limits`` is (jmax, amax, vmax); ``init`` and ``target`` are (a, v, x).
    Checks the chaining of every segment start against the benchmark's own
    integration, |j| in {0, jmax}, |a| and |v| within their bounds (velocity
    extrema sit at the segment ends or where a crosses zero), the end state
    against the target, and the segment count.
    """
    jmax, amax, vmax = limits
    out = []
    if len(segments) > max_segments:
        out.append(("segments", f"{len(segments)} segments, more than {max_segments}"))
    a, v, x = init
    for k, (dur, jerk, start) in enumerate(segments):
        err = max(abs(start[0] - a), abs(start[1] - v), abs(start[2] - x))
        if err > STATE_TOL:
            out.append(("chaining", f"segment {k} starts {err:.2e} off the integrated state"))
        if dur < 0.0:
            out.append(("duration", f"segment {k} has negative duration {dur}"))
            dur = 0.0
        if jerk != 0.0 and abs(abs(jerk) - jmax) > 1e-12 * jmax:
            out.append(("jerk", f"segment {k} jerk {jerk} is not 0 or +-{jmax}"))
        end = integrate(a, v, x, jerk, dur)
        peak_a = max(abs(a), abs(end[0]))
        if peak_a > amax + STATE_TOL:
            out.append(("accel", f"segment {k} reaches |a| = {peak_a:.6g} > {amax}"))
        peak_v = max(abs(v), abs(end[1]))
        if jerk != 0.0:
            t_star = -a / jerk
            if 0.0 < t_star < dur:
                peak_v = max(peak_v, abs(integrate(a, v, x, jerk, t_star)[1]))
        if peak_v > vmax + STATE_TOL:
            out.append(("velocity", f"segment {k} reaches |v| = {peak_v:.6g} > {vmax}"))
        a, v, x = end
    err = max(abs(a - target[0]), abs(v - target[1]), abs(x - target[2]))
    if err > STATE_TOL:
        out.append(("boundary", f"end state misses the target by {err:.2e}"))
    return out


def negated_plan_problems(segments, mirrored_segments):
    """Problems unless one plan is the other with every jerk negated."""
    if len(segments) != len(mirrored_segments):
        return [("mirror", f"{len(segments)} segments against "
                           f"{len(mirrored_segments)} in the mirrored plan")]
    out = []
    for k, ((d1, j1, _), (d2, j2, _)) in enumerate(zip(segments, mirrored_segments)):
        if abs(d1 - d2) > STATE_TOL or j1 != -j2:
            out.append(("mirror", f"segment {k}: ({d1}, {j1}) is not the negation "
                                  f"of ({d2}, {j2})"))
    return out


# ---------------------------------------------------------------------------
# closed forms worked out by hand
# ---------------------------------------------------------------------------

def connection(a0, v0, af, vf, jmax, amax):
    """Fastest bang-bang jerk run taking (a0, v0) to (af, vf), position free.

    Returns (duration, displacement).  The run is jerk +J up to a peak
    acceleration p then -J down to af; on the phase parabolas that peak
    satisfies p^2 = J (vf - v0) + (a0^2 + af^2) / 2.  Past amax the peak
    becomes a plateau held for the missing velocity.  The mirrored run
    (-J then +J through a valley) is tried as well.
    """
    best = None
    for s in (1.0, -1.0):
        sq = s * jmax * (vf - v0) + 0.5 * (a0 * a0 + af * af)
        if sq < -1e-15:
            continue
        p = s * math.sqrt(max(sq, 0.0))
        if s * p < s * a0 - 1e-12 or s * p < s * af - 1e-12:
            continue
        if abs(p) <= amax:
            steps = [(s * jmax, (p - a0) / (s * jmax)), (-s * jmax, (p - af) / (s * jmax))]
        else:
            cap = s * amax
            hold = (s * (vf - v0) - (2 * amax * amax - a0 * a0 - af * af) / (2 * jmax)) / amax
            steps = [(s * jmax, (cap - a0) / (s * jmax)), (0.0, hold),
                     (-s * jmax, (cap - af) / (s * jmax))]
        if any(d < -1e-9 for _, d in steps):
            continue
        a, v, x, total = a0, v0, 0.0, 0.0
        for jerk, d in steps:
            d = max(d, 0.0)
            a, v, x = integrate(a, v, x, jerk, d)
            total += d
        if best is None or total < best[0]:
            best = (total, x)
    if best is None:
        raise ValueError(f"no connection from ({a0}, {v0}) to ({af}, {vf})")
    return best


def rest_to_rest_time(distance, jmax, amax, vmax):
    """Minimal rest-to-rest time over ``distance`` (needs vmax*jmax >= amax^2).

    With jerk ramps of Tj = A/J: below 2A^3/J^2 the motion is four pure
    jerk arcs, D = 2 J Tj^3, so T = 4 (D / 2J)^(1/3).  Up to the speed
    limit an acceleration plateau Ta appears, D = A (Tj + Ta)(2 Tj + Ta),
    so T = 4 Tj + 2 Ta = Tj + sqrt(Tj^2 + 4 D / A).  Beyond that the motion
    cruises at V, and T = D / V + V / A + A / J.  For the default limits
    (0.9, 0.3, 0.15) and 0.15 m this gives 1 + 0.5 + 1/3 = 11/6 s.
    """
    if vmax * jmax < amax * amax:
        raise ValueError("closed form written for limits with an acceleration plateau")
    distance = abs(distance)
    tj = amax / jmax
    if distance < 2.0 * amax ** 3 / jmax ** 2:
        return 4.0 * (distance / (2.0 * jmax)) ** (1.0 / 3.0)
    if distance < vmax * (tj + vmax / amax):
        return tj + math.sqrt(tj * tj + 4.0 * distance / amax)
    return distance / vmax + vmax / amax + tj


def straight_line_time(delta, limits):
    """Rest-to-rest time of a synchronised straight move by the vector ``delta``.

    The progress variable runs along the segment length under the limits
    divided by the largest direction cosine, so the dominant axis runs at
    its own limits.
    """
    length = math.sqrt(sum(d * d for d in delta))
    if length == 0.0:
        return 0.0
    dom = max(abs(d) for d in delta) / length
    return rest_to_rest_time(length, *(lim / dom for lim in limits))


# ---------------------------------------------------------------------------
# CSV files
# ---------------------------------------------------------------------------

def read_rows(path):
    """Header and rows of a comma-separated file, as strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def read_table(path):
    """Header and float rows of a comma-separated file."""
    header, rows = read_rows(path)
    return header, [[float(c) for c in row] for row in rows]


def _close(printed, exact, scale=0.0):
    return abs(printed - exact) <= FMT_REL * max(abs(exact), scale) + 1e-15


def check_trajectory(header, rows, names, limits, dt, start, goal):
    """Problems of a sampled trajectory table.

    ``limits`` holds one (jmax, amax, vmax) per axis name.  Checks the
    header, the time grid t = k*dt plus the exact end, the first row at
    ``start`` and the last at ``goal`` with zero velocity and acceleration,
    every row within its axis's limits, and that each row follows from the
    previous one by constant-jerk integration up to the jerk switches a
    sampling interval can hide (at most 2*jmax of jerk change).
    """
    out = []
    want = ["t"] + [f"{n}_{q}" for n in names for q in ("pos", "vel", "acc", "jerk")]
    if header != want:
        return [("header", f"header {header} is not {want}")]
    if not rows:
        return [("rows", "no rows")]
    n = len(rows)
    for k, row in enumerate(rows[:-1]):
        if not _close(row[0], k * dt, dt):
            out.append(("grid", f"row {k} at t = {row[0]}, expected {k * dt}"))
            break
    if n > 1 and not (0.0 < rows[-1][0] - rows[-2][0] <= dt * (1.0 + 1e-6)):
        out.append(("grid", f"last row at t = {rows[-1][0]} is not within one step "
                            f"after {rows[-2][0]}"))
    for i, name in enumerate(names):
        c = 1 + 4 * i
        jmax, amax, vmax = limits[i]
        first, last = rows[0], rows[-1]
        if not (_close(first[c], start[i], 1.0) and first[c + 1] == 0.0 and first[c + 2] == 0.0):
            out.append(("start", f"{name} starts at {first[c:c + 3]}, not at rest at {start[i]}"))
        if not (_close(last[c], goal[i], 1.0) and abs(last[c + 1]) <= 1e-12
                and abs(last[c + 2]) <= 1e-12):
            out.append(("goal", f"{name} ends at {last[c:c + 3]}, not at rest at {goal[i]}"))
        for k, row in enumerate(rows):
            x, v, a, j = row[c:c + 4]
            if abs(v) > vmax * (1 + FMT_REL) or abs(a) > amax * (1 + FMT_REL) \
                    or abs(j) > jmax * (1 + FMT_REL):
                out.append(("limits", f"{name} row {k} (v={v}, a={a}, j={j}) breaks "
                                      f"{limits[i]}"))
                break
        for k in range(n - 1):
            h = rows[k + 1][0] - rows[k][0]
            x, v, a, j = rows[k][c:c + 4]
            x1, v1, a1 = rows[k + 1][c:c + 3]
            ea, ev, ex = integrate(a, v, x, j, h)
            slack = FMT_REL * 4
            if abs(a1 - ea) > 2 * jmax * h + slack * amax \
                    or abs(v1 - ev) > jmax * h * h + slack * vmax \
                    or abs(x1 - ex) > jmax * h ** 3 / 3 + slack * (abs(x) + vmax * h + 1e-3):
                out.append(("integration", f"{name} rows {k}->{k + 1} do not follow "
                                           "by constant-jerk integration"))
                break
    return out


def check_straight(rows, columns, p0, pf):
    """Problems unless the given position columns stay on the segment p0 -> pf."""
    delta = [b - a for a, b in zip(p0, pf)]
    norm2 = sum(d * d for d in delta)
    scale = max([1.0] + [abs(c) for c in p0 + pf])
    for k, row in enumerate(rows):
        p = [row[c] for c in columns]
        rel = [pi - ai for pi, ai in zip(p, p0)]
        s = sum(r * d for r, d in zip(rel, delta)) / norm2 if norm2 > 0.0 else 0.0
        off = max(abs(r - s * d) for r, d in zip(rel, delta))
        if off > 4 * FMT_REL * scale or s < -1e-8 or s > 1 + 1e-8:
            return [("straight", f"row {k} is {off:.2e} off the segment at s = {s:.6f}")]
    return []


def still_moving_before_end(rows, columns):
    """Problems if a moving axis reaches rest before the last row.

    ``columns`` are position columns, each followed by its velocity,
    acceleration and jerk columns.  For every axis that moves, the
    second-to-last row must still show motion (nonzero velocity,
    acceleration or jerk), so all axes finish together at the final time.
    """
    if len(rows) < 2:
        return []
    out = []
    for c in columns:
        if rows[0][c] == rows[-1][c]:
            continue
        if rows[-2][c + 1] == 0.0 and rows[-2][c + 2] == 0.0 and rows[-2][c + 3] == 0.0:
            out.append(("sync", f"column {c} is at rest before the final time"))
    return out


def report_problems(header, rows, n_points, readme):
    """Problems of a transition report (strings as read) of an n-point path.

    Every interior waypoint has one row per axis with t_imp >= t_opt.  For
    the README mission (corner at (0.15, 0.15, 0)), x and y leave and rejoin
    cruise at vmax and sweep 0.125 m, z starts from rest and sweeps
    0.0625 m, and all three take 5/6 s.
    """
    if header != ["waypoint", "axis", "v_in", "v_out", "displacement", "t_opt", "t_imp"]:
        return [("header", f"report header {header}")]
    out = []
    if len(rows) != 3 * (n_points - 2):
        out.append(("rows", f"{len(rows)} report rows for {n_points - 2} transitions"))
    for row in rows:
        if float(row[6]) < float(row[5]):
            out.append(("t_imp", f"report row {row}: t_imp < t_opt"))
    if readme:
        for row, want in zip(rows, (0.125, 0.125, 0.0625)):
            if abs(float(row[4]) - want) > 1e-9 or abs(float(row[6]) - 5.0 / 6.0) > 1e-6:
                out.append(("readme", f"row {row}: want displacement {want}, t_imp 5/6 s"))
    return out


# ---------------------------------------------------------------------------
# tracker state traces: one list of (a, v, x) per axis per tick
# ---------------------------------------------------------------------------

def tick_problems(states, start, limits, dt):
    """Problems of a tracker trace: limits at every tick, |dv| <= amax*dt and
    |da| <= jmax*dt from one tick to the next."""
    out = []
    prev = start
    for k, row in enumerate(states):
        for ax, ((a, v, _), (a0, v0, _), (jmax, amax, vmax)) in enumerate(
                zip(row, prev, limits)):
            if abs(a) > amax + STATE_TOL or abs(v) > vmax + STATE_TOL:
                out.append(("limits", f"tick {k} axis {ax}: a={a}, v={v}"))
            if abs(v - v0) > amax * dt + 1e-12 or abs(a - a0) > jmax * dt + 1e-12:
                out.append(("step", f"tick {k} axis {ax}: change beyond amax*dt or jmax*dt"))
        prev = row
    return out


def settle_problems(states, hold_ends, refs, limits):
    """Problems unless each listed axis rests on its clamped reference velocity
    (a = 0, v = ref to 1e-9) at the last tick of every hold."""
    out = []
    for h, k in enumerate(hold_ends):
        for ax, ref in enumerate(refs[h]):
            a, v, _ = states[k][ax]
            vmax = limits[ax][2]
            want = max(-vmax, min(vmax, ref))
            if abs(a) > STATE_TOL or abs(v - want) > STATE_TOL:
                out.append(("settle", f"hold {h} axis {ax}: (a={a}, v={v}) not on {want}"))
    return out
