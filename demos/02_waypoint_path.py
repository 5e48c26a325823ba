"""Waypoint following with smooth corner transitions.

A three-point mission: the end effector leaves the start, rounds the
middle point without stopping, and halts at the goal.  Each leg would stop
at its far end on its own; the transition replaces the braking tail of one
leg and the accelerating head of the next by a minimal-time motion between
their cruise states, and all axes get the same transition duration.

Run:  python demos/02_waypoint_path.py
"""
import io

import numpy as np

from softmotion import KinematicLimits, evaluate, plan_waypoint_path_detailed
from softmotion.fileio import write_trajectory_csv

limits = KinematicLimits(jmax=0.9, amax=0.3, vmax=0.15)

p0 = np.array([0.00, 0.00, 0.00])
p1 = np.array([0.15, 0.15, 0.00])
pf = np.array([0.30, 0.30, 0.15])
profiles, report = plan_waypoint_path_detailed([p0, p1, pf], limits)

print("transition at the middle point:")
print(f"{'axis':>4} {'v_in':>7} {'v_out':>7} {'D':>8} {'t_opt':>7} {'t_imp':>7}")
for row in report:
    print(f"{'xyz'[row.axis]:>4} {row.v_in:>7.3f} {row.v_out:>7.3f} "
          f"{row.displacement:>8.4f} {row.t_opt:>7.4f} {row.t_imp:>7.4f}")

T = profiles[0].duration
print(f"\ntotal mission time: {T:.4f} s "
      f"(two stop-at-end legs would take {2 * 11 / 6:.4f} s)")
print(f"{'t':>6} {'x':>8} {'y':>8} {'z':>8} {'vx':>8} {'vz':>8}")
for t in np.linspace(0.0, T, 13):
    states = [evaluate(p, t)[0] for p in profiles]
    print(f"{t:>6.2f} {states[0].x:>8.4f} {states[1].x:>8.4f} "
          f"{states[2].x:>8.4f} {states[0].v:>8.4f} {states[2].v:>8.4f}")

# the sampled table is also available as CSV (plot-ready)
buf = io.StringIO()
write_trajectory_csv(buf, profiles, ["x", "y", "z"], dt=0.01)
lines = buf.getvalue().splitlines()
print(f"\nCSV sampling at 10 ms: {len(lines) - 1} rows, header:")
print(" ", lines[0])
