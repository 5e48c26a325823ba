import hashlib
import io

import pytest

from softmotion import (AxisProfile, Pose, Quaternion, cli, evaluate,
                        plan_pose_axes, plan_ptp_nd, plan_waypoint_path_detailed,
                        sample_times, shift_profile)
from softmotion.fileio import fmt, write_trajectory_csv


def reference_write(stream, profiles, names, dt, rest_positions=None):
    """The per-value writer (one evaluate and one fmt per value) the block writer replaced."""
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
    for t in grid:
        row = [fmt(t)]
        for prof, rest in zip(profiles, rest_positions):
            if prof.segments:
                state, jerk = evaluate(prof, min(max(t, prof.t0), prof.end_time))
                row += [fmt(state.x), fmt(state.v), fmt(state.a), fmt(jerk)]
            else:
                row += [fmt(rest), fmt(0.0), fmt(0.0), fmt(0.0)]
        stream.write(",".join(row) + "\n")


def both_writers(profiles, names, dt, rest_positions=None):
    new, ref = io.StringIO(), io.StringIO()
    write_trajectory_csv(new, profiles, names, dt, rest_positions=rest_positions)
    reference_write(ref, profiles, names, dt, rest_positions=rest_positions)
    return new.getvalue(), ref.getvalue()


XYZ = ["x", "y", "z"]
POSE = ["x", "y", "z", "qn", "qi", "qj", "qk"]


def test_line_matches_reference(lin):
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.15, -0.07, 0.033], lin)
    new, ref = both_writers(profiles, XYZ, 0.01)
    assert new == ref


def test_pose_move_with_hold_axes_matches_reference(lin, ang):
    # x and z do not move, nor do qi and qj: they are planned as holds
    pose0 = Pose((0.1, 0.0, 0.2), Quaternion.identity())
    posef = Pose((0.1, 0.05, 0.2), Quaternion.from_axis_angle((0, 0, 1), 0.7))
    profiles = plan_pose_axes(pose0, posef, lin, ang)
    assert len(profiles[0].segments) == 1 and profiles[0].segments[0].jerk == 0.0
    new, ref = both_writers(profiles, POSE, 0.001)
    assert new.count("\n") > 1000
    assert new == ref


def test_waypoint_path_matches_reference(lin):
    profiles, _ = plan_waypoint_path_detailed(
        [[0.0, 0.0, 0.0], [0.15, 0.15, 0.0], [0.30, 0.30, 0.15]], lin)
    new, ref = both_writers(profiles, XYZ, 0.01, rest_positions=[0.0, 0.0, 0.0])
    assert new == ref


@pytest.mark.parametrize("rest", [None, [0.1, -0.2, 0.3]])
def test_all_empty_move_matches_reference(rest):
    new, ref = both_writers([AxisProfile()] * 3, XYZ, 0.01, rest_positions=rest)
    assert new.count("\n") == 2
    assert new == ref


def test_dt_that_does_not_divide_the_duration(lin):
    profiles = plan_ptp_nd([-0.1, 0.0, 0.0], [0.1, -0.05, 0.02], lin)
    assert profiles[0].duration / 0.0137 % 1.0 > 0.01
    new, ref = both_writers(profiles, XYZ, 0.0137)
    assert new == ref


def test_axes_with_other_start_and_end_times(lin):
    # one axis starts late and one ends early: both are held at their ends
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.2, 0.1, -0.05], lin)
    short = plan_ptp_nd([0.0], [0.03], lin)[0]
    profiles = [profiles[0], shift_profile(profiles[1], 0.25), short]
    new, ref = both_writers(profiles, XYZ, 0.003)
    assert new == ref


@pytest.mark.parametrize("rows", [2, 255, 256, 257, 512, 513])
def test_block_edges_match_reference(lin, rows):
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.1, 0.04, -0.02], lin)
    dt = profiles[0].end_time / (rows - 1.5)
    assert len(sample_times(profiles[0], dt)) == rows
    new, ref = both_writers(profiles, XYZ, dt)
    assert new.count("\n") == rows + 1
    assert new == ref


class WriteOnly:
    """A stream with nothing but write, like perfbench's row-counting proxy."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


def test_writer_needs_only_write(lin):
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.1, 0.04, -0.02], lin)
    out = WriteOnly()
    write_trajectory_csv(out, profiles, XYZ, 0.001)
    new, ref = both_writers(profiles, XYZ, 0.001)
    assert "".join(out.parts) == new == ref


#: SHA-256 of the README commands' CSVs, fixed before the block writer
#: existed; a change that alters one byte of them fails here.
PINNED = [
    (["plan-ptp", "--from", "0,0,0,1,0,0,0", "--to", "0.1,0,0,0.966,0,0,0.259",
      "--dt", "0.001"], None,
     "17f43dc70201f07b5ca4219db705f8d99bc5f6760215709de868bc8dc78f7a7e"),
    (["plan-path", "--dt", "0.01"], "0,0,0\n0.15,0.15,0\n0.30,0.30,0.15\n",
     "c9b511ffaee711eb994b947c406d8b3f50a20805914a8391daa91899160f7033"),
    # a path whose corners take the slowed, stop-and-dwell and min-time
    # strategies, pinned before the stretching root solver was rewritten
    (["plan-path", "--dt", "0.01"], "0,0,0\n0.15,0.1,0\n0.3,0.1,0.1\n0.2,0.25,0.15\n",
     "3d8d1817fadcbbb77c0d4ac54e29c91d48c336a119df33427b4ae01d7f5baa28"),
]


@pytest.mark.parametrize("argv,waypoints,digest", PINNED,
                         ids=["plan-ptp", "plan-path", "plan-path-stretched"])
def test_readme_csv_bytes_are_pinned(tmp_path, argv, waypoints, digest):
    out = tmp_path / "traj.csv"
    argv = argv + ["--out", str(out)]
    if waypoints is not None:
        wp = tmp_path / "wp.txt"
        wp.write_text(waypoints)
        argv += ["--waypoints", str(wp)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
