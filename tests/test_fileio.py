import hashlib
import io

import numpy as np
import pytest

from softmotion import (AxisProfile, Pose, Quaternion, cli, evaluate, fileio,
                        plan_pose_axes, plan_ptp_nd, plan_waypoint_path_detailed,
                        plan_ptp_1d, sample_times)
from softmotion.fileio import _csv_rows, fmt, write_trajectory_csv


def reference_write(stream, profiles, names, dt):
    """The per-value writer (one evaluate and one fmt per value) the block writer replaced."""
    if len(profiles) != len(names):
        raise ValueError("one name per axis profile is required")
    longest = max(profiles, key=lambda p: p.duration)
    grid = sample_times(longest, dt)
    header = ["t"]
    for name in names:
        header += [f"{name}_pos", f"{name}_vel", f"{name}_acc", f"{name}_jerk"]
    stream.write(",".join(header) + "\n")
    for t in grid:
        row = [fmt(t)]
        for prof in profiles:
            state, jerk = evaluate(prof, min(max(t, 0.0), prof.duration))
            row += [fmt(state.x), fmt(state.v), fmt(state.a), fmt(jerk)]
        stream.write(",".join(row) + "\n")


def both_writers(profiles, names, dt):
    new, ref = io.StringIO(), io.StringIO()
    write_trajectory_csv(new, profiles, names, dt)
    reference_write(ref, profiles, names, dt)
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
    new, ref = both_writers(profiles, XYZ, 0.01)
    assert new == ref


@pytest.mark.parametrize("rest", [None, [0.1, -0.2, 0.3]])
def test_all_empty_move_matches_reference(lin, rest):
    # a move of zero length (None: at the origin) is a 0 s hold per axis,
    # written as one row at its rest position
    rest = [0.0, 0.0, 0.0] if rest is None else rest
    new, ref = both_writers(plan_ptp_nd(rest, rest, lin), XYZ, 0.01)
    assert new.count("\n") == 2
    assert new == ref
    assert new.splitlines()[1] == ",".join(["0"] + [f"{fmt(x)},0,0,0" for x in rest])


def test_dt_that_does_not_divide_the_duration(lin):
    profiles = plan_ptp_nd([-0.1, 0.0, 0.0], [0.1, -0.05, 0.02], lin)
    assert profiles[0].duration / 0.0137 % 1.0 > 0.01
    new, ref = both_writers(profiles, XYZ, 0.0137)
    assert new == ref


def test_axes_with_other_end_times(lin):
    # one axis ends early and one is a 0 s hold: both are held at their ends
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.2, 0.1, -0.05], lin)
    short = plan_ptp_nd([0.0], [0.03], lin)[0]
    profiles = [profiles[0], short, plan_ptp_1d(0.0, lin, x0=-0.05)]
    new, ref = both_writers(profiles, XYZ, 0.003)
    assert new == ref


@pytest.mark.parametrize("rows", [2, 255, 256, 257, 512, 513])
def test_block_edges_match_reference(lin, rows):
    profiles = plan_ptp_nd([0.0, 0.0, 0.0], [0.1, 0.04, -0.02], lin)
    dt = profiles[0].duration / (rows - 1.5)
    assert len(sample_times(profiles[0], dt)) == rows
    new, ref = both_writers(profiles, XYZ, dt)
    assert new.count("\n") == rows + 1
    assert new == ref


def reference_rows(block):
    return "".join(",".join(fmt(v) for v in row) + "\n" for row in block.tolist())


def assert_rows_match_fmt(values, cols=29):
    """_csv_rows equals fmt value by value, on blocks of 256 rows."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-len(values) % cols)]).reshape(-1, cols)
    for lo in range(0, len(values), 256):
        block = values[lo:lo + 256]
        new, ref = _csv_rows(block), reference_rows(block)
        if new != ref:
            bad = [(v, a, b) for v, a, b in zip(block.ravel().tolist(),
                                                new.replace("\n", ",").split(","),
                                                ref.replace("\n", ",").split(","))
                   if a != b]
            raise AssertionError(f"{len(bad)} values differ from fmt, first {bad[:3]}")


def exact_ties():
    """Every value (n + 1/2)*10**(X - 8) with 1e8 <= n < 1e9 and X = -4..3
    that float64 holds: q * 2**(X - 9) for odd q = (2n + 1) / 5**(8 - X)."""
    out = []
    for X in range(-4, 4):
        five = 5 ** (8 - X)
        q = np.arange(-(-(2 * 10 ** 8 + 1) // five), (2 * 10 ** 9 - 1) // five + 1)
        q = q[q % 2 == 1]
        out.append(np.ldexp(q.astype(float), X - 9))
    return np.concatenate(out)


def test_rows_match_fmt_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False)
    assert_rows_match_fmt(bits.view(np.float64))
    # the same mantissas with binary exponents -17..14 (8e-6 to 3e4), around
    # the range the formatter writes itself
    exponent = rng.integers(1023 - 17, 1023 + 15, len(bits)).astype(np.uint64) << np.uint64(52)
    mixed = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponent
    assert_rows_match_fmt(mixed.view(np.float64))


def test_rows_match_fmt_next_to_powers_of_ten():
    powers = np.array([10.0 ** k for k in range(-6, 11)])
    values = [powers]
    for steps in range(1, 4):
        lo, hi = powers.copy(), powers.copy()
        for _ in range(steps):
            lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, np.inf)
        values += [lo, hi]
    values = np.concatenate(values)
    assert_rows_match_fmt(np.concatenate([values, -values]))


def test_rows_match_fmt_on_exact_ties_and_their_neighbours():
    ties = exact_ties()
    assert len(ties) > 300_000
    scaled = [t * 10.0 ** (8 - np.floor(np.log10(t))) for t in ties[::9973]]
    assert all(s % 1.0 == 0.5 for s in scaled)
    values = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    values[1::2] *= -1.0
    assert_rows_match_fmt(values)


def test_rows_match_fmt_next_to_ties_that_float64_cannot_hold():
    # the float nearest (n + 1/2)*10**(X - 8): its scaled product may round
    # onto the half, where rint and the exact value part ways
    rng = np.random.default_rng(21)
    n = rng.integers(10 ** 8, 10 ** 9, 200_000).tolist()
    X = rng.integers(-4, 4, len(n)).tolist()
    near = np.array([float(f"{10 * k + 5}e{e - 9}") for k, e in zip(n, X)])
    values = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf)])
    values[1::2] *= -1.0
    assert_rows_match_fmt(values)


def test_rows_match_fmt_on_special_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
              float("nan"), -float("nan"), float("inf"), -float("inf"),
              9.9999999995, -9.9999999995, 999.9999995, -999.9999995, 999.99999951,
              999999999.5, 9999.99999, 9999.999995,
              1e-4, 9.99999999e-5, 0.5, 1.0, 1e16, -1.7976931348623157e308]
    for cols in (1, 3, 29):
        assert_rows_match_fmt(values, cols)
    assert _csv_rows(np.array([[0.0, -0.0]])) == "0,-0\n"


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


def test_writer_builds_each_axis_table_once(lin, ang, monkeypatch):
    # a pose move of 7 axes over 3 blocks, and a line whose z axis holds
    pose0 = Pose((0.0, 0.0, 0.0), Quaternion.identity())
    posef = Pose((0.01, 0.02, 0.0), Quaternion.from_axis_angle((1, 2, 3), 0.1))
    moves = [plan_pose_axes(pose0, posef, lin, ang),
             plan_ptp_nd([0.0, 0.0, 0.0], [0.01, 0.02, 0.0], lin)]
    assert moves[1][2].segments[0].jerk == 0.0 and len(moves[1][2].segments) == 1
    counts = {"segment_tables": 0, "boundaries": 0}
    segment_tables, boundaries = fileio.segment_tables, AxisProfile.boundaries

    def counted_tables(profiles):
        counts["segment_tables"] += 1
        return segment_tables(profiles)

    def counted_boundaries(self):
        counts["boundaries"] += 1
        return boundaries(self)

    monkeypatch.setattr(fileio, "segment_tables", counted_tables)
    monkeypatch.setattr(AxisProfile, "boundaries", counted_boundaries)
    for profiles in moves:
        counts.update(segment_tables=0, boundaries=0)
        out = io.StringIO()
        write_trajectory_csv(out, profiles, POSE[:len(profiles)], 0.001)
        assert out.getvalue().count("\n") > 2 * 256 + 1
        assert counts == {"segment_tables": 1, "boundaries": len(profiles)}


#: SHA-256 of the README commands' CSVs, fixed before the block writer
#: existed, and of a path's transition report where one is given; a change
#: that alters one byte of them fails here.
PINNED = [
    (["plan-ptp", "--from", "0,0,0,1,0,0,0", "--to", "0.1,0,0,0.966,0,0,0.259",
      "--dt", "0.001"], None,
     "17f43dc70201f07b5ca4219db705f8d99bc5f6760215709de868bc8dc78f7a7e", None),
    (["plan-path", "--dt", "0.01"], "0,0,0\n0.15,0.15,0\n0.30,0.30,0.15\n",
     "c9b511ffaee711eb994b947c406d8b3f50a20805914a8391daa91899160f7033", None),
    # a path whose corners take the slowed, stop-and-dwell and min-time
    # strategies, pinned before the stretching root solver was rewritten
    (["plan-path", "--dt", "0.01"], "0,0,0\n0.15,0.1,0\n0.3,0.1,0.1\n0.2,0.25,0.15\n",
     "3d8d1817fadcbbb77c0d4ac54e29c91d48c336a119df33427b4ae01d7f5baa28", None),
    # all seven axes move, the end (8.83342489 s) falls off the grid and the
    # 8 835 rows span 35 blocks; pinned before all axes of a block were
    # sampled in one pass
    (["plan-ptp", "--from", "0.02,-0.01,0.03,0.9,0.3,-0.2,0.2449",
      "--to", "0.11,0.05,-0.04,0.95,-0.1,0.2,0.2179", "--dt", "0.001"], None,
     "fbb101588274e837f85204147e059c59eefe1c8ef3aed3f32240707bc6fc16bc", None),
    # a dwell leg and a z axis at rest; the middle legs are sliced from
    # mid-leg instants and joined
    (["plan-path", "--dt", "0.01"], "0,0,0\n0.1,0,0\n0.1,0,0\n0.2,0.1,0\n",
     "a290c7c1d7eda03a019969f8738bc8dcad63b53f545c6404b5ea1bed84d3efa2",
     "f2e65f0119770603f6878e230e48c6aff728e87e5bec39a092929d344cfde251"),
]


@pytest.mark.parametrize("argv,waypoints,digest,report_digest", PINNED,
                         ids=["plan-ptp", "plan-path", "plan-path-stretched",
                              "plan-ptp-seven-axes", "plan-path-repeated-point"])
def test_readme_csv_bytes_are_pinned(tmp_path, argv, waypoints, digest, report_digest):
    out = tmp_path / "traj.csv"
    report = tmp_path / "report.csv"
    argv = argv + ["--out", str(out)]
    if waypoints is not None:
        wp = tmp_path / "wp.txt"
        wp.write_text(waypoints)
        argv += ["--waypoints", str(wp)]
    if report_digest is not None:
        argv += ["--report", str(report)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if report_digest is not None:
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest
