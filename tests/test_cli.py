import hashlib
import io
import os
import subprocess
import sys

import numpy as np
import pytest

import softmotion
from softmotion import PoseTracker, SolverFailure, Twist, cli
from softmotion.fileio import LimitSet, fmt

BASE = [sys.executable, "-m", "softmotion"]
# the command line runs the package these tests import, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(softmotion.__file__)),
                os.environ.get("PYTHONPATH")) if p)}


def run_cli(args, stdin="", timeout=600):
    return subprocess.run(BASE + list(args), input=stdin, capture_output=True,
                          text=True, timeout=timeout, env=ENV)


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return header, rows


def test_plan_ptp_linear(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli(["plan-ptp", "--from", "0,0,0", "--to", "0.15,0,0",
                   "--dt", "0.01", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(out.read_text())
    assert header[0] == "t" and "x_pos" in header
    assert rows[-1, 0] == pytest.approx(11.0 / 6.0, abs=1e-6)
    assert rows[-1, header.index("x_pos")] == pytest.approx(0.15, abs=1e-9)
    assert rows[-1, header.index("y_pos")] == 0.0


def test_plan_ptp_degenerate_single_row(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli(["plan-ptp", "--from", "0.1,0.2,0.3", "--to", "0.1,0.2,0.3",
                   "--out", str(out)])
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(out.read_text())
    assert rows.shape[0] == 1
    assert rows[0, 0] == 0.0
    assert rows[0, header.index("x_pos")] == pytest.approx(0.1)


XYZ_HEADER = ("t,x_pos,x_vel,x_acc,x_jerk,y_pos,y_vel,y_acc,y_jerk,"
              "z_pos,z_vel,z_acc,z_jerk")
POSE_HEADER = XYZ_HEADER + "".join(f",{q}_pos,{q}_vel,{q}_acc,{q}_jerk"
                                   for q in ("qn", "qi", "qj", "qk"))
#: Moves that never leave their start, and their bytes, pinned from the
#: writer that took each resting axis's position as an argument: every axis
#: is now a 0 s hold at its coordinate, and the CSV is one row at t = 0.
RESTING = [
    (["plan-ptp", "--from", "0.1,-0.2,0.3", "--to", "0.1,-0.2,0.3"], None,
     XYZ_HEADER + "\n0,0.1,0,0,0,-0.2,0,0,0,0.3,0,0,0\n"),
    (["plan-ptp", "--from", "0.1,-0.2,0.3,1,0,0,0", "--to", "0.1,-0.2,0.3,1,0,0,0"],
     None, POSE_HEADER + "\n0,0.1,0,0,0,-0.2,0,0,0,0.3,0,0,0,1,0,0,0"
     + ",0,0,0,0" * 3 + "\n"),
    (["plan-path"], "0.1,-0.2,0.3\n" * 3,
     XYZ_HEADER + "\n0,0.1,0,0,0,-0.2,0,0,0,0.3,0,0,0\n"),
]


@pytest.mark.parametrize("argv,waypoints,expected", RESTING,
                         ids=["plan-ptp", "plan-ptp-pose", "plan-path"])
def test_resting_moves_write_one_row(tmp_path, argv, waypoints, expected):
    out = tmp_path / "traj.csv"
    argv = argv + ["--out", str(out)]
    if waypoints is not None:
        wp = tmp_path / "wp.txt"
        wp.write_text(waypoints)
        argv += ["--waypoints", str(wp)]
    assert cli.main(argv) == 0
    assert out.read_text() == expected


def test_resting_axis_at_negative_zero_writes_zero(tmp_path):
    # a hold is sampled through the cubic, where -0.0 + 0.0 is +0.0: a move
    # that rests at -0.0 writes 0, as a resting axis of a moving plan does
    rest, moving = tmp_path / "rest.csv", tmp_path / "moving.csv"
    assert cli.main(["plan-ptp", "--from=-0.0,0,0", "--to=-0.0,0,0",
                     "--out", str(rest)]) == 0
    assert cli.main(["plan-ptp", "--from=-0.0,0,0", "--to=-0.0,0.1,0",
                     "--out", str(moving)]) == 0
    assert rest.read_text().splitlines()[1] == "0" + ",0" * 12
    assert moving.read_text().splitlines()[1].startswith("0,0,0,0,0,0,")


def test_plan_ptp_pose_motion(tmp_path):
    out = tmp_path / "traj.csv"
    res = run_cli(["plan-ptp", "--from", "0,0,0,1,0,0,0",
                   "--to", "0.1,0,0,0.96592583,0,0,0.25881905",
                   "--out", str(out)])
    assert res.returncode == 0, res.stderr
    header, rows = parse_csv(out.read_text())
    assert "qk_pos" in header
    q_end = rows[-1, [header.index(f"{n}_pos") for n in ("qn", "qi", "qj", "qk")]]
    assert np.linalg.norm(q_end) == pytest.approx(1.0, abs=1e-6)


def test_invalid_limits_file_exits_2(tmp_path):
    bad = tmp_path / "limits.txt"
    bad.write_text("linear.vmax 0\n")
    res = run_cli(["plan-ptp", "--from", "0,0,0", "--to", "0.1,0,0",
                   "--limits", str(bad), "--out", "-"])
    assert res.returncode == 2
    assert res.stderr.strip() != ""


def test_missing_limits_file_exits_2():
    res = run_cli(["plan-ptp", "--from", "0,0,0", "--to", "0.1,0,0",
                   "--limits", "/nonexistent/limits.txt", "--out", "-"])
    assert res.returncode == 2


def test_plan_path_report(tmp_path):
    wp = tmp_path / "waypoints.txt"
    wp.write_text("# three-point mission\n"
                  "0,0,0\n0.15,0.15,0\n0.30,0.30,0.15\n")
    out = tmp_path / "traj.csv"
    rep = tmp_path / "report.csv"
    res = run_cli(["plan-path", "--waypoints", str(wp), "--out", str(out),
                   "--report", str(rep)])
    assert res.returncode == 0, res.stderr
    lines = rep.read_text().strip().splitlines()
    assert lines[0] == "waypoint,axis,v_in,v_out,displacement,t_opt,t_imp"
    table = {parts[1]: [float(x) for x in parts[2:]]
             for parts in (ln.split(",") for ln in lines[1:])}
    assert table["x"][0] == pytest.approx(0.15, abs=1e-9)     # v_in
    assert table["z"][0] == pytest.approx(0.0, abs=1e-9)
    assert table["x"][2] == pytest.approx(0.125, abs=1e-9)    # displacement
    assert table["z"][2] == pytest.approx(0.0625, abs=1e-9)
    assert table["x"][3] == pytest.approx(0.8333, abs=1e-3)   # t_opt
    assert table["z"][4] == pytest.approx(0.8333, abs=1e-3)   # t_imp
    header, rows = parse_csv(out.read_text())
    assert rows[-1, header.index("x_pos")] == pytest.approx(0.30, abs=1e-9)


def test_plan_path_needs_three_points(tmp_path):
    wp = tmp_path / "waypoints.txt"
    wp.write_text("0,0,0\n0.1,0,0\n")
    res = run_cli(["plan-path", "--waypoints", str(wp), "--out", "-"])
    assert res.returncode == 2
    assert "three points" in res.stderr


def test_track_empty_input_exits_clean():
    res = run_cli(["track"], stdin="")
    assert res.returncode == 0
    assert res.stdout == ""


def test_track_step_reference():
    res = run_cli(["track", "--tick", "0.01"],
                  stdin="0.0 0.15 0 0 0 0 0\n")
    assert res.returncode == 0, res.stderr
    rows = [ln.split() for ln in res.stdout.strip().splitlines()]
    vx = [float(r[8]) for r in rows]
    t = [float(r[0]) for r in rows]
    k_reach = next(i for i, v in enumerate(vx) if abs(v - 0.15) <= 1e-9)
    assert t[k_reach] == pytest.approx(5.0 / 6.0, abs=0.01 + 1e-9)
    assert max(vx) <= 0.15 + 1e-9


def test_track_clamps_reference():
    res = run_cli(["track", "--tick", "0.01"],
                  stdin="0.0 0.4 0 0 0 0 0\n")
    assert res.returncode == 0
    rows = [ln.split() for ln in res.stdout.strip().splitlines()]
    vx = [float(r[8]) for r in rows]
    assert max(vx) == pytest.approx(0.15, abs=1e-9)


def test_track_skips_malformed_lines():
    res = run_cli(["track", "--tick", "0.01"],
                  stdin="0.0 0.1 0 0 0 0 0\nnot a reference\n0.2 0 0 0 0 0 0\n")
    assert res.returncode == 0
    assert "warning" in res.stderr


def test_track_holds_a_non_finite_reference():
    res = run_cli(["track", "--tick", "0.01"], stdin="0 nan 0 0 0 0 0\n")
    assert res.returncode == 0
    assert "warning: line 1: malformed number" in res.stderr
    assert res.stdout == ""   # no reference was adopted, so nothing ran
    res = run_cli(["track", "--tick", "0.01"],
                  stdin="0 0 0 0 0 0 0\n0.05 inf 0 0 0 0 0\n0.1 0 nan 0 0 0 0\n")
    assert res.returncode == 0
    assert res.stderr.count("warning:") == 2
    rows = [[float(tok) for tok in ln.split()] for ln in res.stdout.splitlines()]
    assert rows and all(r[1] == 0.0 and r[2] == 0.0 and r[8] == 0.0 for r in rows)


def collect_then_track(text, tick=0.01):
    """The track loop over a fully read reference list, for comparison."""
    limits = LimitSet()
    tracker = PoseTracker(limits.linear, limits.angular, dt=tick)
    refs = []
    for lineno, line in enumerate(io.StringIO(text), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 7:
            print(f"warning: line {lineno}: expected 7 fields, holding previous "
                  "reference", file=sys.stderr)
            continue
        try:
            values = [float(tok) for tok in toks]
        except ValueError:
            values = [float("nan")]
        if not np.all(np.isfinite(values)):
            print(f"warning: line {lineno}: malformed number, holding previous "
                  "reference", file=sys.stderr)
            continue
        t, vx, vy, vz, wx, wy, wz = values
        refs.append((t, Twist((vx, vy, vz), (wx, wy, wz))))
    if not refs:
        return 0
    current = Twist((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    idx = 0
    t_last = refs[-1][0]
    safety_end = t_last + 120.0
    while True:
        now = tracker.time
        while idx < len(refs) and refs[idx][0] <= now + 1e-12:
            current = refs[idx][1]
            idx += 1
        tracker.tick(current)
        pose = tracker.pose()
        twist = tracker.twist()
        row = ([fmt(tracker.time)] + [fmt(c) for c in pose.as_array()]
               + [fmt(c) for c in twist.v] + [fmt(c) for c in twist.w])
        print(" ".join(row))
        if idx >= len(refs) and tracker.time > t_last and tracker.settled(current):
            return 0
        if tracker.time > safety_end:
            print("warning: tracker did not settle; stopping", file=sys.stderr)
            return 0


@pytest.mark.parametrize("text", [
    "",
    "0.0 0.15 0 0 0 0 0\n",
    "0.0 0.4 0 0 0 0 0\n",
    "0.0 0.1 0 0 0 0 0\nnot a reference\n0.2 0 0 0 0 0 0\n",
    "# header\n1 2 3\n0.0 0.05 0 0 0 0 0.08\n0.1 x 0 0 0 0 0\n\n"
    "0.4 0 -0.1 0 0 0 0  # stop\n",
    "0 0 0 0 0 0 0.1\n0.5 0.05 0 0 0.05 -0.02 0.1\n1.0 0 0 0 0 0 0\n",
    "0 0.1 0 0 0 0 0\n0.5 -0.1 0 0 0 0 0.05\n0.2 0.05 0 0 0 0 0\n"
    "0.3 0 0 0 0 0 0\n",
    "0 0 0 0 0 0 -0.2\n",                        # beyond vmax: held scaled to it
    "bad line\n",
    "0 0.05 0 0 0 0 0\n0.1 nan 0 0 0 0 0\n0.2 0 0 inf 0 0 0\n0.3 0 0 0 0 0 0\n",
    "0 0 0 0 0 0 0.1\n",
], ids=["empty", "step", "clamped", "malformed", "mixed", "rotating",
        "out-of-order", "unsettled", "only-malformed", "non-finite",
        "rotating-settles"])
def test_track_streams_like_the_collected_loop(monkeypatch, capsys, text):
    expected_code = collect_then_track(text)
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["track", "--tick", "0.01"]) == expected_code == 0
    got = capsys.readouterr()
    assert got.out == expected.out
    assert got.err == expected.err


def test_track_stdout_is_pinned(monkeypatch, capsys):
    # a seeded stream of four references 0.4 s apart, every w nonzero, so the
    # quaternion axes replan each tick and each row reads pose and twist back;
    # the digest of the whole stdout was taken before PoseTracker cached its
    # unit quaternion
    rng = np.random.default_rng(26)
    lines = []
    for k in range(4):
        v = rng.uniform(-0.12, 0.12, 3)
        w = rng.uniform(-0.08, 0.08, 3)
        lines.append(" ".join(repr(float(c)) for c in (0.4 * k, *v, *w)))
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert cli.main(["track", "--tick", "0.01"]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert len(got.out.splitlines()) > 160
    assert hashlib.sha256(got.out.encode()).hexdigest() == \
        "aca4fff8d824336ad4c4f0ffb114bbbfd97e7eeabe1be564ea040009dfe371f0"


@pytest.mark.parametrize("t_ref", [30.0, 48.13])
def test_track_adopts_a_grid_stamped_reference_at_its_tick(monkeypatch, capsys, t_ref):
    # row k ends tick k + 1; the reference is due when tick n = t_ref / 0.01
    # ends, so row n is the first that moves.  With the tick time a running
    # sum of dt, the 48.13 reference moved row n + 1
    n = round(t_ref / 0.01)
    stdin = f"0 0 0 0 0 0 0\n{t_ref} 0.1 0 0 0 0 0\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(["track", "--tick", "0.01"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()]
    assert next(k for k, row in enumerate(rows) if float(row[8]) != 0.0) == n
    assert float(rows[n][0]) == pytest.approx(t_ref + 0.01, abs=1e-9)


@pytest.mark.parametrize("text, settles", [
    ("0 0 0 0 0 0 0.1\n", True),          # a held rotation settles
    ("0 0 0 0 0.05 -0.02 0.1\n", True),   # |w| beyond vmax: held scaled to vmax
    ("0 0 0 0 0 0 -0.2\n", False),        # angular amax too low: safety end
])
def test_track_ends_when_a_rotation_settles(monkeypatch, capsys, tmp_path, text,
                                            settles):
    # below |w|^2 / 4 the quaternion acceleration cannot turn the rate with
    # the orientation, so the rotation never settles
    limits = tmp_path / "limits.txt"
    limits.write_text("angular.amax 0.001\n")
    argv = ["track"] if settles else ["track", "--limits", str(limits)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(argv) == 0
    got = capsys.readouterr()
    rows = got.out.splitlines()
    if settles:
        assert got.err == "" and len(rows) <= 200
    else:
        assert "did not settle" in got.err and len(rows) >= 12000


def test_main_parses_each_call_on_its_own(monkeypatch, capsys):
    # the parser is built once; one call's options must not leak into the next
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0.05 0 0 0 0 0\n"))
    assert cli.main(["track", "--tick", "0.02"]) == 0
    first = capsys.readouterr().out.splitlines()
    assert cli.main(["plan-ptp", "--from=0,0,0", "--to=0.01,0,0"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert rows[1, 0] == pytest.approx(0.01)   # its own default --dt
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 0.05 0 0 0 0 0\n"))
    assert cli.main(["track"]) == 0   # the default tick, not the 0.02 above
    second = capsys.readouterr().out.splitlines()
    assert float(first[0].split()[0]) == pytest.approx(0.02)
    assert float(second[0].split()[0]) == pytest.approx(0.01)
    assert cli.build_parser() is cli.build_parser()


def test_oracle_subcommand():
    res = run_cli(["oracle", "--init", "0,0", "--final", "0,0",
                   "--displacement", "0.0144", "--dt", "0.004"])
    assert res.returncode == 0, res.stderr
    assert float(res.stdout.strip()) == pytest.approx(0.8, abs=0.008)


def test_oracle_over_an_oversized_horizon_exits_3():
    # 1e6 m at dt = 10 ms would take about 7e8 layers: refused before it starts
    res = run_cli(["oracle", "--init", "0,0", "--final", "0,0",
                   "--displacement", "1e6", "--dt", "0.01"], timeout=60)
    assert res.returncode == 3
    assert "layer cap" in res.stderr


def test_output_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli(["plan-ptp", "--from", "0,0,0", "--to", "0.11,-0.07,0.033",
                       "--out", str(out)])
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_plan_path_rejects_orientation_columns(tmp_path):
    wp = tmp_path / "waypoints.txt"
    wp.write_text("0,0,0,1,0,0,0\n0.1,0,0,1,0,0,0\n0.1,0.1,0,1,0,0,0\n")
    out = tmp_path / "traj.csv"
    res = run_cli(["plan-path", "--waypoints", str(wp), "--out", str(out)])
    assert res.returncode == 2
    assert "positions only" in res.stderr
    assert not out.exists()


def test_negative_vectors_need_no_equals_sign(tmp_path):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    res = run_cli(["plan-ptp", "--from", "-0.1,0,0", "--to", "-0.02,-0.05,0",
                   "--out", str(spaced)])
    assert res.returncode == 0, res.stderr
    res = run_cli(["plan-ptp", "--from=-0.1,0,0", "--to=-0.02,-0.05,0",
                   "--out", str(joined)])
    assert res.returncode == 0, res.stderr
    assert spaced.read_bytes() == joined.read_bytes()
    res = run_cli(["oracle", "--init", "0,-0.05", "--final", "-0.1,-0.1",
                   "--displacement", "-0.05", "--dt", "0.01"])
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) > 0.0


def test_vector_option_still_needs_a_value():
    res = run_cli(["plan-ptp", "--from", "--to", "0.1,0,0"])
    assert res.returncode == 2
    assert "expected one argument" in res.stderr


@pytest.mark.parametrize("dt", ["0", "-0.01", "nan", "inf"])
@pytest.mark.parametrize("command", ["plan-ptp", "plan-path", "track", "oracle"])
def test_non_positive_dt_exits_2(tmp_path, command, dt):
    out = tmp_path / "traj.csv"
    if command == "plan-ptp":
        args = ["plan-ptp", "--from=0,0,0", "--to=0.1,0,0", "--dt", dt, "--out", str(out)]
    elif command == "plan-path":
        wp = tmp_path / "waypoints.txt"
        wp.write_text("0,0,0\n0.1,0,0\n0.1,0.1,0\n")
        args = ["plan-path", "--waypoints", str(wp), "--dt", dt, "--out", str(out)]
    elif command == "track":
        args = ["track", "--tick", dt]
    else:
        args = ["oracle", "--init", "0,0", "--final", "0,0", "--displacement", "0.01",
                "--dt", dt]
    res = run_cli(args, stdin="0 0.05 0 0 0 0 0\n", timeout=60)
    assert res.returncode == 2
    assert "dt must be > 0" in res.stderr
    assert not out.exists()


def test_a_missed_path_seam_exits_3(tmp_path):
    # limits 1e3 times slower than the defaults leave a seam gap above
    # SEAM_TOL on this path: a solver fault (exit 3), not bad input (exit 2)
    limits = tmp_path / "limits.txt"
    limits.write_text("linear.jmax 9e-10\nlinear.amax 3e-7\nlinear.vmax 1.5e-4\n")
    wp = tmp_path / "waypoints.txt"
    wp.write_text("-0.12655123880094574,0.177738074745243,0.2836348017541804\n"
                  "-0.42228022700169743,0.2629560798552092,0.3777032309541172\n"
                  "-0.556325731101488,0.4539498369057291,0.3171195803223751\n"
                  "-0.8104583499344544,0.18613963096210373,0.42567836133986586\n")
    res = run_cli(["plan-path", "--waypoints", str(wp), "--limits", str(limits),
                   "--dt", "100", "--out", str(tmp_path / "traj.csv")], timeout=60)
    assert res.returncode == 3, res.stderr
    assert "profiles do not chain continuously" in res.stderr


def test_solver_failure_exits_3(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise SolverFailure("oracle found no trajectory within its horizon")

    monkeypatch.setattr(cli, "brute_force_min_time", fail)
    code = cli.main(["oracle", "--init", "0,0", "--final", "0,0",
                     "--displacement", "0.01"])
    assert code == 3
    assert "solver failed" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_a_non_finite_endpoint_exits_2(tmp_path, capsys, bad):
    out = tmp_path / "traj.csv"
    wp = tmp_path / "waypoints.txt"
    wp.write_text(f"0,0,0\n{bad},0,0\n0.1,0.1,0\n")
    for argv in (["plan-ptp", f"--from=0,0,0,{bad},0,0,0", "--to=0.1,0,0,1,0,0,0"],
                 ["plan-ptp", f"--from=0,{bad},0", "--to=0.1,0,0"],
                 ["plan-path", "--waypoints", str(wp)]):
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "jmax" not in err
        assert "non-finite endpoint" in err or "quaternion norm" in err
        assert not out.exists()
