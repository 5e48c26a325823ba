"""The benchmark tracer must still find every library name it wraps."""
import importlib.util
from pathlib import Path

import pytest

from softmotion import KinematicLimits, KinematicState, cli, planner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Tracer()


def test_tracer_installs_and_restores():
    tracer = new_tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert getattr(owner, attr) is original


def test_tracer_records_a_type1_plan():
    # a wrapper on a name the planner no longer calls would read 0 calls
    tracer = new_tracer()
    lin = KinematicLimits(jmax=0.9, amax=0.3, vmax=0.15)
    try:
        tracer.install()
        planner.plan_min_time_1d(KinematicState(0.0, 0.0, 0.0),
                                 KinematicState(0.0, 0.0, 0.1), lin)
    finally:
        tracer.uninstall()
    assert tracer.calls("planner.plan.type1") == 1
    assert tracer.calls("roots.solve") > 0


@pytest.mark.parametrize("command", ["plan-ptp", "plan-path"])
def test_tracer_counts_every_row_the_cli_writes(tmp_path, command):
    # the writers run through the tracer's stream proxy: a call that breaks
    # only through that wrapper fails here, not just in a traced benchmark
    out, report = tmp_path / "traj.csv", tmp_path / "report.csv"
    if command == "plan-ptp":
        argv = ["plan-ptp", "--from", "0,0,0", "--to", "0.1,0.05,0", "--out", str(out)]
        written = [out]
    else:
        wp = tmp_path / "wp.txt"
        wp.write_text("0,0,0\n0.15,0.15,0\n0.30,0.30,0.15\n")
        argv = ["plan-path", "--waypoints", str(wp), "--out", str(out),
                "--report", str(report)]
        written = [out, report]
    tracer = new_tracer()
    try:
        tracer.install()
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    lines = sum(path.read_text().count("\n") for path in written)
    assert lines > 100
    assert tracer.counts["fileio.rows"] == lines
    assert tracer.calls("fileio.write_csv") == 1
