"""The benchmark tracer must still find every library name it wraps."""
import importlib.util
from pathlib import Path

from softmotion import KinematicLimits, KinematicState, planner

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
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
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    lin = KinematicLimits(jmax=0.9, amax=0.3, vmax=0.15)
    try:
        tracer.install()
        planner.plan_min_time_1d(KinematicState(0.0, 0.0, 0.0),
                                 KinematicState(0.0, 0.0, 0.1), lin)
    finally:
        tracer.uninstall()
    assert tracer.calls("planner.plan.type1") == 1
    assert tracer.calls("roots.solve") > 0
