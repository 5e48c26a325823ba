import glob
import os
import subprocess
import sys

import pytest

import softmotion

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos", "*.py")))
# the demos run the package these tests import, installed or not
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(softmotion.__file__)),
                os.environ.get("PYTHONPATH")) if p)}


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    res = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                         timeout=60, env=ENV, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
