"""Smoke tests: the experiment scripts run to completion on small inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args",
    [
        ("reproduce_worked_example.py", []),
        ("distance_pinch_study.py", ["--samples", "5", "--dims", "2,3", "--grid", "256"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
