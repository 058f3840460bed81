"""Smoke tests: the experiment scripts run to completion on small inputs."""

import json
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


def test_mutation_probe_kills_one_site(tmp_path):
    # one mutant, `<=` -> `<` on the scalar descent's |p| = 1 test, run
    # against the one test that pins that inclusive edge
    site = "_descent_report: if closed and abs(ap - 1.0) <= band: [<= -> <]"
    out = tmp_path / "record.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "mutation_probe.py"),
         "--module", "src/polydisc/membership.py", "--functions", "_descent_report",
         "--tests", "tests/test_membership.py::test_closed_sets_include_their_band_edges[unit-q]",
         "--sites", site, "--workers", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert (record["sites"], record["killed"], record["unexplained"]) == (1, 1, [])
