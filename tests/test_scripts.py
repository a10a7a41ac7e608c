"""Smoke tests of the experiment scripts, which train through the loss API."""

from pathlib import Path

import pytest

from tests.conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,flags", [
    ("run_proposition1_check.py", []),
    ("run_ring_experiment.py", ["--n-train", "400", "--out-dir", "ring"]),
])
def test_experiment_script_runs_at_a_few_steps(script, flags, tmp_path):
    proc = run_python([str(SCRIPTS / script), "--steps", "5", "--seed", "3", *flags], tmp_path)
    assert proc.returncode == 0, proc.stderr
