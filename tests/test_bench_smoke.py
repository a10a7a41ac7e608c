"""Smoke test of the benchmark's bindings to the package.

The benchmark (``bench/``) traces the program by the names of its
functions and reads some of their arguments, so a change in ``src/`` can
break it without failing any other test. One short traced run of the
smallest workload, and one of score-bulk, whose traced functions run on two
threads, guard that interface; they assert no timing. An untraced run of
holdout-mnist guards the end-to-end metrics that come from spans of
``gan.train_gan`` and ``metrics.run_benchmark``, a path no other test runs.
"""

import json
from pathlib import Path

import pytest

from tests.conftest import run_python

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["ring-pipeline", "score-bulk"])
def test_a_traced_benchmark_run_ends_in_a_correct_result(workload):
    proc = run_python([str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
                       "--seconds", "1", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_an_untraced_holdout_run_reports_its_training_and_scoring_rates():
    proc = run_python([str(ROOT / "bench" / "run.py"), "--workload", "holdout-mnist", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["train_steps_per_s"] > 0 and metrics["score_rows_per_s"] > 0, metrics
