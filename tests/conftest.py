import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ndgan

# acceptance criteria -> one printed pass/fail line each, keyed by test name
_CRITERIA = {
    "test_c1": "C1 gradient-correctness",
    "test_c2": "C2 auroc-oracle-equivalence",
    "test_c3": "C3 mixture-identity",
    "test_c4": "C4 neyman-pearson-desk-scale",
    "test_c5": "C5 proposition1-learned",
    "test_c6": "C6 end-to-end-2d-ndgan",
    "test_c7": "C7 mnist-holdout-reduced",
    "test_c8": "C8 baseline-scorers",
    "test_c9": "C9 train-determinism",
}
_results = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    for prefix, label in _CRITERIA.items():
        if name.startswith(prefix):
            if report.when == "call":
                _results[label] = report.outcome.upper()
            elif report.when == "setup" and report.skipped:
                _results[label] = "SKIPPED"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for label in sorted(_results, key=lambda s: s.split()[0]):
        terminalreporter.write_line(f"{label}: {_results[label]}")


# ---------------------------------------------------------------------------
# shared oracles
# ---------------------------------------------------------------------------


def finite_difference_grad(value_fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. an array, in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = value_fn()
        flat[i] = orig - eps
        down = value_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rel: float = 1e-4, floor: float = 1e-7):
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    bad = diff > np.maximum(rel * scale, floor)
    assert not np.any(bad), (
        f"gradient mismatch at {int(np.argmax(diff))}: "
        f"analytic={analytic.ravel()[np.argmax(diff)]}, numeric={numeric.ravel()[np.argmax(diff)]}"
    )


def run_python(args, cwd):
    """Run ``python *args`` in a fresh process on the ndgan this suite imported.

    The directory holding the imported package goes first on the child's
    PYTHONPATH as an absolute path: a relative entry such as `src` would
    resolve against `cwd` and miss. Every other variable is inherited.
    """
    env = dict(os.environ)
    package_root = str(Path(ndgan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
