"""Tests of the benchmark itself: input generation, tracing and the result line.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import COMMON_LAYERS, WORKLOADS  # noqa: E402

CLI = run.import_program()


def _files(root: Path) -> dict:
    """Every file under root, with root itself blanked out of config paths."""
    return {p.relative_to(root): p.read_bytes().replace(str(root).encode(), b"<root>")
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("small", [True, False])
def test_inputs_depend_only_on_the_seed(tmp_path, name, small):
    a = _files(WORKLOADS[name]().generate(tmp_path / "a", 3, small).root)
    b = _files(WORKLOADS[name]().generate(tmp_path / "b", 3, small).root)
    c = _files(WORKLOADS[name]().generate(tmp_path / "c", 4, small).root)
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a), [k for k in a if a[k] == c[k]]


def _run(name: str, root: Path, tracer, traced: bool = True) -> tuple:
    """Set-up and one pass of a small workload; every function is wrapped
    by ``tracer`` if ``traced``, none otherwise."""
    runner = run.Runner(CLI, io.StringIO())
    wl = WORKLOADS[name]().generate(root, 5, small=True)
    if traced:
        tracer.install()
    try:
        for st in wl.setup_stages() + wl.stages():
            runner.stage(st, tracer)
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.errors
    return wl, runner


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_layer_metric_gets_spans(tmp_path, name):
    tracer = tracing.Tracer()
    wl, _ = _run(name, tmp_path, tracer)
    layers = tracing.per_layer(tracer, ROOT / "src" / "ndgan")
    assert set(COMMON_LAYERS) <= set(wl.layers) <= set(layers)
    missing = sorted(k for k in wl.layers if not layers[k] > 0)
    assert not missing, f"{name}: no spans behind {missing}"


def test_tracing_patches_every_binding_and_restores_it():
    import ndgan

    mods = [m for k, m in sys.modules.items() if k.startswith("ndgan.") and isinstance(m, types.ModuleType)]
    before = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # from-imports are rebound too: scores calls gan's functions through its own names
        assert ndgan.scores.discriminator_probs.__wrapped__ is before[("ndgan.gan", "discriminator_probs")]
        assert ndgan.scores.discriminator_features is ndgan.gan.discriminator_features
        for m in mods:
            for attr, value in vars(m).items():
                home = getattr(value, "__module__", "").removeprefix("ndgan.")
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and home in tracing.MODULES and f"{home}.{value.__name__}" not in tracing.SKIP):
                    pytest.fail(f"{m.__name__}.{attr} is not wrapped")
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    assert after == before


@pytest.mark.parametrize("name", ["ring-pipeline", "score-bulk"])
def test_tracing_changes_no_output(tmp_path, name):
    plain_tracer = tracing.Tracer()
    plain, _ = _run(name, tmp_path / "plain", plain_tracer, traced=False)
    assert set(plain_tracer.names) == {f"stage.{st.cmd}" for st in plain.setup_stages() + plain.stages()}
    traced, _ = _run(name, tmp_path / "traced", tracing.Tracer())
    outputs = ["model/model.ndgan", "model/train_log.csv"] + [
        f"{st.out.name}/scores.csv" for st in plain.stages() if st.cmd == "score"]
    for rel in outputs:
        assert (plain.root / rel).read_bytes() == (traced.root / rel).read_bytes(), rel


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [*COMMON_LAYERS, "trace.overhead_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ring-pipeline", "--seed", "2",
                           "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ring-pipeline", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
