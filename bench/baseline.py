#!/usr/bin/env python3
"""Re-measure the rows of the ROADMAP baseline table, in-process.

    python3 bench/baseline.py

Rows: ms per training step at `2d` (K=8) and at `mnist` (196-d input, K=9),
both with batch 64 and labeled fraction 0.2, each at the default BLAS thread
count and at one thread; tape nodes per `2d` step; knn-5 with 5000 queries x
5000 references in 250-d; CSV 10000x196 write and read. Each figure is the
median of ``REPEATS`` runs. Prints one JSON object, with the machine block.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import run

run.import_program()
from ndgan import autodiff as ad, data as dio, gan, scores  # noqa: E402

REPEATS = 3


def _ms_per_step(arch: str, dim: int, K: int, steps: int, labeled) -> float:
    rng = np.random.default_rng(0)
    x = rng.random((2000, dim)) if arch == "mnist" else rng.standard_normal((2000, dim))
    data = dio.Dataset(x, np.arange(2000) % K, K)
    model = gan.build_gan(dim, K, arch, seed=0)
    cfg = gan.TrainConfig(total_steps=steps, batch_size=64, seed=0, labeled_fraction=labeled, log_every=10**6)
    t0 = time.perf_counter()
    gan.train_gan(model, data, cfg)
    return (time.perf_counter() - t0) / steps * 1e3


def _tape_nodes_2d() -> dict:
    """Nodes on the D and G tapes of one 2d step (leaves included) and record() calls."""
    counts = {"nodes": 0, "records": 0}
    original_backward = ad.backward
    original_record = ad.Tape.record

    def counting_backward(tape, out):
        counts["nodes"] += len(tape.nodes)
        return original_backward(tape, out)

    def counting_record(self, *args):
        counts["records"] += 1
        return original_record(self, *args)

    ad.backward, ad.Tape.record = counting_backward, counting_record
    try:
        _ms_per_step("2d", 2, 8, 10, 0.2)
    finally:
        ad.backward, ad.Tape.record = original_backward, original_record
    return {k: v / 10 for k, v in counts.items()}


def _knn_s() -> float:
    rng = np.random.default_rng(0)
    q, ref = rng.standard_normal((5000, 250)), rng.standard_normal((5000, 250))
    t0 = time.perf_counter()
    scores.score_knn(q, ref, 5)
    return time.perf_counter() - t0


def _csv_s(tmp: Path) -> tuple[float, float, float]:
    rng = np.random.default_rng(0)
    data = dio.Dataset(rng.random((10000, 196)), None, 0)
    path = tmp / "big.csv"
    t0 = time.perf_counter()
    dio.write_csv_dataset(path, data)
    t1 = time.perf_counter()
    dio.read_csv_dataset(path)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, path.stat().st_size / 1e6


def main() -> int:
    med = lambda f: statistics.median(f() for _ in range(REPEATS))  # noqa: E731

    out = {"machine": run.machine(), "repeats": REPEATS}
    get_threads, set_threads = run.openblas()
    default_threads = get_threads()
    for threads in (default_threads, 1):
        set_threads(threads)
        out[f"train_2d_ms_per_step@{threads}t"] = med(lambda: _ms_per_step("2d", 2, 8, 200, 0.2))
        out[f"train_mnist_ms_per_step@{threads}t"] = med(lambda: _ms_per_step("mnist", 196, 9, 15, 0.2))
    set_threads(default_threads)
    out["tape_per_2d_step"] = _tape_nodes_2d()
    out["knn5_5000x5000_250d_s"] = med(_knn_s)
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as tmp:
        runs = [_csv_s(Path(tmp)) for _ in range(REPEATS)]
    out["csv_10000x196_write_s"] = statistics.median(r[0] for r in runs)
    out["csv_10000x196_read_s"] = statistics.median(r[1] for r in runs)
    out["csv_10000x196_mb"] = runs[0][2]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
