#!/usr/bin/env python3
"""Time the ndgan CLI end to end on one seeded workload.

    python3 bench/run.py --workload ring-pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 [--trace 1]

Run from the repository root. One client drives ``ndgan.cli.main`` in this
process as a closed loop: after an untimed warm-up, rounds of set-up and one
pass over the workload's stages, each stage starting when the previous one
returns, until ``--seconds`` have been spent. BLAS threading stays at the
library default and is recorded.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` wraps the program's functions in spans (see tracing.py) for
the second round, and reports the per-layer metrics of its set-up and pass
instead; the untraced passes around it give the tracing overhead. The last
line of stdout is the result object; a fuller report, the machine block and the spans go to
``.bench_work/results/``. ``--workload all`` runs every workload in its own
process and prints a table of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
MIN_ROUNDS = 3  # untraced set-ups and passes, so setup_s is a median of several
SETUP_MIN_S = 0.5  # a cheap set-up repeats within its round until this much is spent
STAGE_CLOCKS = {"gan.train_gan", "metrics.run_benchmark"}  # rates inside the holdout eval stage


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import ndgan from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ndgan.cli  # noqa: F401
    except ImportError as exc:
        fail(f"cannot import ndgan from {src}: {exc}")
    import ndgan

    if Path(ndgan.__file__).resolve().parent != (src / "ndgan").resolve():
        fail(f"imported ndgan from {ndgan.__file__}, not from {src}")
    return sys.modules["ndgan.cli"]


def openblas():
    """(get, set) thread-count functions of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                return get, lambda n, put=put: put(ctypes.c_int(n))
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": threads[0]() if threads else None,
    }


def summary(values) -> dict:
    """Median, and the highest whole percentile with at least ten samples above it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "p": None, "at_p": None}
    if n > 10:
        p = (100 * (n - 10)) // n
        out["p"], out["at_p"] = p, values[-(-p * n // 100) - 1]  # nearest rank: n - rank >= 10
    return out


class Runner:
    """Runs CLI stages in this process, counting failed stages and output checks."""

    def __init__(self, cli, log):
        self.cli, self.log = cli, log
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def stage(self, stage, tracer, counted=True) -> float:
        """Run one CLI stage; return its seconds. Failures are counted, not raised."""
        shutil.rmtree(stage.out, ignore_errors=True)
        with contextlib.redirect_stderr(self.log):
            t0 = time.perf_counter()
            try:
                code = tracer.call(f"stage.{stage.cmd}", self.cli.main, stage.argv)
            except SystemExit as exc:  # argparse rejected the stage's arguments
                code = exc.code
            secs = time.perf_counter() - t0
        try:
            err = f"exit code {code}" if code != 0 else stage.check(stage.out)
        except (OSError, ValueError, KeyError, StopIteration) as exc:
            err = f"{type(exc).__name__}: {exc}"
        if counted:
            self.attempted += 1
            self.failed += err is not None
        if err is not None:
            self.errors.append(f"{stage.cmd} {' '.join(stage.argv[1:3])}: {err}")
            if not counted:
                fail(f"set-up stage failed: {self.errors[-1]}", 1)
        return secs

    def warm_up(self, factory, run_dir: Path, seed: int):
        """One untimed, untraced pass of every stage at a small size: imports,
        lazy set-up and caches are paid here, not in set-up or the first pass."""
        warm = factory().generate(run_dir / "warm", seed, small=True)
        for st in warm.setup_stages() + warm.stages():
            self.stage(st, tracing.Tracer(), counted=False)
        shutil.rmtree(run_dir / "warm")

    def setup(self, factory, root: Path, seed: int, tracer):
        """Write the inputs under ``root`` and run the set-up stages.

        Returns the workload and the seconds of its set-up train stage, if any.
        """
        wl = factory().generate(root, seed)
        secs = {st.cmd: self.stage(st, tracer, counted=False) for st in wl.setup_stages()}
        return wl, secs.get("train")

    def one_pass(self, wl, tracer) -> float:
        return sum(self.stage(st, tracer) for st in wl.stages())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_program()
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    log = open(WORK_DIR / f"{name}-{seed}-{os.getpid()}.log", "w")
    runner = Runner(cli, log)
    full = tracing.Tracer() if trace else None

    def timed(label, fn, *args, traced=False):
        """fn(*args, tracer) under a fresh stage-clock tracer, or the full one; (result, seconds, tracer)."""
        tracer = full if traced else tracing.Tracer()
        tracer.install(None if traced else STAGE_CLOCKS)
        try:
            t0 = time.perf_counter()
            return tracer.call(label, fn, *args, tracer), time.perf_counter() - t0, tracer
        finally:
            tracer.uninstall()

    try:
        shutil.rmtree(run_dir, ignore_errors=True)
        runner.warm_up(WORKLOADS[name], run_dir, seed)
        # Rounds of set-up then pass, so set-up samples spread over the run as
        # pass samples do: the machine's speed drifts over tens of seconds.
        rounds, lengths = [], []  # rounds: (traced, [setup_s], set-up train steps/s or None, wall_s, rates)
        t_start = time.perf_counter()
        while True:
            traced = trace and len(rounds) == 1  # one traced round, between untraced ones
            t_round = time.perf_counter()
            setups = []
            while not setups or (not traced and sum(setups) < SETUP_MIN_S):
                shutil.rmtree(run_dir / "main", ignore_errors=True)
                (wl, train_s), secs, _ = timed("bench.setup", runner.setup, WORKLOADS[name], run_dir / "main",
                                               seed, traced=traced)
                setups.append(secs)
            failed = runner.failed
            wall, _, tracer = timed("bench.pass", runner.one_pass, wl, traced=traced)
            clean = runner.failed == failed and not traced
            rounds.append((traced, setups, train_s and wl.steps / train_s, wall,
                           wl.rates(tracing.Spans(tracer), wl.stages()) if clean else {}))
            lengths.append(time.perf_counter() - t_round)
            if len(rounds) == 1:  # later rounds add heap growth that depends on how many fit in the run
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - t_start
            if (elapsed >= seconds - 0.5 * statistics.median(lengths)
                    and sum(not r[0] for r in rounds) >= MIN_ROUNDS and len(rounds) > trace):
                break
    finally:
        log.close()
    shutil.rmtree(run_dir, ignore_errors=True)
    if runner.failed == 0:
        Path(log.name).unlink()

    plain = [r for r in rounds if not r[0]]
    setup_s = [secs for r in plain for secs in r[1]]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors[:20],
        "ops_failed_frac": runner.failed / runner.attempted,
        "timings": {"wall_s": summary([r[3] for r in plain]), "setup_s": summary(setup_s)},
        "quality": wl.quality,
        "samples": {"wall_s": [r[3] for r in plain], "setup_s": setup_s},
    }
    if plain[0][2] is not None:  # score-bulk trains its model in set-up
        report["timings"]["train_steps_per_s"] = summary([r[2] for r in plain])
    for key in {k for r in plain for k in r[4]}:
        report["timings"][key] = summary([r[4][key] for r in plain if key in r[4]])
    report["peak_rss_mb"] = peak_rss_mb

    if trace:
        wl_layers = WORKLOADS[name]().layers
        layers = tracing.per_layer(full, ROOT / "src" / "ndgan")
        layers["trace.overhead_s"] = (statistics.median(r[3] for r in rounds if r[0])
                                      - report["timings"]["wall_s"]["median"])
        report["per_layer"] = {k: v for k, v in layers.items()
                               if k in wl_layers or k in ("trace.overhead_s", "gan.steps_traced", "gan.step_samples")}
        full.save(results / f"{name}-spans.npz")
        wanted = spec["per_layer"]
        values = {m["name"]: layers[m["name"]] for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = {m["name"]: report["timings"].get(m["name"], {}).get("median", report.get(m["name"], 0.0))
                  for m in wanted}  # 0.0 only when every pass failed
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    print(json.dumps({"report": str((results / f"{name}-seed{seed}-trace{int(trace)}.json").relative_to(ROOT)),
                      "quality": report["quality"], "ops_failed_frac": report["ops_failed_frac"],
                      "errors": report["errors"][:3]}))
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of every metric, by name and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"auroc_nd_gan": "1", "auroc_knn5": "1", "ops_failed_frac": "1", "peak_rss_mb": "MB"})
    code = 0
    for w in spec["workloads"]:
        name = w["name"]
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            code = 1
            continue
        report = json.loads((ROOT / json.loads(lines[-2])["report"]).read_text())
        print(f"\n== {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {w['why']}")
        print(f"   machine: {json.dumps(report['machine'])}")
        for key, s in report["timings"].items():
            tail = f", p{s['p']} {s['at_p']:.6g}" if s["p"] is not None else ""
            print(f"   {key:<36} {s['median']:>14.6g} {units.get(key, 's'):<8} (median of n={s['n']}{tail})")
        for key in ("peak_rss_mb", "ops_failed_frac"):
            print(f"   {key:<36} {report[key]:>14.6g} {units[key]}")
        for key, v in report["quality"].items():
            print(f"   {key:<36} {v:>14.6g} 1")
        for key, v in report.get("per_layer", {}).items():
            print(f"   {key:<36} {v:>14.6g} {units.get(key, '')}")
        code |= report["failed"] > 0
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ndgan").is_dir():
        fail(f"no program source at {ROOT / 'src' / 'ndgan'}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or 'all'")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
