#!/usr/bin/env python3
"""Print the sha256 of every file the benchmark's workloads write.

    python3 scripts/output_hashes.py --src <tree> --seed 7 --work-dir <dir> [--small] [--workload NAME]

For each workload of this checkout's ``bench/workloads.py`` (imported, never
written), write its seeded inputs under ``<dir>/<workload>`` (deleting what
was there), then run its set-up stages and one pass of its stages through
the ``ndgan`` CLI imported from ``<tree>/src``. Print one line
``workload path sha256`` for every file under ``<dir>/<workload>``.

The workloads all train with the feature-matching loss, one D step per G
step, labels and the learned generator. So every run also trains on a
synthesized ring under ``<dir>/training-branches``, once per other branch
(the standard loss at two D steps per G step without labels, a uniform fake
source, a mixture fake source), and prints those files as workload
``training-branches``.

Configs and manifests record paths, so the workload directory is blanked out
of each file's bytes before hashing; two trees' outputs then compare by a diff:

    python3 scripts/output_hashes.py --src ../parent --seed 7 --work-dir /tmp/a > a.txt
    python3 scripts/output_hashes.py --src . --seed 7 --work-dir /tmp/b > b.txt
    diff a.txt b.txt

The OpenBLAS thread setting the run had goes to stderr. Training, the
discriminator pass of scoring and the kNN search all pin BLAS to one
thread, so two runs under different settings (``OPENBLAS_NUM_THREADS=1``
and ``=2``) should print the same line for every file, all 70 of a full-size run.

Exits 1, with the stage's log on stderr, when a stage fails or its output
check does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def import_cli(tree: Path):
    """ndgan.cli from ``tree/src`` and nowhere else."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import ndgan.cli

    if Path(ndgan.cli.__file__).resolve().parent != src / "ndgan":
        raise SystemExit(f"imported ndgan from {ndgan.cli.__file__}, not from {src}")
    return ndgan.cli


def file_hashes(root: Path):
    """(relative path, sha256 with ``root`` blanked out) of every file under root, sorted."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes().replace(str(root).encode(), b"<root>")
        yield path.relative_to(root).as_posix(), hashlib.sha256(data).hexdigest()


def training_branches(root: Path, seed: int, small: bool) -> list[list[str]]:
    """Write the configs of the training-branch runs under ``root``; the CLI argv of each
    command, the ring's synth first."""
    root.mkdir(parents=True)
    data = root / "data"
    synth = {"kind": "ring", "n_train": 400, "components": 8, "radius": 2.0, "sigma": 0.2, "pi": 0.5,
             "novel": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": 0.25, "n": 10}, "seed": seed}
    dataset = {"path": str(data / "train.csv"), "label_column": "label"}
    train = {"total_steps": 20 if small else 300, "batch_size": 32, "log_every": 10 if small else 100}
    runs = {
        "standard": {"train": {**train, "generator_loss": "standard", "d_steps_per_g": 2, "labeled_fraction": None}},
        "uniform": {"train": {**train, "labeled_fraction": 0.5},
                    "fake_source": {"kind": "uniform", "bounds": [[-3.0, 3.0], [-3.0, 3.0]]}},
        "mixture": {"train": {**train, "labeled_fraction": 1.0},
                    "fake_source": {"kind": "mixture", "density": str(data / "density.json")}},
    }
    (root / "synth.json").write_text(json.dumps(synth, indent=2), encoding="utf-8")
    argvs = [["synth", "--config", str(root / "synth.json"), "--out-dir", str(data)]]
    for name, cfg in runs.items():
        (root / f"{name}.json").write_text(json.dumps({"dataset": dataset, "seed": seed, **cfg}, indent=2),
                                           encoding="utf-8")
        argvs.append(["train", "--config", str(root / f"{name}.json"), "--out-dir", str(root / name)])
    return argvs


def _run(cli, argv: list[str]) -> str | None:
    """Run one CLI command; its log on failure, else None."""
    log = io.StringIO()
    with contextlib.redirect_stderr(log):
        code = cli.main(argv)
    return None if code == 0 else f"exit code {code}\n{log.getvalue()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", required=True, help="tree whose src/ provides ndgan")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True, help="each workload writes under <work-dir>/<workload>")
    parser.add_argument("--workload", default="all", help="one workload name, or all")
    parser.add_argument("--small", action="store_true", help="the workloads' small size")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # leave both trees as they are
    cli = import_cli(Path(args.src))
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '(unset: the library default)')}",
          file=sys.stderr)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        root = Path(args.work_dir).resolve() / name
        shutil.rmtree(root, ignore_errors=True)
        workload = WORKLOADS[name]().generate(root, args.seed, args.small)
        for stage in workload.setup_stages() + workload.stages():
            err = _run(cli, stage.argv) or stage.check(stage.out)
            if err is not None:
                print(f"{name} {stage.cmd}: {err}", file=sys.stderr)
                return 1
        for path, digest in file_hashes(root):
            print(name, path, digest)

    root = Path(args.work_dir).resolve() / "training-branches"
    shutil.rmtree(root, ignore_errors=True)
    for command in training_branches(root, args.seed, args.small):
        err = _run(cli, command)
        if err is not None:
            print(f"training-branches {command[0]} {command[-1]}: {err}", file=sys.stderr)
            return 1
    for path, digest in file_hashes(root):
        print("training-branches", path, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
