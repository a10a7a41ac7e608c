"""Smoke test of scripts/output_hashes.py at the workloads' small size."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_hashes.py"


def _hashes(src, work_dir):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(src), "--seed", "3", "--work-dir", str(work_dir), "--small"],
        capture_output=True, text=True, timeout=300,
    )


def test_output_hashes_list_every_output_and_repeat_in_another_work_dir(tmp_path):
    a, b = _hashes(ROOT, tmp_path / "a"), _hashes(ROOT, tmp_path / "b")
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout  # the work directory is blanked out of every file
    rows = [line.split(" ") for line in a.stdout.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    listed = {(workload, path) for workload, path, _ in rows}
    written = {(d.name, p.relative_to(d).as_posix()) for d in (tmp_path / "a").iterdir()
               for p in d.rglob("*") if p.is_file()}
    assert listed == written
    assert {("ring-pipeline", "model/model.ndgan"), ("ring-pipeline", "model/train_log.csv"),
            ("holdout-mnist", "eval/metrics.json"), ("score-bulk", "scores_novel/scores.csv")} <= listed


def test_output_hashes_refuse_a_tree_without_the_program(tmp_path):
    assert _hashes(tmp_path, tmp_path / "work").returncode != 0
