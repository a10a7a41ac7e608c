"""Smoke test of scripts/output_hashes.py at the workloads' small size."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_hashes.py"


def _hashes(src, work_dir):
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(src), "--seed", "3", "--work-dir", str(work_dir), "--small"],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def hashed(tmp_path_factory):
    """(the script's run in a work directory, that directory)."""
    work_dir = tmp_path_factory.mktemp("hashes")
    return _hashes(ROOT, work_dir), work_dir


def test_output_hashes_list_every_output_and_repeat_in_another_work_dir(hashed, tmp_path):
    (a, a_dir), b = hashed, _hashes(ROOT, tmp_path)
    assert a.returncode == 0, a.stderr
    assert a.stdout == b.stdout  # the work directory is blanked out of every file
    rows = [line.split(" ") for line in a.stdout.splitlines()]
    assert all(len(row) == 3 and len(row[2]) == 64 for row in rows)
    listed = {(workload, path) for workload, path, _ in rows}
    written = {(d.name, p.relative_to(d).as_posix()) for d in a_dir.iterdir()
               for p in d.rglob("*") if p.is_file()}
    assert listed == written
    assert {("ring-pipeline", "model/model.ndgan"), ("ring-pipeline", "model/train_log.csv"),
            ("holdout-mnist", "eval/metrics.json"), ("score-bulk", "scores_novel/scores.csv")} <= listed


def test_output_hashes_cover_the_training_branches_the_workloads_miss(hashed):
    out, work_dir = hashed
    assert out.returncode == 0, out.stderr
    digests = {path: digest for workload, path, digest in (line.split(" ") for line in out.stdout.splitlines())
               if workload == "training-branches"}
    runs = ("standard", "uniform", "mixture")
    assert {f"{run}/{name}" for run in runs for name in ("model.ndgan", "train_log.csv", "manifest.json")} <= set(digests)
    assert len({digests[f"{run}/model.ndgan"] for run in runs}) == 3
    root = work_dir / "training-branches"
    config = {run: json.loads((root / run / "manifest.json").read_text())["config"] for run in runs}
    assert config["standard"]["train"]["generator_loss"] == "standard"
    assert config["standard"]["train"]["d_steps_per_g"] == 2 and config["standard"]["train"]["labeled_fraction"] is None
    assert config["uniform"]["fake_source"]["kind"] == "uniform"
    assert config["mixture"]["fake_source"]["kind"] == "mixture"
    for run in runs:  # a fake source replaces the generator, whose loss then stays empty
        with open(root / run / "train_log.csv", newline="") as fh:
            g_losses = {row["g_loss"] for row in csv.DictReader(fh)}
        assert (g_losses == {""}) == (run != "standard"), run


def test_output_hashes_refuse_a_tree_without_the_program(tmp_path):
    assert _hashes(tmp_path, tmp_path / "work").returncode != 0
