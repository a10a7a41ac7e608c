"""The benchmark's workloads: seeded inputs, the CLI stages that consume them,
and the checks on what the stages wrote.

Each workload writes every input from its seed, so the program only ever
sees generated files. ``small=True`` gives the same stages at a size used for
the untimed warm-up pass and for the benchmark's own tests.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ORACLE_MAX_RESIDUAL = 1e-12

# Per-layer metrics that every workload exercises (its traced set-up included).
COMMON_LAYERS = (
    "cli.eval_s",
    "autodiff.backward_s", "autodiff.tape_nodes_per_step",
    *(f"autodiff.{d}_s.{op}" for d in ("fwd", "bwd") for op in (
        "matmul", "transpose", "add", "weight_norm_rows", "relu", "leaky_relu",
        "gaussian_noise", "softmax", "log_softmax")),
    "layers.mlp_forward_s", "layers.adam_step_s", "layers.adam_tensors_per_step", "layers.collect_grads_s",
    "gan.step_ms_p50", "gan.step_ms_p99",
    *(f"gan.{p}_s" for p in ("sample", "d_loss", "d_backward", "g_loss", "g_backward", "adam", "diag")),
    "gan.disc_passes_per_step",
    "scores.rows_per_s.nd-gan-ratio", "scores.rows_per_s.entropy", "scores.rows_per_s.max-prob",
    "scores.disc_passes_per_score_call",
    "metrics.roc_s",
    "src.lines",
)
_CSV_LAYERS = ("data.csv_read_s", "data.csv_read_mb_per_s", "data.csv_write_mb_per_s")
_KNN_LAYERS = ("scores.rows_per_s.knn-5", "scores.knn_s", "scores.knn_pairs_per_s")


@dataclass
class Stage:
    cmd: str
    argv: list
    out: Path
    check: object  # check(out_dir) -> error text or None
    rows: int = 0  # input rows, for score stages


@dataclass
class Workload:
    layers: tuple  # per-layer metrics this workload exercises
    floors: dict  # AUROC -> lowest accepted value, where the AUROC is steady across seeds
    root: Path = None
    seed: int = 0
    small: bool = False
    quality: dict = field(default_factory=dict)

    def generate(self, root: Path, seed: int, small: bool = False) -> "Workload":
        raise NotImplementedError

    def setup_stages(self) -> list:
        return []

    def stages(self) -> list:
        raise NotImplementedError

    def rates(self, spans, stages) -> dict:
        """train_steps_per_s and score_rows_per_s for one pass, from its stage spans."""
        raise NotImplementedError


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _exists(*names):
    def check(out: Path):
        missing = [n for n in names if not (out / n).is_file() or (out / n).stat().st_size == 0]
        return f"missing or empty outputs {missing}" if missing else None

    return check


def _scores_ok(n_rows: int):
    def check(out: Path):
        path = out / "scores.csv"
        if not path.is_file():
            return "no scores.csv"
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            cols = [i for i, h in enumerate(header) if h not in ("example_id", "predicted_class", "is_novel")]
            n = 0
            for row in reader:
                n += 1
                if not all(math.isfinite(float(row[i])) for i in cols):
                    return f"non-finite score in row {n - 1}"
        return None if n == n_rows else f"scores.csv has {n} rows for {n_rows} input rows"

    return check


def _keep_auroc(workload: Workload, key: str, value):
    """Record an AUROC; an error text if it is not a number in [0, 1] or is under its floor."""
    if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
        return f"{key} {value!r} is not a number in [0, 1]"
    workload.quality[key] = value
    floor = None if workload.small else workload.floors.get(key)  # small passes train too little
    return f"{key} {value:.4f} is under its floor {floor}" if floor is not None and value < floor else None


def _eval_ok(workload: Workload, key: str):
    """Flat eval: the one AUROC in metrics.json."""
    return lambda out: _keep_auroc(workload, key, json.loads((out / "metrics.json").read_text()).get("auroc"))


def _oracle_ok(out: Path):
    doc = json.loads((out / "oracle_report.json").read_text())
    if doc.get("pass") is not True:
        return "oracle_report.json: pass is not true"
    if not doc.get("identity_residual", math.inf) <= ORACLE_MAX_RESIDUAL:
        return f"identity residual {doc.get('identity_residual')} > {ORACLE_MAX_RESIDUAL}"
    return None


# ---------------------------------------------------------------------------
# synthetic images: ten fixed two-blob class templates, seeded shifts and noise
# ---------------------------------------------------------------------------

IMAGE_NOISE = 0.3  # per-pixel N(0, 0.3^2) before clipping; lower noise pins kNN AUROC near 1


def _templates(n_classes: int = 10) -> np.ndarray:
    yy, xx = np.mgrid[0:28, 0:28]
    out = np.zeros((n_classes, 28, 28))
    for c in range(n_classes):
        for angle, radius in ((2 * np.pi * c / n_classes, 8.0),
                              (2 * np.pi * ((3 * c) % n_classes) / n_classes + 0.3, 4.0)):
            cy, cx = 13.5 + radius * np.sin(angle), 13.5 + radius * np.cos(angle)
            out[c] += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 2.5**2))
        out[c] /= out[c].max()
    return out


def images(rng: np.random.Generator, classes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n uint8 28x28 images drawn evenly from ``classes``, shifted by up to 2 px."""
    templates = _templates()
    labels = np.asarray(classes)[np.arange(n) % len(classes)]
    rng.shuffle(labels)
    shifts = rng.integers(-2, 3, size=(n, 2))
    pix = np.stack([np.roll(templates[c], tuple(s), axis=(0, 1)) for c, s in zip(labels, shifts)])
    pix += IMAGE_NOISE * rng.standard_normal(pix.shape)
    return np.clip(np.round(pix * 255.0), 0, 255).astype(np.uint8), labels


def write_idx_images(path: Path, pix: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x803, *pix.shape))
        fh.write(pix.tobytes())


def write_idx_labels(path: Path, labels: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def write_image_csv(path: Path, pix: np.ndarray, labels=None):
    """14x14 area-averaged pixels in [0, 1], one row per image, optional label column."""
    small = pix.reshape(len(pix), 14, 2, 14, 2).mean(axis=(2, 4)) / 255.0
    cols = [f"x{j}" for j in range(196)]
    table, fmt = small.reshape(len(pix), 196), ["%.6g"] * 196
    if labels is not None:
        cols.append("label")
        table, fmt = np.column_stack([table, labels]), fmt + ["%d"]
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(cols), comments="")


# ---------------------------------------------------------------------------
# ring-pipeline
# ---------------------------------------------------------------------------


class RingPipeline(Workload):
    """synth (in set-up), then train -> score (nominal, novel) -> eval -> oracle
    at the C6 settings."""

    def generate(self, root, seed, small=False):
        self.root, self.seed, self.small = root, seed, small
        root.mkdir(parents=True, exist_ok=True)
        self.n_test = 100 if small else 10000
        self.steps = 10 if small else 600
        _write_json(root / "synth.json", {
            "kind": "ring", "n_train": 400 if small else 4000, "n_test": self.n_test,
            "components": 8, "radius": 2.0, "sigma": 0.2, "pi": 0.5, "seed": seed,
            "novel": {"kind": "gaussian", "mean": [0.0, 0.0], "sigma": 0.25, "n": self.n_test},
        })
        _write_json(root / "train.json", {
            "dataset": {"path": str(root / "data" / "train.csv"), "label_column": "label"},
            "arch": "2d", "seed": seed,
            "train": {"total_steps": self.steps, "batch_size": 64, "labeled_fraction": 0.2,
                      "generator_loss": "feature-matching", "log_every": 100},
        })
        return self

    def setup_stages(self):
        data = self.root / "data"
        return [Stage("synth", ["synth", "--config", str(self.root / "synth.json"), "--out-dir", str(data)], data,
                      _exists("train.csv", "test.csv", "novel.csv", "density.json"))]

    def stages(self):
        r, seed = self.root, str(self.seed)
        data, model = r / "data", r / "model"
        out = [
            Stage("train", ["train", "--config", str(r / "train.json"), "--out-dir", str(model)], model,
                  _exists("model.ndgan", "train_log.csv")),
        ]
        for name, mark in (("test", 0), ("novel", 1)):
            d = r / f"scores_{name}"
            out.append(Stage("score", [
                "score", "--model", str(model / "model.ndgan"), "--data", str(data / f"{name}.csv"),
                "--label-column", "label", "--scorers", "nd-gan-ratio,entropy,max-prob",
                "--mark-novel", str(mark), "--seed", seed, "--out-dir", str(d)], d,
                _scores_ok(self.n_test), self.n_test))
        out.append(Stage("eval", [
            "eval", "--scores", str(r / "scores_test" / "scores.csv"),
            "--scores", str(r / "scores_novel" / "scores.csv"), "--score-column", "nd_gan_ratio",
            "--seed", seed, "--out-dir", str(r / "eval")], r / "eval", _eval_ok(self, "auroc_nd_gan")))
        grid = ["--grid-points", "400"] if self.small else []
        out.append(Stage("oracle", ["oracle", "--density", str(data / "density.json"), *grid,
                                    "--seed", seed, "--out-dir", str(r / "oracle")], r / "oracle", _oracle_ok))
        return out

    def rates(self, spans, stages):
        return {"train_steps_per_s": self.steps / spans.total("stage.train"),
                "score_rows_per_s": sum(s.rows for s in stages) / spans.total("stage.score")}


# ---------------------------------------------------------------------------
# holdout-mnist
# ---------------------------------------------------------------------------


class HoldoutMnist(Workload):
    """A two-split `ndgan eval` holdout at mnist arch on seeded 28x28 IDX images."""

    def generate(self, root, seed, small=False):
        self.root, self.seed, self.small = root, seed, small
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        datasets = {}
        for split, n in (("train", 200 if small else 2000), ("test", 100 if small else 1000)):
            pix, labels = images(rng, range(10), n)
            write_idx_images(root / f"{split}-images-idx3-ubyte", pix)
            write_idx_labels(root / f"{split}-labels-idx1-ubyte", labels)
            datasets[f"{split}_dataset"] = {
                "path": str(root / f"{split}-images-idx3-ubyte"), "format": "idx",
                "labels_path": str(root / f"{split}-labels-idx1-ubyte"),
                "downscale": {"side": 28, "target": 14},
            }
        self.steps_per_split = 2 if small else 30
        _write_json(root / "eval.json", {"seed": seed, "holdout": {
            **datasets, "arch": "mnist",
            "holdout_classes": sorted(int(c) for c in rng.choice(10, size=2, replace=False)),
            "scorers": ["nd-gan-ratio", "entropy", "max-prob", "knn-5"], "workers": 1,
            "train": {"total_steps": self.steps_per_split, "batch_size": 32, "labeled_fraction": 1.0,
                      "lr": 1e-3, "log_every": 10},
        }})
        return self

    def _check(self, out: Path):
        doc = json.loads((out / "metrics.json").read_text())
        if len(doc["rows"]) != 8:
            return f"expected 2 splits x 4 scorers, got {len(doc['rows'])} rows"
        errors = [_keep_auroc(self, f"split{r['split']}.{r['scorer']}", r["auroc"]) for r in doc["rows"]]
        errors += [_keep_auroc(self, "auroc_nd_gan", doc["means"]["nd-gan-ratio"]),
                   _keep_auroc(self, "auroc_knn5", doc["means"]["knn-5"])]
        return next((e for e in errors if e), None)

    def stages(self):
        out = self.root / "eval"
        return [Stage("eval", ["eval", "--config", str(self.root / "eval.json"), "--out-dir", str(out)],
                      out, self._check)]

    def rates(self, spans, stages):
        return {"train_steps_per_s": spans.work_of("gan.train_gan") / spans.total("gan.train_gan"),
                "score_rows_per_s": spans.work_of("metrics.run_benchmark") / spans.total("metrics.run_benchmark")}


# ---------------------------------------------------------------------------
# score-bulk
# ---------------------------------------------------------------------------


class ScoreBulk(Workload):
    """Two big `ndgan score` calls with all five scorers, then eval, on a model
    trained in set-up."""

    SCORERS = "nd-gan-ratio,fake-prob,entropy,max-prob,knn-5"

    def generate(self, root, seed, small=False):
        self.root, self.seed, self.small = root, seed, small
        root.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.n = 100 if small else 3000
        nominal = list(range(7))  # classes 7-9 are the novel ones
        write_image_csv(root / "reference.csv", *images(rng, nominal, self.n))
        write_image_csv(root / "nominal.csv", *images(rng, nominal, self.n))
        write_image_csv(root / "novel.csv", images(rng, [7, 8, 9], self.n)[0])
        self.steps = 2 if small else 20
        _write_json(root / "train.json", {
            "dataset": {"path": str(root / "reference.csv"), "label_column": "label"},
            "arch": "mnist", "seed": seed,
            "train": {"total_steps": self.steps, "batch_size": 32, "labeled_fraction": 1.0,
                      "lr": 1e-3, "log_every": 10},
        })
        return self

    def setup_stages(self):
        model = self.root / "model"
        return [Stage("train", ["train", "--config", str(self.root / "train.json"), "--out-dir", str(model)],
                      model, _exists("model.ndgan", "train_log.csv"))]

    def stages(self):
        r, seed = self.root, str(self.seed)
        out = []
        for name, mark in (("nominal", 0), ("novel", 1)):
            d = r / f"scores_{name}"
            out.append(Stage("score", [
                "score", "--model", str(r / "model" / "model.ndgan"), "--data", str(r / f"{name}.csv"),
                "--label-column", "label", "--scorers", self.SCORERS,
                "--knn-reference", str(r / "reference.csv"),
                "--mark-novel", str(mark), "--seed", seed, "--out-dir", str(d)], d, _scores_ok(self.n), self.n))
        for column, key in (("nd_gan_ratio", "auroc_nd_gan"), ("knn_5", "auroc_knn5")):
            d = r / f"eval_{column}"
            out.append(Stage("eval", [
                "eval", "--scores", str(r / "scores_nominal" / "scores.csv"),
                "--scores", str(r / "scores_novel" / "scores.csv"), "--score-column", column,
                "--seed", seed, "--out-dir", str(d)], d, _eval_ok(self, key)))
        return out

    def rates(self, spans, stages):
        return {"score_rows_per_s": sum(s.rows for s in stages) / spans.total("stage.score")}


WORKLOADS = {  # why each was chosen: BENCHMARK.json and README.md
    "ring-pipeline": lambda: RingPipeline(
        COMMON_LAYERS + ("cli.synth_s", "cli.train_s", "cli.score_s", "cli.oracle_s", "cli.score_self_s",
                         "gan.save_model_s", "gan.load_model_s", *_CSV_LAYERS, "data.ring_gen_s",
                         "densities.identity_s", "densities.lr_score_s", "densities.optimal_disc_s"),
        {"auroc_nd_gan": 0.8}),
    "holdout-mnist": lambda: HoldoutMnist(
        COMMON_LAYERS + (*_KNN_LAYERS, "data.idx_read_s", "data.downscale_s",
                         "metrics.holdout_splits_s", "metrics.run_benchmark_self_s"),
        {"auroc_knn5": 0.8}),
    "score-bulk": lambda: ScoreBulk(
        COMMON_LAYERS + ("cli.train_s", "cli.score_s", "cli.score_self_s", "gan.save_model_s",
                         "gan.load_model_s", "scores.rows_per_s.fake-prob", *_KNN_LAYERS, *_CSV_LAYERS),
        {"auroc_knn5": 0.8}),
}
