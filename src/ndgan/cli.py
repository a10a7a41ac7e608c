"""Batch front door: synthesize datasets, train, score, evaluate, and run
analytic oracle checks, from JSON configs plus overriding flags.

Every command writes a manifest echoing the fully resolved config; running a
command with ``--config <manifest.json>`` reproduces its artifacts
bit-identically. Logs go to stderr, data products only to files, and all
file writes are atomic (temp + rename).

Exit codes: 0 success, 2 validation error, 3 runtime/divergence error,
4 oracle tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import traceback
import uuid
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__, blas, data as dio, densities, gan, metrics, scores
from .errors import DomainError, FormatError, NdganError, Nullable, Req, SchemaError, TrainingDiverged, ValidationError, Where, check, read_json
from .rng import RngStreams, derive_seed

ENV_OUT_DIR = "NDGAN_OUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_TOLERANCE = 4


class ToleranceFailure(NdganError):
    """An oracle residual exceeded its tolerance."""


def _log(msg: str):
    print(msg, file=sys.stderr)


def _atomic(path: Path, writer):
    """Run ``writer`` on a fresh temp file beside ``path``, then rename it over ``path``."""
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, doc: dict):
    _atomic(path, lambda p: p.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"))


def _input_file(path: str, what: str) -> str:
    """``path``, once it names a file that exists; a validation error naming it otherwise."""
    if not Path(path).exists():
        raise ValidationError(f"{what} file not found: {path}")
    if Path(path).is_dir():
        raise ValidationError(f"{what} is a directory, not a file: {path}")
    return path


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    doc = read_json(path, "config")
    if isinstance(doc, dict) and "command" in doc and "config" in doc:  # a manifest
        if doc["command"] != command:
            raise ValidationError(f"manifest is for command {doc['command']!r}, not {command!r}")
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise SchemaError("$", "config must be a JSON object")
    return doc


def _resolve_out_dir(cfg: dict) -> Path:
    out = cfg.get("out_dir") or os.environ.get(ENV_OUT_DIR)
    if not out:
        raise ValidationError(f"no output directory: pass --out-dir, set out_dir, or export {ENV_OUT_DIR}")
    out = Path(out)
    if out.exists() and not out.is_dir():
        raise ValidationError(f"output directory is a file, not a directory: {out}")
    if not out.exists():
        try:
            out.mkdir(parents=True)
        except OSError as exc:  # a file where a parent directory should be, or no permission
            raise ValidationError(f"cannot create output directory {out}: {exc.strerror}") from None
        _log(f"created output directory {out}")
    return out


_RUN = {"seed": Nullable(int), "out_dir": Nullable(str)}  # part of every command's schema
_COUNT = Where(int, lambda n: n >= 1, "an integer >= 1")


def _is_scorer(name: str) -> bool:
    try:
        scores.knn_k(name)
    except ValidationError:
        return False
    return True


_SCORERS = Req([Where(str, _is_scorer, f"one of {list(scores.SCORERS)} or knn-<k> with k >= 1")])


def _env() -> dict:
    """The software and CPUs a run had, for its manifest; a rerun from the manifest ignores them."""
    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build
        build = {}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": build.get("name"),
            "blas_version": build.get("version"), "nproc": blas.cpu_count(),
            "blas_threads": 1 if blas.openblas() else "not pinned"}


def _write_manifest(out_dir: Path, command: str, cfg: dict, provenance: str | None = None):
    doc = {"command": command, "ndgan_version": __version__, "seed": cfg["seed"], "config": cfg}
    if provenance:
        doc["dataset_provenance"] = provenance
    if command in ("train", "score", "eval"):
        doc["env"] = _env()
    _write_json(out_dir / "manifest.json", doc)


# ---------------------------------------------------------------------------
# dataset loading shared by train/score/eval
# ---------------------------------------------------------------------------

_DATASET = {
    "path": Req(str), "format": ("csv", "idx"),  # format default: idx when the file name says so
    "label_column": Nullable(str), "labels_path": Nullable(str),
    "downscale": Nullable({"side": Req(int), "target": Req(int)}),
}


def _load_dataset(spec: dict, model_width: int | None = None) -> dio.Dataset:
    """The dataset ``spec`` names; with ``model_width`` given, it must have that many feature columns."""
    path = _input_file(spec["path"], "dataset")
    if spec.get("format", "idx" if "idx" in Path(path).name else "csv") == "csv":
        dataset, _ = dio.read_csv_dataset(path, spec.get("label_column"))
    else:
        dataset = dio.read_idx(path)
        labels_path = spec.get("labels_path")
        if labels_path:
            labels = dio.read_idx_labels(_input_file(labels_path, "labels"))
            dataset = dio.Dataset(dataset.features, labels, int(labels.max()) + 1, dataset.provenance)
    down = spec.get("downscale")
    if down:
        dataset = dio.downscale_images(dataset, down["side"], down["target"])
    if model_width is not None and dataset.dim != model_width:
        raise ValidationError(f"{path}: {dataset.dim} feature columns, but the model takes {model_width}")
    return dataset


def _csv_has_column(path: str, column: str) -> bool:
    """Header peek for the --label-column shorthand (unlabeled files stay unlabeled)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
    except (OSError, UnicodeDecodeError):  # the dataset read reports these
        return False
    return column in [c.strip() for c in header.split(",")]


def _uniform(bounds, dim: int, path: str) -> scores.UniformBaselineGenerator:
    """The uniform sampler over ``bounds`` (None when absent), which must hold ``dim`` [low, high] pairs."""
    try:
        source = scores.UniformBaselineGenerator(bounds)
    except (ValidationError, ValueError) as exc:  # ValueError: a ragged list
        raise SchemaError(path, str(exc)) from None
    if len(source.bounds) != dim:
        raise SchemaError(path, f"{len(source.bounds)} [low, high] pairs for {dim}-dimensional data")
    return source


_FAKE_SOURCE = {"kind": Req(("uniform", "mixture")), "bounds": [[float]], "density": str}


def _fake_source_from_config(spec: dict | None, dim: int):
    if spec is None:
        return None
    if spec["kind"] == "uniform":
        return _uniform(spec.get("bounds"), dim, "$.fake_source.bounds").sample
    if "density" not in spec:
        raise SchemaError("$.fake_source.density", "mixture fake source needs a density JSON path")
    mix = densities.load_mixture_spec(spec["density"])
    if mix.dim != dim:
        raise SchemaError("$.fake_source.density", f"a {mix.dim}-dimensional mixture for {dim}-dimensional data")
    return mix.sample


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(cfg: dict, out_dir: Path) -> int:
    seed = cfg["seed"]
    ring = (cfg["components"], float(cfg["radius"]), float(cfg["sigma"]))
    train, density = dio.gen_ring_mixture(cfg["n_train"], *ring, seed)
    sets = {"train": train}
    if cfg.get("n_test"):
        sets["test"] = dio.gen_ring_mixture(cfg["n_test"], *ring, derive_seed(seed, "test"))[0]

    novel_cfg, novel_density = cfg.get("novel"), None
    if novel_cfg:
        rng = np.random.default_rng(derive_seed(seed, "novel"))
        if novel_cfg["kind"] == "gaussian":
            mean, sigma = novel_cfg.get("mean", [0.0, 0.0]), float(novel_cfg.get("sigma", 0.25))
            novel_density = densities.gaussian(mean, sigma**2)
            feats = novel_density.sample(novel_cfg["n"], rng)
        else:
            feats = _uniform(novel_cfg.get("bounds"), train.dim, "$.novel.bounds").sample(novel_cfg["n"], rng)
        sets["novel"] = dio.Dataset(feats, None, K=0, provenance=f"novel:{novel_cfg['kind']}(seed={seed})")
    # pi=0 (generator == data) when there is no Gaussian novel component
    pi = float(cfg.get("pi", 0.5)) if novel_density is not None else 0.0
    spec = densities.MixtureSpec(pi=pi, novel=novel_density or density, data=density)

    for name, dataset in sets.items():  # only now, so a rejected config leaves no files
        _atomic(out_dir / f"{name}.csv", lambda p, d=dataset: dio.write_csv_dataset(p, d))
        _log(f"wrote {out_dir / name}.csv ({dataset.n} rows)")
    _write_json(out_dir / "density.json", densities.mixture_spec_to_json(spec))
    _write_manifest(out_dir, "synth", cfg)
    _log(f"wrote {out_dir / 'density.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN = {  # gan.TrainConfig's fields, whose ranges it checks
    "total_steps": Req(int), "batch_size": int, "d_steps_per_g": int, "labeled_fraction": Nullable(float),
    "generator_loss": gan.GENERATOR_LOSSES, "lr": float,
    "log_every": int,  # no effect in a holdout eval, which keeps no training log
}
_MODEL = {"arch": ("2d", "mnist"), "train": Req(_TRAIN)}


def cmd_train(cfg: dict, out_dir: Path) -> int:
    dataset = _load_dataset(cfg["dataset"])
    config = gan.TrainConfig(seed=cfg["seed"], **cfg["train"])

    K = dataset.K if dataset.labels is not None else 1
    arch = cfg.get("arch", "2d")
    model = gan.build_gan(dataset.dim, K, arch, cfg["seed"])
    fake_source = _fake_source_from_config(cfg.get("fake_source"), dataset.dim)

    _log(f"training: {config.total_steps} steps, K={K}, dim={dataset.dim}, arch={arch}")
    model, log = gan.train_gan(model, dataset, config, fake_source=fake_source)

    _atomic(out_dir / "model.ndgan", lambda p: gan.save_model(p, model))
    _atomic(out_dir / "train_log.csv", lambda p: log.to_csv(p))
    _write_manifest(out_dir, "train", cfg, provenance=dataset.provenance)
    _log(f"wrote {out_dir / 'model.ndgan'} and train_log.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def cmd_score(cfg: dict, out_dir: Path) -> int:
    model = gan.load_model(_input_file(cfg["model"], "model"))
    dataset = _load_dataset(cfg["dataset"], model.data_dim)

    knn_reference = None
    if cfg.get("knn_reference"):
        knn_reference = _load_dataset(cfg["knn_reference"], model.data_dim).features
    scorer = scores.Scorer(model, cfg["scorers"], knn_reference)

    x = dataset.features
    probs, features = gan.forward(model, x)
    extra = {name.replace("-", "_"): col for name, col in scorer.derive(probs, features).items()}
    predicted = np.argmax(probs[:, : model.K], axis=1)
    fake_prob = probs[:, model.K]

    is_novel = [cfg.get("mark_novel")] * len(x)
    _atomic(out_dir / "scores.csv", lambda p: dio.write_table(
        p, ["example_id", "predicted_class", "fake_prob", "is_novel", *extra],
        [range(len(x)), predicted, fake_prob, is_novel, *extra.values()]))
    _write_manifest(out_dir, "score", cfg, provenance=dataset.provenance)
    _log(f"wrote {out_dir / 'scores.csv'} ({len(x)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _read_scores_csv(path: str, column: str):
    try:
        with open(_input_file(path, "scores"), "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            index = {name: i for i, name in enumerate(next(reader, []))}  # a repeated name: its last column
            rows = [row for row in reader if row]  # blank rows are skipped, as csv.DictReader skips them
    except UnicodeDecodeError:
        raise FormatError(path, "not UTF-8 text") from None
    except csv.Error as exc:  # a cell past csv's field limit
        raise FormatError(path, f"line {reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(path, "empty scores file")
    if column not in index:
        raise ValidationError(f"{path}: no column {column!r}; have {sorted(index)}")
    if "is_novel" not in index:
        raise ValidationError(f"{path}: no is_novel ground-truth column")
    at, novel_at = index[column], index["is_novel"]
    if min(map(len, rows)) > max(at, novel_at):  # every row has both cells: convert whole columns
        try:
            score_v = list(map(float, map(itemgetter(at), rows)))
            novel_v = list(map(int, map(itemgetter(novel_at), rows)))
        except ValueError:  # a blank or non-numeric cell, which the row loop below names
            pass
        else:
            if set(novel_v) <= {0, 1}:
                return np.asarray(score_v), np.asarray(novel_v, dtype=bool)
    score_v, novel_v = [], []
    for i, row in enumerate(rows):
        row += [None] * (max(at, novel_at) + 1 - len(row))  # a short row's missing cells
        if row[novel_at] == "":
            raise ValidationError(f"{path}: row {i} has blank ground truth")
        try:
            score_v.append(float(row[at]))
            novel_v.append(int(row[novel_at]))
        except (TypeError, ValueError):  # a non-numeric cell, or None in a short row
            name, j = (column, at) if len(score_v) == i else ("is_novel", novel_at)
            raise FormatError(path, f"row {i}, column {name!r}: non-numeric cell {row[j]!r}") from None
        if novel_v[-1] not in (0, 1):
            raise FormatError(path, f"row {i}, column 'is_novel': ground truth must be 0 or 1, got {row[novel_at]!r}")
    return np.asarray(score_v), np.asarray(novel_v, dtype=bool)


def _eval_flat(cfg: dict, alphas: tuple, out_dir: Path) -> int:
    column = cfg.get("score_column", "nd_gan_ratio")
    all_scores, all_novel = [], []
    for path in cfg["scores"]:
        s, n = _read_scores_csv(path, column)
        all_scores.append(s)
        all_novel.append(n)
    score_v = np.concatenate(all_scores)
    novel_v = np.concatenate(all_novel)
    if novel_v.all() or not novel_v.any():
        raise ValidationError("ground truth contains a single class; need both nominal and novel rows")

    nominal, novel = score_v[~novel_v], score_v[novel_v]
    curve = metrics.roc_from_arrays(nominal, novel)
    report = {
        "score_column": column,
        "auroc": curve.auroc,
        "n_nominal": int((~novel_v).sum()),
        "n_novel": int(novel_v.sum()),
        "thresholds": {},
        "full_scale_reference": metrics.TABLE1_REFERENCE,
    }
    for alpha in alphas:
        thr, tpr = metrics.tpr_at_fpr(nominal, novel, alpha)
        report["thresholds"][f"fpr{alpha}"] = {"threshold": thr, "tpr": tpr}
    _write_json(out_dir / "metrics.json", report)
    _atomic(out_dir / f"roc_{column}.csv", lambda p: metrics.write_roc_csv(p, curve))
    _write_manifest(out_dir, "eval", cfg)
    _log(f"auroc[{column}] = {curve.auroc:.4f}")
    return EXIT_OK


def _run_holdout_split(split, hold_cfg, seed):
    config = gan.TrainConfig(seed=derive_seed(seed, f"split-{split.holdout_class}"), **hold_cfg["train"])
    model = gan.build_gan(split.train.dim, split.train.K, hold_cfg.get("arch", "mnist"), config.seed)
    model, _ = gan.train_gan(model, split.train, config, diagnostics=False)
    return scores.Scorer(model, hold_cfg["scorers"], split.train.features)


def _eval_holdout(cfg: dict, alphas: tuple, out_dir: Path) -> int:
    hold, seed = cfg["holdout"], cfg["seed"]
    train = _load_dataset(hold["train_dataset"])
    test = _load_dataset(hold["test_dataset"])

    splits = metrics.make_holdout_splits(train, test, seed, hold.get("holdout_classes"))

    # one split after another; its model dies once its sets are scored
    rows, curves = [], {}
    for split in splits:
        _log(f"holdout class {split.holdout_class}: training on {split.train.n} examples")
        part = metrics.run_benchmark([(split, _run_holdout_split(split, hold, seed))], alphas)
        rows += part.rows
        curves.update(part.curves)
    result = metrics.BenchmarkResult(rows, curves, alphas)
    _atomic(out_dir / "metrics.csv", lambda p: result.to_csv(p))
    doc = result.to_json()
    doc["full_scale_reference"] = metrics.TABLE1_REFERENCE
    _write_json(out_dir / "metrics.json", doc)
    for (name, split_name), curve in result.curves.items():
        _atomic(out_dir / f"roc_{name.replace('-', '_')}_holdout{split_name}.csv",
                lambda p, c=curve: metrics.write_roc_csv(p, c))
    _write_manifest(out_dir, "eval", cfg)
    for scorer, mean in result.means.items():
        _log(f"mean auroc[{scorer}] = {mean:.4f}")
    return EXIT_OK


def cmd_eval(cfg: dict, out_dir: Path) -> int:
    if bool(cfg.get("scores")) == bool(cfg.get("holdout")):
        raise ValidationError("eval needs exactly one of: scores files, or a holdout config")
    alphas = tuple(cfg.get("alphas", [0.05, 0.10]))
    return (_eval_flat if cfg.get("scores") else _eval_holdout)(cfg, alphas, out_dir)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

ORACLE_MC_SAMPLES = 20_000  # draws from each of the data and novel densities for the LR detector's AUROC


def _grid_for_spec(spec: densities.MixtureSpec, n_points: int) -> np.ndarray:
    lo = (spec.data.means - 5 * np.sqrt(spec.data.variances)).min(axis=0)
    hi = (spec.data.means + 5 * np.sqrt(spec.data.variances)).max(axis=0)
    lo = np.minimum(lo, (spec.novel.means - 5 * np.sqrt(spec.novel.variances)).min(axis=0))
    hi = np.maximum(hi, (spec.novel.means + 5 * np.sqrt(spec.novel.variances)).max(axis=0))
    d = spec.dim
    if 2**d > n_points:  # a grid has at least 2 points per axis
        raise SchemaError("$.grid_points", f"a {d}-dimensional spec needs a grid of 2^{d} = {2**d} points, "
                                           f"more than grid_points={n_points}")
    per_axis = 1 << -(-n_points.bit_length() // d)  # >= the d-th root; Newton's steps down to its floor
    while (step := ((d - 1) * per_axis + n_points // per_axis ** (d - 1)) // d) < per_axis:
        per_axis = step
    axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _closed_form_lr_auroc(spec: densities.MixtureSpec) -> float | None:
    """Phi(|mu_n - mu_d| / (sigma * sqrt(2))) for single-component equal
    isotropic variances; None when the closed form does not apply."""
    d_, n_ = spec.data, spec.novel
    if len(d_.weights) != 1 or len(n_.weights) != 1:
        return None
    var = d_.variances[0]
    if not (np.allclose(var, var[0]) and np.allclose(n_.variances[0], var[0])):
        return None
    delta = float(np.linalg.norm(n_.means[0] - d_.means[0]))
    return 0.5 * (1.0 + math.erf(delta / (math.sqrt(var[0]) * 2.0)))


def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    spec = densities.load_mixture_spec(cfg["density"])
    tol = float(cfg.get("tolerance", 1e-12))
    rng = RngStreams(cfg["seed"]).sampling

    try:
        grid = _grid_for_spec(spec, cfg.get("grid_points", 10_000))
        ident = densities.verify_mixture_identity(spec, grid)
        _log(f"mixture identity residual: {ident.max_residual:.3e} over {ident.n_checked} points")

        keep = np.setdiff1d(np.arange(len(grid)), ident.excluded)
        dstar = densities.optimal_discriminator(spec.data, spec, grid[keep])

        _atomic(out_dir / "dstar_grid.csv", lambda p: dio.write_table(
            p, [f"x{j}" for j in range(spec.dim)] + ["d_star"], [*grid[keep].T, dstar]))

        nominal = spec.data.sample(ORACLE_MC_SAMPLES, rng)
        novel = spec.novel.sample(ORACLE_MC_SAMPLES, rng)
        lr_nom = densities.likelihood_ratio_score(spec.data, spec.novel, nominal)
        lr_nov = densities.likelihood_ratio_score(spec.data, spec.novel, novel)
        auroc_mc = metrics.roc_from_arrays(lr_nom, lr_nov).auroc
    except DomainError as exc:  # the spec puts its mass where float64 densities underflow
        raise ValidationError(f"{cfg['density']}: {exc}") from None
    closed = _closed_form_lr_auroc(spec)

    ok = ident.max_residual < tol
    closed_ok = True
    if closed is not None:
        closed_ok = abs(auroc_mc - closed) <= 0.01
        _log(f"LR detector auroc: mc={auroc_mc:.4f}, closed-form={closed:.4f}")
    else:
        _log(f"LR detector auroc (mc): {auroc_mc:.4f}")

    report = {
        "identity_residual": ident.max_residual,
        "identity_points_checked": ident.n_checked,
        "identity_points_excluded": int(len(ident.excluded)),
        "tolerance": tol,
        "lr_auroc_mc": auroc_mc,
        "lr_auroc_closed_form": closed,
        "pass": bool(ok and closed_ok),
    }
    _write_json(out_dir / "oracle_report.json", report)
    _write_manifest(out_dir, "oracle", cfg)
    if not (ok and closed_ok):
        raise ToleranceFailure(
            f"oracle check failed: residual={ident.max_residual:.3e} (tol {tol}), "
            f"auroc mc={auroc_mc:.4f} vs closed={closed}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _float_or_text(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _flag(name: str, key: str | None = None, convert=None, **kwargs):
    """A flag that sets the config ``key`` (``parent.key`` one level down) to ``convert(value)``."""
    return name, key, convert, kwargs


_COMMON = [
    _flag("--config", help="JSON config (a manifest.json also works)"),
    _flag("--out-dir", "out_dir", help=f"output directory (or ${ENV_OUT_DIR})"),
    _flag("--seed", "seed", help="master seed (mandatory, via flag or config)"),
]
# command -> (help, config schema, flags). A flag without ``convert`` takes its
# argparse type and choices from its key's schema; one left out or given as ""
# leaves the config as it is.
_COMMANDS = {
    "synth": ("materialize a synthetic benchmark to disk", {
        "kind": Req(("ring",)), "n_train": Req(int), "n_test": Nullable(int),
        "components": Req(int), "radius": Req(float), "sigma": Req(float), "pi": float,
        "novel": Nullable({"kind": Req(("gaussian", "uniform")), "n": Req(_COUNT),
                           "mean": [float], "sigma": float, "bounds": [[float]]}),
        **_RUN,
    }, [
        _flag("--n-train", "n_train"), _flag("--n-test", "n_test"), _flag("--components", "components"),
        _flag("--radius", "radius"), _flag("--sigma", "sigma"),
    ]),
    "train": ("train a GAN and write the frozen model", {
        "dataset": Req(_DATASET), **_MODEL, "fake_source": Nullable(_FAKE_SOURCE), **_RUN,
    }, [
        _flag("--steps", "train.total_steps", help="override train.total_steps"), _flag("--arch", "arch"),
    ]),
    "score": ("score a dataset with a trained model", {
        "model": Req(str), "dataset": Req(_DATASET), "scorers": _SCORERS,
        "knn_reference": Nullable(_DATASET), "mark_novel": Nullable((0, 1)), **_RUN,
    }, [
        _flag("--model", "model"),
        _flag("--data", "dataset", lambda path: {"path": path}, help="dataset file (csv or idx)"),
        _flag("--label-column", help="label column name for csv inputs (ignored as a feature)"),
        _flag("--scorers", "scorers", lambda text: [s.strip() for s in text.split(",") if s.strip()],
              help="comma-separated scorer names"),
        _flag("--knn-reference", "knn_reference", lambda path: {"path": path},
              help="reference dataset file for knn-<k>"),
        _flag("--mark-novel", "mark_novel", help="ground-truth flag for every row"),
    ]),
    "eval": ("ROC/AUROC metrics from scores or a holdout config", {
        "scores": Nullable([str]), "score_column": str,
        "alphas": [Where(float, lambda a: 0 < a < 1, "a number in (0, 1)")],
        "holdout": Nullable({
            "train_dataset": Req(_DATASET), "test_dataset": Req(_DATASET), **_MODEL,
            "holdout_classes": Nullable([int]), "scorers": _SCORERS,
            "workers": _COUNT,  # no effect: splits run one after another
        }),
        **_RUN,
    }, [
        _flag("--scores", "scores", action="append", help="scores CSV with ground truth (repeatable)"),
        _flag("--score-column", "score_column"),
        # a cell float() rejects stays a string for the check to name
        _flag("--alphas", "alphas", lambda text: [_float_or_text(a) for a in text.split(",")],
              help="comma-separated target FPRs"),
    ]),
    "oracle": ("verify analytic identities for a density spec", {
        "density": Req(str), "grid_points": _COUNT, "tolerance": float, **_RUN,
    }, [
        _flag("--density", "density", help="density spec JSON"),
        _flag("--tolerance", "tolerance"),
        _flag("--grid-points", "grid_points"),
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ndgan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ndgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, schema, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, key, convert, kwargs in _COMMON + flags:
            node = schema if key and not convert else None
            for part in key.split(".") if node else ():
                node = node[part].node if isinstance(node[part], (Req, Nullable, Where)) else node[part]
            if isinstance(node, tuple):
                kwargs = {"type": type(node[0]), "choices": node, **kwargs}
            elif node in (int, float):
                kwargs = {"type": node, **kwargs}
            p.add_argument(name, **kwargs)
    return parser


def _dispatch(args) -> int:
    _, schema, flags = _COMMANDS[args.command]
    cfg = _load_config(args.config, args.command)
    for name, key, convert, _ in _COMMON + flags:
        value = getattr(args, name[2:].replace("-", "_"))
        if key is None or value is None or value == "":
            continue
        parent, _, leaf = key.rpartition(".")
        node = cfg.setdefault(parent, {}) if parent else cfg
        if isinstance(node, dict):  # otherwise the check reports the parent
            node[leaf] = convert(value) if convert else value
    if args.command == "synth":
        cfg.setdefault("kind", "ring")
    check(cfg, schema)

    if getattr(args, "label_column", None):  # a header peek, so after the check
        for spec in (cfg["dataset"], cfg.get("knn_reference")):
            if spec and _csv_has_column(spec["path"], args.label_column):
                spec.setdefault("label_column", args.label_column)
    if cfg.get("seed") is None:
        raise ValidationError("seed is mandatory (no wall-clock default); pass --seed or set config.seed")
    out_dir = _resolve_out_dir(cfg)
    cfg["out_dir"] = str(out_dir)
    handler = {"synth": cmd_synth, "train": cmd_train, "score": cmd_score,
               "eval": cmd_eval, "oracle": cmd_oracle}[args.command]
    return handler(cfg, out_dir)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ToleranceFailure as exc:
        _log(f"tolerance failure: {exc}")
        return EXIT_TOLERANCE
    except (ValidationError, SchemaError, FormatError) as exc:
        _log(f"validation error: {exc}")
        return EXIT_VALIDATION
    except TrainingDiverged as exc:
        _log(f"training diverged: {exc}")
        return EXIT_RUNTIME
    except NdganError as exc:
        _log(f"error: {exc}")
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
