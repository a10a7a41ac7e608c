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
import sys
import traceback
import uuid
from pathlib import Path

import numpy as np

from . import __version__, data as dio, densities, gan, metrics, scores
from .errors import (
    FormatError,
    NdganError,
    SchemaError,
    TrainingDiverged,
    ValidationError,
)
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


def _check_keys(obj: dict, allowed: set, required: set, path: str):
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in sorted(set(obj) - allowed):
        raise SchemaError(f"{path}.{key}", "unknown field")
    for key in sorted(required - set(obj)):
        raise SchemaError(f"{path}.{key}", "missing required field")


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"config is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "command" in doc and "config" in doc:  # a manifest
        if doc["command"] != command:
            raise ValidationError(f"manifest is for command {doc['command']!r}, not {command!r}")
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise SchemaError("$", "config must be a JSON object")
    return doc


def _resolve_out_dir(cfg: dict, args) -> Path:
    out = getattr(args, "out_dir", None) or cfg.get("out_dir") or os.environ.get(ENV_OUT_DIR)
    if not out:
        raise ValidationError(f"no output directory: pass --out-dir, set out_dir, or export {ENV_OUT_DIR}")
    out = Path(out)
    if not out.exists():
        out.mkdir(parents=True)
        _log(f"created output directory {out}")
    return out


def _require_seed(cfg: dict, args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = cfg.get("seed")
    if seed is None:
        raise ValidationError("seed is mandatory (no wall-clock default); pass --seed or set config.seed")
    return int(seed)


def _write_manifest(out_dir: Path, command: str, cfg: dict, provenance: str | None = None):
    doc = {"command": command, "ndgan_version": __version__, "seed": cfg["seed"], "config": cfg}
    if provenance:
        doc["dataset_provenance"] = provenance
    _write_json(out_dir / "manifest.json", doc)


# ---------------------------------------------------------------------------
# dataset loading shared by train/score/eval
# ---------------------------------------------------------------------------

_DATASET_KEYS = {"path", "format", "label_column", "labels_path", "downscale", "split_tag"}


def _load_dataset(spec: dict, path_prefix: str) -> dio.Dataset:
    _check_keys(spec, _DATASET_KEYS, {"path"}, path_prefix)
    path = spec["path"]
    if not Path(path).exists():
        raise ValidationError(f"dataset file not found: {path}")
    fmt = spec.get("format", "idx" if "idx" in Path(path).name else "csv")
    if fmt == "csv":
        dataset, _ = dio.read_csv_dataset(path, spec.get("label_column"))
    elif fmt == "idx":
        dataset = dio.read_idx(path)
        labels_path = spec.get("labels_path")
        if labels_path:
            if not Path(labels_path).exists():
                raise ValidationError(f"labels file not found: {labels_path}")
            labels = dio.read_idx_labels(labels_path)
            dataset = dio.Dataset(
                dataset.features, labels, int(labels.max()) + 1, dataset.split_tag, dataset.provenance
            )
    else:
        raise SchemaError(f"{path_prefix}.format", f"unknown format {fmt!r}")
    down = spec.get("downscale")
    if down:
        _check_keys(down, {"side", "target"}, {"side", "target"}, f"{path_prefix}.downscale")
        dataset = dio.downscale_images(dataset, int(down["side"]), int(down["target"]))
    if spec.get("split_tag"):
        dataset = dio.Dataset(dataset.features, dataset.labels, dataset.K, spec["split_tag"], dataset.provenance)
    return dataset


def _csv_has_column(path: str, column: str) -> bool:
    """Header peek for the --label-column shorthand (unlabeled files stay unlabeled)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
    except (OSError, UnicodeDecodeError):  # the dataset read reports these
        return False
    return column in [c.strip() for c in header.split(",")]


def _fake_source_from_config(spec: dict | None, path_prefix: str):
    if spec is None:
        return None
    _check_keys(spec, {"kind", "bounds", "density"}, {"kind"}, path_prefix)
    if spec["kind"] == "uniform":
        if "bounds" not in spec:
            raise SchemaError(f"{path_prefix}.bounds", "uniform fake source needs bounds")
        return scores.UniformBaselineGenerator(spec["bounds"]).sample
    if spec["kind"] == "mixture":
        if "density" not in spec:
            raise SchemaError(f"{path_prefix}.density", "mixture fake source needs a density JSON path")
        mix = densities.load_mixture_spec(spec["density"])
        return mix.sample
    raise SchemaError(f"{path_prefix}.kind", f"unknown fake source kind {spec['kind']!r}")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

_SYNTH_KEYS = {"kind", "n_train", "n_test", "components", "radius", "sigma", "novel", "pi", "seed", "out_dir"}
_NOVEL_KEYS = {"kind", "mean", "sigma", "bounds", "n"}


def cmd_synth(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, _SYNTH_KEYS, {"kind", "n_train", "components", "radius", "sigma", "seed"}, "$")
    if cfg["kind"] != "ring":
        raise SchemaError("$.kind", f"unknown synthetic dataset kind {cfg['kind']!r}")

    seed = int(cfg["seed"])
    train, density = dio.gen_ring_mixture(
        int(cfg["n_train"]), int(cfg["components"]), float(cfg["radius"]), float(cfg["sigma"]), seed
    )
    _atomic(out_dir / "train.csv", lambda p: dio.write_csv_dataset(p, train))
    _log(f"wrote {out_dir / 'train.csv'} ({train.n} rows, {train.K} classes)")

    if cfg.get("n_test"):
        test, _ = dio.gen_ring_mixture(
            int(cfg["n_test"]), int(cfg["components"]), float(cfg["radius"]), float(cfg["sigma"]),
            derive_seed(seed, "test"), split_tag="test",
        )
        _atomic(out_dir / "test.csv", lambda p: dio.write_csv_dataset(p, test))
        _log(f"wrote {out_dir / 'test.csv'} ({test.n} rows)")

    novel_cfg = cfg.get("novel")
    novel_density = None
    if novel_cfg:
        _check_keys(novel_cfg, _NOVEL_KEYS, {"kind", "n"}, "$.novel")
        n = int(novel_cfg["n"])
        rng = np.random.default_rng(derive_seed(seed, "novel"))
        if novel_cfg["kind"] == "gaussian":
            mean = novel_cfg.get("mean", [0.0, 0.0])
            sigma = float(novel_cfg.get("sigma", 0.25))
            novel_density = densities.gaussian(mean, sigma**2)
            feats = novel_density.sample(n, rng)
        elif novel_cfg["kind"] == "uniform":
            if "bounds" not in novel_cfg:
                raise SchemaError("$.novel.bounds", "uniform novel companion needs bounds")
            feats = scores.UniformBaselineGenerator(novel_cfg["bounds"]).sample(n, rng)
        else:
            raise SchemaError("$.novel.kind", f"unknown novel kind {novel_cfg['kind']!r}")
        novel = dio.Dataset(feats, None, K=0, split_tag="test", provenance=f"novel:{novel_cfg['kind']}(seed={seed})")
        _atomic(out_dir / "novel.csv", lambda p: dio.write_csv_dataset(p, novel))
        _log(f"wrote {out_dir / 'novel.csv'} ({novel.n} rows)")

    # pi=0 (generator == data) when there is no Gaussian novel component
    pi = float(cfg.get("pi", 0.5)) if novel_density is not None else 0.0
    spec = densities.MixtureSpec(pi=pi, novel=novel_density or density, data=density)
    _write_json(out_dir / "density.json", densities.mixture_spec_to_json(spec))
    _log(f"wrote {out_dir / 'density.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

_TRAIN_KEYS = {"dataset", "arch", "z_dim", "disc_noise_std", "train", "fake_source", "seed", "out_dir"}
_TRAIN_SUB_KEYS = {
    "total_steps", "batch_size", "d_steps_per_g", "labeled_fraction", "generator_loss",
    "lr", "beta1", "beta2", "eps", "log_every",
}


def _train_config(cfg: dict) -> gan.TrainConfig:
    sub = cfg.get("train", {})
    _check_keys(sub, _TRAIN_SUB_KEYS, {"total_steps"}, "$.train")
    return gan.TrainConfig(seed=int(cfg["seed"]), **sub)


def cmd_train(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, _TRAIN_KEYS, {"dataset", "train", "seed"}, "$")
    dataset = _load_dataset(cfg["dataset"], "$.dataset")
    config = _train_config(cfg)
    if config.labeled_fraction is not None and dataset.labels is None:
        raise ValidationError("labeled_fraction > 0 requires a labeled dataset")

    K = dataset.K if dataset.labels is not None else 1
    model = gan.build_gan(
        data_dim=dataset.dim,
        K=K,
        arch=cfg.get("arch", "2d"),
        z_dim=cfg.get("z_dim"),
        seed=int(cfg["seed"]),
        disc_noise_std=float(cfg.get("disc_noise_std", 0.1)),
    )
    fake_source = _fake_source_from_config(cfg.get("fake_source"), "$.fake_source")

    _log(f"training: {config.total_steps} steps, K={K}, dim={dataset.dim}, arch={cfg.get('arch', '2d')}")
    model, log = gan.train_gan(model, dataset, config, fake_source=fake_source)

    _atomic(out_dir / "model.ndgan", lambda p: gan.save_model(p, model))
    _atomic(out_dir / "train_log.csv", lambda p: log.to_csv(p))
    _write_manifest(out_dir, "train", cfg, provenance=dataset.provenance)
    _log(f"wrote {out_dir / 'model.ndgan'} and train_log.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

_SCORE_KEYS = {"model", "dataset", "scorers", "knn_reference", "mark_novel", "seed", "out_dir"}


def cmd_score(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, _SCORE_KEYS, {"model", "dataset", "scorers", "seed"}, "$")
    if not Path(cfg["model"]).exists():
        raise ValidationError(f"model file not found: {cfg['model']}")
    model = gan.load_model(cfg["model"])
    dataset = _load_dataset(cfg["dataset"], "$.dataset")

    knn_reference = None
    if cfg.get("knn_reference"):
        knn_reference = _load_dataset(cfg["knn_reference"], "$.knn_reference").features
    scorer = scores.Scorer(model, cfg["scorers"], knn_reference)

    x = dataset.features
    probs, features = gan.forward(model, x)
    extra = {name.replace("-", "_"): col for name, col in scorer.derive(probs, features).items()}
    predicted = np.argmax(probs[:, : model.K], axis=1)
    fake_prob = probs[:, model.K]

    mark = cfg.get("mark_novel")
    is_novel = [None if mark is None else int(mark)] * len(x)
    _atomic(out_dir / "scores.csv", lambda p: dio.write_table(
        p, ["example_id", "predicted_class", "fake_prob", "is_novel", *extra],
        [range(len(x)), predicted, fake_prob, is_novel, *extra.values()]))
    _write_manifest(out_dir, "score", cfg, provenance=dataset.provenance)
    _log(f"wrote {out_dir / 'scores.csv'} ({len(x)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_EVAL_KEYS = {"scores", "score_column", "alphas", "holdout", "seed", "out_dir"}
_HOLDOUT_KEYS = {
    "train_dataset", "test_dataset", "arch", "z_dim", "disc_noise_std", "train",
    "holdout_classes", "scorers", "workers",
}


def _read_scores_csv(path: str, column: str):
    if not Path(path).exists():
        raise ValidationError(f"scores file not found: {path}")
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except UnicodeDecodeError:
        raise FormatError(path, "not UTF-8 text") from None
    if not rows:
        raise FormatError(path, "empty scores file")
    if column not in rows[0]:
        raise ValidationError(f"{path}: no column {column!r}; have {sorted(rows[0])}")
    if "is_novel" not in rows[0]:
        raise ValidationError(f"{path}: no is_novel ground-truth column")
    score_v, novel_v = [], []
    for i, row in enumerate(rows):
        if row["is_novel"] == "":
            raise ValidationError(f"{path}: row {i} has blank ground truth")
        for name, parse, values in ((column, float, score_v), ("is_novel", int, novel_v)):
            try:
                values.append(parse(row[name]))
            except (TypeError, ValueError):  # a non-numeric cell, or None in a short row
                raise FormatError(path, f"row {i}, column {name!r}: non-numeric cell {row[name]!r}") from None
        if novel_v[-1] not in (0, 1):
            raise FormatError(path, f"row {i}, column 'is_novel': ground truth must be 0 or 1, got {row['is_novel']!r}")
    return np.asarray(score_v), np.asarray(novel_v, dtype=bool)


def _alphas(cfg: dict) -> tuple[float, ...]:
    """The target FPRs of an eval config, each checked to lie in (0, 1)."""
    alphas = cfg.get("alphas", [0.05, 0.10])
    if not isinstance(alphas, list):
        raise SchemaError("$.alphas", f"must be a list of numbers, got {alphas!r}")
    for i, a in enumerate(alphas):
        if isinstance(a, bool) or not isinstance(a, (int, float)) or not 0 < a < 1:
            raise SchemaError(f"$.alphas[{i}]", f"must be a number in (0, 1), got {a!r}")
    return tuple(float(a) for a in alphas)


def _eval_flat(cfg: dict, out_dir: Path) -> int:
    column = cfg.get("score_column", "nd_gan_ratio")
    alphas = _alphas(cfg)
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
    config = gan.TrainConfig(seed=derive_seed(seed, f"split-{split.holdout_class}"),
                             **hold_cfg.get("train", {}))
    model = gan.build_gan(
        data_dim=split.train.dim,
        K=split.train.K,
        arch=hold_cfg.get("arch", "mnist"),
        z_dim=hold_cfg.get("z_dim"),
        seed=config.seed,
        disc_noise_std=float(hold_cfg.get("disc_noise_std", 0.1)),
    )
    model, _ = gan.train_gan(model, split.train, config)
    return scores.Scorer(model, hold_cfg["scorers"], split.train.features, split.fingerprint)


def _eval_holdout(cfg: dict, out_dir: Path) -> int:
    hold = cfg["holdout"]
    _check_keys(hold, _HOLDOUT_KEYS, {"train_dataset", "test_dataset", "train", "scorers"}, "$.holdout")
    _check_keys(hold.get("train", {}), _TRAIN_SUB_KEYS, {"total_steps"}, "$.holdout.train")
    for name in hold["scorers"]:  # before any load or training
        scores._knn_k(name)
    alphas = _alphas(cfg)
    workers = hold.get("workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise SchemaError("$.holdout.workers", f"must be an integer >= 1, got {workers!r}")
    seed = int(cfg["seed"])
    train = _load_dataset(hold["train_dataset"], "$.holdout.train_dataset")
    test = _load_dataset(hold["test_dataset"], "$.holdout.test_dataset")

    splits = metrics.make_holdout_splits(train, test, seed)
    wanted = hold.get("holdout_classes")
    if wanted is not None:
        splits = [s for s in splits if s.holdout_class in set(wanted)]
        if not splits:
            raise ValidationError(f"no holdout splits match classes {wanted}")

    # one split after another (`workers` has no effect); its model dies once its sets are scored
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
    _check_keys(cfg, _EVAL_KEYS, {"seed"}, "$")
    if bool(cfg.get("scores")) == bool(cfg.get("holdout")):
        raise ValidationError("eval needs exactly one of: scores files, or a holdout config")
    if cfg.get("scores"):
        return _eval_flat(cfg, out_dir)
    return _eval_holdout(cfg, out_dir)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_ORACLE_KEYS = {"density", "grid_points", "tolerance", "mc_samples", "seed", "out_dir"}


def _grid_for_spec(spec: densities.MixtureSpec, n_points: int) -> np.ndarray:
    lo = (spec.data.means - 5 * np.sqrt(spec.data.variances)).min(axis=0)
    hi = (spec.data.means + 5 * np.sqrt(spec.data.variances)).max(axis=0)
    lo = np.minimum(lo, (spec.novel.means - 5 * np.sqrt(spec.novel.variances)).min(axis=0))
    hi = np.maximum(hi, (spec.novel.means + 5 * np.sqrt(spec.novel.variances)).max(axis=0))
    d = spec.dim
    per_axis = max(2, int(round(n_points ** (1.0 / d))))
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
    _check_keys(cfg, _ORACLE_KEYS, {"density", "seed"}, "$")
    spec = densities.load_mixture_spec(cfg["density"])
    tol = float(cfg.get("tolerance", 1e-12))
    n_grid = int(cfg.get("grid_points", 10_000))
    n_mc = int(cfg.get("mc_samples", 20_000))
    rng = RngStreams(int(cfg["seed"])).sampling

    grid = _grid_for_spec(spec, n_grid)
    ident = densities.verify_mixture_identity(spec, grid)
    _log(f"mixture identity residual: {ident.max_residual:.3e} over {ident.n_checked} points")

    keep = np.setdiff1d(np.arange(len(grid)), ident.excluded)
    dstar = densities.optimal_discriminator(spec.data, spec, grid[keep])

    _atomic(out_dir / "dstar_grid.csv", lambda p: dio.write_table(
        p, [f"x{j}" for j in range(spec.dim)] + ["d_star"], [*grid[keep].T, dstar]))

    nominal = spec.data.sample(n_mc, rng)
    novel = spec.novel.sample(n_mc, rng)
    lr_nom = densities.likelihood_ratio_score(spec.data, spec.novel, nominal)
    lr_nov = densities.likelihood_ratio_score(spec.data, spec.novel, novel)
    auroc_mc = metrics.roc_from_arrays(lr_nom, lr_nov).auroc
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


def _apply_overrides(cfg: dict, args, fields: dict):
    """Flags override config fields; record the final values back into cfg."""
    for flag, key in fields.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ndgan", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ndgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config (a manifest.json also works)")
        p.add_argument("--out-dir", help=f"output directory (or ${ENV_OUT_DIR})")
        p.add_argument("--seed", type=int, help="master seed (mandatory, via flag or config)")

    p = sub.add_parser("synth", help="materialize a synthetic benchmark to disk")
    common(p)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--components", type=int)
    p.add_argument("--radius", type=float)
    p.add_argument("--sigma", type=float)

    p = sub.add_parser("train", help="train a GAN and write the frozen model")
    common(p)
    p.add_argument("--steps", type=int, help="override train.total_steps")
    p.add_argument("--arch", choices=["2d", "mnist"])

    p = sub.add_parser("score", help="score a dataset with a trained model")
    common(p)
    p.add_argument("--model")
    p.add_argument("--data", help="dataset file (csv or idx)")
    p.add_argument("--label-column", help="label column name for csv inputs (ignored as a feature)")
    p.add_argument("--scorers", help="comma-separated scorer names")
    p.add_argument("--knn-reference", help="reference dataset file for knn-<k>")
    p.add_argument("--mark-novel", type=int, choices=[0, 1], help="ground-truth flag for every row")

    p = sub.add_parser("eval", help="ROC/AUROC metrics from scores or a holdout config")
    common(p)
    p.add_argument("--scores", action="append", help="scores CSV with ground truth (repeatable)")
    p.add_argument("--score-column")
    p.add_argument("--alphas", help="comma-separated target FPRs")

    p = sub.add_parser("oracle", help="verify analytic identities for a density spec")
    common(p)
    p.add_argument("--density", help="density spec JSON")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--grid-points", type=int)
    return parser


def _dispatch(args) -> int:
    cfg = _load_config(args.config, args.command)

    if args.command == "synth":
        _apply_overrides(cfg, args, {"n_train": "n_train", "n_test": "n_test",
                                     "components": "components", "radius": "radius", "sigma": "sigma"})
        cfg.setdefault("kind", "ring")
    elif args.command == "train":
        if getattr(args, "steps", None) is not None:
            cfg.setdefault("train", {})["total_steps"] = args.steps
        _apply_overrides(cfg, args, {"arch": "arch"})
    elif args.command == "score":
        _apply_overrides(cfg, args, {"model": "model", "mark_novel": "mark_novel"})
        label_column = getattr(args, "label_column", None)
        if getattr(args, "data", None):
            cfg["dataset"] = {"path": args.data}
        if getattr(args, "scorers", None):
            cfg["scorers"] = [s.strip() for s in args.scorers.split(",") if s.strip()]
        if getattr(args, "knn_reference", None):
            cfg["knn_reference"] = {"path": args.knn_reference}
        if label_column:
            for key in ("dataset", "knn_reference"):
                if key in cfg and _csv_has_column(cfg[key].get("path", ""), label_column):
                    cfg[key].setdefault("label_column", label_column)
    elif args.command == "eval":
        if getattr(args, "scores", None):
            cfg["scores"] = args.scores
        _apply_overrides(cfg, args, {"score_column": "score_column"})
        if getattr(args, "alphas", None):
            cfg["alphas"] = [float(a) for a in args.alphas.split(",")]
    elif args.command == "oracle":
        _apply_overrides(cfg, args, {"density": "density", "tolerance": "tolerance",
                                     "grid_points": "grid_points"})

    cfg["seed"] = _require_seed(cfg, args)
    out_dir = _resolve_out_dir(cfg, args)
    cfg["out_dir"] = str(out_dir)

    handler = {"synth": cmd_synth, "train": cmd_train, "score": cmd_score,
               "eval": cmd_eval, "oracle": cmd_oracle}[args.command]
    if args.command == "synth":
        code = handler(cfg, out_dir)
        _write_manifest(out_dir, "synth", cfg)
        return code
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
