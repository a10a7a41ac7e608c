"""ROC/AUROC computation, FPR-calibrated thresholds, and the holdout-class
evaluation protocol.

AUROC uses the midrank (Mann-Whitney) tie convention: grouping tied scores
and integrating the curve with the trapezoid rule makes the area equal to
the probability that a random novel example outscores a random nominal one,
with ties counting one half.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, write_table
from .errors import FingerprintMismatch, ValidationError
from .rng import derive_seed


@dataclass
class RocCurve:
    """Operating points (fpr, tpr, threshold) sorted by threshold descending.

    A point's threshold t means "predict novel when score >= t"; the curve
    starts at (0, 0, +inf) and ends at (1, 1, min score).
    """

    points: list[tuple[float, float, float]]
    auroc: float


def roc_from_arrays(nominal_scores, novel_scores) -> RocCurve:
    """ROC curve and trapezoidal AUROC of nominal vs novel scores (higher = more novel)."""
    nominal = np.asarray(nominal_scores, dtype=np.float64)
    novel = np.asarray(novel_scores, dtype=np.float64)
    if nominal.size == 0 or novel.size == 0:
        raise ValidationError("ROC needs at least one nominal and one novel example")
    if not (np.all(np.isfinite(nominal)) and np.all(np.isfinite(novel))):
        raise ValidationError("ROC scores must be finite")

    thresholds = np.unique(np.concatenate([nominal, novel]))[::-1]
    # counts of scores >= t for each distinct t
    nom_at = nominal.size - np.searchsorted(np.sort(nominal), thresholds, side="left")
    nov_at = novel.size - np.searchsorted(np.sort(novel), thresholds, side="left")
    fpr = np.concatenate([[0.0], nom_at / nominal.size])
    tpr = np.concatenate([[0.0], nov_at / novel.size])
    thr = np.concatenate([[np.inf], thresholds])

    auroc = float(np.trapezoid(tpr, fpr))
    points = [(float(f), float(t), float(h)) for f, t, h in zip(fpr, tpr, thr)]
    return RocCurve(points=points, auroc=auroc)


def threshold_at_fpr(nominal_scores, alpha: float) -> float:
    """Largest observed score with at most floor(n * alpha) exceedances.

    The decision rule "score > threshold => novel" then has empirical FPR
    <= alpha on the calibration sample.
    """
    scores = np.asarray(nominal_scores, dtype=np.float64)
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    if scores.size == 0 or not np.all(np.isfinite(scores)):
        raise ValidationError("threshold calibration needs non-empty finite scores")
    allowed = int(np.floor(scores.size * alpha))
    if allowed < 1:
        raise ValidationError(
            f"sample too small for alpha={alpha}: n*alpha = {scores.size * alpha:.3f} < 1"
        )
    ordered = np.sort(scores)
    return float(ordered[scores.size - allowed - 1])


def tpr_at_fpr(nominal_scores, novel_scores, alpha: float) -> tuple[float, float]:
    """(threshold, achieved TPR) for the score > threshold rule at target FPR alpha."""
    thr = threshold_at_fpr(nominal_scores, alpha)
    novel = np.asarray(novel_scores, dtype=np.float64)
    return thr, float(np.mean(novel > thr))


# ---------------------------------------------------------------------------
# holdout protocol
# ---------------------------------------------------------------------------


def dataset_fingerprint(data: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(data.features, dtype="<f8").tobytes())
    if data.labels is not None:
        h.update(np.ascontiguousarray(data.labels, dtype="<i8").tobytes())
    return h.hexdigest()


@dataclass
class HoldoutSplit:
    holdout_class: int
    train: Dataset  # K-1 classes, labels remapped to 0..K-2
    eval_nominal: Dataset
    eval_novel: Dataset
    label_map: dict  # original label -> remapped label
    fingerprint: str = field(default="")

    def __post_init__(self):
        if not self.fingerprint:
            self.fingerprint = dataset_fingerprint(self.train)


def _remap(data: Dataset, keep_mask: np.ndarray, label_map: dict, split_tag: str, provenance: str) -> Dataset:
    labels = np.array([label_map[int(l)] for l in data.labels[keep_mask]], dtype=np.int64)
    return Dataset(
        features=data.features[keep_mask],
        labels=labels,
        K=len(label_map),
        split_tag=split_tag,
        provenance=provenance,
    )


def make_holdout_splits(train: Dataset, test: Dataset, seed: int) -> list[HoldoutSplit]:
    """One split per class: train on the other K-1 classes, treat the held-out
    class as novel, balanced against the nominal evaluation pool.

    Balancing draws novel examples from the holdout class's test pool first
    and tops up from its train pool (seeded shuffle). If even both pools
    together are smaller than the nominal pool, the nominal pool is
    subsampled down to keep the sets balanced.
    """
    for name, d in (("train", train), ("test", test)):
        if d.labels is None:
            raise ValidationError(f"{name} dataset has no labels")
    if train.K != test.K:
        raise ValidationError(f"class count mismatch: train K={train.K}, test K={test.K}")
    K = train.K
    for c in range(K):
        if not np.any(train.labels == c) or not np.any(test.labels == c):
            raise ValidationError(f"class {c} is absent from train or test data")

    splits = []
    for holdout in range(K):
        rng = np.random.default_rng(derive_seed(seed, f"holdout-{holdout}"))
        label_map = {int(c): i for i, c in enumerate(c for c in range(K) if c != holdout)}

        split_train = _remap(
            train, train.labels != holdout, label_map, "train", f"{train.provenance}|holdout={holdout}"
        )
        eval_nominal = _remap(
            test, test.labels != holdout, label_map, "test", f"{test.provenance}|holdout={holdout}"
        )

        novel_pool = [test.features[test.labels == holdout]]
        novel_pool.append(train.features[train.labels == holdout])
        target = eval_nominal.features.shape[0]
        chosen = []
        got = 0
        for pool in novel_pool:
            if got >= target:
                break
            take = min(target - got, pool.shape[0])
            idx = rng.permutation(pool.shape[0])[:take]
            chosen.append(pool[idx])
            got += take
        novel_feats = np.concatenate(chosen, axis=0)

        if got < target:  # balance by shrinking the nominal pool instead
            idx = rng.permutation(target)[:got]
            eval_nominal = Dataset(
                features=eval_nominal.features[idx],
                labels=eval_nominal.labels[idx],
                K=eval_nominal.K,
                split_tag="test",
                provenance=eval_nominal.provenance,
            )

        eval_novel = Dataset(
            features=novel_feats,
            labels=None,
            K=K - 1,
            split_tag="test",
            provenance=f"{test.provenance}|novel-class={holdout}",
        )
        splits.append(
            HoldoutSplit(
                holdout_class=holdout,
                train=split_train,
                eval_nominal=eval_nominal,
                eval_novel=eval_novel,
                label_map=label_map,
            )
        )
    return splits


# ---------------------------------------------------------------------------
# benchmark table
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkRow:
    scorer: str
    split: str
    auroc: float
    tpr: list[float]  # TPR at each target FPR of the result's alphas, in order


@dataclass
class BenchmarkResult:
    rows: list[BenchmarkRow]
    curves: dict  # (scorer, split) -> RocCurve
    alphas: tuple = (0.05, 0.10)

    @property
    def tpr_columns(self) -> list[str]:
        """One TPR column per target FPR: 0.05 -> tpr@fpr0.05, 0.1 -> tpr@fpr0.10."""
        return ["tpr@fpr" + np.format_float_positional(a, min_digits=2) for a in self.alphas]

    @property
    def means(self) -> dict:
        """scorer -> mean AUROC across its splits."""
        per_scorer: dict[str, list[float]] = {}
        for r in self.rows:
            per_scorer.setdefault(r.scorer, []).append(r.auroc)
        return {name: float(np.mean(v)) for name, v in per_scorer.items()}

    def to_csv(self, path):
        means, rows = self.means, self.rows
        blank = [""] * len(means)
        write_table(path, ["scorer", "split", "auroc", *self.tpr_columns], [
            [r.scorer for r in rows] + list(means),
            [r.split for r in rows] + ["mean"] * len(means),
            [r.auroc for r in rows] + list(means.values()),
            *([r.tpr[j] for r in rows] + blank for j in range(len(self.alphas))),
        ])

    def to_json(self) -> dict:
        columns = self.tpr_columns
        return {
            "rows": [
                {"scorer": r.scorer, "split": r.split, "auroc": r.auroc, **dict(zip(columns, r.tpr))}
                for r in self.rows
            ],
            "means": self.means,
        }


def write_roc_csv(path, curve: RocCurve):
    write_table(path, ["fpr", "tpr", "threshold"], list(zip(*curve.points)))


def run_benchmark(split_scorers, alphas=(0.05, 0.10)) -> BenchmarkResult:
    """Evaluate trained scorers per split, with one TPR column per target FPR in ``alphas``.

    ``split_scorers`` is a sequence of (split, scorer) pairs where ``split``
    is a HoldoutSplit (or anything with eval_nominal/eval_novel Datasets and
    a fingerprint) and ``scorer.score(x)`` maps name -> scores of a batch
    (see ``scores.Scorer``), so each evaluation set is scored once. A scorer
    carrying a train fingerprint is checked against its split.
    """
    rows: list[BenchmarkRow] = []
    curves = {}
    for split, scorer in split_scorers:
        split_name = str(getattr(split, "holdout_class", getattr(split, "name", "eval")))
        trained_on = getattr(scorer, "train_fingerprint", None)
        split_fp = getattr(split, "fingerprint", None)
        if trained_on is not None and split_fp is not None and trained_on != split_fp:
            raise FingerprintMismatch(trained_on, split_fp)
        nominal = scorer.score(split.eval_nominal.features)
        novel = scorer.score(split.eval_novel.features)
        for name, nom in nominal.items():
            nov = novel[name]
            curve = roc_from_arrays(nom, nov)
            rows.append(BenchmarkRow(name, split_name, curve.auroc, [tpr_at_fpr(nom, nov, a)[1] for a in alphas]))
            curves[(name, split_name)] = curve
    return BenchmarkResult(rows=rows, curves=curves, alphas=tuple(alphas))


# Published full-scale reference (for report headers; not asserted at desk scale).
TABLE1_REFERENCE = {
    "nd-gan-ratio": {
        "per_holdout": [0.992, 0.982, 0.966, 0.976, 0.936, 0.989, 0.947, 0.978, 0.976, 0.967],
        "mean": 0.971,
    },
    "entropy": {
        "per_holdout": [0.966, 0.984, 0.965, 0.961, 0.947, 0.957, 0.955, 0.970, 0.974, 0.958],
        "mean": 0.964,
    },
    "max-prob": {
        "per_holdout": [0.965, 0.984, 0.964, 0.961, 0.946, 0.957, 0.954, 0.970, 0.973, 0.958],
        "mean": 0.963,
    },
    "knn-1": {
        "per_holdout": [0.916, 0.921, 0.862, 0.844, 0.680, 0.863, 0.865, 0.818, 0.857, 0.840],
        "mean": 0.846,
    },
    "knn-5": {
        "per_holdout": [0.975, 0.952, 0.943, 0.930, 0.811, 0.918, 0.919, 0.941, 0.928, 0.918],
        "mean": 0.924,
    },
}
