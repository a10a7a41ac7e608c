"""Novelty scores. Every scorer follows one direction convention: higher
score means more novel, so all of them feed the same ROC machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import blas
from .densities import GridDensity
from .errors import DomainError, ValidationError
# discriminator_probs/_features stay bound here for bench's tracing test until the benchmark repair
from .gan import PROB_CLAMP, GanModel, discriminator_features, discriminator_probs, forward  # noqa: F401


def fake_ratio(p_fake) -> np.ndarray:
    """p_fake / (1 - p_fake), with p_fake clamped away from 0 and 1."""
    p_fake = np.clip(p_fake, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return p_fake / (1.0 - p_fake)


def _check_prob_rows(probs: np.ndarray):
    if np.any(probs < 0):
        raise DomainError("probability-score", f"negative probability (min={probs.min()})")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise DomainError("probability-score", f"row {bad} sums to {sums[bad]!r}, not 1")


def score_entropy(probs) -> np.ndarray:
    """Shannon entropy (natural log) of each probability row."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_prob_rows(probs)
    plogp = np.where(probs > 0, probs * np.log(np.where(probs > 0, probs, 1.0)), 0.0)
    return -plogp.sum(axis=1)


def score_max_prob(probs) -> np.ndarray:
    """1 - max class probability (flipped so higher = more novel)."""
    probs = np.asarray(probs, dtype=np.float64)
    _check_prob_rows(probs)
    return 1.0 - probs.max(axis=1)


# ---------------------------------------------------------------------------
# normalized kNN distance
# ---------------------------------------------------------------------------


KNN_BLOCK = 128  # most query rows per block of the kNN search


def knn_prepare(reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reference.T * -2.0, the squared norms of its rows): what each search of ``reference`` reuses."""
    return reference.T * -2.0, (reference * reference).sum(axis=1)


def _knn_distances(queries: np.ndarray, reference: np.ndarray, k: int, exclude_self: bool, block: int = KNN_BLOCK,
                   prepared: tuple | None = None):
    """Mean distance to the k nearest neighbors and the index of the k-th one.

    Exact search in blocks of at most ``block`` query rows (``blas.in_blocks``); neighbors rank by
    (distance, index), as a stable sort ranks them. A partial select finds the k nearest, and only
    a row with a tie at the k-th distance is sorted in full. With ``exclude_self`` the nearest hit
    is skipped (the queries are reference points themselves). ``prepared``: see ``score_knn``.
    """
    mean_dist, kth_index = np.empty(len(queries)), np.empty(len(queries), dtype=np.int64)
    ref_t2, ref_sq = knn_prepare(reference) if prepared is None else prepared
    take = k + 1 if exclude_self else k

    def search(start, stop):  # fills its rows of mean_dist and kth_index
        q = queries[start:stop]
        d2 = q @ ref_t2
        d2 += (q * q).sum(axis=1)[:, None]
        d2 += ref_sq
        np.maximum(d2, 0.0, out=d2)
        cols = np.argpartition(d2, take - 1, axis=1)[:, :take]
        exact = np.count_nonzero(d2 <= np.take_along_axis(d2, cols[:, -1:], axis=1), axis=1) == take
        cols.sort(axis=1)  # ascending index, then a stable sort by distance
        order = np.take_along_axis(cols, np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable"), 1)
        for r in np.flatnonzero(~exact):  # a tie at the k-th distance
            order[r] = np.argsort(d2[r], kind="stable")[:take]
        order = order[:, take - k :]
        mean_dist[start:stop] = np.sqrt(np.take_along_axis(d2, order, axis=1)).mean(axis=1)
        kth_index[start:stop] = order[:, k - 1]
    blas.in_blocks(search, len(queries), block)
    return mean_dist, kth_index


def score_knn(features_query, reference, k: int = 1, prepared: tuple | None = None) -> np.ndarray:
    """Normalized kNN novelty score.

    numerator: (mean, for k>1) distance from the query to its k nearest reference points;
    denominator: the same quantity for NN_k(query), the k-th nearest neighbor itself, searched
    with that anchor excluded. ``prepared`` is ``knn_prepare(reference)``, computed when not given.
    """
    queries = np.atleast_2d(np.asarray(features_query, dtype=np.float64))
    reference = np.atleast_2d(np.asarray(reference, dtype=np.float64))
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if reference.shape[0] < k + 1:
        raise ValidationError(f"reference set has {reference.shape[0]} points, need more than k={k}")
    if queries.shape[1] != reference.shape[1]:
        raise ValidationError(f"query width {queries.shape[1]} != reference width {reference.shape[1]}")

    prepared = knn_prepare(reference) if prepared is None else prepared
    num, kth = _knn_distances(queries, reference, k, exclude_self=False, prepared=prepared)

    # Denominators depend only on the anchor point; compute each unique anchor once.
    uniq, inverse = np.unique(kth, return_inverse=True)
    den_uniq, _ = _knn_distances(reference[uniq], reference, k, exclude_self=True, prepared=prepared)
    den = den_uniq[inverse]

    scores = np.zeros(len(queries))
    ok = den > 0
    scores[ok] = num[ok] / den[ok]
    degenerate = (~ok) & (num > 0)  # duplicate anchors with a nonzero numerator
    if np.any(degenerate):
        finite_max = scores[ok].max() if np.any(ok) else 1.0
        scores[degenerate] = finite_max
    return scores


# ---------------------------------------------------------------------------
# degenerate (uniform) baseline generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformBaselineGenerator:
    """Uniform sampler over a box; stands in for a learned generator."""

    bounds: np.ndarray  # (d, 2)

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 2:
            raise ValidationError(f"bounds must be a list of [low, high] pairs, got {self.bounds!r}")
        if np.any(b[:, 0] >= b[:, 1]):
            bad = int(np.argmax(b[:, 0] >= b[:, 1]))
            raise ValidationError(f"dimension {bad}: lower bound {b[bad, 0]} >= upper bound {b[bad, 1]}")
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(b[:, 1] - b[:, 0])  # numpy's uniform draws over a finite width only
        if not finite.all():
            bad = int(np.argmin(finite))
            raise ValidationError(f"dimension {bad}: the width of [{b[bad, 0]}, {b[bad, 1]}] is not finite")
        object.__setattr__(self, "bounds", b)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        return rng.uniform(lo, hi, size=(n, self.bounds.shape[0]))


# ---------------------------------------------------------------------------
# mixture-generator evidence check
# ---------------------------------------------------------------------------


@dataclass
class MixtureCheckReport:
    is_mixture_generator: bool
    cells: list  # (flat cell index, estimated generator density, data density)
    epsilon: float
    n_samples: int
    n_outside: int


def check_mixture_generator(samples_g, grid: GridDensity, epsilon: float) -> MixtureCheckReport:
    """Histogram evidence that a sample set puts mass where the data density
    is at most ``epsilon`` and the generator exceeds it.

    A cell qualifies only when the estimated excess clears 3 binomial
    standard errors of the histogram cell estimate, so thin sampling noise
    does not count as evidence.
    """
    samples = np.atleast_2d(np.asarray(samples_g, dtype=np.float64))
    if samples.shape[0] == 0:
        raise ValidationError("check_mixture_generator needs a non-empty sample set")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")

    n = samples.shape[0]
    vol = grid.cell_volume
    flat = grid.cell_index(samples)
    n_outside = int(np.sum(flat < 0))
    counts = np.bincount(flat[flat >= 0], minlength=int(np.prod(grid.resolution)))

    p_hat = counts / n  # cell-mass estimate
    density_hat = p_hat / vol
    se_density = np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 0.0) / n) / vol

    p_data = grid.values.ravel()
    qualifying = (p_data <= epsilon) & (density_hat > p_data + 3.0 * se_density) & (counts > 0)
    cells = [
        (int(i), float(density_hat[i]), float(p_data[i]))
        for i in np.nonzero(qualifying)[0]
    ]
    return MixtureCheckReport(
        is_mixture_generator=bool(cells),
        cells=cells,
        epsilon=float(epsilon),
        n_samples=n,
        n_outside=n_outside,
    )


# ---------------------------------------------------------------------------
# scorer registry: every score from one discriminator pass
# ---------------------------------------------------------------------------


def _real_probs(probs: np.ndarray) -> np.ndarray:
    """The K real-class probabilities of K+1-class rows, renormalized to sum to 1."""
    p = probs[:, :-1]
    return p / p.sum(axis=1, keepdims=True)


# name -> score of a batch from the K+1 class probabilities of its pass; knn-<k>
# scorers use the pass's features instead (see Scorer)
SCORERS = {
    "nd-gan-ratio": lambda probs: fake_ratio(probs[:, -1]),
    "fake-prob": lambda probs: probs[:, -1],
    "entropy": lambda probs: score_entropy(_real_probs(probs)),
    "max-prob": lambda probs: score_max_prob(_real_probs(probs)),
}


def knn_k(name: str) -> int | None:
    """k of a ``knn-<k>`` scorer name; None for a registry name."""
    if name in SCORERS:
        return None
    if not name.startswith("knn-"):
        raise ValidationError(f"unknown scorer {name!r}; have {tuple(SCORERS)} and knn-<k>")
    text = name.split("-", 1)[1]
    try:
        k = int(text)
    except ValueError:
        k = None
    if k is None or str(k) != text:  # one name per k, so one scores column and one ROC file name
        raise ValidationError(f"bad kNN scorer name {name!r}; use knn-<k>, k in ASCII digits without a leading zero")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return k


class Scorer:
    """Named novelty scores of a frozen model, all from one discriminator pass per
    batch; kNN scorers search the features of ``reference_x``, computed once."""

    def __init__(self, model: GanModel, names, reference_x=None):
        self.model = model
        self.kind = "+".join(names)  # names the scorer set in reports and traces
        self._k = {name: knn_k(name) for name in names}
        knn = [name for name, k in self._k.items() if k is not None]
        if knn and reference_x is None:
            raise ValidationError(f"scorer {knn[0]} needs a reference set (knn_reference)")
        self.reference = forward(model, reference_x)[1] if knn else None
        self._prepared = knn_prepare(self.reference) if knn else None

    def derive(self, probs: np.ndarray, features: np.ndarray) -> dict[str, np.ndarray]:
        """Every named score from one pass's (probs, features)."""
        return {name: SCORERS[name](probs) if k is None else score_knn(features, self.reference, k, self._prepared)
                for name, k in self._k.items()}

    def score(self, x) -> dict[str, np.ndarray]:
        return self.derive(*forward(self.model, x))
