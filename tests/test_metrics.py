import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import metrics
from ndgan.data import Dataset
from ndgan.errors import FingerprintMismatch, ValidationError


def pairwise_auroc(nominal, novel):
    """O(n^2) ordering-probability oracle with ties counting one half."""
    nominal, novel = np.asarray(nominal), np.asarray(novel)
    wins = (novel[:, None] > nominal[None, :]).sum()
    ties = (novel[:, None] == nominal[None, :]).sum()
    return (wins + 0.5 * ties) / (len(nominal) * len(novel))


def test_perfect_separation_gives_auroc_one():
    assert metrics.roc_from_arrays([0.1, 0.2], [0.8, 0.9]).auroc == 1.0


def test_three_of_four_pairs_ordered_gives_075():
    # novel {0.2, 0.9} vs nominal {0.1, 0.8}: 3 of 4 pairs have novel on top
    assert metrics.roc_from_arrays([0.1, 0.8], [0.2, 0.9]).auroc == pairwise_auroc([0.1, 0.8], [0.2, 0.9]) == 0.75


def test_all_tied_scores_give_half():
    assert metrics.roc_from_arrays([0.4, 0.4], [0.4, 0.4, 0.4]).auroc == 0.5


def test_single_class_input_is_an_error():
    with pytest.raises(ValidationError):
        metrics.roc_from_arrays([0.1], [])
    with pytest.raises(ValidationError):
        metrics.roc_from_arrays([], [0.1])


def test_roc_curve_shape_invariants(rng):
    curve = metrics.roc_from_arrays(rng.normal(size=50), rng.normal(0.5, 1, size=60))
    fprs = [p[0] for p in curve.points]
    tprs = [p[1] for p in curve.points]
    thrs = [p[2] for p in curve.points]
    assert curve.points[0][:2] == (0.0, 0.0) and curve.points[-1][:2] == (1.0, 1.0)
    assert all(a <= b for a, b in zip(fprs, fprs[1:]))
    assert all(a <= b for a, b in zip(tprs, tprs[1:]))
    assert all(a >= b for a, b in zip(thrs, thrs[1:]))
    area = np.trapezoid(tprs, fprs)
    assert abs(area - curve.auroc) < 1e-12


@given(st.integers(0, 2**31 - 1), st.integers(2, 100), st.integers(2, 100))
@settings(max_examples=60, deadline=None)
def test_auroc_equals_pairwise_oracle_with_ties(seed, n_nom, n_nov):
    rng = np.random.default_rng(seed)
    # coarse rounding forces plenty of ties
    nominal = np.round(rng.normal(size=n_nom), 1)
    novel = np.round(rng.normal(0.3, 1.0, size=n_nov), 1)
    assert abs(metrics.roc_from_arrays(nominal, novel).auroc - pairwise_auroc(nominal, novel)) < 1e-12


def test_auroc_invariant_under_increasing_transforms(rng):
    nominal, novel = rng.normal(size=40), rng.normal(0.5, 1, size=40)
    base = metrics.roc_from_arrays(nominal, novel).auroc
    assert metrics.roc_from_arrays(np.exp(nominal), np.exp(novel)).auroc == base
    assert metrics.roc_from_arrays(3 * nominal + 7, 3 * novel + 7).auroc == base


def test_reversing_labels_maps_auroc_to_complement(rng):
    nominal = np.round(rng.normal(size=30), 1)
    novel = np.round(rng.normal(0.4, 1, size=50), 1)
    a = metrics.roc_from_arrays(nominal, novel).auroc
    b = metrics.roc_from_arrays(novel, nominal).auroc
    assert a + b == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_enumerated_example():
    # exactly 1 of 4 scores exceeds any t in [3, 4); allowed = floor(4 * 0.25) = 1
    assert metrics.threshold_at_fpr([1.0, 2.0, 3.0, 4.0], 0.25) == 3.0


def test_threshold_alpha_near_one_returns_min_score():
    assert metrics.threshold_at_fpr([5.0, 1.0, 3.0, 2.0], 0.9) == 1.0


def test_threshold_median_for_alpha_half():
    assert metrics.threshold_at_fpr([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0


def test_threshold_controls_fpr_on_its_own_sample(rng):
    scores = rng.normal(size=200)
    for alpha in (0.05, 0.25, 0.5):
        thr = metrics.threshold_at_fpr(scores, alpha)
        assert np.mean(scores > thr) <= alpha


def test_threshold_rejects_unachievable_alpha():
    with pytest.raises(ValidationError):
        metrics.threshold_at_fpr([1.0, 2.0, 3.0], 0.2)  # n*alpha = 0.6 < 1


# ---------------------------------------------------------------------------
# holdout protocol
# ---------------------------------------------------------------------------


def _toy_multiclass(n_per_class, K, seed, split_tag):
    rng = np.random.default_rng(seed)
    feats = np.concatenate([rng.normal(3 * c, 1.0, size=(n_per_class, 3)) for c in range(K)])
    labels = np.repeat(np.arange(K), n_per_class)
    return Dataset(feats, labels, K, split_tag, f"toy-{split_tag}")


def test_holdout_splits_follow_the_balancing_protocol():
    train = _toy_multiclass(850, 10, 0, "train")
    test = _toy_multiclass(100, 10, 1, "test")
    splits = metrics.make_holdout_splits(train, test, seed=5)
    assert [s.holdout_class for s in splits] == list(range(10))
    s4 = splits[4]
    assert s4.eval_nominal.n == 900
    assert s4.eval_novel.n == 900  # 100 test + 800 drawn from the train pool
    assert s4.train.K == 9 and s4.train.n == 9 * 850
    # exclusion: remapped train labels cover 0..8 and the original class 4 is gone
    assert set(np.unique(s4.train.labels)) == set(range(9))
    assert 4 not in s4.label_map
    assert sorted(s4.label_map.values()) == list(range(9))


def test_holdout_split_balances_by_shrinking_nominal_when_pool_is_small():
    train = _toy_multiclass(50, 4, 0, "train")
    test = _toy_multiclass(100, 4, 1, "test")
    splits = metrics.make_holdout_splits(train, test, seed=5)
    s = splits[0]
    # novel pool = 100 test + 50 train = 150 < 300 nominal
    assert s.eval_novel.n == 150
    assert abs(s.eval_nominal.n - s.eval_novel.n) <= 1


def test_holdout_requires_every_class_present():
    train = _toy_multiclass(20, 3, 0, "train")
    test = _toy_multiclass(10, 3, 1, "test")
    test.labels[test.labels == 2] = 1  # class 2 vanishes from test
    with pytest.raises(ValidationError):
        metrics.make_holdout_splits(train, Dataset(test.features, test.labels, 3, "test"), 0)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


class _StubScorer:
    """Stands in for ``scores.Scorer``: ``score`` maps each name to the scores of a batch."""

    def __init__(self, fns, fingerprint=None):
        self._fns = fns
        self.train_fingerprint = fingerprint

    def score(self, x):
        return {name: fn(x) for name, fn in self._fns.items()}


class _StubSplit:
    def __init__(self, nominal, novel, name="eval"):
        self.eval_nominal = Dataset(nominal, None, 0, "test")
        self.eval_novel = Dataset(novel, None, 0, "test")
        self.holdout_class = name
        self.fingerprint = "stub"


def test_random_scorer_has_auroc_near_half(rng):
    split = _StubSplit(rng.normal(size=(5000, 2)), rng.normal(size=(5000, 2)))
    gen = np.random.default_rng(7)
    scorer = _StubScorer({"random": lambda x: gen.uniform(size=len(x))})
    result = metrics.run_benchmark([(split, scorer)])
    assert abs(result.means["random"] - 0.5) < 0.02


def test_identical_score_vectors_give_identical_rows(rng):
    split = _StubSplit(rng.normal(size=(50, 2)), rng.normal(1, 1, size=(50, 2)))
    fn = lambda x: np.abs(x).sum(axis=1)
    result = metrics.run_benchmark([(split, _StubScorer({"a": fn, "b": fn}))])
    rows = {r.scorer: (r.auroc, *r.tpr) for r in result.rows}
    assert rows["a"] == rows["b"] and len(rows["a"]) == 3


def test_benchmark_rejects_scorer_from_another_split(rng):
    split = _StubSplit(rng.normal(size=(20, 2)), rng.normal(size=(20, 2)))
    scorer = _StubScorer({"s": lambda x: x.sum(axis=1)}, fingerprint="someone-else")
    with pytest.raises(FingerprintMismatch):
        metrics.run_benchmark([(split, scorer)])


def test_table1_reference_values_are_embedded():
    ref = metrics.TABLE1_REFERENCE
    assert ref["nd-gan-ratio"]["mean"] == 0.971
    assert ref["nd-gan-ratio"]["per_holdout"][0] == 0.992
    assert ref["entropy"]["mean"] == 0.964
    assert ref["knn-5"]["mean"] == 0.924
    assert json.loads(json.dumps({"full_scale_reference": ref}, sort_keys=True))["full_scale_reference"] == ref


@pytest.mark.parametrize("alphas, columns", [((0.05,), ["tpr@fpr0.05"]),
                                             ((0.01, 0.2), ["tpr@fpr0.01", "tpr@fpr0.20"]),
                                             ((0.05, 0.1), ["tpr@fpr0.05", "tpr@fpr0.10"])])
def test_benchmark_has_one_tpr_column_per_alpha(rng, tmp_path, alphas, columns):
    split = _StubSplit(rng.normal(size=(200, 2)), rng.normal(1, 1, size=(200, 2)))
    fn = lambda x: x.sum(axis=1)
    result = metrics.run_benchmark([(split, _StubScorer({"s": fn}))], alphas)
    (row,) = result.to_json()["rows"]
    nom, nov = fn(split.eval_nominal.features), fn(split.eval_novel.features)
    assert [k for k in row if k.startswith("tpr@")] == columns
    for column, alpha in zip(columns, alphas):
        assert row[column] == metrics.tpr_at_fpr(nom, nov, alpha)[1]
    result.to_csv(tmp_path / "metrics.csv")
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(["scorer", "split", "auroc", *columns])
    assert lines[-1] == f"s,mean,{row['auroc']!r}" + "," * len(alphas)
