import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import data as dio
from ndgan import densities as dn
from ndgan import gan, scores
from ndgan.errors import DomainError, ValidationError
from tests.test_gan import bias_model


# ---------------------------------------------------------------------------
# nd-gan ratio
# ---------------------------------------------------------------------------


def nd_gan_ratio(model, x):
    return scores.Scorer(model, ["nd-gan-ratio"]).score(x)["nd-gan-ratio"]


def test_nd_gan_ratio_hand_values():
    x = np.zeros((1, 2))
    assert nd_gan_ratio(bias_model([0.0, 0.0]), x)[0] == pytest.approx(1.0, abs=1e-9)
    assert nd_gan_ratio(bias_model([math.log(0.2), math.log(0.8)]), x)[0] == pytest.approx(4.0, abs=1e-9)
    # p_fake -> 0 clamps near 1e-7 instead of reaching zero
    tiny = nd_gan_ratio(bias_model([50.0, 0.0]), x)[0]
    assert 0 < tiny < 1e-6


def test_nd_gan_ratio_is_strictly_increasing_in_fake_probability():
    x = np.zeros((1, 2))
    fake_logits = np.linspace(-4, 4, 15)
    vals = [nd_gan_ratio(bias_model([0.0, b]), x)[0] for b in fake_logits]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_nd_gan_ratio_is_positive_and_finite(rng):
    from tests.test_gan import tiny_model

    model = tiny_model(K=3, seed=1)
    s = nd_gan_ratio(model, rng.normal(size=(50, 2)))
    assert np.all(s > 0) and np.all(np.isfinite(s))


# ---------------------------------------------------------------------------
# entropy and max-prob
# ---------------------------------------------------------------------------


def test_entropy_extremes():
    assert scores.score_entropy([[1.0, 0.0, 0.0]])[0] == 0.0
    assert scores.score_entropy([np.full(10, 0.1)])[0] == pytest.approx(math.log(10), abs=1e-12)
    assert scores.score_entropy([[0.5, 0.5]])[0] == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_bounds(rng):
    for K in (2, 5, 10):
        p = rng.dirichlet(np.ones(K), size=100)
        s = scores.score_entropy(p)
        assert np.all(s >= 0) and np.all(s <= math.log(K) + 1e-12)


def test_entropy_rejects_negative_probabilities():
    with pytest.raises(DomainError):
        scores.score_entropy([[1.2, -0.2]])
    with pytest.raises(DomainError):
        scores.score_entropy([[0.5, 0.4]])  # does not sum to 1


def test_max_prob_values_and_bounds(rng):
    assert scores.score_max_prob([[0.0, 1.0, 0.0]])[0] == 0.0
    assert scores.score_max_prob([np.full(10, 0.1)])[0] == pytest.approx(0.9, abs=1e-12)
    assert scores.score_max_prob([[0.7, 0.2, 0.1]])[0] == pytest.approx(0.3, abs=1e-12)
    for K in (2, 7):
        p = rng.dirichlet(np.ones(K), size=50)
        s = scores.score_max_prob(p)
        assert np.all(s >= 0) and np.all(s <= 1 - 1 / K + 1e-12)


# ---------------------------------------------------------------------------
# normalized kNN
# ---------------------------------------------------------------------------

REFERENCE_1D = np.array([[0.0], [1.0], [10.0]])


def test_knn_hand_trace_interior_query():
    # query 2: NN = 1 at distance 1; anchor 1's NN (excluding itself) = 0 at distance 1
    assert scores.score_knn([[2.0]], REFERENCE_1D, k=1)[0] == pytest.approx(1.0, abs=1e-12)


def test_knn_hand_trace_far_query():
    # query 20: NN = 10 at distance 10; anchor 10's NN = 1 at distance 9
    assert scores.score_knn([[20.0]], REFERENCE_1D, k=1)[0] == pytest.approx(10.0 / 9.0, abs=1e-12)


def test_knn_query_on_a_reference_point_scores_zero():
    assert scores.score_knn([[1.0]], REFERENCE_1D, k=1)[0] == 0.0


def test_knn_k2_averages_neighbor_distances():
    ref = np.array([[0.0], [1.0], [3.0], [10.0]])
    # query 2: two nearest are 1 (d=1) and 3 (d=1) -> numerator 1
    # anchor = 2nd nearest = 3; its two nearest are 1 (d=2) and 0 (d=3) -> denominator 2.5
    val = scores.score_knn([[2.0]], ref, k=2)[0]
    assert val == pytest.approx(1.0 / 2.5, abs=1e-12)


def test_knn_duplicate_reference_points_use_max_finite_sentinel():
    ref = np.array([[0.0], [0.0], [5.0]])
    # query 1: anchor 0 duplicated -> denominator 0 with nonzero numerator
    out = scores.score_knn([[1.0], [4.0]], ref, k=1)
    assert out[0] == out[1]  # sentinel equals the max finite score in the batch
    assert np.isfinite(out).all()


def test_knn_rejects_small_reference_and_mismatched_width():
    with pytest.raises(ValidationError):
        scores.score_knn([[0.0]], np.array([[1.0]]), k=1)
    with pytest.raises(ValidationError):
        scores.score_knn([[0.0, 1.0]], REFERENCE_1D, k=1)
    with pytest.raises(ValidationError):
        scores.score_knn([[0.0]], REFERENCE_1D, k=0)


def _knn_oracle(queries, reference, k, exclude_self):
    """Brute force: every pairwise distance, a stable sort of each whole row."""
    d2 = ((queries[:, None, :] - reference[None, :, :]) ** 2).sum(axis=2)
    mean_dist, kth = np.empty(len(queries)), np.empty(len(queries), dtype=np.int64)
    for r, row in enumerate(np.argsort(d2, axis=1, kind="stable")):
        row = row[1 : k + 1] if exclude_self else row[:k]
        mean_dist[r] = np.sqrt(d2[r, row]).mean()
        kth[r] = row[k - 1]
    return mean_dist, kth


def _knn_score_oracle(queries, reference, k):
    num, kth = _knn_oracle(queries, reference, k, exclude_self=False)
    den = _knn_oracle(reference[kth], reference, k, exclude_self=True)[0]
    out = np.zeros(len(queries))
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    out[~ok & (num > 0)] = out[ok].max() if ok.any() else 1.0
    return out


def _grid_points(n, dim):
    """n points with small integer coordinates: exact distances and many ties."""
    return st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), min_size=n, max_size=n).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(n, dim))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.sampled_from([1, 3, 5]), exclude_self=st.booleans(),
       dim=st.integers(1, 3), block=st.sampled_from([1, 2, 3, 7, 256]))
def test_knn_partial_select_matches_stable_sort_oracle(data, k, exclude_self, dim, block):
    n_ref = data.draw(st.sampled_from([k + 1, k + 2]) | st.integers(k + 1, 30), label="n_ref")
    reference = data.draw(_grid_points(n_ref, dim), label="reference")
    queries = data.draw(st.integers(1, 20).flatmap(lambda n: _grid_points(n, dim)), label="queries")

    got = scores._knn_distances(queries, reference, k, exclude_self, block=block)
    want = _knn_oracle(queries, reference, k, exclude_self)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])
    if not exclude_self:
        assert scores.score_knn(queries, reference, k).tobytes() == _knn_score_oracle(queries, reference, k).tobytes()


def test_knn_blocked_search_matches_direct_computation(rng):
    ref = rng.normal(size=(300, 4))
    queries = rng.normal(size=(37, 4))
    got = scores.score_knn(queries, ref, k=3)

    def brute(q):
        d = np.linalg.norm(ref - q, axis=1)
        order = np.argsort(d, kind="stable")
        num = d[order[:3]].mean()
        anchor = ref[order[2]]
        da = np.linalg.norm(ref - anchor, axis=1)
        ao = np.argsort(da, kind="stable")
        den = da[ao[1:4]].mean()
        return num / den

    expected = np.array([brute(q) for q in queries])
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# uniform baseline generator
# ---------------------------------------------------------------------------


def test_uniform_baseline_samples_stay_inside_bounds():
    g = scores.UniformBaselineGenerator([[0.0, 1.0], [0.0, 1.0]])
    x = g.sample(500, np.random.default_rng(0))
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_uniform_baseline_mean_matches_monte_carlo():
    g = scores.UniformBaselineGenerator([[0.0, 1.0]])
    x = g.sample(10_000, np.random.default_rng(1))
    assert abs(x.mean() - 0.5) < 0.02


def test_uniform_baseline_is_seed_deterministic():
    g = scores.UniformBaselineGenerator([[-2.0, 3.0]])
    a = g.sample(50, np.random.default_rng(7))
    b = g.sample(50, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_uniform_baseline_rejects_inverted_bounds():
    with pytest.raises(ValidationError):
        scores.UniformBaselineGenerator([[1.0, 1.0]])


@pytest.mark.parametrize("bounds", [[[0.0, 1.0, 2.0]], [0.0, 1.0], [], None], ids=["triple", "flat", "empty", "none"])
def test_uniform_baseline_rejects_bounds_that_are_not_pairs(bounds):
    with pytest.raises(ValidationError, match=r"\[low, high\] pairs"):
        scores.UniformBaselineGenerator(bounds)


# ---------------------------------------------------------------------------
# mixture-generator check
# ---------------------------------------------------------------------------


def _ring_grid():
    _, density = dio.gen_ring_mixture(16, 8, 2.0, 0.2, seed=0)
    grid = dn.GridDensity.from_density(density, [[-4, 4], [-4, 4]], (60, 60))
    return density, grid


def test_samples_from_p_data_itself_are_not_a_mixture_generator():
    density, grid = _ring_grid()
    samples = density.sample(10_000, np.random.default_rng(2))
    report = scores.check_mixture_generator(samples, grid, epsilon=0.01 * grid.values.max())
    assert report.is_mixture_generator is False
    assert report.cells == []


def test_uniform_samples_over_domain_are_a_degenerate_mixture_generator():
    density = dn.gaussian([0.0, 0.0], 0.05)  # concentrated nominal density
    grid = dn.GridDensity.from_density(density, [[-3, 3], [-3, 3]], (60, 60))
    uniform = scores.UniformBaselineGenerator([[-3, 3], [-3, 3]])
    samples = uniform.sample(10_000, np.random.default_rng(3))
    report = scores.check_mixture_generator(samples, grid, epsilon=0.01 * grid.values.max())
    assert report.is_mixture_generator is True
    assert len(report.cells) > 0


def test_ten_percent_uniform_contamination_is_detected():
    # Cells must be coarse enough that a 10% contamination puts well over
    # 3 binomial standard errors of mass into the ring's hollow center.
    _, density = dio.gen_ring_mixture(16, 8, 2.0, 0.2, seed=0)
    grid = dn.GridDensity.from_density(density, [[-3, 3], [-3, 3]], (12, 12))
    rng = np.random.default_rng(4)
    n = 40_000
    n_unif = n // 10
    samples = np.concatenate([
        density.sample(n - n_unif, rng),
        scores.UniformBaselineGenerator([[-3, 3], [-3, 3]]).sample(n_unif, rng),
    ])
    report = scores.check_mixture_generator(samples, grid, epsilon=0.01 * grid.values.max())
    assert report.is_mixture_generator is True


def test_mixture_check_rejects_empty_samples():
    _, grid = _ring_grid()
    with pytest.raises(ValidationError):
        scores.check_mixture_generator(np.empty((0, 2)), grid, 0.1)


# ---------------------------------------------------------------------------
# direction convention on a trained model
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ring_model():
    data, density = dio.gen_ring_mixture(1600, 8, 2.0, 0.2, seed=21)
    model = gan.build_gan(2, 8, arch="2d", seed=21)
    cfg = gan.TrainConfig(total_steps=1500, batch_size=64, seed=21, labeled_fraction=0.25, log_every=500)
    model, _ = gan.train_gan(model, data, cfg)
    return model, data, density


def test_every_scorer_ranks_vanishing_density_point_above_medoid(ring_model):
    model, data, density = ring_model
    # medoid: the training point of highest nominal density; the origin has
    # vanishing density (the ring's hollow center)
    medoid = data.features[np.argmax(density.logpdf(data.features))][None, :]
    origin = np.zeros((1, 2))
    names = ["nd-gan-ratio", "fake-prob", "entropy", "max-prob", "knn-1", "knn-5"]
    scorer = scores.Scorer(model, names, data.features)
    at_origin, at_medoid = scorer.score(origin), scorer.score(medoid)
    assert list(at_origin) == names
    for name in names:
        assert at_origin[name][0] >= at_medoid[name][0], name


def test_scores_csv_writer(tmp_path, rng):
    path = tmp_path / "scores.csv"
    dio.write_table(path, ["example_id", "score", "is_novel", "entropy"],
                    [range(5), rng.uniform(size=5), [0, 1, 0, 1, None], rng.uniform(size=5)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "example_id,score,is_novel,entropy"
    assert len(lines) == 6
    assert lines[5].startswith("4,") and ",," in lines[5]  # None is an empty cell
