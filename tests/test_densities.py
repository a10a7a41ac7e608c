import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import densities as dn
from ndgan.errors import DomainError, SchemaError, ValidationError
from ndgan.metrics import threshold_at_fpr

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def test_standard_normal_at_zero():
    d = dn.gaussian([0.0], 1.0)
    assert d.pdf([[0.0]])[0] == pytest.approx(INV_SQRT_2PI, abs=1e-12)


def test_symmetric_two_component_mixture_at_midpoint():
    d = dn.GaussianMixtureDensity([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
    # both components contribute equally: value equals a single N(0; 1, 1) pdf
    expected = INV_SQRT_2PI * math.exp(-0.5)
    assert d.pdf([[0.0]])[0] == pytest.approx(expected, abs=1e-12)


def test_density_is_nonnegative_and_normalized_on_grid(rng):
    d = dn.GaussianMixtureDensity(
        [0.3, 0.7], [[0.0, 0.5], [-1.0, 1.0]], [[0.5, 0.8], [1.2, 0.4]]
    )
    x = rng.uniform(-5, 5, size=(100, 2))
    assert np.all(d.pdf(x) >= 0)
    grid = dn.GridDensity.from_density(d, [[-8, 8], [-8, 8]], (200, 200))
    raw_total = d.pdf(grid.centers()).sum() * grid.cell_volume
    assert raw_total == pytest.approx(1.0, abs=1e-3)
    assert grid.values.sum() * grid.cell_volume == pytest.approx(1.0, abs=1e-6)


def test_mixture_weights_must_be_simplex():
    with pytest.raises(ValidationError):
        dn.GaussianMixtureDensity([0.6, 0.6], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValidationError):
        dn.GaussianMixtureDensity([1.0], [[0.0]], [[0.0]])  # zero variance


def test_likelihood_ratio_trivial_values():
    same = dn.gaussian([0.0], 1.0)
    assert np.allclose(dn.likelihood_ratio_score(same, same, [[0.0], [2.0]]), 1.0)
    stub_data = SimpleNamespace(pdf=lambda x: np.full(len(x), 0.2))
    stub_novel = SimpleNamespace(pdf=lambda x: np.full(len(x), 0.1))
    assert dn.likelihood_ratio_score(stub_data, stub_novel, [[0.0]])[0] == pytest.approx(0.5)


def test_likelihood_ratio_monotone_for_shifted_gaussians():
    p_data, p_novel = dn.gaussian([0.0], 1.0), dn.gaussian([2.0], 1.0)
    xs = np.linspace(-4, 6, 200)[:, None]
    scores = dn.likelihood_ratio_score(p_data, p_novel, xs)
    assert np.all(np.diff(scores) > 0)


def test_likelihood_ratio_rejects_double_underflow():
    dead = SimpleNamespace(pdf=lambda x: np.zeros(len(x)))
    with pytest.raises(DomainError):
        dn.likelihood_ratio_score(dead, dead, [[0.0]])


def test_optimal_discriminator_values():
    half = SimpleNamespace(pdf=lambda x: np.full(len(x), 0.3))
    assert dn.optimal_discriminator(half, half, [[0.0]])[0] == pytest.approx(0.5)
    pd = SimpleNamespace(pdf=lambda x: np.full(len(x), 0.6))
    pg = SimpleNamespace(pdf=lambda x: np.full(len(x), 0.2))
    assert dn.optimal_discriminator(pd, pg, [[0.0]])[0] == pytest.approx(0.75)
    zero = SimpleNamespace(pdf=lambda x: np.zeros(len(x)))
    assert dn.optimal_discriminator(zero, pg, [[0.0]])[0] == 0.0


def test_mixture_identity_report_values():
    p_data = dn.gaussian([0.0], 1.0)
    p_novel = dn.gaussian([2.0], 1.0)
    spec = dn.MixtureSpec(pi=0.5, novel=p_novel, data=p_data)
    x = np.linspace(-4, 6, 10_000)[:, None]
    report = dn.verify_mixture_identity(spec, x)
    assert report.max_residual < 1e-12
    assert report.n_checked == 10_000 - len(report.excluded)

    # pi=0.5 and p_novel/p_data = 2 implies (1-D*)/D* = 1.5, hence D* = 0.4
    x_ratio2 = (math.log(2.0) + 2.0) / 2.0  # N(x;2,1)/N(x;0,1) = exp(2x-2)
    dstar = dn.optimal_discriminator(p_data, spec, [[x_ratio2]])[0]
    assert dstar == pytest.approx(0.4, abs=1e-12)


def test_pi_zero_makes_dstar_exactly_half():
    p_data = dn.gaussian([0.0, 0.0], 1.0)
    spec = dn.MixtureSpec(pi=0.0, novel=dn.gaussian([5.0, 5.0], 1.0), data=p_data)
    x = np.random.default_rng(1).normal(size=(100, 2))
    np.testing.assert_allclose(dn.optimal_discriminator(p_data, spec, x), 0.5, atol=1e-15)


@given(
    pi=st.floats(0.0, 1.0),
    mean_gap=st.floats(-3.0, 3.0),
    var_a=st.floats(0.3, 3.0),
    var_b=st.floats(0.3, 3.0),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_mixture_identity_holds_on_random_specs(pi, mean_gap, var_a, var_b, seed):
    rng = np.random.default_rng(seed)
    spec = dn.MixtureSpec(
        pi=pi,
        novel=dn.gaussian([mean_gap, -mean_gap], var_a),
        data=dn.GaussianMixtureDensity(
            [0.4, 0.6], rng.uniform(-2, 2, size=(2, 2)), rng.uniform(0.3, 2.0, size=(2, 2))
        ),
    )
    x = rng.uniform(-4, 4, size=(500, 2))
    assert dn.verify_mixture_identity(spec, x).max_residual < 1e-12


def test_np_threshold_for_equal_densities_is_one():
    d = dn.gaussian([0.0], 1.0)
    samples = d.sample(1000, np.random.default_rng(2))
    thr = threshold_at_fpr(dn.likelihood_ratio_score(d, d, samples), 0.5)
    assert thr == pytest.approx(1.0, abs=1e-12)  # every score is exactly 1


def test_np_threshold_controls_fpr_within_binomial_bound():
    rng = np.random.default_rng(3)
    p_data, p_novel = dn.gaussian([0.0], 1.0), dn.gaussian([2.0], 1.0)
    calib = p_data.sample(4000, rng)
    held_out = p_data.sample(4000, rng)
    for alpha in (0.05, 0.2, 0.5):
        thr = threshold_at_fpr(dn.likelihood_ratio_score(p_data, p_novel, calib), alpha)
        fpr = float(np.mean(dn.likelihood_ratio_score(p_data, p_novel, held_out) > thr))
        assert fpr <= alpha + 2 * math.sqrt(alpha * (1 - alpha) / 4000)


def test_np_threshold_rejects_tiny_samples():
    d = dn.gaussian([0.0], 1.0)
    with pytest.raises(ValidationError):
        threshold_at_fpr(dn.likelihood_ratio_score(d, d, d.sample(10, np.random.default_rng(0))), 0.01)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def _spec_doc():
    return {
        "version": 1,
        "pi": 0.3,
        "data": {"weights": [1.0], "means": [[0.0, 0.0]], "variances": [[1.0, 1.0]]},
        "novel": {"weights": [1.0], "means": [[2.0, 2.0]], "variances": [[0.5, 0.5]]},
    }


def test_mixture_spec_json_round_trip(tmp_path):
    doc = _spec_doc()
    path = tmp_path / "density.json"
    path.write_text(json.dumps(doc))
    spec = dn.load_mixture_spec(path)
    assert spec.pi == 0.3
    assert dn.mixture_spec_to_json(spec) == doc


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.pop("pi"), "$.pi"),
        (lambda d: d.update(pi=1.5), "$.pi"),
        (lambda d: d.update(version=9), "$.version"),
        (lambda d: d.update(extra=1), "$.extra"),
        (lambda d: d["data"].pop("weights"), "$.data.weights"),
        (lambda d: d["novel"].update(junk=1), "$.novel.junk"),
    ],
)
def test_schema_errors_carry_json_paths(mutate, path):
    doc = _spec_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        dn.mixture_spec_from_json(doc)
    assert err.value.json_path == path


@pytest.mark.parametrize("key", ["version", "pi"])
def test_a_bool_is_not_a_number_in_a_density_spec(key):
    doc = _spec_doc()
    doc[key] = True  # equal to 1, which both keys accept
    with pytest.raises(SchemaError) as err:
        dn.mixture_spec_from_json(doc)
    assert err.value.json_path == f"$.{key}"


def test_grid_cell_index_maps_edges_inward():
    grid = dn.GridDensity(bounds=[[0.0, 1.0]], resolution=(4,), values=np.ones(4))
    idx = grid.cell_index(np.array([[0.0], [0.999], [1.0], [1.5]]))
    assert idx.tolist() == [0, 3, 3, -1]
