import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import autodiff as ad
from ndgan.errors import DomainError, ShapeMismatch, TapeError
from tests.gradcheck import CHECKED, check_gradient


def test_softmax_uniform_by_symmetry():
    out = ad.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=0, atol=1e-15)


def test_l2_norm_squared_hand_example():
    assert ad.l2_norm_squared(ad.Tensor([3.0, 4.0])).item() == 25.0


def test_dx_of_x_times_x_is_2x():
    x = ad.Tensor([3.0])
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.mul(x, x))
        grads = ad.backward(tape, y)
    assert grads[tape.node_of(x)].tolist() == [6.0]


def test_log_softmax_nll_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(5)
    logits = ad.Tensor(rng.normal(size=(4, 6)))
    onehot = np.zeros((4, 6))
    targets = rng.integers(0, 6, 4)
    onehot[np.arange(4), targets] = 1.0
    with ad.Tape() as tape:
        picked = ad.reduce_sum(ad.mul(ad.log_softmax(logits), ad.Tensor(onehot)), axis=1)
        nll = ad.mul(ad.reduce_sum(picked), ad.Tensor(-1.0))
        grads = ad.backward(tape, nll)
    probs = ad.softmax(logits).data
    np.testing.assert_allclose(grads[tape.node_of(logits)], probs - onehot, atol=1e-12)


@pytest.mark.parametrize("op", CHECKED)
def test_gradients_match_finite_differences(op):
    for seed in range(5):
        check_gradient(op, 1000 + seed)


def test_gradients_accumulate_on_fanout():
    x = ad.Tensor([2.0, -1.0])
    with ad.Tape() as tape:
        y = ad.add(ad.reduce_sum(x), ad.reduce_sum(ad.mul(x, x)))
        grads = ad.backward(tape, y)
    np.testing.assert_allclose(grads[tape.node_of(x)], [1 + 4.0, 1 - 2.0])


def test_forward_is_bit_identical_with_and_without_tape():
    rng = np.random.default_rng(3)
    a, v, b = ad.Tensor(rng.normal(size=(5, 4))), ad.Tensor(rng.normal(size=4)), ad.Tensor(rng.normal(size=4))
    bare = ad.log_softmax(ad.add(ad.mul(a, v), b)).data
    with ad.Tape():
        taped = ad.log_softmax(ad.add(ad.mul(a, v), b)).data
    assert np.array_equal(bare, taped)


@pytest.mark.parametrize("slope", [0.2, 0.01, 0.5, 0.999])
def test_leaky_relu_max_form_is_bitwise_the_where_form(slope, monkeypatch):
    monkeypatch.setattr(ad, "LEAKY_SLOPE", slope)
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    normal_min = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, tiny, -tiny, 7 * tiny, -7 * tiny, normal_min, -normal_min,
                      1.0, -1.0, big, -big, np.inf, -np.inf])
    rng = np.random.default_rng(5)
    randoms = rng.normal(size=(96, 512)) * 10.0 ** rng.uniform(-320, 300, size=(96, 512))
    for x in (edges, randoms, rng.normal(size=(3000, 64))):
        got = ad.activate("leaky-relu", x)
        assert got.tobytes() == np.where(x > 0, x, slope * x).tobytes()


def test_clip_gradient_is_zero_outside_the_window():
    x = ad.Tensor([-2.0, 0.0, 2.0])
    with ad.Tape() as tape:
        y = ad.reduce_sum(ad.clip(x, -1.0, 1.0))
        grads = ad.backward(tape, y)
    np.testing.assert_array_equal(grads[tape.node_of(x)], [0.0, 1.0, 0.0])


def test_broadcast_is_limited_to_leading_axes():
    ad.add(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros(3)))  # bias add works
    with pytest.raises(ShapeMismatch) as err:
        ad.add(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.zeros(4)))
    assert "add" in str(err.value) and "(4, 3)" in str(err.value)
    with pytest.raises(ShapeMismatch):
        ad.mul(ad.Tensor(np.zeros((4, 1))), ad.Tensor(np.zeros((4, 3))))  # inner-axis stretch


def test_linear_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeMismatch) as err:
        ad.weight_normalize(np.ones((2, 3)), np.ones(3))  # a gain per row of v
    msg = str(err.value)
    assert "linear" in msg and "(2, 3)" in msg


def test_log_of_non_positive_raises_domain_error():
    with pytest.raises(DomainError) as err:
        ad.log(ad.Tensor([1.0, 0.0]))
    assert "log" in str(err.value)


def test_backward_rejects_non_scalar_output():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(TapeError):
            ad.backward(tape, y)


def test_backward_rejects_detached_output():
    with ad.Tape() as tape:
        pass
    with pytest.raises(TapeError):
        ad.backward(tape, ad.Tensor(1.0))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_are_distributions(n, k, seed):
    x = np.random.default_rng(seed).uniform(-30, 30, size=(n, k))
    y = ad.softmax(ad.Tensor(x)).data
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(ad.log_softmax(ad.Tensor(x)).data, np.log(y), atol=1e-9)


@given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_reductions_match_numpy(n, k, seed):
    x = np.random.default_rng(seed).normal(size=(n, k))
    assert ad.reduce_mean(ad.Tensor(x)).item() == pytest.approx(x.mean(), abs=1e-12)
    np.testing.assert_allclose(ad.reduce_sum(ad.Tensor(x), axis=0).data, x.sum(axis=0), atol=1e-12)
    np.testing.assert_allclose(ad.reduce_mean(ad.Tensor(x), axis=1).data, x.mean(axis=1), atol=1e-12)
