import numpy as np
import pytest

from ndgan import autodiff as ad
from ndgan import gan
from ndgan import layers as nn
from ndgan.errors import ShapeMismatch, TapeError
from tests.gradcheck import CHECKED, check_gradient


class Value:
    """A value the tape records: any object holding its array as ``.data``."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)


def mul(tape, a, b):
    return tape.record("mul", Value(a.data * b.data), (a, b), lambda g: (g * b.data, g * a.data))


def add(tape, a, b):
    return tape.record("add", Value(a.data + b.data), (a, b), lambda g: (g, g))


def total(tape, a):
    return tape.record("total", Value(a.data.sum()), (a,), lambda g: (np.full(a.data.shape, float(g)),))


def test_l2_norm_squared_hand_example():
    value, grad = gan.feature_matching_from_features(np.array([[3.0, 4.0]]), np.zeros(2))
    assert value == 25.0
    assert grad.tolist() == [[6.0, 8.0]]


def test_dx_of_x_times_x_is_2x():
    x = Value([3.0])
    with ad.Tape() as tape:
        y = total(tape, mul(tape, x, x))
        grads = ad.backward(tape, y)
    assert grads[tape.node_of(x)].tolist() == [6.0]


def test_log_softmax_nll_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(5)
    K = 5
    logits = rng.normal(size=(6, K + 1))  # 4 labeled rows, then one unlabeled and one fake
    targets = rng.integers(0, K, 4)
    onehot = np.zeros((4, K + 1))
    onehot[np.arange(4), targets] = 1.0
    _, grad = gan.discriminator_loss_from_logits(logits, targets, 1, K)
    probs = gan._softmax(logits[:4])[2]
    np.testing.assert_allclose(grad[:4] * 4, probs - onehot, atol=1e-12)


@pytest.mark.parametrize("op", CHECKED)
def test_gradients_match_finite_differences(op):
    for seed in range(5):
        check_gradient(op, 1000 + seed)


def test_gradients_accumulate_on_fanout():
    x = Value([2.0, -1.0])
    with ad.Tape() as tape:
        y = add(tape, total(tape, x), total(tape, mul(tape, x, x)))
        grads = ad.backward(tape, y)
    np.testing.assert_allclose(grads[tape.node_of(x)], [1 + 4.0, 1 - 2.0])


def test_forward_is_bit_identical_with_and_without_tape():
    """Keeping a pass's intermediates for its backward changes none of its bits."""
    rng = np.random.default_rng(3)
    layers = nn.init_mlp([4, 5, 3], "leaky-relu", "linear", rng, noise_std=0.1)
    x = rng.normal(size=(6, 4))
    bare = nn.mlp_forward(layers, x, np.random.default_rng(1))[0]
    cache = []
    kept = nn.mlp_forward(layers, x, np.random.default_rng(1), cache=cache)[0]
    assert len(cache) == 2 and bare.tobytes() == kept.tobytes()


def test_clip_gradient_is_zero_outside_the_window():
    """Rows whose p_fake the clamp holds get an exactly zero gradient, as the clip's window gave."""
    low, high, mid = [40.0, 0.0], [0.0, 40.0], [0.3, -0.2]  # K=1: p_fake ~ 4e-18, ~ 1, inside
    _, grad = gan.discriminator_loss_from_logits(np.array([low, high, mid, low, high, mid]), None, 3, 1)
    assert np.all(grad[[0, 1, 3, 4]] == 0.0) and np.all(grad[[2, 5]] != 0.0)
    _, grad = gan.generator_loss_standard_from_logits(np.array([low, high, mid]), 1)
    assert np.all(grad[:2] == 0.0) and np.all(grad[2] != 0.0)


def test_linear_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeMismatch) as err:
        nn.effective_weights(np.ones((2, 3)), np.ones(3))  # a gain per row of v
    msg = str(err.value)
    assert "linear" in msg and "(2, 3)" in msg


def test_backward_rejects_non_scalar_output():
    x = Value(np.ones((2, 2)))
    with ad.Tape() as tape:
        y = mul(tape, x, x)
        with pytest.raises(TapeError):
            ad.backward(tape, y)


def test_backward_rejects_detached_output():
    with ad.Tape() as tape:
        pass
    with pytest.raises(TapeError):
        ad.backward(tape, Value(1.0))
