"""Finite-difference gradient checks shared by the unit and acceptance suites.

Two kinds of case: the closed-form loss heads in ``gan``, and single network
layers through ``layers.mlp_backward``.
The oracle side never touches either gradient: it re-runs the forward
computation with perturbed inputs and differences the scalar output.
"""

import numpy as np

from ndgan import gan
from ndgan import layers as nn
from tests.conftest import assert_grad_close, finite_difference_grad


def head_case(name: str, rng: np.random.Generator):
    """(function of one array returning (value, gradient), that array) for one
    closed-form loss head. Logits in [-2, 2] keep every p_fake far inside the clamp window, where the
    loss is smooth."""
    m, k = (int(n) for n in rng.integers(1, 9, size=2))
    box = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    if name == "discriminator-head":
        n_lab, n_unl = int(rng.integers(0, 9)), int(rng.integers(1, 9))
        labels = rng.integers(0, k, size=n_lab) if n_lab else None
        return lambda a: gan.discriminator_loss_from_logits(a, labels, n_unl, k), box(n_lab + n_unl + m, k + 1)
    if name == "generator-head":
        return lambda a: gan.generator_loss_standard_from_logits(a, k), box(m, k + 1)
    if name == "feature-matching-head":
        mean_real = box(k)
        return lambda a: gan.feature_matching_from_features(a, mean_real), box(m, k)
    raise KeyError(name)


CHECKED_HEADS = ["discriminator-head", "generator-head", "feature-matching-head"]

# one weight-normalized layer per activation, named after it
CHECKED_LAYERS = list(nn.ACTIVATIONS)

CHECKED = CHECKED_HEADS + CHECKED_LAYERS


def check_gradient(name: str, seed: int):
    """Compare the gradient of one loss head or one layer against central finite differences."""
    if name in CHECKED_LAYERS:
        check_layer_gradient(name, seed)
    else:
        check_head_gradient(name, seed)


def check_head_gradient(name: str, seed: int):
    """Compare one loss head's gradient at its input against central finite differences."""
    head, array = head_case(name, np.random.default_rng(seed))
    assert_grad_close(head(array)[1], finite_difference_grad(lambda: head(array)[0], array))


def check_layer_gradient(activation: str, seed: int):
    """Compare ``mlp_backward``'s parameter and input gradients of one layer against
    central finite differences, under a fixed random linear functional of its output."""
    rng = np.random.default_rng(seed)
    m, k, n = rng.integers(1, 9, size=3)
    v = rng.uniform(-2.0, 2.0, size=(n, k))
    v[np.abs(v).sum(axis=1) < 0.5] += 1.0  # keep rows clearly nonzero
    g = rng.uniform(0.5, 1.5, size=n)
    layer = nn.Layer(v, g, rng.uniform(-2.0, 2.0, size=n), activation)
    x = rng.uniform(-2.0, 2.0, size=(m, k))
    kinked = activation in ("relu", "leaky-relu")
    while True:  # redraw the rows with a pre-activation near a kink
        cache = []
        nn.mlp_forward([layer], x, cache=cache)
        near = (np.abs(cache[0][3]) < 0.05).any(axis=1) & kinked
        if not near.any():
            break
        x[near] = rng.uniform(-2.0, 2.0, size=(int(near.sum()), k))
    weights = np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=(m, n))

    def scalar():
        return float((nn.mlp_forward([layer], x)[0] * weights).sum())

    (grads,) = nn.flat_stack([layer])
    dx = nn.mlp_backward([layer], cache, weights, out=[grads])
    assert_grad_close(dx, finite_difference_grad(scalar, x))
    for name, array in layer.named():
        assert_grad_close(getattr(grads, name), finite_difference_grad(scalar, array))
