from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import gan
from ndgan import layers as nn
from ndgan.errors import DomainError, ShapeMismatch
from tests.conftest import assert_grad_close, finite_difference_grad


def _layer(v, activation="linear", noise_std=0.0, gain=None):
    """One layer whose effective weights are ``v`` itself, bit for bit (each gain is
    its row's norm, so g / norm is 1), or zero with ``gain=0``."""
    v = np.asarray(v, dtype=np.float64)
    g = np.sqrt((v * v).sum(axis=1)) if gain is None else np.full(len(v), float(gain))
    return nn.Layer(v, g, np.zeros(len(v)), activation, noise_std=noise_std)


def _mlp(rng, dims, activations):
    """An initialized stack whose layer i has ``activations[i]``."""
    return [nn.Layer(p.v, p.g, p.b, act) for p, act in zip(nn.init_mlp(dims, "linear", "linear", rng), activations)]


def test_identity_linear_layer_is_identity():
    layer = _layer(np.eye(2))
    out, kept = nn.mlp_forward([layer], np.array([[1.0, 2.0]]))
    assert out.tolist() == [[1.0, 2.0]]
    assert kept is None  # no layer asked for
    out, kept = nn.mlp_forward([layer], np.array([[1.0, 2.0]]), keep=0)
    assert kept is out


def test_linear_layer_hand_example():
    # x @ v.T + b with v = [[1, 1]]: the product [[1, 2], [3, 4]] @ [[1], [1]]
    layer = _layer([[1.0, 1.0]])
    out, _ = nn.mlp_forward([layer], [[1.0, 2.0], [3.0, 4.0]])
    assert out.tolist() == [[3.0], [7.0]]


def test_zero_weight_sigmoid_unit_outputs_half():
    layer = _layer(np.ones((1, 3)), "sigmoid", gain=0.0)  # gain 0: zero weights
    out, _ = nn.mlp_forward([layer], np.array([[5.0, -2.0, 0.3]]))
    assert out.tolist() == [[0.5]]


def test_eval_mode_is_deterministic_train_mode_is_noisy():
    rng = np.random.default_rng(1)
    layers = nn.init_mlp([3, 4, 2], "sigmoid", "relu", rng, noise_std=0.2)
    x = rng.normal(size=(5, 3))
    a, _ = nn.mlp_forward(layers, x)  # no noise rng: an eval pass
    b, _ = nn.mlp_forward(layers, x)
    assert np.array_equal(a, b)
    c, _ = nn.mlp_forward(layers, x, np.random.default_rng(7))
    assert not np.array_equal(a, c)


def test_noise_is_seed_deterministic_and_constant_in_backward():
    layer = _layer(np.eye(2), noise_std=0.5)
    x = np.zeros((3, 2))
    draws = [nn.mlp_forward([layer], x, np.random.default_rng(9))[0] for _ in range(2)]
    assert np.array_equal(draws[0], draws[1])
    assert draws[0].std() > 0

    cache = []
    nn.mlp_forward([layer], x, np.random.default_rng(9), cache=cache)
    dx = nn.mlp_backward([layer], cache, np.ones((3, 2)))
    np.testing.assert_array_equal(dx, np.ones((3, 2)))


def test_weight_norm_row_scaling_leaves_output_bit_unchanged():
    rng = np.random.default_rng(2)
    params = nn.init_mlp([4, 3], "relu", "sigmoid", rng)
    x = rng.normal(size=(6, 4))
    base, _ = nn.mlp_forward(params, x)
    # power-of-two scalings are exact in float64, so outputs match bit for bit
    for scale in (2.0, 0.5, 8.0):
        params[0].v[1] *= scale
        scaled, _ = nn.mlp_forward(params, x)
        assert np.array_equal(base, scaled)
        params[0].v[1] /= scale
    params[0].v[1] *= 1.7  # generic positive scaling: equal within rounding
    scaled, _ = nn.mlp_forward(params, x)
    np.testing.assert_allclose(base, scaled, rtol=1e-12)


def test_weight_norm_effective_rows_have_gain_norm():
    rng = np.random.default_rng(3)
    params = nn.init_mlp([3, 4], "relu", "sigmoid", rng)
    params[0].g[:] = rng.uniform(0.5, 2.0, size=4)
    w, _ = nn.effective_weights(params[0].v, params[0].g)
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), np.abs(params[0].g), rtol=1e-12)
    # the layer is its activation of x @ w.T + b, bit for bit
    x = rng.normal(size=(5, 3))
    assert np.array_equal(nn.mlp_forward(params, x)[0], nn.activate("sigmoid", x @ w.T + params[0].b))


@pytest.mark.parametrize("slope", [0.2, 0.01, 0.5, 0.999])
def test_leaky_relu_max_form_is_bitwise_the_where_form(slope, monkeypatch):
    monkeypatch.setattr(nn, "LEAKY_SLOPE", slope)
    tiny, big = np.nextafter(0.0, 1.0), np.finfo(np.float64).max
    normal_min = np.finfo(np.float64).tiny
    edges = np.array([0.0, -0.0, tiny, -tiny, 7 * tiny, -7 * tiny, normal_min, -normal_min,
                      1.0, -1.0, big, -big, np.inf, -np.inf])
    rng = np.random.default_rng(5)
    randoms = rng.normal(size=(96, 512)) * 10.0 ** rng.uniform(-320, 300, size=(96, 512))
    for x in (edges, randoms, rng.normal(size=(3000, 64))):
        got = nn.activate("leaky-relu", x)
        assert got.tobytes() == np.where(x > 0, x, slope * x).tobytes()


def test_leaky_relu_gradient_is_bitwise_the_where_form():
    rng = np.random.default_rng(8)
    h = rng.normal(size=(192, 64))
    h.flat[:4] = [0.0, -0.0, np.nan, -np.nan]
    h.flat[4:10] = rng.choice([0.0, -0.0, np.nan], size=6)
    for g in (rng.normal(size=h.shape), rng.normal(size=h.shape) * 10.0 ** rng.uniform(-300, 300, size=h.shape)):
        g.flat[:3] = [0.0, -0.0, np.nan]
        got = nn.activation_grad("leaky-relu", g, h, nn.activate("leaky-relu", h))
        assert got.tobytes() == (g * np.where(h > 0, 1.0, nn.LEAKY_SLOPE)).tobytes()


def test_linear_rejects_bad_shapes_and_zero_direction_rows():
    x, v, g, b = np.ones((2, 3)), np.ones((4, 3)), np.ones(4), np.zeros(4)

    def layer(x, g):
        return nn.mlp_forward([nn.Layer(v, g, b, "linear")], x)

    with pytest.raises(ShapeMismatch) as err:
        layer(np.ones((2, 5)), g)
    assert "linear" in str(err.value) and "(2, 5)" in str(err.value)
    with pytest.raises(ShapeMismatch):  # raised when the layer is built, before any pass
        nn.Layer(v, np.ones(3), b)
    v[2] = 0.0
    with pytest.raises(DomainError) as err:
        layer(x, g)
    assert "linear" in str(err.value)


def test_full_mlp_gradient_matches_finite_differences(rng):
    params = _mlp(rng, [3, 6, 5, 2], ["leaky-relu", "sigmoid", "linear"])
    x = rng.normal(size=(4, 3))
    weights = rng.normal(size=(4, 2))

    def value():
        out, _ = nn.mlp_forward(params, x)
        return float((out * weights).sum())

    cache = []
    nn.mlp_forward(params, x, cache=cache)
    grads = nn.flat_stack(params)
    dx = nn.mlp_backward(params, cache, weights, out=grads)
    assert_grad_close(dx, finite_difference_grad(value, x))
    for li, p in enumerate(params):
        for name, a in p.named():
            assert_grad_close(getattr(grads[li], name), finite_difference_grad(value, a))
    # a constant stack forms the same input gradient; without it, the same parameter gradients
    assert nn.mlp_backward(params, cache, weights).tobytes() == dx.tobytes()
    again = nn.flat_stack(params)
    assert nn.mlp_backward(params, cache, weights, out=again, need_dx=False) is None
    assert again[0].v.base.tobytes() == grads[0].v.base.tobytes()


def test_dimension_chain_break_names_layer():
    params = nn.init_mlp([3, 4], "relu", "relu", np.random.default_rng(0))
    params += nn.init_mlp([5, 2], "relu", "relu", np.random.default_rng(0))
    with pytest.raises(ShapeMismatch) as err:
        nn.mlp_forward(params, np.ones((1, 3)))
    assert "layer 1" in str(err.value)


@pytest.mark.parametrize("g, b", [(np.ones(3), np.zeros(4)), (np.ones(4), np.zeros(5)), (np.ones((4, 1)), np.zeros(4))],
                         ids=["short-gain", "long-bias", "2d-gain"])
def test_layer_rejects_gain_or_bias_not_one_per_row_when_built(g, b):
    with pytest.raises(ShapeMismatch) as err:
        nn.Layer(np.ones((4, 3)), g, b)
    assert "one entry of g and of b per row" in str(err.value)


def test_layer_widths_are_those_of_v():
    layer = nn.Layer(np.ones((4, 3)), np.ones(4), np.zeros(4))
    assert (layer.in_dim, layer.out_dim) == (3, 4)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _scalar_param(value=0.0):
    return [nn.Layer(np.array([[value]]), np.ones(1), np.zeros(1))]


def _stack(params, *layers):
    """A gradient stack laid out like ``params``: zeros, with layer i's arrays set from ``layers[i]``."""
    grads = nn.flat_stack(params)
    for layer, values in zip(grads, layers):
        for name, value in values.items():
            getattr(layer, name)[...] = value
    return grads


def test_adam_zero_gradient_is_a_fixed_point():
    params = _scalar_param(1.5)
    state = nn.init_adam(params, 0.1)
    nn.adam_step(params, _stack(params), state)
    assert params[0].v[0, 0] == 1.5
    assert state.step_count == 1


def test_adam_first_step_is_bias_corrected_unit_step():
    params = _scalar_param(0.0)
    state = nn.init_adam(params, 0.1)
    nn.adam_step(params, _stack(params, {"v": 1.0}), state)
    # mhat = vhat = 1 at t=1, so the step is lr/(1 + eps) regardless of betas
    assert params[0].v[0, 0] == pytest.approx(-0.1, abs=1e-6)


def test_adam_converges_on_scalar_quadratic_and_matches_recurrence():
    lr, b1, b2, eps = 0.1, nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    params = _scalar_param(0.0)
    state = nn.init_adam(params, lr)

    # independent plain-float oracle of the same recurrence
    w, m, v = 0.0, 0.0, 0.0
    for t in range(1, 201):
        grad = 2.0 * (params[0].v[0, 0] - 3.0)
        nn.adam_step(params, _stack(params, {"v": grad}), state)

        g = 2.0 * (w - 3.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert params[0].v[0, 0] == pytest.approx(w, abs=1e-12)
    assert abs(params[0].v[0, 0] - 3.0) < 0.05


def test_adam_rejects_non_finite_gradient_naming_the_parameter():
    params = _scalar_param()
    state = nn.init_adam(params, 3e-4)
    with pytest.raises(DomainError) as err:
        nn.adam_step(params, _stack(params, {"v": np.nan}), state)
    assert "layer 0" in str(err.value) and "'v'" in str(err.value)


def _per_tensor_adam(arrays, grads, m, v, t, lr, b1, b2, eps):
    """The update one tensor at a time, as adam_step computed it before the flat buffer."""
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for key, w in arrays.items():
        grad = grads[key]
        m[key] *= b1
        m[key] += (1.0 - b1) * grad
        v[key] *= b2
        v[key] += (1.0 - b2) * grad * grad
        w -= lr * (m[key] / c1) / (np.sqrt(v[key] / c2) + eps)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, 7, 64, nn.ADAM_BLOCK]), steps=st.integers(1, 4),
       from_init=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_blocked_flat_adam_equals_per_tensor_update_bit_for_bit(data, block, steps, from_init, seed):
    # with the real block size, 160-200 wide layers put block edges inside and between tensors
    lo, hi = (1, 9) if block < 100 else (160, 200)
    dims = data.draw(st.lists(st.integers(lo, hi), min_size=2, max_size=4), label="dims")
    rng = np.random.default_rng(seed)
    params = nn.init_mlp(dims, "relu", "relu", rng)
    if not from_init:  # strided views of other arrays: init_adam copies them into its buffer
        params = [nn.Layer(*(np.stack([a, -a], axis=-1)[..., 0] for a in (p.v, p.g, p.b))) for p in params]
    arrays = {(i, name): a.copy() for i, p in enumerate(params) for name, a in p.named()}
    m = {key: np.zeros_like(w) for key, w in arrays.items()}
    v = {key: np.zeros_like(w) for key, w in arrays.items()}
    lr, b1, b2, eps = 1e-3, nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
    with mock.patch.object(nn, "ADAM_BLOCK", block):
        state = nn.init_adam(params, lr)
        for t in range(1, steps + 1):
            grads = {key: rng.normal(size=w.shape) * 10.0 ** rng.uniform(-4, 2) for key, w in arrays.items()}
            layers = [{name: g for (j, name), g in grads.items() if j == i} for i in range(len(params))]
            nn.adam_step(params, _stack(params, *layers), state)
            _per_tensor_adam(arrays, grads, m, v, t, lr, b1, b2, eps)
    for i, p in enumerate(params):
        for name, a in p.named():
            assert a.tobytes() == arrays[i, name].tobytes(), (i, name)
    assert state.m.tobytes() == b"".join(a.tobytes() for a in m.values())
    assert state.v.tobytes() == b"".join(a.tobytes() for a in v.values())


def test_adam_names_the_non_finite_tensor_inside_a_shared_block():
    params = nn.init_mlp([2, 2, 1], "relu", "relu", np.random.default_rng(0))
    grads = nn.flat_stack(params)
    grads[0].v.base[...] = 1.0
    grads[1].b[0] = np.inf
    with mock.patch.object(nn, "ADAM_BLOCK", 16):  # all six tensors share one block
        state = nn.init_adam(params, 3e-4)
        with pytest.raises(DomainError) as err:
            nn.adam_step(params, grads, state)
    assert "layer 1" in str(err.value) and "'b'" in str(err.value)


def test_adam_changes_nothing_when_a_later_block_holds_a_non_finite_gradient():
    params = nn.init_mlp([3, 4, 2], "relu", "relu", np.random.default_rng(2))
    grads = nn.flat_stack(params)
    grads[0].v.base[...] = np.random.default_rng(3).normal(size=grads[0].v.base.size)
    with mock.patch.object(nn, "ADAM_BLOCK", 4):  # eight blocks; the last holds layer 1's bias
        state = nn.init_adam(params, 3e-4)
        nn.adam_step(params, grads, state)  # moments away from zero
        before = [params[0].v.base.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step_count]
        grads[1].b[-1] = np.nan
        with pytest.raises(DomainError) as err:
            nn.adam_step(params, grads, state)
    assert "layer 1" in str(err.value) and "'b'" in str(err.value)
    assert [params[0].v.base.tobytes(), state.m.tobytes(), state.v.tobytes(), state.step_count] == before


def test_adam_rejects_stacks_of_another_size():
    params = nn.init_mlp([3, 4, 2], "relu", "relu", np.random.default_rng(4))
    unpacked = nn.init_mlp([3, 4, 2], "relu", "relu", np.random.default_rng(4))
    state = nn.init_adam(params, 3e-4)
    for bad_params, bad_grads in ((params, nn.flat_stack(params[:1])), (unpacked, nn.flat_stack(params)),
                                  (params[1:], nn.flat_stack(params[1:]))):
        with pytest.raises(ShapeMismatch) as err:
            nn.adam_step(bad_params, bad_grads, state)
        assert "adam-step" in str(err.value)
    assert state.step_count == 0


def test_init_adam_packs_the_stack_in_one_buffer_that_adam_updates_in_place():
    params = nn.init_mlp([3, 4, 2], "relu", "relu", np.random.default_rng(5))
    values = [a.copy() for p in params for _, a in p.named()]
    state = nn.init_adam(params, 3e-4)
    flat = params[0].v.base
    assert flat.shape == state.m.shape == (12 + 4 + 4 + 8 + 2 + 2,)
    assert all(a.base is flat for p in params for _, a in p.named())
    assert flat.tobytes() == b"".join(a.tobytes() for a in values)  # the same values, in named() order
    before = [a for p in params for _, a in p.named()]
    nn.adam_step(params, _stack(params, {"v": 1.0}, {"b": 1.0}), state)
    assert all(a is b for a, b in zip((a for p in params for _, a in p.named()), before))  # nothing rebound
    assert np.all(params[0].v < values[0]) and np.all(params[1].b < values[-1])
    assert np.array_equal(params[0].g, values[1])  # a zero gradient leaves the gain


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mlp_serialization_round_trip_is_bit_exact(tmp_path, rng):
    params = nn.init_mlp([3, 7, 2], "leaky-relu", "linear", rng, noise_std=0.1)
    # a model file carries the stack as its discriminator
    model = gan.GanModel(nn.init_mlp([2, 3], "linear", "linear", rng), params)
    path = tmp_path / "net.ndgan"
    gan.save_model(path, model)
    again = gan.load_model(path)
    params2 = again.disc
    assert [(p.activation, p.noise_std) for p in params2] == [(p.activation, p.noise_std) for p in params]
    for p, q in zip(params, params2):
        for name, a in p.named():
            assert np.array_equal(a, getattr(q, name))
    # writing what was read reproduces the same bytes
    path2 = tmp_path / "net2.ndgan"
    gan.save_model(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ndgan"
    path.write_bytes(b"NOTGAN" + b"\x00" * 32)
    from ndgan.errors import FormatError

    with pytest.raises(FormatError) as err:
        gan.load_model(path)
    assert err.value.offset == 0
