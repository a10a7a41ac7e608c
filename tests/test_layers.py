from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import autodiff as ad
from ndgan import gan
from ndgan import layers as nn
from ndgan.errors import DomainError, ShapeMismatch, ValidationError
from tests.conftest import assert_grad_close, finite_difference_grad


def _plain_layer(in_dim, out_dim, activation="linear", noise_std=0.0):
    spec = nn.LayerSpec(in_dim, out_dim, activation, weight_norm=False, noise_std=noise_std)
    params = nn.LayerParams(
        v=ad.Tensor(np.zeros((out_dim, in_dim))), g=None, b=ad.Tensor(np.zeros(out_dim))
    )
    return spec, params


def test_identity_linear_layer_is_identity():
    spec, params = _plain_layer(2, 2)
    params.v.data[:] = np.eye(2)
    out, kept = nn.mlp_forward([params], [spec], ad.Tensor([[1.0, 2.0]]))
    assert out.data.tolist() == [[1.0, 2.0]]
    assert kept is None  # no layer asked for
    out, kept = nn.mlp_forward([params], [spec], ad.Tensor([[1.0, 2.0]]), keep=0)
    assert kept is out


def test_zero_weight_sigmoid_unit_outputs_half():
    spec, params = _plain_layer(3, 1, "sigmoid")
    out, _ = nn.mlp_forward([params], [spec], ad.Tensor([[5.0, -2.0, 0.3]]))
    assert out.data.tolist() == [[0.5]]


def test_eval_mode_is_deterministic_train_mode_is_noisy():
    rng = np.random.default_rng(1)
    specs = [nn.LayerSpec(3, 4, "tanh", weight_norm=True, noise_std=0.2), nn.LayerSpec(4, 2)]
    params = nn.init_mlp(specs, rng)
    x = ad.Tensor(rng.normal(size=(5, 3)))
    a, _ = nn.mlp_forward(params, specs, x, "eval")
    b, _ = nn.mlp_forward(params, specs, x, "eval")
    assert np.array_equal(a.data, b.data)
    c, _ = nn.mlp_forward(params, specs, x, "train", np.random.default_rng(7))
    assert not np.array_equal(a.data, c.data)


def test_train_mode_with_noise_requires_rng():
    specs = [nn.LayerSpec(2, 2, "relu", noise_std=0.1), nn.LayerSpec(2, 1)]
    params = nn.init_mlp(specs, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        nn.mlp_forward(params, specs, ad.Tensor(np.ones((1, 2))), "train")


def test_weight_norm_row_scaling_leaves_output_bit_unchanged():
    rng = np.random.default_rng(2)
    specs = [nn.LayerSpec(4, 3, "tanh", weight_norm=True)]
    params = nn.init_mlp(specs, rng)
    x = ad.Tensor(rng.normal(size=(6, 4)))
    base, _ = nn.mlp_forward(params, specs, x)
    # power-of-two scalings are exact in float64, so outputs match bit for bit
    for scale in (2.0, 0.5, 8.0):
        params[0].v.data[1] *= scale
        scaled, _ = nn.mlp_forward(params, specs, x)
        assert np.array_equal(base.data, scaled.data)
        params[0].v.data[1] /= scale
    params[0].v.data[1] *= 1.7  # generic positive scaling: equal within rounding
    scaled, _ = nn.mlp_forward(params, specs, x)
    np.testing.assert_allclose(base.data, scaled.data, rtol=1e-12)


def test_weight_norm_effective_rows_have_gain_norm():
    rng = np.random.default_rng(3)
    specs = [nn.LayerSpec(3, 4, "tanh", weight_norm=True)]
    params = nn.init_mlp(specs, rng)
    params[0].g.data[:] = rng.uniform(0.5, 2.0, size=4)
    (const,) = nn.constant_params(params)
    np.testing.assert_allclose(np.linalg.norm(const.v, axis=1), np.abs(params[0].g.data), rtol=1e-12)
    # the constant stack computes the trained stack's values bit for bit
    x = ad.Tensor(rng.normal(size=(5, 3)))
    assert np.array_equal(nn.mlp_forward(params, specs, x)[0].data, nn.mlp_forward([const], specs, x)[0].data)


def test_linear_rejects_bad_shapes_and_zero_direction_rows():
    x, v, g, b = np.ones((2, 3)), np.ones((4, 3)), np.ones(4), np.zeros(4)
    with pytest.raises(ShapeMismatch) as err:
        ad.linear(ad.Tensor(np.ones((2, 5))), ad.Tensor(v), ad.Tensor(g), ad.Tensor(b))
    assert "linear" in str(err.value) and "(2, 5)" in str(err.value)
    with pytest.raises(ShapeMismatch):
        ad.linear(ad.Tensor(x), ad.Tensor(v), ad.Tensor(np.ones(3)), ad.Tensor(b))
    v[2] = 0.0
    with pytest.raises(DomainError) as err:
        ad.linear(ad.Tensor(x), ad.Tensor(v), ad.Tensor(g), ad.Tensor(b))
    assert "linear" in str(err.value)
    ad.linear(ad.Tensor(x), ad.Tensor(v), None, ad.Tensor(b))  # without a gain a zero row is fine


def test_full_mlp_gradient_matches_finite_differences(rng):
    specs = [
        nn.LayerSpec(3, 6, "leaky-relu", weight_norm=True),
        nn.LayerSpec(6, 5, "tanh", weight_norm=True),
        nn.LayerSpec(5, 2, "linear", weight_norm=False),
    ]
    params = nn.init_mlp(specs, rng)
    x = rng.normal(size=(4, 3))
    weights = rng.normal(size=(4, 2))

    def value():
        out, _ = nn.mlp_forward(params, specs, ad.Tensor(x))
        return float((out.data * weights).sum())

    with ad.Tape() as tape:
        out, _ = nn.mlp_forward(params, specs, ad.Tensor(x))
        loss = ad.reduce_sum(ad.mul(out, ad.Tensor(weights)))
        grad_map = ad.backward(tape, loss)
    grads = nn.collect_grads(tape, grad_map, params)
    for li, p in enumerate(params):
        for name, t in p.named():
            assert_grad_close(grads[li][name], finite_difference_grad(value, t.data))


def test_dimension_chain_break_names_layer():
    specs = [nn.LayerSpec(3, 4), nn.LayerSpec(5, 2)]
    params = nn.init_mlp(specs, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch) as err:
        nn.mlp_forward(params, specs, ad.Tensor(np.ones((1, 3))))
    assert "layer 1" in str(err.value)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def _scalar_param(value=0.0):
    return [nn.LayerParams(v=ad.Tensor([[value]]), g=None, b=ad.Tensor(np.zeros(1)))]


def test_adam_zero_gradient_is_a_fixed_point():
    params = _scalar_param(1.5)
    state = nn.init_adam(params, lr=0.1)
    nn.adam_step(params, [{"v": np.zeros((1, 1)), "b": np.zeros(1)}], state)
    assert params[0].v.data[0, 0] == 1.5
    assert state.step_count == 1


def test_adam_first_step_is_bias_corrected_unit_step():
    params = _scalar_param(0.0)
    state = nn.init_adam(params, lr=0.1)
    nn.adam_step(params, [{"v": np.ones((1, 1)), "b": np.zeros(1)}], state)
    # mhat = vhat = 1 at t=1, so the step is lr/(1 + eps) regardless of betas
    assert params[0].v.data[0, 0] == pytest.approx(-0.1, abs=1e-6)


def test_adam_converges_on_scalar_quadratic_and_matches_recurrence():
    lr, b1, b2, eps = 0.1, 0.5, 0.999, 1e-8
    params = _scalar_param(0.0)
    state = nn.init_adam(params, lr=lr, beta1=b1, beta2=b2, eps=eps)

    # independent plain-float oracle of the same recurrence
    w, m, v = 0.0, 0.0, 0.0
    for t in range(1, 201):
        grad = 2.0 * (params[0].v.data[0, 0] - 3.0)
        nn.adam_step(params, [{"v": np.array([[grad]]), "b": np.zeros(1)}], state)

        g = 2.0 * (w - 3.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert params[0].v.data[0, 0] == pytest.approx(w, abs=1e-12)
    assert abs(params[0].v.data[0, 0] - 3.0) < 0.05


def test_adam_rejects_non_finite_gradient_naming_the_parameter():
    params = _scalar_param()
    state = nn.init_adam(params)
    with pytest.raises(DomainError) as err:
        nn.adam_step(params, [{"v": np.array([[np.nan]]), "b": np.zeros(1)}], state)
    assert "layer 0" in str(err.value) and "'v'" in str(err.value)


def _per_tensor_adam(arrays, grads, m, v, t, lr, b1, b2, eps):
    """The update one tensor at a time, as adam_step computed it before the flat buffer."""
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    for key, w in arrays.items():
        grad = grads.get(key, np.zeros_like(w))
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
    wn = data.draw(st.lists(st.booleans(), min_size=len(dims) - 1, max_size=len(dims) - 1), label="weight_norm")
    specs = [nn.LayerSpec(a, b, weight_norm=w) for a, b, w in zip(dims, dims[1:], wn)]
    keys = [(i, name) for i, spec in enumerate(specs) for name in ("v", "g", "b") if name != "g" or spec.weight_norm]
    missing = data.draw(st.sets(st.sampled_from(keys), max_size=2), label="missing")
    rng = np.random.default_rng(seed)
    params = nn.init_mlp(specs, rng)
    if not from_init:  # separate arrays: init_adam copies them into a buffer
        params = [nn.LayerParams(*(None if t is None else ad.Tensor(t.data.copy()) for t in (p.v, p.g, p.b)))
                  for p in params]
    arrays = {(i, name): t.data.copy() for i, p in enumerate(params) for name, t in p.named()}
    m = {key: np.zeros_like(w) for key, w in arrays.items()}
    v = {key: np.zeros_like(w) for key, w in arrays.items()}
    lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
    with mock.patch.object(nn, "ADAM_BLOCK", block):
        state = nn.init_adam(params, lr, b1, b2, eps)
        for t in range(1, steps + 1):
            grads = {key: rng.normal(size=w.shape) * 10.0 ** rng.uniform(-4, 2)
                     for key, w in arrays.items() if key not in missing}
            nn.adam_step(params, [{name: g for (j, name), g in grads.items() if j == i} for i in range(len(specs))],
                         state)
            _per_tensor_adam(arrays, grads, m, v, t, lr, b1, b2, eps)
    for i, p in enumerate(params):
        for name, tensor in p.named():
            assert tensor.data.tobytes() == arrays[i, name].tobytes(), (i, name)
    assert state.m.tobytes() == b"".join(a.tobytes() for a in m.values())
    assert state.v.tobytes() == b"".join(a.tobytes() for a in v.values())


def test_adam_names_the_non_finite_tensor_inside_a_shared_block():
    specs = [nn.LayerSpec(2, 2, weight_norm=True), nn.LayerSpec(2, 1)]
    params = nn.init_mlp(specs, np.random.default_rng(0))
    grads = [{name: np.ones_like(t.data) for name, t in p.named()} for p in params]
    grads[1]["b"][0] = np.inf
    with mock.patch.object(nn, "ADAM_BLOCK", 16):  # all five tensors share one block
        state = nn.init_adam(params)
        with pytest.raises(DomainError) as err:
            nn.adam_step(params, grads, state)
    assert "layer 1" in str(err.value) and "'b'" in str(err.value)


def test_init_mlp_lays_the_stack_out_in_one_buffer_that_adam_updates():
    specs = [nn.LayerSpec(3, 4, weight_norm=True), nn.LayerSpec(4, 2)]
    params = nn.init_mlp(specs, np.random.default_rng(5))
    flat = params[0].v.data.base
    assert flat.shape == (12 + 4 + 4 + 8 + 2,)
    assert all(t.data.base is flat for p in params for _, t in p.named())
    state = nn.init_adam(params)
    before = [t.data for p in params for _, t in p.named()]
    nn.adam_step(params, [{"v": np.ones((4, 3))}, {"b": np.ones(2)}], state)
    assert all(t.data is a for t, a in zip((t for p in params for _, t in p.named()), before))  # no copy
    params[1].b.data = params[1].b.data.copy()  # a replaced array is packed again, not left behind
    old = params[1].b.data.copy()
    nn.adam_step(params, [{}, {"b": np.ones(2)}], state)
    assert params[1].b.data.base is state.slots[0][4].base
    assert np.all(params[1].b.data < old)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mlp_serialization_round_trip_is_bit_exact(tmp_path, rng):
    specs = [
        nn.LayerSpec(3, 7, "leaky-relu", weight_norm=True, noise_std=0.1),
        nn.LayerSpec(7, 2, "linear", weight_norm=False),
    ]
    # a model file carries the stack as its discriminator
    gen_specs = [nn.LayerSpec(2, 3, "linear")]
    params = nn.init_mlp(specs, rng)
    model = gan.GanModel(gen_specs, nn.init_mlp(gen_specs, rng), specs, params, K=1, feature_layer=0, z_dim=2)
    path = tmp_path / "net.ndgan"
    gan.save_model(path, model)
    again = gan.load_model(path)
    specs2, params2 = again.disc_specs, again.disc_params
    assert specs2 == specs
    for p, q in zip(params, params2):
        assert np.array_equal(p.v.data, q.v.data)
        assert (p.g is None) == (q.g is None)
        if p.g is not None:
            assert np.array_equal(p.g.data, q.g.data)
        assert np.array_equal(p.b.data, q.b.data)
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
