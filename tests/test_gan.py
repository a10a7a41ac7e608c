import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndgan import autodiff as ad
from ndgan import data as dio
from ndgan import gan
from ndgan import layers as nn
from ndgan.errors import FormatError, FrozenModelError, TrainingDiverged, ValidationError
from tests.conftest import assert_grad_close, finite_difference_grad


def tiny_model(K=2, data_dim=2, z_dim=3, gen_widths=(4,), disc_widths=(5, 4), seed=0,
               noise_std=0.0):
    """Small hand-buildable model (no noise by default, for exact assertions)."""
    rng = np.random.default_rng(seed)
    gen = nn.init_mlp([z_dim, *gen_widths, data_dim], "relu", "linear", rng)
    return gan.GanModel(gen, nn.init_mlp([data_dim, *disc_widths, K + 1], "leaky-relu", "linear", rng,
                                         noise_std=noise_std))


def bias_model(bias_logits, data_dim=2):
    """Discriminator whose logits are a constant bias vector for any input."""
    K = len(bias_logits) - 1
    model = tiny_model(K=K, data_dim=data_dim)
    for p in model.disc:
        p.g[:] = 0.0  # gain 0: zero weights
        p.b[:] = 0.0
    model.disc[-1].b[:] = np.asarray(bias_logits, dtype=np.float64)
    return model


def stacked_logits(*blocks):
    """One array of logits: the rows of every block, in order."""
    return np.concatenate([np.asarray(b, dtype=np.float64) for b in blocks])


# ---------------------------------------------------------------------------
# discriminator probabilities
# ---------------------------------------------------------------------------


def test_uniform_logits_give_uniform_probs_and_d_09():
    model = bias_model(np.zeros(10))  # K = 9
    probs, _ = gan.forward(model, np.zeros((3, 2)))
    np.testing.assert_allclose(probs, 0.1, atol=1e-12)
    np.testing.assert_allclose(1.0 - probs[:, model.K], 0.9, atol=1e-12)  # D(x), the total real mass


def test_softmax_uniform_by_symmetry():
    np.testing.assert_allclose(gan._softmax(np.zeros((1, 3)))[2][0], [1 / 3] * 3, rtol=0, atol=1e-15)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_are_distributions(n, k, seed):
    x = np.random.default_rng(seed).uniform(-30, 30, size=(n, k))
    y = gan._softmax(x)[2]
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)
    log_s, s, _, _ = gan._softmax_head(x, k - 1)
    assert s.tobytes() == y.tobytes()
    np.testing.assert_allclose(log_s, np.log(y), atol=1e-9)


def test_probability_rows_sum_to_one(rng):
    model = tiny_model(K=5, seed=3)
    probs, _ = gan.forward(model, rng.normal(size=(40, 2)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= gan.PROB_CLAMP * (1 - 1e-6)


def test_huge_fake_logit_drives_d_to_zero():
    logits = np.zeros(3)
    logits[2] = 50.0
    model = bias_model(logits)
    d = 1.0 - gan.forward(model, np.zeros((1, 2)))[0][:, model.K]
    assert d[0] < 1e-6


def test_dimension_mismatch_is_structured():
    model = tiny_model()
    with pytest.raises(Exception) as err:
        gan.forward(model, np.zeros((3, 5)))
    assert "(3, 5)" in str(err.value)


# ---------------------------------------------------------------------------
# losses (hand values via fixed logits)
# ---------------------------------------------------------------------------


def _two_class_logits(p_real):
    """K=1 logits giving the requested total real mass."""
    return [math.log(p_real), math.log(1.0 - p_real)]


def test_discriminator_loss_hand_value():
    unl = [_two_class_logits(0.8)] * 4   # D(x) = 0.8 on every real
    fake = [_two_class_logits(0.3)] * 4  # D(fake) = 0.3
    loss, _ = gan.discriminator_loss_from_logits(stacked_logits(unl, fake), None, 4, K=1)
    assert loss == pytest.approx(-math.log(0.8) - math.log(0.7), abs=1e-9)


def test_perfect_discriminator_has_near_zero_unsupervised_loss():
    unl = [[40.0, -40.0]]   # D -> 1
    fake = [[-40.0, 40.0]]  # D -> 0
    loss, _ = gan.discriminator_loss_from_logits(stacked_logits(unl, fake), None, 1, K=1)
    assert abs(loss) < 1e-5  # exactly zero up to the probability clamp


def test_coin_flip_discriminator_loss_is_two_log_two():
    unl = [[0.0, 0.0]] * 3
    fake = [[0.0, 0.0]] * 3
    loss, _ = gan.discriminator_loss_from_logits(stacked_logits(unl, fake), None, 3, K=1)
    assert loss == pytest.approx(-2.0 * math.log(0.5), abs=1e-12)


def test_supervised_term_is_k_plus_one_way_cross_entropy():
    labeled = [[2.0, 0.0, -1.0], [0.0, 2.0, -1.0]]
    labels = np.array([0, 1])
    unl = [[0.0, 0.0, 0.0]]
    fake = [[0.0, 0.0, 0.0]]
    loss, _ = gan.discriminator_loss_from_logits(stacked_logits(labeled, unl, fake), labels, 1, K=2)
    lsm = np.log(np.exp([2.0, 0.0, -1.0]) / np.exp([2.0, 0.0, -1.0]).sum())
    expected_ce = -lsm[0]  # same value for both rows by symmetry
    expected_unsup = -math.log(2 / 3) - math.log(1 / 3)
    assert loss == pytest.approx(expected_ce + expected_unsup, abs=1e-9)


def test_one_d_step_makes_one_discriminator_pass(monkeypatch):
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=9)
    model = gan.build_gan(2, 4, arch="2d", seed=9)
    calls = []
    real_logits = gan.discriminator_logits

    def counting(model, x, *args):
        calls.append(x.shape)
        return real_logits(model, x, *args)

    monkeypatch.setattr(gan, "discriminator_logits", counting)
    cfg = gan.TrainConfig(total_steps=1, batch_size=8, seed=9, labeled_fraction=0.5)
    gan.train_gan(model, data, cfg, fake_source=lambda n, rng: rng.uniform(-3, 3, size=(n, 2)))
    assert calls == [(24, 2)]  # labeled, unlabeled and fake rows in one batch


def test_stacked_discriminator_loss_equals_three_separate_passes(rng):
    model = tiny_model(K=2, seed=10)
    lab, unl, fake = rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), rng.normal(size=(5, 2))
    labels = np.array([0, 1, 1])

    def logits(*batches):  # one pass per batch
        return stacked_logits(*(gan.discriminator_logits(model, x)[0] for x in batches))

    separate = gan.discriminator_loss_from_logits(logits(lab, unl, fake), labels, 4, 2)[0]
    stacked = gan.discriminator_loss(model, lab, labels, unl, fake)[0]
    assert stacked == pytest.approx(separate, rel=1e-12)
    separate = gan.discriminator_loss_from_logits(logits(unl, fake), None, 4, 2)[0]
    stacked = gan.discriminator_loss(model, None, None, unl, fake)[0]
    assert stacked == pytest.approx(separate, rel=1e-12)


def test_labels_out_of_range_are_rejected():
    labeled = [[0.0, 0.0, 0.0]]
    with pytest.raises(ValidationError):
        gan.discriminator_loss_from_logits(stacked_logits(labeled, labeled, labeled), np.array([2]), 1, K=2)


def test_generator_loss_standard_hand_values():
    half = stacked_logits([_two_class_logits(0.5)] * 2)
    assert gan.generator_loss_standard_from_logits(half, 1)[0] == pytest.approx(math.log(0.5), abs=1e-9)

    two = stacked_logits([_two_class_logits(0.2), _two_class_logits(0.8)])
    expected = 0.5 * (math.log(0.8) + math.log(0.2))
    assert gan.generator_loss_standard_from_logits(two, 1)[0] == pytest.approx(expected, abs=1e-9)


def test_generator_loss_is_clamped_when_d_saturates():
    sat = stacked_logits([[60.0, -60.0]])  # D(G(z)) -> 1, log(1-D) -> -inf without clamping
    loss = gan.generator_loss_standard_from_logits(sat, 1)[0]
    assert np.isfinite(loss)
    assert loss == pytest.approx(math.log(gan.PROB_CLAMP), abs=1e-6)


# ---------------------------------------------------------------------------
# feature matching
# ---------------------------------------------------------------------------


def test_feature_stats_distance_hand_values():
    # identity feature layer: the mean features of a batch are its mean rows
    model = tiny_model(disc_widths=(2,))
    model.disc[0].v[:] = np.eye(2)  # unit rows: at gain 1 the weights are v
    model.disc[0].b[:] = 0.0
    assert gan.feature_matching_distance(model, np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0
    assert gan.feature_matching_distance(model, np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]])) == 4.0


def test_feature_matching_zero_for_identical_batches(rng):
    model = tiny_model(seed=4)
    batch = rng.normal(size=(6, 2))
    assert gan.feature_matching_distance(model, batch, batch) == 0.0


def test_feature_matching_loss_invariant_under_batch_shuffles(rng):
    model = tiny_model(seed=5)
    real = rng.normal(size=(8, 2))
    z = rng.normal(size=(8, 3))
    base = gan.generator_loss_feature_matching(model, real, z)[0]
    shuffled = gan.generator_loss_feature_matching(model, real[::-1], z)[0]
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_feature_matching_gradient_reaches_only_the_generator(rng):
    model = tiny_model(seed=6)
    real = rng.normal(size=(5, 2))
    z = rng.normal(size=(5, 3))
    _, gen_grads = gan._gradients(model, 0, gan.generator_loss_feature_matching, real, z)
    assert len(gen_grads) == len(model.gen)
    assert any(np.any(g != 0) for layer in gen_grads for _, g in layer.named())

    def value():
        return gan.generator_loss_feature_matching(model, real, z)[0]

    for li, p in enumerate(model.gen):
        for name, a in p.named():
            assert_grad_close(getattr(gen_grads[li], name), finite_difference_grad(value, a))


@pytest.mark.parametrize("loss", ["feature-matching", "standard"])
def test_generator_step_tape_holds_no_discriminator_parameter(loss, rng, monkeypatch):
    """A generator step opens no tape, and holds the discriminator as a constant."""
    model = tiny_model(seed=11, noise_std=0.1)
    real, z = rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    tapes, backward_calls, real_backward = [], [], nn.mlp_backward

    class RecordedTape(ad.Tape):
        def __enter__(self):
            tapes.append(self)
            return super().__enter__()

    def recording(layers, *args, **kwargs):
        backward_calls.append((layers[0] is model.disc[0], kwargs.get("out") is not None))
        return real_backward(layers, *args, **kwargs)

    monkeypatch.setattr(ad, "Tape", RecordedTape)
    monkeypatch.setattr(nn, "mlp_backward", recording)
    args = (gan.generator_loss_feature_matching, real, z) if loss == "feature-matching" else (
        gan.generator_loss_standard, z)
    _, grads = gan._gradients(model, 1, *args, noise_rng=np.random.default_rng(0))
    params = [a for p in model.disc + model.gen for _, a in p.named()]
    assert tapes == []
    assert not any(np.shares_memory(g, a) for layer in grads for _, g in layer.named() for a in params)
    assert backward_calls == [(True, False), (False, True)]  # the discriminator is a constant
    layout = lambda stack: [(name, a.shape) for p in stack for name, a in p.named()]
    assert layout(grads) == layout(model.gen)


# ---------------------------------------------------------------------------
# sampling and training
# ---------------------------------------------------------------------------


def test_sample_generator_empty_and_deterministic():
    model = tiny_model(seed=7)
    assert gan.sample_generator(model, 0, np.random.default_rng(0)).shape == (0, 2)
    a = gan.sample_generator(model, 5, np.random.default_rng(3))
    b = gan.sample_generator(model, 5, np.random.default_rng(3))
    assert np.array_equal(a, b)


def test_zero_weight_generator_emits_its_bias():
    model = tiny_model(seed=8)
    for p in model.gen:
        p.g[:] = 0.0  # gain 0: zero weights
        p.b[:] = 0.0
    model.gen[-1].b[:] = [0.25, -0.5]
    out = gan.sample_generator(model, 4, np.random.default_rng(0))
    np.testing.assert_allclose(out, [[0.25, -0.5]] * 4, atol=0)


def test_training_is_bit_deterministic():
    data, _ = dio.gen_ring_mixture(200, 4, 2.0, 0.2, seed=1)
    results = []
    for _ in range(2):
        model = gan.build_gan(2, 4, arch="2d", seed=9)
        cfg = gan.TrainConfig(total_steps=40, batch_size=16, seed=9, labeled_fraction=0.5, log_every=10)
        model, log = gan.train_gan(model, data, cfg)
        results.append((model, log))
    m1, m2 = results[0][0], results[1][0]
    for p, q in zip(m1.disc + m1.gen, m2.disc + m2.gen):
        assert np.array_equal(p.v, q.v)
        assert np.array_equal(p.b, q.b)
    assert [(r.step, r.d_loss, r.g_loss) for r in results[0][1].rows] == [
        (r.step, r.d_loss, r.g_loss) for r in results[1][1].rows
    ]


@pytest.mark.parametrize("generator_loss,d_steps", [("feature-matching", 1), ("standard", 2)])
def test_train_step_normalizes_each_layer_once_per_adam_update(monkeypatch, generator_loss, d_steps):
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=4)
    model = gan.build_gan(2, 4, arch="2d", seed=4)
    events = []
    real_normalize, real_adam = nn.effective_weights, nn.adam_step

    def normalize(v, g, out=None):
        events.append("wn")
        return real_normalize(v, g, out)

    def adam(params, grads, state, lane=None):
        events.append("disc" if params is model.disc else "gen")
        return real_adam(params, grads, state, lane)

    monkeypatch.setattr(nn, "effective_weights", normalize)
    monkeypatch.setattr(nn, "adam_step", adam)
    cfg = gan.TrainConfig(total_steps=4, batch_size=8, seed=4, labeled_fraction=0.5, log_every=100,
                          generator_loss=generator_loss, d_steps_per_g=d_steps)
    gan.train_gan(model, data, cfg)
    layers = {"disc": len(model.disc), "gen": len(model.gen)}
    assert layers == {"disc": 4, "gen": 3}  # 7 normalizations a `2d` step at one D step per G step
    updates = [i for i, e in enumerate(events) if e != "wn"]
    assert [events[i] for i in updates] == (["disc"] * d_steps + ["gen"]) * 4
    # from each update of steps 2 and 3, which run no diagnostics, to the next update
    for i, j in zip(updates[d_steps + 1 : 3 * (d_steps + 1)], updates[d_steps + 2 :]):
        assert j - i - 1 == layers[events[i]], (i, events[i])


def _copied(params):
    """The same stack in new arrays, with no cached weights."""
    return [nn.Layer(*(a.copy() for a in (p.v, p.g, p.b)), p.activation, noise_std=p.noise_std) for p in params]


def test_editing_weights_after_training_changes_forward_like_fresh_arrays():
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=6)
    model = gan.build_gan(2, 4, arch="2d", seed=6)
    model, _ = gan.train_gan(model, data, gan.TrainConfig(total_steps=3, batch_size=8, seed=6))
    x = np.random.default_rng(6).normal(size=(16, 2))
    before = gan.forward(model, x)
    for p in model.disc:
        p.v[0] *= -1.7  # in place, as a finite-difference check edits v
        p.g[1] += 0.25
    edited = gan.forward(model, x)
    want = gan.forward(dataclasses.replace(model, disc=_copied(model.disc)), x)
    assert not np.array_equal(edited[0], before[0])
    assert edited[0].tobytes() == want[0].tobytes() and edited[1].tobytes() == want[1].tobytes()
    z = np.random.default_rng(7).normal(size=(4, model.z_dim))
    model.gen[-1].v[0] *= 3.0
    fresh = dataclasses.replace(model, gen=_copied(model.gen))
    got = gan.generator_forward(model, z)
    assert got.tobytes() == gan.generator_forward(fresh, z).tobytes()


def test_trained_model_is_frozen():
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=2)
    model = gan.build_gan(2, 4, arch="2d", seed=2)
    cfg = gan.TrainConfig(total_steps=5, batch_size=8, seed=2)
    model, _ = gan.train_gan(model, data, cfg)
    assert model.frozen
    with pytest.raises(FrozenModelError):
        gan.train_gan(model, data, cfg)


def test_divergence_aborts_with_step_and_loss_name():
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=3)
    model = gan.build_gan(2, 4, arch="2d", seed=3)
    cfg = gan.TrainConfig(total_steps=5, batch_size=8, seed=3)

    def poisoned(n, rng):
        return np.full((n, 2), np.nan)  # propagates into a non-finite loss

    with pytest.raises(TrainingDiverged) as err:
        gan.train_gan(model, data, cfg, fake_source=poisoned)
    assert err.value.step == 1
    assert err.value.loss_name == "d-loss"


def test_labeled_fraction_requires_labels():
    data = dio.Dataset(np.random.default_rng(0).normal(size=(50, 2)), None, 0)
    model = gan.build_gan(2, 1, arch="2d", seed=0)
    with pytest.raises(ValidationError):
        gan.train_gan(model, data, gan.TrainConfig(total_steps=5, seed=0, labeled_fraction=0.5))


def test_separable_two_class_set_reaches_full_train_accuracy():
    rng = np.random.default_rng(4)
    feats = np.concatenate([rng.normal(-3, 0.3, size=(10, 2)), rng.normal(3, 0.3, size=(10, 2))])
    labels = np.repeat([0, 1], 10)
    data = dio.Dataset(feats, labels, K=2, provenance="separable")
    model = gan.build_gan(2, 2, arch="2d", seed=4)
    from ndgan.scores import UniformBaselineGenerator

    cfg = gan.TrainConfig(total_steps=2000, batch_size=16, seed=4, labeled_fraction=1.0, log_every=500)
    model, _ = gan.train_gan(model, data, cfg, fake_source=UniformBaselineGenerator([[-5, 5], [-5, 5]]).sample)
    probs, _ = gan.forward(model, feats)
    assert float(np.mean(np.argmax(probs[:, : model.K], axis=1) == labels)) == 1.0


def test_discriminator_loss_drops_below_initial_on_ring_benchmark():
    data, _ = dio.gen_ring_mixture(800, 8, 2.0, 0.2, seed=5)
    model = gan.build_gan(2, 8, arch="2d", seed=5)
    cfg = gan.TrainConfig(total_steps=500, batch_size=32, seed=5, labeled_fraction=0.25, log_every=100)
    model, log = gan.train_gan(model, data, cfg)
    assert min(r.d_loss for r in log.rows) < log.rows[0].d_loss


@pytest.mark.slow
def test_feature_matching_distance_shrinks_on_ring_benchmark():
    # The feature map itself moves while training, so "distance at step 0"
    # is measured in the final frozen feature space: mean-feature gap of the
    # *initial* generator vs the trained one, against the same real batch.
    import copy

    data, _ = dio.gen_ring_mixture(2000, 8, 2.0, 0.2, seed=6)
    model = gan.build_gan(2, 8, arch="2d", seed=6)
    init_gen = copy.deepcopy(model.gen)
    cfg = gan.TrainConfig(total_steps=5000, batch_size=64, seed=6, labeled_fraction=0.2, log_every=1000)
    model, log = gan.train_gan(model, data, cfg)

    rng = np.random.default_rng(0)
    z = gan.sample_z(model, 512, rng)
    fake_initial = nn.mlp_forward(init_gen, z)[0]
    fake_trained = gan.sample_generator(model, 512, np.random.default_rng(0))
    real = data.features[rng.integers(0, data.n, 512)]
    d_initial = gan.feature_matching_distance(model, real, fake_initial)
    d_trained = gan.feature_matching_distance(model, real, fake_trained)
    assert d_trained < 0.10 * d_initial


def test_model_save_load_round_trip(tmp_path):
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=7)
    model = gan.build_gan(2, 4, arch="2d", seed=7)
    model, _ = gan.train_gan(model, data, gan.TrainConfig(total_steps=5, batch_size=8, seed=7))
    path = tmp_path / "model.ndgan"
    gan.save_model(path, model)
    again = gan.load_model(path)
    assert again.frozen and again.K == 4 and again.z_dim == model.z_dim
    assert again.feature_layer == model.feature_layer
    x = np.random.default_rng(0).normal(size=(6, 2))
    assert np.array_equal(gan.forward(model, x)[0], gan.forward(again, x)[0])
    z_rng = np.random.default_rng(1)
    a = gan.sample_generator(model, 4, np.random.default_rng(1))
    b = gan.sample_generator(again, 4, np.random.default_rng(1))
    assert np.array_equal(a, b)


def test_load_model_rejects_trailing_bytes_and_non_finite_weights(tmp_path):
    model = tiny_model(seed=13)
    path = tmp_path / "model.ndgan"
    gan.save_model(path, model)
    good = path.read_bytes()

    path.write_bytes(good + b"\x00")
    with pytest.raises(FormatError) as err:
        gan.load_model(path)
    assert err.value.offset == len(good) and "trailing" in str(err.value)

    model.disc[1].b[0] = np.inf
    gan.save_model(path, model)
    with pytest.raises(FormatError) as err:
        gan.load_model(path)
    assert "layer 1" in str(err.value) and "'b'" in str(err.value)


def test_a_model_file_cut_inside_a_field_names_the_field_and_its_offset(tmp_path):
    model = gan.build_gan(2, 3, arch="2d", seed=0)
    path = tmp_path / "model.ndgan"
    gan.save_model(path, model)
    raw = path.read_bytes()
    gen_block = io.BytesIO()
    nn.write_mlp_block(gen_block, model.gen)
    first = 6 + 5 + 14 + 4  # the generator's first layer header, after the file and model headers and its count
    g_at = first + 18 + 8 * model.gen[0].v.size
    fields = [("magic", 0), ("file header", 6), ("model header", 11), ("layer count", 25),
              ("header of layer 0", first), ("v of layer 0", first + 18), ("g of layer 0", g_at),
              ("layer count", 25 + gen_block.tell())]  # the discriminator's
    for name, at in fields:
        for cut in (at, at + 1):  # none of the field, or part of it
            path.write_bytes(raw[:cut])
            with pytest.raises(FormatError) as err:
                gan.load_model(path)
            assert err.value.offset == at, (name, cut)
            assert f"truncated {name}: expected" in str(err.value) and f"got {cut - at}" in str(err.value)


@pytest.mark.parametrize("arch, data_dim, K", [("2d", 2, 4), ("mnist", 36, 3)])
def test_training_diagnostics_do_not_change_the_model(tmp_path, arch, data_dim, K):
    rng = np.random.default_rng(9)
    data = dio.Dataset(rng.uniform(size=(64, data_dim)), rng.integers(0, K, 64), K=K)
    cfg = gan.TrainConfig(total_steps=4, batch_size=8, seed=9, labeled_fraction=0.5, log_every=1)
    files, logs = [], []
    for diagnostics in (True, False):
        model, log = gan.train_gan(gan.build_gan(data_dim, K, arch=arch, seed=9), data, cfg, diagnostics=diagnostics)
        gan.save_model(tmp_path / f"{diagnostics}.ndgan", model)
        files.append((tmp_path / f"{diagnostics}.ndgan").read_bytes())
        logs.append(log.rows)
    assert files[0] == files[1]
    assert all(r.fm_distance is not None for r in logs[0]) and all(r.fm_distance is None for r in logs[1])
    assert [(r.step, r.d_loss, r.g_loss) for r in logs[0]] == [(r.step, r.d_loss, r.g_loss) for r in logs[1]]


def test_feature_passes_stop_at_the_feature_layer(monkeypatch):
    model = tiny_model(K=2, disc_widths=(5, 4), noise_std=0.1, seed=3)
    x = np.random.default_rng(3).normal(size=(6, 2))
    _, features = gan.forward(model, x)
    depths, real_forward = [], nn.mlp_forward

    def recording(layers, *args, **kwargs):
        if layers[0] is model.disc[0]:
            depths.append(len(layers))
        return real_forward(layers, *args, **kwargs)

    monkeypatch.setattr(nn, "mlp_forward", recording)
    assert gan.discriminator_features(model, x).tobytes() == features.tobytes()
    assert gan.feature_matching_distance(model, x, x) == 0.0
    gan.generator_loss_feature_matching(model, x, np.zeros((6, 3)), np.random.default_rng(0))
    assert depths == [2] * 5  # feature layer 1: the output layer never runs


def test_model_widths_come_from_its_layers():
    model = tiny_model(K=3, data_dim=2, z_dim=5, disc_widths=(5, 4))
    assert [f.name for f in dataclasses.fields(model)] == ["gen", "disc", "frozen"]
    assert (model.K, model.z_dim, model.feature_layer, model.data_dim) == (3, 5, 1, 2)


def test_model_rejects_a_discriminator_without_a_hidden_layer():
    model = tiny_model(K=2, data_dim=2)
    logits_only = nn.init_mlp([2, 3], "linear", "linear", np.random.default_rng(0))
    with pytest.raises(ValidationError) as err:
        gan.GanModel(model.gen, logits_only)
    assert "hidden layer" in str(err.value)


def test_mnist_architecture_has_five_hidden_layers_and_250_features():
    model = gan.build_gan(data_dim=196, K=9, arch="mnist", seed=1)
    assert len(model.disc) == 6  # 5 hidden + logits
    assert len(model.gen) == 6
    assert model.disc[model.feature_layer].out_dim == 250
    assert model.disc[-1].out_dim == 10
    assert model.gen[-1].activation == "sigmoid"

    rng = np.random.default_rng(0)
    probs, _ = gan.forward(model, rng.uniform(size=(4, 196)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    _, feats = gan.forward(model, rng.uniform(size=(4, 196)))
    assert feats.shape == (4, 250)

    data = dio.Dataset(rng.uniform(size=(64, 196)), rng.integers(0, 9, 64), K=9)
    cfg = gan.TrainConfig(total_steps=3, batch_size=8, seed=1, labeled_fraction=1.0)
    model, log = gan.train_gan(model, data, cfg)
    assert len(log.rows) == 3 and np.isfinite(log.rows[-1].d_loss)


def test_train_log_csv_format(tmp_path):
    data, _ = dio.gen_ring_mixture(100, 4, 2.0, 0.2, seed=8)
    model = gan.build_gan(2, 4, arch="2d", seed=8)
    model, log = gan.train_gan(model, data, gan.TrainConfig(total_steps=3, batch_size=8, seed=8))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,d_loss,g_loss,fm_distance"
    assert len(lines) == 4
