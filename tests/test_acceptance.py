"""Acceptance gate: one test per criterion, at the stated tolerances.

Each criterion prints a summary line through the conftest terminal hook.
C5-C6 are multi-minute training runs (marked slow but always on); C7 needs
local MNIST IDX files and is opt-in via NDGAN_MNIST_DIR.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ndgan
from ndgan import autodiff as ad
from ndgan import data as dio
from ndgan import densities as dn
from ndgan import gan
from ndgan import layers as nn
from ndgan import metrics, scores
from tests.conftest import assert_grad_close, finite_difference_grad
from tests.gradcheck import CHECKED_OPS, check_op_gradient
from tests.test_metrics import pairwise_auroc

N_SEEDS = 50


# ---------------------------------------------------------------------------
# C1: gradient correctness
# ---------------------------------------------------------------------------


def _check_network_gradients(seed: int):
    """Full generator + discriminator stacks (widths <= 16) vs finite differences.

    Hidden activations are tanh here: central differences are only a valid
    derivative oracle away from kinks, and a random network puts some relu
    pre-activation inside the step window for a fair share of seeds. The
    kinked activations get their 50-seed coverage in the per-op checks,
    which place inputs away from the kink by construction.
    """
    rng = np.random.default_rng(seed)
    gen_specs = gan._stack([8, 16], 4, 3, "tanh", "linear", True, 0.0)
    disc_specs = gan._stack([16, 8], 3, 3, "tanh", "linear", True, 0.0)
    model = gan.GanModel(
        gen_specs=gen_specs,
        gen_params=nn.init_mlp(gen_specs, rng),
        disc_specs=disc_specs,
        disc_params=nn.init_mlp(disc_specs, rng),
        K=2,
        feature_layer=1,
        z_dim=4,
    )
    z = rng.normal(size=(2, 4))
    real = rng.normal(size=(2, 3))
    labels = rng.integers(0, 2, size=2)
    fake = gan.sample_generator(model, 2, np.random.default_rng(seed))

    def d_loss_fixed_fake():
        return gan.discriminator_loss(model, real, labels, real, fake, mode="eval").item()

    with ad.Tape() as tape:
        loss = gan.discriminator_loss(model, real, labels, real, fake, mode="eval")
        grads = nn.collect_grads(tape, ad.backward(tape, loss), model.disc_params)
    for li, p in enumerate(model.disc_params):
        for name, t in p.named():
            assert_grad_close(grads[li][name], finite_difference_grad(d_loss_fixed_fake, t.data))

    def g_loss_value():
        return gan.generator_loss_feature_matching(model, real, z, mode="eval").item()

    with ad.Tape() as tape:
        loss = gan.generator_loss_feature_matching(model, real, z, mode="eval")
        grads = nn.collect_grads(tape, ad.backward(tape, loss), model.gen_params)
    for li, p in enumerate(model.gen_params):
        for name, t in p.named():
            assert_grad_close(grads[li][name], finite_difference_grad(g_loss_value, t.data))


def test_c1_gradients_match_finite_differences_everywhere():
    for op in CHECKED_OPS:
        for seed in range(N_SEEDS):
            check_op_gradient(op, 10_000 + seed)
    for seed in range(N_SEEDS):
        _check_network_gradients(20_000 + seed)


# ---------------------------------------------------------------------------
# C2: AUROC oracle equivalence
# ---------------------------------------------------------------------------


def test_c2_auroc_equals_pairwise_oracle_on_200_sets():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n_nom = int(rng.integers(2, 101))
        n_nov = int(rng.integers(2, 101))
        # one-decimal rounding forces tie groups within and across classes
        nominal = np.round(rng.normal(size=n_nom), 1)
        novel = np.round(rng.normal(0.3, 1.0, size=n_nov), 1)
        fast = metrics.roc_from_arrays(nominal, novel).auroc
        assert abs(fast - pairwise_auroc(nominal, novel)) < 1e-12


# ---------------------------------------------------------------------------
# C3: optimal-discriminator / mixture identity
# ---------------------------------------------------------------------------


def _random_spec(rng) -> dn.MixtureSpec:
    d = int(rng.integers(1, 3))
    comps = int(rng.integers(1, 4))

    def component():
        w = rng.uniform(0.2, 1.0, size=comps)
        return dn.GaussianMixtureDensity(
            w / w.sum(), rng.uniform(-2, 2, size=(comps, d)), rng.uniform(0.3, 3.0, size=(comps, d))
        )

    return dn.MixtureSpec(pi=float(rng.uniform(0, 1)), novel=component(), data=component())


def test_c3_mixture_identity_on_100_random_specs():
    rng = np.random.default_rng(7)
    for _ in range(100):
        spec = _random_spec(rng)
        x = rng.uniform(-5, 5, size=(10_000, spec.dim))
        report = dn.verify_mixture_identity(spec, x)
        assert report.max_residual < 1e-12
        assert report.n_checked + len(report.excluded) == 10_000


# ---------------------------------------------------------------------------
# C4: Neyman-Pearson desk-scale check
# ---------------------------------------------------------------------------


def test_c4_lr_detector_auroc_matches_closed_form():
    p_data, p_novel = dn.gaussian([0.0], 1.0), dn.gaussian([2.0], 1.0)
    rng = np.random.default_rng(3)
    nominal = p_data.sample(20_000, rng)
    novel = p_novel.sample(20_000, rng)
    auroc = metrics.roc_from_arrays(
        dn.likelihood_ratio_score(p_data, p_novel, nominal),
        dn.likelihood_ratio_score(p_data, p_novel, novel),
    ).auroc
    closed_form = 0.5 * (1.0 + math.erf(1.0))  # Phi(sqrt(2)) ~ 0.9214
    assert abs(auroc - closed_form) <= 0.01


# ---------------------------------------------------------------------------
# C5: learned discriminator vs analytic detector (fixed mixture generator)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c5_discriminator_trained_on_fixed_mixture_recovers_lr_ranking():
    scipy_stats = pytest.importorskip("scipy.stats")
    train, p_data = dio.gen_ring_mixture(4000, 8, 2.0, 0.2, seed=11)
    p_novel = dn.gaussian([0.0, 0.0], 0.5**2)
    mix = dn.MixtureSpec(pi=0.5, novel=p_novel, data=p_data)

    model = gan.build_gan(data_dim=2, K=1, arch="2d", seed=11)
    config = gan.TrainConfig(total_steps=5000, batch_size=64, seed=11, log_every=1000)
    model, _ = gan.train_gan(model, train, config, fake_source=mix.sample)

    # held-out grid over the region the mixture actually populates
    axis = np.linspace(-3.0, 3.0, 45)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    covered = mix.pdf(grid) >= 0.01 * mix.pdf(grid).max()
    assert covered.sum() > 500

    lr = dn.likelihood_ratio_score(p_data, p_novel, grid[covered])
    scorer = scores.Scorer(model, ["fake-prob"])
    fake_prob = scorer.score(grid[covered])["fake-prob"]
    rho = scipy_stats.spearmanr(fake_prob, lr).statistic
    assert rho >= 0.95, f"rank correlation {rho:.4f} < 0.95"

    rng = np.random.default_rng(12)
    nominal, novel = p_data.sample(2000, rng), p_novel.sample(2000, rng)
    auroc_learned = metrics.roc_from_arrays(
        scorer.score(nominal)["fake-prob"], scorer.score(novel)["fake-prob"]
    ).auroc
    auroc_analytic = metrics.roc_from_arrays(
        dn.likelihood_ratio_score(p_data, p_novel, nominal),
        dn.likelihood_ratio_score(p_data, p_novel, novel),
    ).auroc
    assert abs(auroc_learned - auroc_analytic) <= 0.03


# ---------------------------------------------------------------------------
# C6: end-to-end 2D ND-GAN
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_c6_feature_matching_gan_detects_origin_cluster():
    train, density = dio.gen_ring_mixture(4000, 8, 2.0, 0.2, seed=7)
    model = gan.build_gan(data_dim=2, K=8, arch="2d", seed=7)
    # 500 per class at fraction 0.2 gives the 100 labeled examples per class
    config = gan.TrainConfig(
        total_steps=8000, batch_size=64, seed=7, labeled_fraction=0.2,
        generator_loss="feature-matching", log_every=1000,
    )
    model, _ = gan.train_gan(model, train, config)

    test, _ = dio.gen_ring_mixture(1000, 8, 2.0, 0.2, seed=8, split_tag="test")
    novel = np.random.default_rng(9).normal(0.0, 0.25, size=(1000, 2))
    scorer = scores.Scorer(model, ["nd-gan-ratio"])
    auroc = metrics.roc_from_arrays(
        scorer.score(test.features)["nd-gan-ratio"], scorer.score(novel)["nd-gan-ratio"]
    ).auroc
    assert auroc >= 0.90, f"nd-gan-ratio auroc {auroc:.4f} < 0.90"

    samples = gan.sample_generator(model, 10_000, np.random.default_rng(3))
    grid = dn.GridDensity.from_density(density, [[-4, 4], [-4, 4]], (80, 80))
    report = scores.check_mixture_generator(samples, grid, epsilon=0.01 * grid.values.max())
    assert report.is_mixture_generator, "trained generator shows no low-density excess mass"


# ---------------------------------------------------------------------------
# C7: MNIST holdout at reduced scale (opt-in long test)
# ---------------------------------------------------------------------------

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _load_mnist(mnist_dir: Path):
    paths = {k: mnist_dir / v for k, v in MNIST_FILES.items()}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        pytest.skip(f"MNIST IDX files not found: {missing}")
    train = dio.read_idx(paths["train_images"])
    train_labels = dio.read_idx_labels(paths["train_labels"])
    test = dio.read_idx(paths["test_images"])
    test_labels = dio.read_idx_labels(paths["test_labels"])
    train = dio.Dataset(train.features, train_labels, 10, "train", train.provenance)
    test = dio.Dataset(test.features, test_labels, 10, "test", test.provenance)
    return dio.downscale_images(train, 28, 14), dio.downscale_images(test, 28, 14)


@pytest.mark.mnist
@pytest.mark.slow
def test_c7_mnist_holdout_mean_auroc(capsys):
    mnist_dir = os.environ.get("NDGAN_MNIST_DIR")
    if not mnist_dir:
        pytest.skip("set NDGAN_MNIST_DIR to a directory with MNIST IDX files to run")
    train, test = _load_mnist(Path(mnist_dir))

    holdouts = (0, 5, 9)
    steps = int(os.environ.get("NDGAN_MNIST_STEPS", "3000"))
    aurocs = {}
    for split in metrics.make_holdout_splits(train, test, seed=29):
        if split.holdout_class not in holdouts:
            continue
        counts = np.bincount(split.train.labels, minlength=split.train.K)
        config = gan.TrainConfig(
            total_steps=steps, batch_size=64, seed=29 + split.holdout_class,
            labeled_fraction=100.0 / counts.min(),  # 100 labeled examples per class
            generator_loss="feature-matching", log_every=500,
        )
        model = gan.build_gan(split.train.dim, split.train.K, arch="mnist",
                              seed=config.seed)
        model, _ = gan.train_gan(model, split.train, config)
        scorer = scores.Scorer(model, ["nd-gan-ratio"])
        curve = metrics.roc_from_arrays(
            scorer.score(split.eval_nominal.features)["nd-gan-ratio"],
            scorer.score(split.eval_novel.features)["nd-gan-ratio"],
        )
        aurocs[split.holdout_class] = curve.auroc

    mean_auroc = float(np.mean(list(aurocs.values())))
    reference = metrics.TABLE1_REFERENCE["nd-gan-ratio"]
    with capsys.disabled():
        print(f"\nmnist holdout (14x14, digits {holdouts}): per-split {aurocs}")
        print(f"mean nd-gan auroc = {mean_auroc:.4f} (threshold 0.85)")
        print(f"published full-scale reference: per-holdout {reference['per_holdout']}, "
              f"mean {reference['mean']} (not asserted at desk scale)")
    assert mean_auroc >= 0.85


# ---------------------------------------------------------------------------
# C8: baseline scorers
# ---------------------------------------------------------------------------


def test_c8_baseline_scorers_hit_their_closed_form_extremes():
    assert scores.score_entropy([[1.0, 0.0, 0.0, 0.0]])[0] == 0.0
    assert scores.score_max_prob([[0.0, 1.0, 0.0, 0.0]])[0] == 0.0
    for K in (2, 10):
        uniform = [np.full(K, 1.0 / K)]
        assert scores.score_entropy(uniform)[0] == pytest.approx(math.log(K), abs=1e-12)
        assert scores.score_max_prob(uniform)[0] == pytest.approx(1.0 - 1.0 / K, abs=1e-12)

    reference = np.array([[0.0], [1.0], [10.0]])
    assert scores.score_knn([[2.0]], reference, k=1)[0] == pytest.approx(1.0, abs=1e-12)
    assert scores.score_knn([[1.0]], reference, k=1)[0] == 0.0
    assert scores.score_knn([[20.0]], reference, k=1)[0] == pytest.approx(10.0 / 9.0, abs=1e-12)


# ---------------------------------------------------------------------------
# C9: bit-identical retraining from a manifest
# ---------------------------------------------------------------------------


def _run_cli(args, cwd):
    """Run `python -m ndgan.cli` in a fresh process on the ndgan this suite imported.

    The directory holding the imported package goes first on the child's
    PYTHONPATH as an absolute path: a relative entry such as `src` would
    resolve against `cwd` and miss. Every other variable is inherited.
    """
    env = dict(os.environ)
    package_root = str(Path(ndgan.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ndgan.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_c9_train_rerun_from_manifest_is_bit_identical(tmp_path):
    data_dir = tmp_path / "data"
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "kind": "ring", "n_train": 600, "components": 4, "radius": 2.0, "sigma": 0.2, "seed": 31,
    }))
    proc = _run_cli(["synth", "--config", str(synth_cfg), "--out-dir", str(data_dir)], tmp_path)
    assert proc.returncode == 0, proc.stderr

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "dataset": {"path": str(data_dir / "train.csv"), "label_column": "label"},
        "arch": "2d",
        "train": {"total_steps": 300, "batch_size": 32, "labeled_fraction": 0.5, "log_every": 100},
        "seed": 33,
    }))
    first = tmp_path / "first"
    proc = _run_cli(["train", "--config", str(train_cfg), "--out-dir", str(first)], tmp_path)
    assert proc.returncode == 0, proc.stderr

    manifest = first / "manifest.json"
    checksums = []
    for name in ("runA", "runB"):  # two independent processes, same manifest
        out = tmp_path / name
        proc = _run_cli(["train", "--config", str(manifest), "--out-dir", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        checksums.append(hashlib.sha256((out / "model.ndgan").read_bytes()).hexdigest())
    assert checksums[0] == checksums[1]
    assert checksums[0] == hashlib.sha256((first / "model.ndgan").read_bytes()).hexdigest()
