"""The GAN with a K+1-class discriminator and a feature-matching generator.

Index K of the discriminator's softmax is the "fake" class; the total real
mass D(x) = 1 - p_fake(x). The generator is trained either against the
standard saturating objective or by matching mean discriminator features
between real and generated batches.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import blas
from . import layers as nn
from .data import Dataset, subsample_labeled, write_table
from .errors import (
    FrozenModelError,
    FormatError,
    ShapeMismatch,
    TrainingDiverged,
    ValidationError,
)
from .rng import NoiseAhead, RngStreams, derive_seed

PROB_CLAMP = 1e-7  # floor/ceiling for probabilities inside logs and ratios
FORWARD_BLOCK = 256  # most rows per block of an eval pass
# Weights in a model's widest layer from which training runs a lane. On the 8-Gaussian ring
# (batch 64, labeled 0.2) with the `2d` layer count and every hidden width w, a step with the
# lane ran 0.60x as fast as without at w = 64, 0.94x at 208, 1.01x at 240 (57,600 weights)
# and 1.17x at 320, on 2 shared cores. The smallest widest layer of `mnist` has 196,608.
LANE_WEIGHTS = 60_000
DISC_NOISE_STD = 0.1  # the discriminator's hidden-layer noise, as in Salimans et al. 2016


@dataclass
class GanModel:
    """A generator from z, drawn from a standard normal, and a discriminator whose last
    layer gives the K+1 logits and whose last hidden layer is the feature layer."""

    gen: list[nn.Layer]
    disc: list[nn.Layer]
    frozen: bool = False

    def __post_init__(self):
        if len(self.disc) < 2:
            raise ValidationError("the discriminator needs a hidden layer, its feature layer")
        if self.gen[-1].out_dim != self.data_dim:
            raise ValidationError("generator output width must match discriminator input width")

    @property
    def K(self) -> int:
        return self.disc[-1].out_dim - 1

    @property
    def z_dim(self) -> int:
        return self.gen[0].in_dim

    @property
    def feature_layer(self) -> int:
        return len(self.disc) - 2

    @property
    def data_dim(self) -> int:
        return self.disc[0].in_dim


def build_gan(data_dim: int, K: int, arch: str = "2d", seed: int = 0) -> GanModel:
    """Default architectures; "2d" for toy problems, "mnist" for image-scale runs.
    Each hidden discriminator layer adds Gaussian noise of DISC_NOISE_STD in training."""
    if arch == "2d":
        z_dim = 16
        gen_widths, disc_widths = [64, 64], [64, 64, 64]
        gen_out_act = "linear"
    elif arch == "mnist":
        z_dim = 64
        gen_widths, disc_widths = [250, 250, 256, 384, 512], [512, 384, 256, 250, 250]
        gen_out_act = "sigmoid"
    else:
        raise ValidationError(f"unknown architecture {arch!r}; have '2d', 'mnist'")

    rng = RngStreams(seed).init
    gen = nn.init_mlp([z_dim, *gen_widths, data_dim], "relu", gen_out_act, rng)
    disc = nn.init_mlp([data_dim, *disc_widths, K + 1], "leaky-relu", "linear", rng, noise_std=DISC_NOISE_STD)
    return GanModel(gen, disc)


# ---------------------------------------------------------------------------
# forward passes and scores
# ---------------------------------------------------------------------------


def _check_data_dim(model: GanModel, x: np.ndarray):
    if x.ndim != 2 or x.shape[1] != model.data_dim:
        raise ShapeMismatch("discriminator", x.shape, (model.data_dim,), detail="batch vs data-dim")


def discriminator_logits(
    model: GanModel, x: np.ndarray, noise_rng=None, cache: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(K+1 logits, feature-layer activations) of one discriminator pass; see ``layers.mlp_forward``
    for ``noise_rng`` and ``cache``. A pass without either runs in row blocks (``blas.in_blocks``)."""
    x = np.asarray(x, dtype=np.float64)
    if noise_rng is not None or cache is not None or x.ndim != 2:
        return nn.mlp_forward(model.disc, x, noise_rng, model.feature_layer, cache)
    disc = [replace(layer) for layer in model.disc]  # without the model's weight cache, which stays as it is
    nn.cache_weights(disc)  # once for every block
    parts = blas.in_blocks(lambda start, stop: nn.mlp_forward(
        disc, x[start:stop], keep=model.feature_layer), len(x), FORWARD_BLOCK)
    return parts[0] if len(parts) == 1 else tuple(np.concatenate(out) for out in zip(*parts))


def forward(model: GanModel, x) -> tuple[np.ndarray, np.ndarray]:
    """One noiseless discriminator pass: (rows of K+1 class probabilities, floored
    at PROB_CLAMP and renormalized; the activations of the feature layer)."""
    x = np.asarray(x, dtype=np.float64)
    _check_data_dim(model, x)
    logits, features = discriminator_logits(model, x)
    p = np.clip(_softmax(logits)[2], PROB_CLAMP, 1.0)
    return p / p.sum(axis=1, keepdims=True), features


def discriminator_probs(model: GanModel, x) -> np.ndarray:
    """Rows of K+1 class probabilities, floored at PROB_CLAMP and renormalized."""
    return forward(model, x)[0]


def discriminator_features(model: GanModel, x) -> np.ndarray:
    """Noiseless feature-layer activations from a pass that stops at that layer."""
    return nn.mlp_forward(model.disc[:-1], x)[0]


def sample_z(model: GanModel, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, model.z_dim))


def generator_forward(model: GanModel, z: np.ndarray, noise_rng=None, cache: list | None = None) -> np.ndarray:
    return nn.mlp_forward(model.gen, z, noise_rng, cache=cache)[0]


def sample_generator(model: GanModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws G(z) with z from a standard normal."""
    return generator_forward(model, sample_z(model, n, rng))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray):
    """(logits less their row's max, the row's sum of exponentials, softmax) of each row."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    return z, total, e / total


def _softmax_head(logits: np.ndarray, K: int):
    """(log-softmax, softmax s, p_fake clamped into [PROB_CLAMP, 1 - PROB_CLAMP], and
    whether p_fake lies in that window, where the clamp passes the gradient) of each row."""
    z, total, s = _softmax(logits)
    p = s[:, K]
    inside = (p >= PROB_CLAMP) & (p <= 1.0 - PROB_CLAMP)
    return z - np.log(total), s, np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP), inside


def discriminator_loss_from_logits(
    logits: np.ndarray, labels: np.ndarray | None, n_unlabeled: int, K: int
) -> tuple[float, np.ndarray]:
    """Minimized form: CE over labeled reals - mean log D(x) - mean log(1 - D(G(z))),
    and its gradient at ``logits``. The rows of ``logits`` are ``len(labels)``
    labeled reals, then ``n_unlabeled`` unlabeled reals, then the fakes.

    With s the softmax and c the clamped p_fake of a row, the gradient is
    (s - onehot(y)) / n_lab on labeled rows, p / (1 - c) * (e_K - s) / n_unl on
    unlabeled rows and (s - e_K) / n_fake on fakes, and zero on unlabeled and
    fake rows whose p_fake the clamp holds (Salimans et al. 2016).
    """
    n_lab = 0 if labels is None else len(labels)
    if n_lab:
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= K:
            raise ValidationError(f"labels must lie in 0..{K - 1}, got range [{labels.min()}, {labels.max()}]")
    n_real = n_lab + n_unlabeled
    log_s, s, c, inside = _softmax_head(logits, K)
    unl, fake = slice(n_lab, n_real), slice(n_real, len(logits))
    coef = np.empty(len(logits))  # the gradient is coef * (s - target), row by row
    loss = -np.log(1.0 - c[unl]).mean()
    if n_lab:
        rows = np.arange(n_lab)
        loss = -log_s[rows, labels].mean() + loss
        coef[:n_lab] = 1.0 / n_lab
        s[rows, labels] -= 1.0
    loss -= np.log(c[fake]).mean()
    coef[unl] = -(inside[unl] * s[unl, K] / (1.0 - c[unl])) / n_unlabeled
    coef[fake] = inside[fake] / (len(logits) - n_real)
    s[n_lab:, K] -= 1.0
    s *= coef[:, None]
    return float(loss), s


def discriminator_loss(
    model: GanModel,
    labeled_x: np.ndarray | None,
    labels: np.ndarray | None,
    unlabeled_x: np.ndarray,
    fake_x: np.ndarray,
    noise_rng=None,
    caches: tuple[list, list] | None = None,
) -> tuple[float, np.ndarray]:
    """The discriminator loss from one pass over the stacked [labeled; unlabeled; fake] batch,
    and its gradient at the pass's logits. ``caches`` is (generator cache, discriminator cache):
    the lists that the networks' passes fill for ``layers.mlp_backward``, as in every loss."""
    if labeled_x is None or labels is None or not len(labeled_x):
        labeled_x, labels = np.empty((0, model.data_dim)), None
    parts = [np.asarray(a, dtype=np.float64) for a in (labeled_x, unlabeled_x, fake_x)]
    for part in parts:
        _check_data_dim(model, part)
    disc_cache = caches[1] if caches else None
    logits = discriminator_logits(model, np.concatenate(parts), noise_rng, disc_cache)[0]
    return discriminator_loss_from_logits(logits, labels, len(parts[1]), model.K)


def generator_loss_standard_from_logits(fake_logits: np.ndarray, K: int) -> tuple[float, np.ndarray]:
    """Mean log(1 - D(G(z))) over the batch, i.e. mean log p_fake(G(z)), and its gradient
    (e_K - s) / n at ``fake_logits``, zero on rows whose p_fake the clamp holds."""
    _, s, c, inside = _softmax_head(fake_logits, K)
    s[:, K] -= 1.0
    s *= (inside / -len(fake_logits))[:, None]
    return float(np.log(c).mean()), s


def generator_loss_standard(
    model: GanModel, z: np.ndarray, noise_rng=None, caches: tuple[list, list] | None = None
) -> tuple[float, np.ndarray]:
    """The loss, and its gradient at the discriminator's logits on G(z)."""
    gen_cache, disc_cache = caches or (None, None)
    fake = generator_forward(model, z, noise_rng, gen_cache)
    logits = nn.mlp_forward(model.disc, fake, noise_rng, cache=disc_cache)[0]
    return generator_loss_standard_from_logits(logits, model.K)


def feature_matching_from_features(features: np.ndarray, mean_real: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared L2 distance between the mean row of ``features`` and ``mean_real``, and
    its gradient 2 (mean_fake - mean_real) / n at each row of ``features``."""
    d = features.mean(axis=0) - mean_real
    return float((d * d).sum()), np.broadcast_to(2.0 * d, features.shape) / len(features)


def generator_loss_feature_matching(
    model: GanModel, real_x: np.ndarray, z: np.ndarray, noise_rng=None, caches: tuple[list, list] | None = None,
    lane: blas.Lane | None = None,
) -> tuple[float, np.ndarray]:
    """Squared L2 distance between mean real and mean generated features, and its
    gradient at the generated features.

    The real branch is a constant of this loss. The discriminator runs up to
    its feature layer; after it comes only the output layer. A ``lane`` runs
    the real branch beside a generator pass that draws no noise, so the noise
    is drawn in the same order.
    """
    gen_cache, disc_cache = caches or (None, None)

    def real_mean():
        return nn.mlp_forward(model.disc[:-1], real_x, noise_rng)[0].mean(axis=0)

    if lane is None or noise_rng is not None and any(layer.noise_std > 0 for layer in model.gen):
        mean_real = real_mean()
        fake = generator_forward(model, z, noise_rng, gen_cache)
    else:
        lane.submit(real_mean)
        try:
            fake = generator_forward(model, z, noise_rng, gen_cache)
        finally:
            (mean_real,) = lane.join()
    features = nn.mlp_forward(model.disc[:-1], fake, noise_rng, cache=disc_cache)[0]
    return feature_matching_from_features(features, mean_real)


def feature_matching_distance(model: GanModel, real_x: np.ndarray, fake_x: np.ndarray) -> float:
    """Noiseless squared distance between the mean features of two concrete batches."""
    d = discriminator_features(model, real_x).mean(axis=0) - discriminator_features(model, fake_x).mean(axis=0)
    return float((d * d).sum())


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


GENERATOR_LOSSES = ("standard", "feature-matching")


@dataclass
class TrainConfig:
    total_steps: int
    batch_size: int = 64
    d_steps_per_g: int = 1
    seed: int = 0
    labeled_fraction: float | None = None  # None: fully unsupervised
    generator_loss: str = "feature-matching"
    lr: float = 3e-4  # Adam's step size; its other settings are layers.ADAM_*
    log_every: int = 50

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValidationError(f"total_steps must be >= 1, got {self.total_steps}")
        if self.batch_size < 2:
            raise ValidationError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.d_steps_per_g < 1:
            raise ValidationError(f"d_steps_per_g must be >= 1, got {self.d_steps_per_g}")
        if self.labeled_fraction is not None and not 0.0 < self.labeled_fraction <= 1.0:
            raise ValidationError(f"labeled_fraction must lie in (0, 1], got {self.labeled_fraction}")
        if self.generator_loss not in GENERATOR_LOSSES:
            raise ValidationError(f"generator_loss must be one of {GENERATOR_LOSSES}")
        if self.log_every < 1:
            raise ValidationError("log_every must be >= 1")


@dataclass
class LogRow:
    step: int
    d_loss: float
    g_loss: float | None
    fm_distance: float | None


@dataclass
class TrainLog:
    rows: list[LogRow] = field(default_factory=list)

    def to_csv(self, path):
        columns = ("step", "d_loss", "g_loss", "fm_distance")
        write_table(path, columns, [[getattr(r, c) for r in self.rows] for c in columns])


def _gradients(model: GanModel, step: int, loss_fn, *args, noise_rng=None, lane: blas.Lane | None = None):
    """(loss value, gradient stack of the network that ``loss_fn(model, *args)`` trains).

    The loss value is checked to be finite before any backward. The loss's
    gradient at the network output goes back through the discriminator's
    pass. A generator loss, the one kind whose pass fills the generator
    cache, holds the discriminator constant and trains the generator: the
    gradient goes on through the generator's pass. The stack is laid out
    like the trained network's parameters (``layers.flat_stack``); a ``lane``
    forms its parameter gradients beside the input gradients.
    """
    gen_cache, disc_cache = [], []
    value, grad = loss_fn(model, *args, noise_rng, (gen_cache, disc_cache))
    trains_disc = not gen_cache
    if not np.isfinite(value):
        raise TrainingDiverged(step, "d-loss" if trains_disc else "g-loss", value)
    grads = nn.flat_stack(model.disc if trains_disc else model.gen)
    grad = nn.mlp_backward(model.disc, disc_cache, grad,  # a feature-matching pass stops at the feature layer
                           out=grads if trains_disc else None, need_dx=not trains_disc, lane=lane)
    if not trains_disc:
        nn.mlp_backward(model.gen, gen_cache, grad, out=grads, need_dx=False, lane=lane)
    return value, grads


def _descend(params: list[nn.Layer], state: nn.AdamState, *args, lane: blas.Lane | None = None, **kwargs) -> float:
    """One Adam update of ``params`` on ``_gradients(*args, **kwargs)``, both shared with ``lane``
    if there is one; returns the loss value.

    The gradients die on return, before the next phase builds its own.
    """
    value, grads = _gradients(*args, lane=lane, **kwargs)
    nn.adam_step(params, grads, state, lane)
    return value


def train_gan(
    model: GanModel,
    data: Dataset,
    config: TrainConfig,
    fake_source=None,
    diagnostics: bool = True,
) -> tuple[GanModel, TrainLog]:
    """Alternating Adam on the discriminator and generator.

    ``fake_source(n, rng) -> array`` replaces the learned generator as the
    source of fake batches (uniform-baseline or fixed-mixture training); in
    that case generator steps are skipped. ``diagnostics=False`` leaves the log's
    fm_distance empty, for a caller that drops the log; the model's bits stay the same.
    """
    if model.frozen:
        raise FrozenModelError("train_gan: model is frozen; build a fresh model to retrain")
    _check_data_dim(model, data.features)
    if config.labeled_fraction is not None and data.labels is None:
        raise ValidationError("labeled_fraction set but the dataset has no labels")

    streams = RngStreams(config.seed)
    labeled_x = labeled_y = None
    if config.labeled_fraction is not None:
        if config.labeled_fraction >= 1.0:
            labeled_x, labeled_y = data.features, data.labels
        else:
            counts = np.bincount(data.labels, minlength=data.K)
            per_class = max(1, int(round(config.labeled_fraction * counts.min())))
            labeled = subsample_labeled(data, per_class, derive_seed(config.seed, "labeled-subset"))
            labeled_x, labeled_y = labeled.features, labeled.labels
    all_x = data.features  # every real example feeds the unsupervised term

    d_state = nn.init_adam(model.disc, config.lr)
    g_state = nn.init_adam(model.gen, config.lr)
    log = TrainLog()

    # A diverging run overflows to inf/nan; the finite-loss and finite-gradient
    # checks report it as a structured error, so numpy stays quiet meanwhile.
    # Each network's effective weights are computed once per update of it and
    # reused by every pass until the next one; the cache is dropped on the way out.
    # BLAS runs one thread, so the bits do not depend on the machine's thread
    # count. Where blas.spare_lane finds a second CPU, one lane draws the layer
    # noise ahead (rng.NoiseAhead) and, for a model with a layer of LANE_WEIGHTS
    # weights or more, another runs the training jobs, each joined in the call
    # that submits it.
    wide = max(layer.v.size for layer in model.disc + model.gen) >= LANE_WEIGHTS
    noisy = any(layer.noise_std > 0 for layer in model.disc + model.gen)
    with (np.errstate(over="ignore", invalid="ignore"), blas.one_thread(),
          blas.spare_lane(wide) as lane, blas.spare_lane(noisy) as noise_lane):
        noise = streams.noise if noise_lane is None else NoiseAhead(streams.noise, noise_lane)
        try:
            nn.cache_weights(model.disc, lane)
            nn.cache_weights(model.gen, lane)
            for step in range(1, config.total_steps + 1):
                for _ in range(config.d_steps_per_g):
                    unl = all_x[streams.shuffling.integers(0, len(all_x), config.batch_size)]
                    if labeled_x is not None:
                        li = streams.shuffling.integers(0, len(labeled_x), config.batch_size)
                        lx, ly = labeled_x[li], labeled_y[li]
                    else:
                        lx = ly = None
                    if fake_source is not None:
                        fake = np.asarray(fake_source(config.batch_size, streams.sampling), dtype=np.float64)
                    else:
                        fake = sample_generator(model, config.batch_size, streams.sampling)
                    d_val = _descend(model.disc, d_state, model, step,
                                     discriminator_loss, lx, ly, unl, fake, noise_rng=noise, lane=lane)
                    nn.cache_weights(model.disc, lane)

                g_val = None
                if fake_source is None:
                    z = sample_z(model, config.batch_size, streams.sampling)
                    if config.generator_loss == "feature-matching":
                        real = all_x[streams.shuffling.integers(0, len(all_x), config.batch_size)]
                        args = (functools.partial(generator_loss_feature_matching, lane=lane), real, z)
                    else:
                        args = (generator_loss_standard, z)
                    g_val = _descend(model.gen, g_state, model, step, *args, noise_rng=noise, lane=lane)
                    nn.cache_weights(model.gen, lane)

                fm = None
                if step % config.log_every == 0 or step == 1 or step == config.total_steps:
                    if fake_source is None and diagnostics:
                        diag = streams.diagnostics
                        real = all_x[diag.integers(0, len(all_x), min(256, len(all_x)))]
                        fake = sample_generator(model, min(256, len(all_x)), diag)
                        fm = feature_matching_distance(model, real, fake)
                log.rows.append(LogRow(step, d_val, g_val, fm))
        finally:
            nn.drop_weights(model.disc + model.gen)

    model.frozen = True
    return model, log


# ---------------------------------------------------------------------------
# model files: a file header, a model header, then the generator's and the
# discriminator's layer blocks (``layers.write_mlp_block``)
# ---------------------------------------------------------------------------

MAGIC = b"NDGAN1"
FORMAT_VERSION = 1
_KIND_GAN = 2  # the file header's kind byte; a GAN is the one kind


def save_model(path, model: GanModel):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IB", FORMAT_VERSION, _KIND_GAN))
        fh.write(
            struct.pack(
                "<IIIBB",
                model.K,
                model.z_dim,
                model.feature_layer,
                0,  # the z-prior byte: 0, a standard normal, is the one prior
                1 if model.frozen else 0,
            )
        )
        nn.write_mlp_block(fh, model.gen)
        nn.write_mlp_block(fh, model.disc)


def load_model(path) -> GanModel:
    source = str(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(source, f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
        raw = fh.read(struct.calcsize("<IB"))
        if len(raw) != struct.calcsize("<IB"):
            raise FormatError(source, "truncated file header", offset=len(MAGIC))
        version, kind = struct.unpack("<IB", raw)
        if version != FORMAT_VERSION:
            raise FormatError(source, f"unsupported format version {version}")
        if kind != _KIND_GAN:
            raise FormatError(source, f"not a GAN model file (kind={kind})")
        raw = fh.read(struct.calcsize("<IIIBB"))
        if len(raw) != struct.calcsize("<IIIBB"):
            raise FormatError(source, "truncated model header")
        K, z_dim, feature_layer, prior_code, frozen = struct.unpack("<IIIBB", raw)
        if prior_code != 0:
            raise FormatError(source, f"z-prior byte must be 0 (standard normal), got {prior_code}",
                              offset=fh.tell() - 2)
        if frozen not in (0, 1):
            raise FormatError(source, f"frozen flag must be 0 or 1, got {frozen}", offset=fh.tell() - 1)
        gen_at = fh.tell()
        gen = nn.read_mlp_block(fh, source)
        disc_at = fh.tell()
        disc = nn.read_mlp_block(fh, source)
        end = fh.tell()
        if fh.read(1):
            raise FormatError(source, "trailing bytes after the model", offset=end)
    if gen[0].in_dim != z_dim:
        raise FormatError(source, f"generator input width {gen[0].in_dim} is not z_dim={z_dim}", offset=gen_at)
    if disc[-1].out_dim != K + 1:
        raise FormatError(source, f"discriminator output width {disc[-1].out_dim} is not K+1={K + 1}", offset=disc_at)
    model = GanModel(gen, disc, frozen=bool(frozen))
    if feature_layer != model.feature_layer:
        raise FormatError(source, f"feature layer {feature_layer} is not the last hidden layer "
                                  f"({model.feature_layer})", offset=len(MAGIC) + struct.calcsize("<IBII"))
    return model
