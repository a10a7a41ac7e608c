"""The GAN with a K+1-class discriminator and a feature-matching generator.

Index K of the discriminator's softmax is the "fake" class; the total real
mass D(x) = 1 - p_fake(x). The generator is trained either against the
standard saturating objective or by matching mean discriminator features
between real and generated batches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as nn
from .autodiff import Tensor
from .data import Dataset, subsample_labeled, write_table
from .errors import (
    FrozenModelError,
    FormatError,
    ShapeMismatch,
    TrainingDiverged,
    ValidationError,
)
from .rng import RngStreams, derive_seed

PROB_CLAMP = 1e-7  # floor/ceiling for probabilities inside logs and ratios
Z_PRIORS = ("standard-normal", "uniform")


@dataclass
class GanModel:
    gen_specs: list[nn.LayerSpec]
    gen_params: list[nn.LayerParams]
    disc_specs: list[nn.LayerSpec]
    disc_params: list[nn.LayerParams]
    K: int
    feature_layer: int  # index into the discriminator's hidden outputs
    z_dim: int
    z_prior: str = "standard-normal"
    frozen: bool = False

    def __post_init__(self):
        if self.disc_specs[-1].out_dim != self.K + 1:
            raise ValidationError(
                f"discriminator must end in K+1={self.K + 1} logits, got {self.disc_specs[-1].out_dim}"
            )
        n_hidden = len(self.disc_specs) - 1
        if not 0 <= self.feature_layer < n_hidden:
            raise ValidationError(
                f"feature_layer {self.feature_layer} does not index a hidden layer (0..{n_hidden - 1})"
            )
        if self.gen_specs[-1].out_dim != self.disc_specs[0].in_dim:
            raise ValidationError("generator output width must match discriminator input width")
        if self.gen_specs[0].in_dim != self.z_dim:
            raise ValidationError("generator input width must match z_dim")
        if self.z_prior not in Z_PRIORS:
            raise ValidationError(f"z_prior must be one of {Z_PRIORS}, got {self.z_prior!r}")

    @property
    def data_dim(self) -> int:
        return self.disc_specs[0].in_dim


def _stack(widths, in_dim, out_dim, hidden_act, out_act, weight_norm, noise_std):
    dims = [in_dim] + list(widths) + [out_dim]
    specs = []
    for i in range(len(dims) - 1):
        last = i == len(dims) - 2
        specs.append(
            nn.LayerSpec(
                in_dim=dims[i],
                out_dim=dims[i + 1],
                activation=out_act if last else hidden_act,
                weight_norm=weight_norm,
                noise_std=0.0 if last else noise_std,
            )
        )
    return specs


def build_gan(
    data_dim: int,
    K: int,
    arch: str = "2d",
    z_dim: int | None = None,
    seed: int = 0,
    disc_noise_std: float = 0.1,
) -> GanModel:
    """Default architectures; "2d" for toy problems, "mnist" for image-scale runs."""
    if arch == "2d":
        z_dim = 16 if z_dim is None else z_dim
        gen_widths, disc_widths = [64, 64], [64, 64, 64]
        gen_out_act = "linear"
    elif arch == "mnist":
        z_dim = 64 if z_dim is None else z_dim
        gen_widths, disc_widths = [250, 250, 256, 384, 512], [512, 384, 256, 250, 250]
        gen_out_act = "sigmoid"
    else:
        raise ValidationError(f"unknown architecture {arch!r}; have '2d', 'mnist'")

    rng = RngStreams(seed).init
    gen_specs = _stack(gen_widths, z_dim, data_dim, "relu", gen_out_act, True, 0.0)
    disc_specs = _stack(disc_widths, data_dim, K + 1, "leaky-relu", "linear", True, disc_noise_std)
    return GanModel(
        gen_specs=gen_specs,
        gen_params=nn.init_mlp(gen_specs, rng),
        disc_specs=disc_specs,
        disc_params=nn.init_mlp(disc_specs, rng),
        K=K,
        feature_layer=len(disc_widths) - 1,
        z_dim=z_dim,
    )


# ---------------------------------------------------------------------------
# forward passes and scores
# ---------------------------------------------------------------------------


def _check_data_dim(model: GanModel, x: np.ndarray):
    if x.ndim != 2 or x.shape[1] != model.data_dim:
        raise ShapeMismatch("discriminator", x.shape, (model.data_dim,), detail="batch vs data-dim")


def discriminator_logits(
    model: GanModel, x: Tensor, mode: str = "eval", noise_rng=None
) -> tuple[Tensor, Tensor]:
    """(K+1 logits, feature-layer activations) of one discriminator pass."""
    return nn.mlp_forward(model.disc_params, model.disc_specs, x, mode, noise_rng, model.feature_layer)


def forward(model: GanModel, x) -> tuple[np.ndarray, np.ndarray]:
    """One eval-mode discriminator pass: (rows of K+1 class probabilities, floored
    at PROB_CLAMP and renormalized; the activations of the feature layer)."""
    x = np.asarray(x, dtype=np.float64)
    _check_data_dim(model, x)
    with ad.suspend_tape():
        logits, features = discriminator_logits(model, Tensor(x))
        p = ad.softmax(logits).data
    p = np.clip(p, PROB_CLAMP, 1.0)
    return p / p.sum(axis=1, keepdims=True), features.data


def discriminator_probs(model: GanModel, x) -> np.ndarray:
    """Rows of K+1 class probabilities, floored at PROB_CLAMP and renormalized."""
    return forward(model, x)[0]


def discriminator_features(model: GanModel, x) -> np.ndarray:
    return forward(model, x)[1]


def sample_z(model: GanModel, n: int, rng: np.random.Generator) -> np.ndarray:
    if model.z_prior == "standard-normal":
        return rng.standard_normal((n, model.z_dim))
    return rng.uniform(-1.0, 1.0, size=(n, model.z_dim))


def generator_forward(model: GanModel, z: Tensor, mode: str = "eval", noise_rng=None) -> Tensor:
    out, _ = nn.mlp_forward(model.gen_params, model.gen_specs, z, mode, noise_rng)
    return out


def sample_generator(model: GanModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws G(z) with z from the model's latent prior."""
    z = sample_z(model, n, rng)
    with ad.suspend_tape():
        return generator_forward(model, Tensor(z)).data


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _fake_prob(logits: Tensor, K: int) -> Tensor:
    """Clamped p_fake per row; index K is the fake class."""
    probs = ad.softmax(logits)
    pick = np.zeros(K + 1)
    pick[K] = 1.0
    p_fake = ad.reduce_sum(ad.mul(probs, Tensor(pick)), axis=1)
    return ad.clip(p_fake, PROB_CLAMP, 1.0 - PROB_CLAMP)


def discriminator_loss_from_logits(
    labeled_logits: Tensor | None,
    labels: np.ndarray | None,
    unlabeled_logits: Tensor,
    fake_logits: Tensor,
    K: int,
) -> Tensor:
    """Minimized form: CE over labeled reals - mean log D(x) - mean log(1 - D(G(z)))."""
    terms = []
    if labeled_logits is not None and labels is not None and len(labels):
        labels = np.asarray(labels)
        if labels.min() < 0 or labels.max() >= K:
            raise ValidationError(f"labels must lie in 0..{K - 1}, got range [{labels.min()}, {labels.max()}]")
        onehot = np.zeros((len(labels), K + 1))
        onehot[np.arange(len(labels)), labels] = 1.0
        picked = ad.reduce_sum(ad.mul(ad.log_softmax(labeled_logits), Tensor(onehot)), axis=1)
        terms.append(-ad.reduce_mean(picked))
    d_real = 1.0 - _fake_prob(unlabeled_logits, K)  # already inside [clamp, 1-clamp]
    terms.append(-ad.reduce_mean(ad.log(d_real)))
    terms.append(-ad.reduce_mean(ad.log(_fake_prob(fake_logits, K))))
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


def discriminator_loss(
    model: GanModel,
    labeled_x: np.ndarray | None,
    labels: np.ndarray | None,
    unlabeled_x: np.ndarray,
    fake_x: np.ndarray,
    noise_rng=None,
    mode: str = "train",
) -> Tensor:
    """The discriminator loss from one pass over the stacked [labeled; unlabeled; fake] batch."""
    if labeled_x is None or labels is None or not len(labeled_x):
        labeled_x, labels = np.empty((0, model.data_dim)), None
    parts = [np.asarray(a, dtype=np.float64) for a in (labeled_x, unlabeled_x, fake_x)]
    for part in parts:
        _check_data_dim(model, part)
    logits, _ = discriminator_logits(model, Tensor(np.concatenate(parts)), mode, noise_rng)
    n_lab, n_real = len(parts[0]), len(parts[0]) + len(parts[1])
    lab_logits = None if labels is None else ad.slice_rows(logits, 0, n_lab)
    unl_logits = ad.slice_rows(logits, n_lab, n_real)
    fake_logits = ad.slice_rows(logits, n_real, len(logits.data))
    return discriminator_loss_from_logits(lab_logits, labels, unl_logits, fake_logits, model.K)


def generator_loss_standard_from_logits(fake_logits: Tensor, K: int) -> Tensor:
    """Mean log(1 - D(G(z))) over the batch, i.e. mean log p_fake(G(z))."""
    return ad.reduce_mean(ad.log(_fake_prob(fake_logits, K)))


def generator_loss_standard(model: GanModel, z: np.ndarray, noise_rng=None, mode: str = "train") -> Tensor:
    """The discriminator is a constant of this loss: gradients reach generator parameters only."""
    disc = nn.constant_params(model.disc_params)
    fake = generator_forward(model, Tensor(z), mode, noise_rng)
    logits, _ = nn.mlp_forward(disc, model.disc_specs, fake, mode, noise_rng)
    return generator_loss_standard_from_logits(logits, model.K)


def generator_loss_feature_matching(
    model: GanModel, real_x: np.ndarray, z: np.ndarray, noise_rng=None, mode: str = "train"
) -> Tensor:
    """Squared L2 distance between mean real and mean generated features.

    The real branch and the discriminator are constants of this loss:
    gradients reach generator parameters only.
    """
    disc, keep = nn.constant_params(model.disc_params), model.feature_layer
    with ad.suspend_tape():
        _, real = nn.mlp_forward(disc, model.disc_specs, Tensor(np.asarray(real_x, np.float64)), mode, noise_rng, keep)
        mean_real = real.data.mean(axis=0)
    fake = generator_forward(model, Tensor(z), mode, noise_rng)
    _, features = nn.mlp_forward(disc, model.disc_specs, fake, mode, noise_rng, keep)
    mean_fake = ad.reduce_mean(features, axis=0)
    return ad.l2_norm_squared(ad.add(mean_fake, ad.mul(Tensor(mean_real), Tensor(-1.0))))


def feature_matching_distance(model: GanModel, real_x: np.ndarray, fake_x: np.ndarray) -> float:
    """Eval-mode squared distance between the mean features of two concrete batches."""
    d = forward(model, real_x)[1].mean(axis=0) - forward(model, fake_x)[1].mean(axis=0)
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
    lr: float = 3e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
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


def _loss_value(loss: Tensor, step: int, name: str) -> float:
    value = loss.item()
    if not np.isfinite(value):
        raise TrainingDiverged(step, name, value)
    return value


def _descend(params: list[nn.LayerParams], state: nn.AdamState, step: int, name: str, loss_fn, *args) -> float:
    """One Adam update of ``params`` on the loss ``loss_fn(*args)``; returns the loss value.

    The tape and the gradients die on return, before the next phase builds its own.
    """
    with ad.Tape() as tape:
        loss = loss_fn(*args)
        value = _loss_value(loss, step, name)
        grads = nn.collect_grads(tape, ad.backward(tape, loss), params)
    nn.adam_step(params, grads, state)
    return value


def train_gan(
    model: GanModel,
    data: Dataset,
    config: TrainConfig,
    fake_source=None,
) -> tuple[GanModel, TrainLog]:
    """Alternating Adam on the discriminator and generator.

    ``fake_source(n, rng) -> array`` replaces the learned generator as the
    source of fake batches (uniform-baseline or fixed-mixture training); in
    that case generator steps are skipped.
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
            labeled, _ = subsample_labeled(data, per_class, derive_seed(config.seed, "labeled-subset"))
            labeled_x, labeled_y = labeled.features, labeled.labels
    all_x = data.features  # every real example feeds the unsupervised term

    d_state = nn.init_adam(model.disc_params, config.lr, config.beta1, config.beta2, config.eps)
    g_state = nn.init_adam(model.gen_params, config.lr, config.beta1, config.beta2, config.eps)
    log = TrainLog()

    # A diverging run overflows to inf/nan; the finite-loss and finite-gradient
    # checks report it as a structured error, so numpy stays quiet meanwhile.
    # Each network's effective weights are computed once per update of it and
    # reused by every pass until the next one; the cache is dropped on the way out.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            nn.cache_weights(model.disc_params)
            nn.cache_weights(model.gen_params)
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
                    d_val = _descend(model.disc_params, d_state, step, "d-loss",
                                     discriminator_loss, model, lx, ly, unl, fake, streams.noise, "train")
                    nn.cache_weights(model.disc_params)

                g_val = None
                if fake_source is None:
                    z = sample_z(model, config.batch_size, streams.sampling)
                    if config.generator_loss == "feature-matching":
                        real = all_x[streams.shuffling.integers(0, len(all_x), config.batch_size)]
                        g_val = _descend(model.gen_params, g_state, step, "g-loss",
                                         generator_loss_feature_matching, model, real, z, streams.noise, "train")
                    else:
                        g_val = _descend(model.gen_params, g_state, step, "g-loss",
                                         generator_loss_standard, model, z, streams.noise, "train")
                    nn.cache_weights(model.gen_params)

                fm = None
                if step % config.log_every == 0 or step == 1 or step == config.total_steps:
                    if fake_source is None:
                        diag = streams.diagnostics
                        real = all_x[diag.integers(0, len(all_x), min(256, len(all_x)))]
                        fake = sample_generator(model, min(256, len(all_x)), diag)
                        fm = feature_matching_distance(model, real, fake)
                log.rows.append(LogRow(step, d_val, g_val, fm))
        finally:
            nn.drop_weights(model.disc_params + model.gen_params)

    model.frozen = True
    return model, log


# ---------------------------------------------------------------------------
# model files (magic + version shared with layers)
# ---------------------------------------------------------------------------

_Z_PRIOR_CODES = {name: i for i, name in enumerate(Z_PRIORS)}
_Z_PRIOR_NAMES = {i: name for name, i in _Z_PRIOR_CODES.items()}


def save_model(path, model: GanModel):
    with open(path, "wb") as fh:
        nn._write_header(fh, nn._KIND_GAN)
        fh.write(
            struct.pack(
                "<IIIBB",
                model.K,
                model.z_dim,
                model.feature_layer,
                _Z_PRIOR_CODES[model.z_prior],
                1 if model.frozen else 0,
            )
        )
        nn.write_mlp_block(fh, model.gen_specs, model.gen_params)
        nn.write_mlp_block(fh, model.disc_specs, model.disc_params)


def load_model(path) -> GanModel:
    source = str(path)
    with open(path, "rb") as fh:
        kind = nn._read_header(fh, source)
        if kind != nn._KIND_GAN:
            raise FormatError(source, f"not a GAN model file (kind={kind})")
        raw = fh.read(struct.calcsize("<IIIBB"))
        if len(raw) != struct.calcsize("<IIIBB"):
            raise FormatError(source, "truncated model header")
        K, z_dim, feature_layer, prior_code, frozen = struct.unpack("<IIIBB", raw)
        if prior_code not in _Z_PRIOR_NAMES:
            raise FormatError(source, f"unknown z-prior code {prior_code}")
        gen_specs, gen_params = nn.read_mlp_block(fh, source)
        disc_specs, disc_params = nn.read_mlp_block(fh, source)
        end = fh.tell()
        if fh.read(1):
            raise FormatError(source, "trailing bytes after the model", offset=end)
    return GanModel(
        gen_specs=gen_specs,
        gen_params=gen_params,
        disc_specs=disc_specs,
        disc_params=disc_params,
        K=K,
        feature_layer=feature_layer,
        z_dim=z_dim,
        z_prior=_Z_PRIOR_NAMES[prior_code],
        frozen=bool(frozen),
    )
