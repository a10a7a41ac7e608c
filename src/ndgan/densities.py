"""Analytic ground truth: diagonal Gaussian mixtures, the likelihood-ratio
detector, the closed-form optimal discriminator, and the mixture identity
that ties the two together.

Everything here is exact (up to float64), which is what makes it usable as
the yardstick for the learned detectors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SchemaError, ValidationError

DENSITY_FLOOR = 1e-300  # clamp before ratios; below this a density "underflowed"
_LOG_2PI = float(np.log(2.0 * np.pi))


def _as_batch(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :] if dim > 1 else x[:, None]
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValidationError(f"query batch has shape {x.shape}, expected (n, {dim})")
    return x


@dataclass(frozen=True)
class GaussianMixtureDensity:
    """Mixture of diagonal Gaussians: weights (C,), means (C,d), variances (C,d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        v = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if m.shape != v.shape or w.shape != (m.shape[0],):
            raise ValidationError(
                f"inconsistent mixture shapes: weights {w.shape}, means {m.shape}, variances {v.shape}"
            )
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0):
            raise ValidationError(f"weights must be a simplex vector (sum={w.sum()!r})")
        if np.any(v <= 0):
            raise ValidationError("variances must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", m)
        object.__setattr__(self, "variances", v)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def logpdf(self, x) -> np.ndarray:
        x = _as_batch(x, self.dim)
        # (n, C): log N(x; mu_c, diag var_c) summed over dimensions
        diff = x[:, None, :] - self.means[None, :, :]
        comp = -0.5 * (
            (diff * diff / self.variances[None, :, :]).sum(axis=2)
            + np.log(self.variances).sum(axis=1)[None, :]
            + self.dim * _LOG_2PI
        )
        comp = comp + np.log(self.weights)[None, :]
        peak = comp.max(axis=1, keepdims=True)
        return (peak + np.log(np.exp(comp - peak).sum(axis=1, keepdims=True)))[:, 0]

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comps = rng.choice(len(self.weights), size=n, p=self.weights)
        eps = rng.standard_normal((n, self.dim))
        return self.means[comps] + eps * np.sqrt(self.variances[comps])


def gaussian(mean, variance) -> GaussianMixtureDensity:
    """Single diagonal Gaussian as a one-component mixture."""
    mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    variance = np.broadcast_to(np.asarray(variance, dtype=np.float64), mean.shape)
    return GaussianMixtureDensity(np.array([1.0]), mean[None, :], variance[None, :].copy())


@dataclass(frozen=True)
class MixtureSpec:
    """Generator density p_g = pi * p_novel + (1 - pi) * p_data."""

    pi: float
    novel: GaussianMixtureDensity
    data: GaussianMixtureDensity

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise ValidationError(f"pi must lie in [0, 1], got {self.pi}")
        if self.novel.dim != self.data.dim:
            raise ValidationError(f"dimension mismatch: novel {self.novel.dim}, data {self.data.dim}")

    @property
    def dim(self) -> int:
        return self.data.dim

    def pdf(self, x) -> np.ndarray:
        return self.pi * self.novel.pdf(x) + (1.0 - self.pi) * self.data.pdf(x)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        from_novel = rng.random(n) < self.pi
        out = np.empty((n, self.dim))
        k = int(from_novel.sum())
        if k:
            out[from_novel] = self.novel.sample(k, rng)
        if n - k:
            out[~from_novel] = self.data.sample(n - k, rng)
        return out


@dataclass
class GridDensity:
    """Midpoint-rule discretization of a density on an axis-aligned box."""

    bounds: np.ndarray  # (d, 2) lower/upper
    resolution: tuple  # cells per dimension
    values: np.ndarray  # cell densities, shape == resolution

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.float64).reshape(-1, 2)
        if np.any(self.bounds[:, 0] >= self.bounds[:, 1]):
            raise ValidationError("grid bounds must satisfy lower < upper")
        self.resolution = tuple(int(r) for r in self.resolution)
        self.values = np.asarray(self.values, dtype=np.float64).reshape(self.resolution)
        if np.any(self.values < 0):
            raise ValidationError("grid cell values must be non-negative")

    @property
    def dim(self) -> int:
        return self.bounds.shape[0]

    @property
    def cell_volume(self) -> float:
        widths = (self.bounds[:, 1] - self.bounds[:, 0]) / np.array(self.resolution)
        return float(np.prod(widths))

    def centers(self) -> np.ndarray:
        """Cell midpoints, flattened to (n_cells, d) in C order."""
        axes = [
            lo + (np.arange(r) + 0.5) * (hi - lo) / r
            for (lo, hi), r in zip(self.bounds, self.resolution)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def normalize(self) -> "GridDensity":
        total = self.values.sum() * self.cell_volume
        if total <= 0:
            raise DomainError("grid-normalize", "grid has zero total mass")
        self.values = self.values / total
        return self

    def cell_index(self, x) -> np.ndarray:
        """Map points to flat cell indices; points outside the box get -1."""
        x = _as_batch(x, self.dim)
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        widths = (hi - lo) / np.array(self.resolution)
        ij = np.floor((x - lo) / widths).astype(np.int64)
        inside = np.all((x >= lo) & (x <= hi), axis=1)
        ij = np.clip(ij, 0, np.array(self.resolution) - 1)  # right-edge points belong to the last cell
        flat = np.ravel_multi_index(ij.T, self.resolution)
        return np.where(inside, flat, -1)

    @classmethod
    def from_density(cls, density, bounds, resolution) -> "GridDensity":
        bounds = np.asarray(bounds, dtype=np.float64).reshape(-1, 2)
        resolution = tuple(int(r) for r in np.atleast_1d(resolution)) if np.ndim(resolution) else (int(resolution),) * bounds.shape[0]
        if len(resolution) == 1 and bounds.shape[0] > 1:
            resolution = resolution * bounds.shape[0]
        grid = cls(bounds=bounds, resolution=resolution, values=np.zeros(resolution))
        grid.values = density.pdf(grid.centers()).reshape(resolution)
        return grid.normalize()


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------


def likelihood_ratio_score(p_data, p_novel, x) -> np.ndarray:
    """p_novel(x) / p_data(x), higher means more novel; floored denominator."""
    num = p_novel.pdf(x)
    den = p_data.pdf(x)
    dead = (num < DENSITY_FLOOR) & (den < DENSITY_FLOOR)
    if np.any(dead):
        raise DomainError(
            "likelihood-ratio", f"both densities underflow at {int(dead.sum())} point(s), e.g. index {int(np.argmax(dead))}"
        )
    return num / np.maximum(den, DENSITY_FLOOR)


def optimal_discriminator(p_data, p_g, x) -> np.ndarray:
    """Closed-form D*(x) = p_data(x) / (p_data(x) + p_g(x)) for a fixed generator."""
    pd = p_data.pdf(x)
    pg = p_g.pdf(x)
    dead = (pd < DENSITY_FLOOR) & (pg < DENSITY_FLOOR)
    if np.any(dead):
        raise DomainError(
            "optimal-discriminator", f"both densities underflow at {int(dead.sum())} point(s)"
        )
    return pd / (pd + pg)


@dataclass
class IdentityReport:
    max_residual: float
    residual_discriminator_form: float
    residual_mixture_form: float
    n_checked: int
    excluded: np.ndarray  # indices where p_data underflowed


def verify_mixture_identity(spec: MixtureSpec, x) -> IdentityReport:
    """Check (1 - D*)/D* == pi * p_novel/p_data + (1 - pi) pointwise.

    Also checks the same right-hand side against p_g/p_data directly. Points
    where p_data underflows are excluded and reported, not scored.

    Residuals are scale-normalized: |lhs - rhs| / max(1, |rhs|). Below
    magnitude 1 this is the plain absolute difference; above it the float64
    rounding of the two evaluation routes grows with the ratio itself, so an
    unnormalized difference would say nothing about the algebra.
    """
    x = _as_batch(x, spec.dim)
    pd = spec.data.pdf(x)
    keep = pd >= DENSITY_FLOOR
    excluded = np.nonzero(~keep)[0]
    if not np.any(keep):
        raise DomainError("mixture-identity", "p_data underflowed at every query point")
    x = x[keep]
    pd = pd[keep]
    pn = spec.novel.pdf(x)
    pg = spec.pdf(x)

    rhs = spec.pi * (pn / pd) + (1.0 - spec.pi)
    dstar = pd / (pd + pg)
    lhs_disc = (1.0 - dstar) / dstar
    lhs_mix = pg / pd

    r_disc = float(np.max(np.abs(lhs_disc - rhs) / np.maximum(1.0, np.abs(rhs))))
    r_mix = float(np.max(np.abs(lhs_mix - rhs) / np.maximum(1.0, np.abs(rhs))))
    return IdentityReport(
        max_residual=max(r_disc, r_mix),
        residual_discriminator_form=r_disc,
        residual_mixture_form=r_mix,
        n_checked=int(keep.sum()),
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# JSON schema (version 1):
# {"version": 1, "pi": float, "data": {"weights": [...], "means": [[...]],
#  "variances": [[...]]}, "novel": {...}}
# ---------------------------------------------------------------------------


def _component_from_json(obj, path: str) -> GaussianMixtureDensity:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    for key in ("weights", "means", "variances"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing required field")
    extra = set(obj) - {"weights", "means", "variances"}
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}", "unknown field")
    try:
        return GaussianMixtureDensity(
            np.asarray(obj["weights"], dtype=np.float64),
            np.asarray(obj["means"], dtype=np.float64),
            np.asarray(obj["variances"], dtype=np.float64),
        )
    except (ValidationError, ValueError) as exc:
        raise SchemaError(path, str(exc)) from exc


def mixture_spec_from_json(doc) -> MixtureSpec:
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be a JSON object")
    for key in ("version", "pi", "data", "novel"):
        if key not in doc:
            raise SchemaError(f"$.{key}", "missing required field")
    extra = set(doc) - {"version", "pi", "data", "novel"}
    if extra:
        raise SchemaError(f"$.{sorted(extra)[0]}", "unknown field")
    if doc["version"] != 1:
        raise SchemaError("$.version", f"unsupported version {doc['version']!r}")
    if not isinstance(doc["pi"], (int, float)) or not 0 <= doc["pi"] <= 1:
        raise SchemaError("$.pi", f"must be a number in [0, 1], got {doc['pi']!r}")
    return MixtureSpec(
        pi=float(doc["pi"]),
        data=_component_from_json(doc["data"], "$.data"),
        novel=_component_from_json(doc["novel"], "$.novel"),
    )


def load_mixture_spec(path) -> MixtureSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from exc
    return mixture_spec_from_json(doc)


def mixture_spec_to_json(spec: MixtureSpec) -> dict:
    def comp(d: GaussianMixtureDensity):
        return {
            "weights": d.weights.tolist(),
            "means": d.means.tolist(),
            "variances": d.variances.tolist(),
        }

    return {"version": 1, "pi": spec.pi, "data": comp(spec.data), "novel": comp(spec.novel)}
