"""Fully connected building blocks: the activations, weight-normalized layers,
per-layer Gaussian noise, the Adam optimizer, and the bit-exact layer blocks
of a model file (its header belongs to ``gan``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .errors import DomainError, FormatError, ShapeMismatch, ValidationError

_ACT_CODES = {"relu": 0, "leaky-relu": 1, "sigmoid": 3, "linear": 4}  # model-file codes; 2 and 5 are retired
ACTIVATIONS = tuple(_ACT_CODES)
LEAKY_SLOPE = 0.2


def activate(kind: str, h: np.ndarray) -> np.ndarray:
    """The activation ``kind`` (an ``ACTIVATIONS`` name) of the pre-activations ``h``."""
    if kind == "relu":
        return np.maximum(h, 0.0)
    if kind == "leaky-relu":
        return np.maximum(h, LEAKY_SLOPE * h)  # = where(h > 0, h, slope*h) for 0 < slope < 1
    if kind == "sigmoid":
        e = np.exp(-np.abs(h))  # split by sign: exp never overflows
        return np.where(h >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return h  # linear


def activation_grad(kind: str, g: np.ndarray, h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient at the pre-activations ``h`` from the gradient ``g`` at ``y = activate(kind, h)``."""
    if kind == "relu":
        return g * (h > 0)
    if kind == "leaky-relu":
        d = (h > 0) * (1.0 - LEAKY_SLOPE)  # 1 or the slope, as where(h > 0, 1, slope): 0.8 + 0.2 == 1
        d += LEAKY_SLOPE
        d *= g
        return d
    if kind == "sigmoid":
        return g * y * (1.0 - y)
    return g  # linear


def effective_weights(v: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized weights ``W[i] = g[i] * v[i] / ||v[i]||_2`` (written to ``out`` when given)
    and the row norms ``||v[i]||_2``."""
    if v.ndim != 2 or g.shape != (v.shape[0],):
        raise ShapeMismatch("linear", v.shape, g.shape, detail="gain needs one entry per row of v")
    sq = (v * v).sum(axis=1)
    if np.any(sq == 0):
        raise DomainError("linear", "zero direction row has no unit direction")
    norm = np.sqrt(sq)
    return np.multiply((g / norm)[:, None], v, out=out), norm


@dataclass(eq=False)
class Layer:
    """A weight-normalized layer (Salimans & Kingma 2016): ``activation(x @ W.T + b)``
    with ``W = effective_weights(v, g)`` from direction rows v (out x in), gain g
    and bias b, plus Gaussian noise of ``noise_std`` on the output of a pass given
    a noise rng. Its widths are v's: ``in_dim`` columns, ``out_dim`` rows."""

    v: np.ndarray
    g: np.ndarray
    b: np.ndarray
    activation: str = "relu"
    noise_std: float = field(default=0.0, kw_only=True)
    # ``effective_weights(v, g)`` while v and g stay unchanged; see cache_weights
    wn: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.v.ndim != 2 or not self.g.shape == self.b.shape == (len(self.v),):
            raise ShapeMismatch("layer", self.v.shape, self.g.shape, self.b.shape,
                                detail="v must be 2-d, with one entry of g and of b per row")
        if 0 in self.v.shape:
            raise ValidationError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}; have {ACTIVATIONS}")
        if not 0 <= self.noise_std < math.inf:  # NaN fails every comparison
            raise ValidationError(f"noise_std must be finite and >= 0, got {self.noise_std}")

    @property
    def in_dim(self) -> int:
        return self.v.shape[1]

    @property
    def out_dim(self) -> int:
        return self.v.shape[0]

    def named(self):
        yield "v", self.v
        yield "g", self.g
        yield "b", self.b


def _carve(shapes) -> list[np.ndarray]:
    """Consecutive views of one new zeroed flat buffer, one view per shape."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = np.zeros(sum(sizes))
    views, at = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[at : at + size].reshape(shape))
        at += size
    return views


def flat_stack(layers: list[Layer]) -> list[Layer]:
    """Zeros laid out like ``layers``: each array a view of one new flat buffer, in ``named()`` order."""
    views = iter(_carve([a.shape for layer in layers for _, a in layer.named()]))
    return [Layer(next(views), next(views), next(views), layer.activation, noise_std=layer.noise_std)
            for layer in layers]


def init_mlp(dims: list[int], hidden: str, last: str, rng: np.random.Generator,
             noise_std: float = 0.0) -> list[Layer]:
    """A stack of layers ``dims[i] -> dims[i + 1]``: the ``hidden`` activation and Gaussian
    noise of ``noise_std`` on all but the last, which has the ``last`` activation and no noise.
    He-style init: v ~ N(0, 2/in_dim), gains 1, biases 0, each a separate array."""
    layers = []
    for i, (n_in, n_out) in enumerate(zip(dims, dims[1:])):
        v = rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in))
        top = i == len(dims) - 2
        layers.append(Layer(v, np.ones(n_out), np.zeros(n_out), last if top else hidden,
                            noise_std=0.0 if top else noise_std))
    return layers


def cache_weights(layers: list[Layer], lane: blas.Lane | None = None):
    """Store each layer's effective weights and row norms on it; a ``lane`` takes every other layer.

    ``mlp_forward`` then reuses them instead of normalizing again. The cache
    is only right while v and g stay unchanged: refresh it after every update
    and clear it with ``drop_weights`` before the arrays are edited any other
    way. A refresh writes the weights into the previous cache's arrays, which
    keeps them in place in memory, so no ``mlp_forward`` cache that holds them
    may be used after it.
    """
    def cache(layer: Layer):
        layer.wn = effective_weights(layer.v, layer.g, out=None if layer.wn is None else layer.wn[0])

    blas.each(cache, [(layer,) for layer in layers], lane)


def drop_weights(layers: list[Layer]):
    """Clear what ``cache_weights`` stored: passes normalize from the arrays again."""
    for layer in layers:
        layer.wn = None


def mlp_forward(
    layers: list[Layer],
    x: np.ndarray,
    noise_rng=None,
    keep: int | None = None,
    cache: list | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Run the stack; returns (final output, post-activation output of layer ``keep`` or None).

    A pass given a ``noise_rng`` adds each layer's Gaussian noise to its
    output (a training pass); without one it is noiseless (an eval pass).
    The kept output is the actual value fed to the next layer, noise
    included. ``noise_rng`` is any object with ``normal(loc, scale, size)``,
    such as a ``numpy.random.Generator`` or an ``rng.NoiseAhead``; each array
    it returns is used once, in ``h + noise``, before the next call.
    When ``cache`` is a list, each layer appends ``[input, weights, row norms,
    pre-activation, activation]`` to it for :func:`mlp_backward`;
    otherwise no layer's input outlives the layer.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeMismatch("mlp-forward", h.shape, detail="expects a batch (n, d)")

    kept = None
    for i, layer in enumerate(layers):
        if h.shape[1] != layer.in_dim:
            raise ShapeMismatch("linear", h.shape, layer.v.shape, detail=f"input width vs layer {i}")
        w, norm = layer.wn or effective_weights(layer.v, layer.g)
        if cache is not None:
            cache.append([h, w, norm])
        h = h @ w.T + layer.b
        del w, norm  # without a cache, no array of a layer outlives it
        if cache is not None:
            cache[-1].append(h)
        h = activate(layer.activation, h)
        if cache is not None:
            cache[-1].append(h)
        if noise_rng is not None and layer.noise_std > 0:
            h = h + noise_rng.normal(0.0, layer.noise_std, size=h.shape)  # a constant for backward
        if i == keep:
            kept = h
    return h, kept


def _param_grads(layer: Layer, o: Layer, grad: np.ndarray, x: np.ndarray, norm: np.ndarray):
    """Write into ``o`` the parameter gradients of ``layer`` from the gradient ``grad`` at its
    pre-activations, its input ``x`` and its row norms."""
    v, g = layer.v, layer.g
    dw = np.matmul(grad.T, x, out=o.v)
    grad.sum(axis=0, out=o.b)
    gv = (dw * v).sum(axis=1)
    np.subtract((g / norm)[:, None] * dw, (g * gv / norm**3)[:, None] * v, out=o.v)
    np.divide(gv, norm, out=o.g)


def mlp_backward(
    layers: list[Layer],
    cache: list,
    grad: np.ndarray,
    out: list[Layer] | None = None,
    need_dx: bool = True,
    lane: blas.Lane | None = None,
) -> np.ndarray | None:
    """Backpropagate ``grad``, the gradient at the output of the pass that filled ``cache``.

    Returns the gradient at the pass's input (None when ``need_dx`` is
    false). Each layer's parameter gradients are written into its entry of
    ``out``, a stack laid out like ``layers`` (see :func:`flat_stack`); with
    ``out`` None the stack is a constant and only the input gradient is
    formed. The noise is a constant, so its gradient is the identity. Each
    layer forms ``dW = grad.T @ x`` once and applies the weight-norm chain
    rule (Salimans & Kingma 2016) to it. A ``lane`` forms the parameter
    gradients while the caller forms the input gradients; both are done on return.
    """
    try:
        for i in range(len(cache) - 1, -1, -1):
            x, w, norm, pre, y = cache[i]
            grad = activation_grad(layers[i].activation, grad, pre, y)
            if out is not None and lane is not None:
                lane.submit(_param_grads, layers[i], out[i], grad, x, norm)
            elif out is not None:
                _param_grads(layers[i], out[i], grad, x, norm)
            grad = grad @ w if need_dx or i > 0 else None
    finally:
        if lane is not None:
            lane.join()
    return grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Elements per block of the blocked Adam pass: a block's gradient, moments,
# weights and two temporaries take about 1.5 MB, which fits a 2 MB L2 cache.
ADAM_BLOCK = 32768
# Adam's moment decays and denominator guard: beta1 = 0.5 as in the
# feature-matching recipe of Salimans et al. 2016, the others Adam's defaults.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.5, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's step size and moments. ``m`` and ``v`` are laid out like the
    network's flat parameter buffer, which ``init_adam`` makes. ``halves``
    cuts that buffer at the block boundary nearest its middle, but not at 0:
    per part, its span and the two block buffers of its pass."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    halves: list = field(init=False, repr=False)

    def __post_init__(self):
        n = self.m.size
        mid = min(n, ADAM_BLOCK * max(1, round(n / (2 * ADAM_BLOCK))))
        self.halves = [(lo, hi, np.empty(min(ADAM_BLOCK, hi - lo)), np.empty(min(ADAM_BLOCK, hi - lo)))
                       for lo, hi in ((0, mid), (mid, n)) if lo < hi]


def init_adam(params: list[Layer], lr: float) -> AdamState:
    """Zero moments for ``params``, whose arrays are first copied into one new
    flat buffer (:func:`flat_stack`) and rebound to views of it."""
    for p, packed in zip(params, flat_stack(params)):
        for name, a in packed.named():
            a[...] = getattr(p, name)
            setattr(p, name, a)
    size = params[0].v.base.size
    return AdamState(lr=lr, m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: list[Layer],
    grads: list[Layer],
    state: AdamState,
    lane: blas.Lane | None = None,
) -> None:
    """Standard bias-corrected Adam update, in place.

    ``params`` is a stack that ``init_adam`` packed, and ``grads`` one laid
    out like it (as ``mlp_backward`` writes it). One pass over the flat
    buffers in blocks of ADAM_BLOCK elements, with the per-tensor update's
    operations in the same order, so every bit matches an update of one
    tensor at a time. A non-finite gradient raises before anything changes.
    A ``lane`` checks and updates the second of ``state.halves``.
    """
    flat, grad = params[0].v.base, grads[0].v.base
    if flat is None or grad is None or not flat.size == grad.size == state.m.size:
        raise ShapeMismatch("adam-step", np.shape(flat), np.shape(grad), state.m.shape,
                            detail="parameters vs gradients vs Adam moments")
    finite = blas.each(lambda lo, hi: bool(np.isfinite(grad[lo:hi]).all()),
                       [half[:2] for half in state.halves], lane)
    if not all(finite):
        at = int(np.argmin(np.isfinite(grad)))  # the first non-finite element
        for i, p in enumerate(params):
            for name, a in p.named():
                at -= a.size
                if at < 0:
                    raise DomainError("adam-step", f"non-finite gradient for layer {i} param {name!r}")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t

    def update(start: int, stop: int, s_buf: np.ndarray, d_buf: np.ndarray):
        for lo in range(start, stop, ADAM_BLOCK):
            hi = min(lo + ADAM_BLOCK, stop)
            g, s, d = grad[lo:hi], s_buf[: hi - lo], d_buf[: hi - lo]
            m, v = state.m[lo:hi], state.v[lo:hi]
            m *= ADAM_BETA1
            m += np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(m, c1, out=s)
            s *= state.lr
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            flat[lo:hi] -= np.divide(s, d, out=s)

    blas.each(update, state.halves, lane)


# ---------------------------------------------------------------------------
# layer blocks of a model file: little-endian binary, bit-exact round trip
# ---------------------------------------------------------------------------

_ACT_NAMES = {i: name for name, i in _ACT_CODES.items()}


def _write_array(fh, arr: np.ndarray):
    fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_array(fh, shape, source: str) -> np.ndarray:
    size = 8 * math.prod(shape)
    start = fh.tell()
    left = fh.seek(0, 2) - start
    fh.seek(start)
    if size > left:
        raise FormatError(source, f"truncated tensor: expected {size} bytes, got {left}", offset=start)
    return np.frombuffer(fh.read(size), dtype="<f8").astype(np.float64).reshape(shape)


def write_mlp_block(fh, layers: list[Layer]):
    """A layer count, then per layer its header (dims, activation code, the
    weight-norm byte 1 and noise_std) and its v, g and b."""
    fh.write(struct.pack("<I", len(layers)))
    for layer in layers:
        fh.write(struct.pack("<IIBBd", layer.in_dim, layer.out_dim, _ACT_CODES[layer.activation], 1,
                             layer.noise_std))
        for _, a in layer.named():
            _write_array(fh, a)


def read_mlp_block(fh, source: str) -> list[Layer]:
    head = fh.read(4)
    if len(head) != 4:
        raise FormatError(source, "truncated layer count")
    (n_layers,) = struct.unpack("<I", head)
    if n_layers == 0:
        raise FormatError(source, "empty layer stack", offset=fh.tell() - 4)
    layers = []
    for i in range(n_layers):
        at = fh.tell()
        raw = fh.read(struct.calcsize("<IIBBd"))
        if len(raw) != struct.calcsize("<IIBBd"):
            raise FormatError(source, f"truncated header for layer {i}")
        in_dim, out_dim, act, wn, noise_std = struct.unpack("<IIBBd", raw)
        if act not in _ACT_NAMES:
            raise FormatError(source, f"unknown activation code {act} in layer {i}", offset=at + 8)
        if layers and in_dim != layers[-1].out_dim:
            raise FormatError(source, f"layer {i} takes {in_dim} inputs but layer {i - 1} gives {layers[-1].out_dim}",
                              offset=at)
        if wn != 1:  # 0, a layer without a gain, is retired
            raise FormatError(source, f"weight-norm byte of layer {i} must be 1, got {wn}",
                              offset=at + struct.calcsize("<IIB"))
        v = _read_array(fh, (out_dim, in_dim), source)
        g = _read_array(fh, (out_dim,), source)
        b = _read_array(fh, (out_dim,), source)
        try:
            layer = Layer(v, g, b, _ACT_NAMES[act], noise_std=noise_std)
        except ValidationError as exc:
            raise FormatError(source, f"layer {i}: {exc}", offset=at) from None
        for name, a in layer.named():
            if not np.all(np.isfinite(a)):
                raise FormatError(source, f"non-finite weights in layer {i} param {name!r}")
        layers.append(layer)
    return layers
