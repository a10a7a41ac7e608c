"""Fully connected building blocks: weight-normalized layers, per-layer
Gaussian noise, the Adam optimizer, and bit-exact model serialization.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DomainError, FormatError, ShapeMismatch, ValidationError

ACTIVATIONS = ("relu", "leaky-relu", "tanh", "sigmoid", "linear", "softmax")
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"
    weight_norm: bool = False
    noise_std: float = 0.0  # applied to the layer output in train mode only

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValidationError(f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValidationError(f"unknown activation {self.activation!r}; have {ACTIVATIONS}")
        if self.noise_std < 0:
            raise ValidationError(f"noise_std must be >= 0, got {self.noise_std}")


@dataclass
class LayerParams:
    """One layer's parameters: direction rows v (out x in), optional gain g, bias b.

    Tensors are trained; plain arrays (see :func:`constant_params`) are
    constants that ``mlp_forward`` records no gradient for.
    """

    v: Tensor | np.ndarray
    g: Tensor | np.ndarray | None
    b: Tensor | np.ndarray
    # ``weight_normalize(v, g)`` while v and g stay unchanged; see cache_weights
    wn: tuple[np.ndarray, np.ndarray] | None = None

    def named(self):
        yield "v", self.v
        if self.g is not None:
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


def init_mlp(specs: list[LayerSpec], rng: np.random.Generator) -> list[LayerParams]:
    """He-style init: v ~ N(0, 2/in_dim), gains 1, biases 0.

    Every tensor is a view of one flat buffer, in ``named()`` order, which
    Adam updates in one blocked pass.
    """
    shapes = []
    for spec in specs:
        shapes += [(spec.out_dim, spec.in_dim)] + [(spec.out_dim,)] * (2 if spec.weight_norm else 1)
    views = iter(_carve(shapes))
    params = []
    for spec in specs:
        v = next(views)
        v[...] = rng.normal(0.0, np.sqrt(2.0 / spec.in_dim), size=v.shape)
        g = next(views) if spec.weight_norm else None
        if g is not None:
            g[...] = 1.0
        params.append(LayerParams(v=Tensor(v), g=None if g is None else Tensor(g), b=Tensor(next(views))))
    return params


def cache_weights(params: list[LayerParams]):
    """Store each weight-normalized layer's effective weights and row norms on it.

    ``mlp_forward`` and ``constant_params`` then reuse them instead of
    normalizing again. The cache is only right while v and g stay unchanged:
    refresh it after every update and clear it with ``drop_weights`` before
    the arrays are edited any other way. A refresh writes the weights into
    the previous cache's arrays, which keeps them in place in memory, so no
    tape that captured them may be used after it.
    """
    for p in params:
        if p.g is not None:
            p.wn = ad.weight_normalize(p.v.data, p.g.data, out=None if p.wn is None else p.wn[0])


def drop_weights(params: list[LayerParams]):
    """Clear what ``cache_weights`` stored: passes normalize from the arrays again."""
    for p in params:
        p.wn = None


def constant_params(params: list[LayerParams]) -> list[LayerParams]:
    """The stack's effective weights ``g * v / ||v||`` (or ``v``) and biases, as plain arrays.

    ``mlp_forward`` over the result gives the same values as over ``params``
    but keeps the weights off the tape, so gradients reach only the input.
    """
    return [
        LayerParams(v=p.v.data if p.g is None else (p.wn or ad.weight_normalize(p.v.data, p.g.data))[0],
                    g=None, b=p.b.data)
        for p in params
    ]


def _check_chain(specs: list[LayerSpec], in_width: int):
    if not specs:
        raise ValidationError("empty layer stack")
    if specs[0].in_dim != in_width:
        raise ShapeMismatch("mlp-forward", (in_width,), (specs[0].in_dim,), detail="input width vs layer 0")
    for i in range(1, len(specs)):
        if specs[i].in_dim != specs[i - 1].out_dim:
            raise ShapeMismatch(
                "mlp-forward",
                (specs[i - 1].out_dim,),
                (specs[i].in_dim,),
                detail=f"dimension chain breaks at layer {i}",
            )


def _activate(h: Tensor, kind: str) -> Tensor:
    if kind == "relu":
        return ad.relu(h)
    if kind == "leaky-relu":
        return ad.leaky_relu(h, LEAKY_SLOPE)
    if kind == "tanh":
        return ad.tanh(h)
    if kind == "sigmoid":
        return ad.sigmoid(h)
    if kind == "softmax":
        return ad.softmax(h)
    return h  # linear


def mlp_forward(
    params: list[LayerParams],
    specs: list[LayerSpec],
    x: Tensor,
    mode: str = "eval",
    noise_rng: np.random.Generator | None = None,
    keep: int | None = None,
) -> tuple[Tensor, Tensor | None]:
    """Run the stack; returns (final output, post-activation output of layer ``keep`` or None).

    The kept output is the actual value fed to the next layer, i.e. it
    includes the train-mode Gaussian noise when the layer specifies one.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 2:
        raise ShapeMismatch("mlp-forward", x.data.shape, detail="expects a batch (n, d)")
    _check_chain(specs, x.data.shape[1])

    h, kept = x, None
    for i, (spec, p) in enumerate(zip(specs, params)):
        h = ad.linear(h, p.v, p.g, p.b, p.wn)
        h = _activate(h, spec.activation)
        if mode == "train" and spec.noise_std > 0:
            if noise_rng is None:
                raise ValidationError(f"layer {i} has noise_std > 0 but no noise rng was supplied")
            h = ad.gaussian_noise(h, spec.noise_std, noise_rng)
        if i == keep:
            kept = h
    return h, kept


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Elements per block of the blocked Adam pass: a block's gradient, moments,
# weights and two temporaries take about 1.5 MB, which fits a 2 MB L2 cache.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    """Adam's settings and moments. ``m`` and ``v`` are laid out like the
    network's flat parameter buffer, whose tensors ``slots`` lists."""

    lr: float = 3e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    slots: list[tuple[int, str, int, int, np.ndarray]] = field(default_factory=list, repr=False)


def _pack(params: list[LayerParams]) -> list[tuple[int, str, int, int, np.ndarray]]:
    """(layer, name, start, stop, array) of each tensor of the stack in its flat buffer.

    ``init_mlp`` lays a stack out this way; any other stack (hand-built, or
    with a tensor's array replaced) is first copied into a new buffer, and
    its tensors rebound to views of it.
    """
    tensors = [(i, name, t) for i, p in enumerate(params) for name, t in p.named()]
    starts = np.cumsum([0] + [t.data.size for _, _, t in tensors]).tolist()
    flat = tensors[0][2].data.base
    packed = flat is not None and flat.ndim == 1 and flat.size == starts[-1] and flat.dtype == np.float64
    if packed:
        addr = flat.__array_interface__["data"][0]
        packed = all(
            t.data.base is flat and t.data.flags.c_contiguous
            and t.data.__array_interface__["data"][0] == addr + 8 * start
            for (_, _, t), start in zip(tensors, starts)
        )
    if not packed:
        for view, (_, _, t) in zip(_carve([t.data.shape for _, _, t in tensors]), tensors):
            view[...] = t.data
            t.data = view
    return [(i, name, start, stop, t.data) for (i, name, t), start, stop in zip(tensors, starts, starts[1:])]


def init_adam(params: list[LayerParams], lr=3e-4, beta1=0.5, beta2=0.999, eps=1e-8) -> AdamState:
    slots = _pack(params)
    size = slots[-1][3]
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, m=np.zeros(size), v=np.zeros(size), slots=slots)


def _blocks(slots, size: int):
    """(lo, hi, [(slot index, start, stop)]) for each ADAM_BLOCK-sized block of the flat buffer."""
    first = 0
    for lo in range(0, size, ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, size)
        while slots[first][3] <= lo:
            first += 1
        pieces, k = [], first
        while k < len(slots) and slots[k][2] < hi:
            pieces.append((k, max(lo, slots[k][2]), min(hi, slots[k][3])))
            k += 1
        yield lo, hi, pieces


def adam_step(
    params: list[LayerParams],
    grads: list[dict[str, np.ndarray]],
    state: AdamState,
) -> tuple[list[LayerParams], AdamState]:
    """Standard bias-corrected Adam update, in place; missing grads mean zero.

    One pass over the network's flat buffer in blocks of ADAM_BLOCK elements,
    with the per-tensor update's operations in the same order, so every bit
    matches an update of one tensor at a time.
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    arrays = [tensor.data for p in params for _, tensor in p.named()]
    if len(arrays) != len(state.slots) or not all(map(operator.is_, arrays, (s[4] for s in state.slots))):
        slots = _pack(params)  # a tensor's array was replaced since init_adam
        if [s[2:4] for s in slots] != [s[2:4] for s in state.slots]:
            raise ShapeMismatch("adam-step", (slots[-1][3],), state.m.shape, detail="parameters vs Adam moments")
        state.slots = slots
    slots = state.slots
    flat = slots[0][4].base
    flat_grads = []
    for i, name, _, _, _ in slots:
        grad = grads[i].get(name)
        flat_grads.append(None if grad is None else grad.reshape(-1))
    n = min(ADAM_BLOCK, flat.size)
    g_buf, s_buf, d_buf = np.empty(n), np.empty(n), np.empty(n)
    for lo, hi, pieces in _blocks(slots, flat.size):
        s, d = s_buf[: hi - lo], d_buf[: hi - lo]
        k, a, b = pieces[0]
        if len(pieces) == 1 and flat_grads[k] is not None:  # inside one tensor: no gather
            g = flat_grads[k][a - slots[k][2] : b - slots[k][2]]
        else:
            g = g_buf[: hi - lo]
            for k, a, b in pieces:
                start, grad = slots[k][2], flat_grads[k]
                g[a - lo : b - lo] = 0.0 if grad is None else grad[a - start : b - start]
        if not np.isfinite(g).all():
            for k, a, b in pieces:
                if not np.isfinite(g[a - lo : b - lo]).all():
                    i, name = slots[k][:2]
                    raise DomainError("adam-step", f"non-finite gradient for layer {i} param {name!r}")
        m, v = state.m[lo:hi], state.v[lo:hi]
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=s)
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(m, c1, out=s)
        s *= state.lr
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += state.eps
        flat[lo:hi] -= np.divide(s, d, out=s)
    return params, state


def collect_grads(tape: ad.Tape, grad_map: dict[int, np.ndarray], params: list[LayerParams]):
    """Pull per-parameter gradients out of a backward() result."""
    out = []
    for p in params:
        layer = {}
        for name, tensor in p.named():
            nid = tape.node_of(tensor)
            if nid is not None and nid in grad_map:
                layer[name] = grad_map[nid]
        out.append(layer)
    return out


# ---------------------------------------------------------------------------
# serialization: little-endian binary, bit-exact round trip
# ---------------------------------------------------------------------------

MAGIC = b"NDGAN1"
FORMAT_VERSION = 1
_KIND_GAN = 2
_ACT_CODES = {name: i for i, name in enumerate(ACTIVATIONS)}
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


def write_mlp_block(fh, specs: list[LayerSpec], params: list[LayerParams]):
    fh.write(struct.pack("<I", len(specs)))
    for spec, p in zip(specs, params):
        fh.write(
            struct.pack(
                "<IIBBd",
                spec.in_dim,
                spec.out_dim,
                _ACT_CODES[spec.activation],
                1 if spec.weight_norm else 0,
                spec.noise_std,
            )
        )
        _write_array(fh, p.v.data)
        if spec.weight_norm:
            _write_array(fh, p.g.data)
        _write_array(fh, p.b.data)


def read_mlp_block(fh, source: str) -> tuple[list[LayerSpec], list[LayerParams]]:
    head = fh.read(4)
    if len(head) != 4:
        raise FormatError(source, "truncated layer count")
    (n_layers,) = struct.unpack("<I", head)
    if n_layers == 0:
        raise FormatError(source, "empty layer stack", offset=fh.tell() - 4)
    specs, params = [], []
    for i in range(n_layers):
        raw = fh.read(struct.calcsize("<IIBBd"))
        if len(raw) != struct.calcsize("<IIBBd"):
            raise FormatError(source, f"truncated header for layer {i}")
        in_dim, out_dim, act, wn, noise_std = struct.unpack("<IIBBd", raw)
        if act not in _ACT_NAMES:
            raise FormatError(source, f"unknown activation code {act} in layer {i}")
        spec = LayerSpec(in_dim, out_dim, _ACT_NAMES[act], bool(wn), noise_std)
        v = Tensor(_read_array(fh, (out_dim, in_dim), source))
        g = Tensor(_read_array(fh, (out_dim,), source)) if wn else None
        b = Tensor(_read_array(fh, (out_dim,), source))
        layer = LayerParams(v=v, g=g, b=b)
        for name, t in layer.named():
            if not np.all(np.isfinite(t.data)):
                raise FormatError(source, f"non-finite weights in layer {i} param {name!r}")
        specs.append(spec)
        params.append(layer)
    return specs, params


def _write_header(fh, kind: int):
    fh.write(MAGIC)
    fh.write(struct.pack("<IB", FORMAT_VERSION, kind))


def _read_header(fh, source: str) -> int:
    magic = fh.read(len(MAGIC))
    if magic != MAGIC:
        raise FormatError(source, f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    raw = fh.read(struct.calcsize("<IB"))
    if len(raw) != struct.calcsize("<IB"):
        raise FormatError(source, "truncated file header", offset=len(MAGIC))
    version, kind = struct.unpack("<IB", raw)
    if version != FORMAT_VERSION:
        raise FormatError(source, f"unsupported format version {version}")
    return kind
