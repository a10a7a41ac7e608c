"""Fully connected building blocks: weight-normalized layers, per-layer
Gaussian noise, the Adam optimizer, and bit-exact model serialization.
"""

from __future__ import annotations

import math
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

    def named(self):
        yield "v", self.v
        if self.g is not None:
            yield "g", self.g
        yield "b", self.b


def init_mlp(specs: list[LayerSpec], rng: np.random.Generator) -> list[LayerParams]:
    """He-style init: v ~ N(0, 2/in_dim), gains 1, biases 0."""
    params = []
    for spec in specs:
        v = rng.normal(0.0, np.sqrt(2.0 / spec.in_dim), size=(spec.out_dim, spec.in_dim))
        g = Tensor(np.ones(spec.out_dim)) if spec.weight_norm else None
        params.append(LayerParams(v=Tensor(v), g=g, b=Tensor(np.zeros(spec.out_dim))))
    return params


def constant_params(params: list[LayerParams]) -> list[LayerParams]:
    """The stack's effective weights ``g * v / ||v||`` (or ``v``) and biases, as plain arrays.

    ``mlp_forward`` over the result gives the same values as over ``params``
    but keeps the weights off the tape, so gradients reach only the input.
    """
    return [
        LayerParams(
            v=p.v.data if p.g is None else ad.weight_normalize(p.v.data, p.g.data)[0],
            g=None,
            b=p.b.data,
        )
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
) -> tuple[Tensor, list[Tensor]]:
    """Run the stack; returns (final output, post-activation hidden outputs).

    Hidden outputs are the actual values fed to the next layer, i.e. they
    include the train-mode Gaussian noise when a layer specifies one.
    """
    if mode not in ("train", "eval"):
        raise ValidationError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 2:
        raise ShapeMismatch("mlp-forward", x.data.shape, detail="expects a batch (n, d)")
    _check_chain(specs, x.data.shape[1])

    h = x
    hidden: list[Tensor] = []
    for i, (spec, p) in enumerate(zip(specs, params)):
        h = ad.linear(h, p.v, p.g, p.b)
        h = _activate(h, spec.activation)
        if mode == "train" and spec.noise_std > 0:
            if noise_rng is None:
                raise ValidationError(f"layer {i} has noise_std > 0 but no noise rng was supplied")
            h = ad.gaussian_noise(h, spec.noise_std, noise_rng)
        if i < len(specs) - 1:
            hidden.append(h)
    return h, hidden


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    lr: float = 3e-4
    beta1: float = 0.5
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: list[dict[str, np.ndarray]] = field(default_factory=list)
    v: list[dict[str, np.ndarray]] = field(default_factory=list)


def init_adam(params: list[LayerParams], lr=3e-4, beta1=0.5, beta2=0.999, eps=1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for p in params:
        state.m.append({name: np.zeros_like(t.data) for name, t in p.named()})
        state.v.append({name: np.zeros_like(t.data) for name, t in p.named()})
    return state


def adam_step(
    params: list[LayerParams],
    grads: list[dict[str, np.ndarray]],
    state: AdamState,
) -> tuple[list[LayerParams], AdamState]:
    """Standard bias-corrected Adam update, in place; missing grads mean zero."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for i, p in enumerate(params):
        for name, tensor in p.named():
            grad = grads[i].get(name)
            if grad is None:
                grad = np.zeros_like(tensor.data)
            if not np.all(np.isfinite(grad)):
                raise DomainError("adam-step", f"non-finite gradient for layer {i} param {name!r}")
            m = state.m[i][name]
            v = state.v[i][name]
            m *= state.beta1
            m += (1.0 - state.beta1) * grad
            v *= state.beta2
            v += (1.0 - state.beta2) * grad * grad
            tensor.data -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
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
_KIND_MLP = 1
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


def save_mlp(path, specs: list[LayerSpec], params: list[LayerParams]):
    with open(path, "wb") as fh:
        _write_header(fh, _KIND_MLP)
        write_mlp_block(fh, specs, params)


def load_mlp(path) -> tuple[list[LayerSpec], list[LayerParams]]:
    with open(path, "rb") as fh:
        kind = _read_header(fh, str(path))
        if kind != _KIND_MLP:
            raise FormatError(str(path), f"not an MLP file (kind={kind})")
        return read_mlp_block(fh, str(path))
