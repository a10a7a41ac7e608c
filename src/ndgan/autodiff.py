"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A :class:`Tape` records every operation executed while it is active (it is a
context manager); :func:`backward` replays the records in reverse to
accumulate gradients. Tensors are plain value holders: running the same
forward code with or without an active tape produces bit-identical values.

Broadcasting is deliberately restricted: two operands must either have equal
shapes or one must equal the trailing shape of the other (a leading batch
axis), which keeps every shape rule small and testable. The one construct
that genuinely needs per-row scaling, weight normalization, lives inside the
fused layer primitive (:func:`linear`) instead of loosening the broadcast
rule.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import DomainError, ShapeMismatch, TapeError

_state = threading.local()


def _tape_stack() -> list:
    if not hasattr(_state, "stack"):
        _state.stack = []
    return _state.stack


def active_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


class suspend_tape:
    """Context manager: run forward code without recording, even inside a tape.

    Used where a sub-computation is a constant of the optimization (for
    example the real-batch feature means of the feature-matching loss).
    """

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is None


class Tensor:
    """Dense n-dimensional float64 value, optionally recorded on the active tape."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"

    # Sugar for loss arithmetic; every operator routes through a primitive op.
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    __slots__ = ("op", "input_ids", "backward", "out_shape")

    def __init__(self, op, input_ids, backward, out_shape):
        self.op = op
        self.input_ids = input_ids
        self.backward = backward
        self.out_shape = out_shape


class Tape:
    """Ordered record of operations; node order is a topological order by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._ids: dict[int, int] = {}  # id(tensor) -> node id
        self._keepalive: list[Tensor] = []  # pins id()s for the tape's lifetime

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self

    def node_of(self, t: Tensor) -> int | None:
        return self._ids.get(id(t))

    def ensure_node(self, t: Tensor) -> int:
        """Register ``t`` as a leaf if it is not already on this tape."""
        nid = self._ids.get(id(t))
        if nid is None:
            nid = self._register(t, _Node("leaf", (), None, t.data.shape))
        return nid

    def _register(self, t: Tensor, node: _Node) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        self._ids[id(t)] = nid
        self._keepalive.append(t)
        return nid

    def record(self, op: str, out: Tensor, inputs, backward) -> Tensor:
        """Extension point: record a custom differentiable primitive.

        ``backward(grad_out)`` must return one gradient array per input, in
        order (``None`` marks a constant input).
        """
        input_ids = tuple(self.ensure_node(t) for t in inputs)
        self._register(out, _Node(op, input_ids, backward, out.data.shape))
        return out


def _emit(op: str, out_data: np.ndarray, inputs, backward) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None:
        tape.record(op, out, inputs, backward)
    return out


def backward(tape: Tape, output: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar ``output`` with respect to every recorded node.

    Returns a map from node id to gradient array; look node ids up with
    ``tape.node_of(tensor)``. Gradients accumulate additively across fan-out.
    """
    out_id = tape.node_of(output)
    if out_id is None:
        raise TapeError("output tensor is not recorded on this tape (detached node)")
    if output.data.size != 1:
        raise TapeError(f"backward requires a scalar output, got shape {output.data.shape}")

    grads: dict[int, np.ndarray] = {out_id: np.ones_like(output.data)}
    for nid in range(out_id, -1, -1):
        node = tape.nodes[nid]
        g = grads.get(nid)
        if g is None or node.backward is None:
            continue
        for in_id, in_grad in zip(node.input_ids, node.backward(g)):
            if in_grad is None:
                continue
            acc = grads.get(in_id)
            grads[in_id] = in_grad if acc is None else acc + in_grad
    return grads


# ---------------------------------------------------------------------------
# broadcast handling (leading batch axis only)
# ---------------------------------------------------------------------------


def _broadcast_plan(op: str, a: np.ndarray, b: np.ndarray):
    """Return per-side leading axes to sum over in backward, or raise."""
    if a.shape == b.shape:
        return (), ()
    if a.ndim > b.ndim and a.shape[a.ndim - b.ndim :] == b.shape:
        return (), tuple(range(a.ndim - b.ndim))
    if b.ndim > a.ndim and b.shape[b.ndim - a.ndim :] == a.shape:
        return tuple(range(b.ndim - a.ndim)), ()
    raise ShapeMismatch(op, a.shape, b.shape, detail="only leading-batch-axis broadcast is supported")


def _reduce_to(g: np.ndarray, axes: tuple) -> np.ndarray:
    return g.sum(axis=axes) if axes else g


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a_axes, b_axes = _broadcast_plan("add", a.data, b.data)

    def bwd(g):
        return _reduce_to(g, a_axes), _reduce_to(g, b_axes)

    return _emit("add", a.data + b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    a_axes, b_axes = _broadcast_plan("elementwise-mul", a.data, b.data)
    ad, bd = a.data, b.data

    def bwd(g):
        return _reduce_to(g * bd, a_axes), _reduce_to(g * ad, b_axes)

    return _emit("elementwise-mul", ad * bd, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(g):
        return (g * (xd > 0),)

    return _emit("relu", np.maximum(xd, 0.0), (x,), bwd)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    xd = x.data

    def bwd(g):
        return (g * np.where(xd > 0, 1.0, slope),)

    return _emit("leaky-relu", np.maximum(xd, slope * xd), (x,), bwd)  # = where(x > 0, x, slope*x) for 0 < slope < 1


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _emit("tanh", y, (x,), bwd)


def sigmoid(x: Tensor) -> Tensor:
    # Split by sign to avoid overflow in exp for large |x|.
    xd = x.data
    y = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))), np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))

    def bwd(g):
        return (g * y * (1.0 - y),)

    return _emit("sigmoid", y, (x,), bwd)


def log(x: Tensor) -> Tensor:
    xd = x.data
    if np.any(xd <= 0):
        raise DomainError("log", f"non-positive argument (min={xd.min()})")

    def bwd(g):
        return (g / xd,)

    return _emit("log", np.log(xd), (x,), bwd)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient passes through the unclipped region."""
    xd = x.data

    def bwd(g):
        return (g * ((xd >= lo) & (xd <= hi)),)

    return _emit("clip", np.clip(xd, lo, hi), (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _emit("softmax", y, (x,), bwd)


def log_softmax(x: Tensor) -> Tensor:
    z = x.data - x.data.max(axis=-1, keepdims=True)
    y = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    def bwd(g):
        return (g - np.exp(y) * g.sum(axis=-1, keepdims=True),)

    return _emit("log-softmax", y, (x,), bwd)


def reduce_mean(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis is None:
        n = xd.size

        def bwd(g):
            return (np.full(xd.shape, float(g) / n),)

        return _emit("reduce-mean", np.asarray(xd.mean()), (x,), bwd)
    n = xd.shape[axis]

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g, axis), xd.shape) / n,)

    return _emit("reduce-mean", xd.mean(axis=axis), (x,), bwd_axis)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    xd = x.data
    if axis is None:

        def bwd(g):
            return (np.full(xd.shape, float(g)),)

        return _emit("reduce-sum", np.asarray(xd.sum()), (x,), bwd)

    def bwd_axis(g):
        return (np.broadcast_to(np.expand_dims(g, axis), xd.shape).copy(),)

    return _emit("reduce-sum", xd.sum(axis=axis), (x,), bwd_axis)


def l2_norm_squared(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(g):
        return (2.0 * xd * float(g),)

    return _emit("l2-norm-squared", np.asarray((xd * xd).sum()), (x,), bwd)


def gaussian_noise(x: Tensor, std: float, rng: np.random.Generator) -> Tensor:
    """Add i.i.d. N(0, std^2) draws; the noise is a constant for backward."""
    if std < 0:
        raise DomainError("gaussian-noise", f"negative std {std}")
    eps = rng.normal(0.0, std, size=x.data.shape)

    def bwd(g):
        return (g,)

    return _emit("gaussian-noise", x.data + eps, (x,), bwd)


def weight_normalize(v: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized weights ``W[i] = g[i] * v[i] / ||v[i]||_2`` (written to ``out`` when given)
    and the row norms ``||v[i]||_2``."""
    if v.ndim != 2 or g.shape != (v.shape[0],):
        raise ShapeMismatch("linear", v.shape, g.shape, detail="gain needs one entry per row of v")
    sq = (v * v).sum(axis=1)
    if np.any(sq == 0):
        raise DomainError("linear", "zero direction row has no unit direction")
    norm = np.sqrt(sq)
    return np.multiply((g / norm)[:, None], v, out=out), norm


def linear(x: Tensor, v, g, b, wn: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
    """Fully connected layer ``x @ W.T + b`` with ``W = g * v / ||v||`` row-wise, or ``W = v`` when ``g`` is None.

    ``v``, ``g`` and ``b`` are either all tensors, which receive gradients,
    or all plain arrays, which are constants of the optimization: then only
    ``x`` is an input of the recorded op. ``wn``, when given, is
    ``weight_normalize(v, g)`` computed beforehand. The backward forms
    ``dW = grad.T @ x`` once and applies the weight-norm chain rule
    (Salimans & Kingma 2016) to it.
    """
    trained = isinstance(v, Tensor)
    inputs = (x, *(p for p in (v, g, b) if p is not None)) if trained else (x,)
    vd, gd, bd = (p.data if isinstance(p, Tensor) else p for p in (v, g, b))
    xd = x.data
    if xd.ndim != 2 or vd.ndim != 2 or xd.shape[1] != vd.shape[1] or bd.shape != (vd.shape[0],):
        raise ShapeMismatch("linear", xd.shape, vd.shape, bd.shape)
    if gd is None:
        w = vd
    else:
        w, norm = weight_normalize(vd, gd) if wn is None else wn

    def bwd(grad):
        dx = grad @ w
        if not trained:
            return (dx,)
        dw = grad.T @ xd
        db = grad.sum(axis=0)
        if gd is None:
            return dx, dw, db
        gv = (dw * vd).sum(axis=1)
        d_g = gv / norm
        d_v = (gd / norm)[:, None] * dw - (gd * gv / norm**3)[:, None] * vd
        return dx, d_v, d_g, db

    return _emit("linear", xd @ w.T + bd, inputs, bwd)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a batch; the backward scatters into zeros elsewhere."""
    xd = x.data
    if xd.ndim < 1 or not 0 <= start <= stop <= xd.shape[0]:
        raise ShapeMismatch("slice-rows", xd.shape, detail=f"rows {start}:{stop} out of range")

    def bwd(g):
        full = np.zeros_like(xd)
        full[start:stop] = g
        return (full,)

    return _emit("slice-rows", xd[start:stop], (x,), bwd)
