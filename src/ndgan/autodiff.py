"""A minimal reverse-mode tape. No module of the package uses it: training
runs the explicit passes of ``layers`` and the closed-form loss heads of
``gan``. The benchmark's tracer binds :meth:`Tape.record`.

A :class:`Tape` records the custom operations passed to :meth:`Tape.record`
(``with Tape() as tape`` opens one); :func:`backward` replays the records
in reverse to accumulate gradients. A recorded value is any object
holding its array as ``.data``.
"""

from __future__ import annotations

import numpy as np

from .errors import TapeError


class _Node:
    __slots__ = ("op", "input_ids", "backward")

    def __init__(self, op, input_ids, backward):
        self.op = op
        self.input_ids = input_ids
        self.backward = backward


class Tape:
    """Ordered record of operations; node order is a topological order by construction."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._ids: dict[int, int] = {}  # id(tensor) -> node id
        self._keepalive: list = []  # pins id()s for the tape's lifetime

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, exc_type, exc, tb):
        pass

    def node_of(self, t) -> int | None:
        return self._ids.get(id(t))

    def ensure_node(self, t) -> int:
        """Register ``t`` as a leaf if it is not already on this tape."""
        nid = self._ids.get(id(t))
        if nid is None:
            nid = self._register(t, _Node("leaf", (), None))
        return nid

    def _register(self, t, node: _Node) -> int:
        nid = len(self.nodes)
        self.nodes.append(node)
        self._ids[id(t)] = nid
        self._keepalive.append(t)
        return nid

    def record(self, op: str, out, inputs, backward):
        """Extension point: record a custom differentiable primitive.

        ``backward(grad_out)`` must return one gradient array per input, in
        order (``None`` marks a constant input).
        """
        input_ids = tuple(self.ensure_node(t) for t in inputs)
        self._register(out, _Node(op, input_ids, backward))
        return out


def backward(tape: Tape, output) -> dict[int, np.ndarray]:
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
        grad = grads.get(nid)
        if grad is None or node.backward is None:
            continue
        for in_id, in_grad in zip(node.input_ids, node.backward(grad)):
            if in_grad is None:
                continue
            acc = grads.get(in_id)
            grads[in_id] = in_grad if acc is None else acc + in_grad
    return grads

