"""Finite-difference gradient checks shared by the unit and acceptance suites.

The oracle side never touches the tape: it re-runs the forward computation
with perturbed inputs and differences the scalar output.
"""

import numpy as np

from ndgan import autodiff as ad
from tests.conftest import assert_grad_close, finite_difference_grad


def _away_from(values, points, margin=0.05):
    """Nudge entries that sit within ``margin`` of any kink point."""
    for p in points:
        close = np.abs(values - p) < margin
        values = np.where(close, values + 2 * margin, values)
    return values


def op_case(name: str, rng: np.random.Generator):
    """(callable inputs->Tensor, list of input arrays) for one op, with
    input ranges keeping finite differences valid (away from kinks/domains)."""
    m, k, n = rng.integers(1, 9, size=3)
    box = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)

    if name in ("linear", "linear-no-gain"):
        v = box(n, k)
        v[np.abs(v).sum(axis=1) < 0.5] += 1.0  # keep rows clearly nonzero
        if name == "linear-no-gain":
            return lambda x, v, b: ad.linear(x, v, None, b), [box(m, k), v, box(n)]
        return lambda x, v, g, b: ad.linear(x, v, g, b), [box(m, k), v, rng.uniform(0.5, 1.5, size=n), box(n)]
    if name == "slice-rows":
        start = int(rng.integers(0, m))
        stop = int(rng.integers(start + 1, m + 1))
        return lambda a: ad.slice_rows(a, start, stop), [box(m, k)]
    if name == "add":
        if rng.random() < 0.5:
            return lambda a, b: ad.add(a, b), [box(m, k), box(m, k)]
        return lambda a, b: ad.add(a, b), [box(m, k), box(k)]  # leading-axis broadcast
    if name == "elementwise-mul":
        if rng.random() < 0.5:
            return lambda a, b: ad.mul(a, b), [box(m, k), box(m, k)]
        return lambda a, b: ad.mul(a, b), [box(m, k), box(k)]
    if name == "relu":
        return lambda a: ad.relu(a), [_away_from(box(m, k), [0.0])]
    if name == "leaky-relu":
        return lambda a: ad.leaky_relu(a, 0.2), [_away_from(box(m, k), [0.0])]
    if name == "tanh":
        return lambda a: ad.tanh(a), [box(m, k)]
    if name == "sigmoid":
        return lambda a: ad.sigmoid(a), [box(m, k)]
    if name == "log":
        return lambda a: ad.log(a), [rng.uniform(0.2, 2.0, size=(m, k))]
    if name == "clip":
        return lambda a: ad.clip(a, -1.0, 1.0), [_away_from(box(m, k), [-1.0, 1.0])]
    if name == "softmax":
        return lambda a: ad.softmax(a), [box(m, k)]
    if name == "log-softmax":
        return lambda a: ad.log_softmax(a), [box(m, k)]
    if name == "reduce-mean":
        axis = rng.choice([None, 0, 1])
        return lambda a: ad.reduce_mean(a, None if axis is None else int(axis)), [box(m, k)]
    if name == "reduce-sum":
        axis = rng.choice([None, 0, 1])
        return lambda a: ad.reduce_sum(a, None if axis is None else int(axis)), [box(m, k)]
    if name == "l2-norm-squared":
        return lambda a: ad.l2_norm_squared(a), [box(m, k)]
    raise KeyError(name)


CHECKED_OPS = [
    "linear", "linear-no-gain", "slice-rows", "add", "elementwise-mul", "relu", "leaky-relu",
    "tanh", "sigmoid", "log", "clip", "softmax", "log-softmax",
    "reduce-mean", "reduce-sum", "l2-norm-squared",
]


def check_op_gradient(name: str, seed: int):
    """Compare tape gradients of one op against central finite differences."""
    rng = np.random.default_rng(seed)
    build, arrays = op_case(name, rng)
    tensors = [ad.Tensor(a) for a in arrays]
    # reduce the op output to a scalar with a fixed random functional
    out_shape = build(*tensors).data.shape
    weights = np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=out_shape)

    def scalar():
        return float((build(*tensors).data * weights).sum())

    with ad.Tape() as tape:
        s = ad.reduce_sum(ad.mul(build(*tensors), ad.Tensor(weights)))
        grad_map = ad.backward(tape, s)
    for t, arr in zip(tensors, arrays):
        analytic = grad_map.get(tape.node_of(t))
        assert analytic is not None, f"{name}: input never received a gradient"
        numeric = finite_difference_grad(scalar, arr)
        assert_grad_close(analytic, numeric)
