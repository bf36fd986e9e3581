"""Tape ops that only the tests compose, and the finite-difference checker.

The runtime graph needs none of these: each loss is one ``fused`` node over
a batch's distance matrix.  The gradient oracles still build small graphs
from them (a weighted sum as ``reduce_sum(mul(out, w))``, a per-step GRU
from ``add``/``sub``/``mul``/``sigmoid``), so they live here, unchanged.
:func:`grad_check` re-evaluates such graphs in float64 against central
differences.
"""

import numpy as np

from sml.autodiff import Tape, Tensor, _accum, _require_same_shape, _result, backward


def add(tape, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("add", a, b)

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _result(tape, "add", (a, b), a.values + b.values, back)


def sub(tape, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("sub", a, b)

    def back(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(tape, "sub", (a, b), a.values - b.values, back)


def mul(tape, a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape("mul", a, b)

    def back(g):
        _accum(a, g * b.values)
        _accum(b, g * a.values)

    return _result(tape, "mul", (a, b), a.values * b.values, back)


def sigmoid(tape, x: Tensor) -> Tensor:
    # tanh form avoids exp overflow for large |x|
    y = 0.5 * (1.0 + np.tanh(0.5 * x.values))

    def back(g):
        _accum(x, g * y * (1.0 - y))

    return _result(tape, "sigmoid", (x,), y.astype(x.dtype), back)


def reduce_sum(tape, x: Tensor) -> Tensor:
    def back(g):
        _accum(x, np.full_like(x.values, g))

    return _result(tape, "reduce_sum", (x,), x.values.sum(), back)


def grad_check(build, params: dict[str, np.ndarray], h: float = 1e-3) -> float:
    """Compare tape gradients of a scalar graph against central differences.

    ``build(tape, tensors)`` must construct the graph from scratch on every
    call and return a scalar Tensor.  All arrays are promoted to float64 so
    the comparison is not polluted by single-precision noise.  Returns the
    worst ``|analytic - numeric| / max(1, |numeric|)`` over every entry of
    every parameter.
    """
    base = {k: np.asarray(v, dtype=np.float64) for k, v in params.items()}

    tape = Tape()
    tensors = {k: Tensor(v.copy(), requires_grad=True, name=k) for k, v in base.items()}
    loss = build(tape, tensors)
    if loss.values.shape != ():
        raise ValueError("grad_check: build must return a scalar")
    backward(tape, loss)
    analytic = {
        k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.values))
        for k, t in tensors.items()
    }

    def evaluate(arrays: dict[str, np.ndarray]) -> float:
        frozen = {k: Tensor(v) for k, v in arrays.items()}
        return float(build(None, frozen).values)

    worst = 0.0
    for key, arr in base.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = evaluate(base)
            flat[i] = saved - h
            down = evaluate(base)
            flat[i] = saved
            numeric = (up - down) / (2.0 * h)
            diff = abs(float(analytic[key].reshape(-1)[i]) - numeric)
            worst = max(worst, diff / max(1.0, abs(numeric)))
    return worst
