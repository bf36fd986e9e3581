"""Minimal reverse-mode automatic differentiation on numpy buffers.

A ``Tape`` records every differentiable operation in execution order; calling
:func:`backward` replays the records in exact reverse order, accumulating
gradients with ``+=`` so fan-out is handled naturally.  Only the operations
needed by the session/item encoders and ranking losses are provided.  The
elementwise ops take operands of one shape; the only broadcasts are bias
addition in :func:`dense` and rows against a vector in
:func:`cosine_distance`.  Matrix inputs to :func:`l2_normalize` and
:func:`cosine_distance` are taken row by row, so a batch of items and its
loss cost a handful of ops.  :func:`gru_sequence` records a whole
recurrence as one node whose backward is a hand-written backpropagation
through time, and :func:`fused` records one node for a function whose
values and local derivatives the caller computed in numpy (each ranking
loss is one).

Scalars are represented as 0-d arrays.  Training code runs in float32; the
finite-difference checker :func:`grad_check` re-evaluates graphs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class Tensor:
    """A numpy array plus an optional gradient buffer of the same shape."""

    __slots__ = ("values", "grad", "requires_grad", "name")

    def __init__(self, values, requires_grad: bool = False, name: str | None = None):
        self.values = np.asarray(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape}, requires_grad={self.requires_grad})"


def parameter(values, name: str | None = None) -> Tensor:
    """Leaf tensor that receives gradients."""
    return Tensor(np.asarray(values), requires_grad=True, name=name)


def constant(values, dtype=None, name: str | None = None) -> Tensor:
    arr = np.asarray(values, dtype=dtype)
    return Tensor(arr, requires_grad=False, name=name)


@dataclass
class Node:
    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], None]


class Tape:
    """Ordered record of operations; backward walks it once, in reverse."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._outputs: set[int] = set()

    @property
    def nodes(self) -> list[Node]:
        return self._nodes

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn: Callable[[np.ndarray], None]) -> None:
        self._nodes.append(Node(op, tuple(inputs), output, backward_fn))
        self._outputs.add(id(output))

    def produced(self, tensor: Tensor) -> bool:
        return id(tensor) in self._outputs


def _accum(tensor: Tensor, grad: np.ndarray) -> None:
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.values)
    tensor.grad += grad


def _result(tape: Tape | None, op: str, inputs: Sequence[Tensor], values: np.ndarray,
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(values, requires_grad=any(t.requires_grad for t in inputs))
    if tape is not None and out.requires_grad:
        tape.record(op, inputs, out, backward_fn)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed d(loss)/d(loss) = 1 and propagate through the tape in reverse."""
    if loss.values.shape != ():
        raise ValueError("backward requires a scalar loss, got shape %r" % (loss.shape,))
    if not tape.produced(loss):
        raise ValueError("loss tensor was not produced on this tape")
    loss.grad = np.ones_like(loss.values)
    for node in reversed(tape.nodes):
        if node.output.grad is None:
            continue
        node.backward_fn(node.output.grad)


def _require_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


# ---------------------------------------------------------------------------
# elementwise / scalar ops
# ---------------------------------------------------------------------------

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


def scale(tape, x: Tensor, c: float) -> Tensor:
    def back(g):
        _accum(x, g * c)

    return _result(tape, "scale", (x,), x.values * x.dtype.type(c), back)


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


def fused(tape, op: str, inputs: Sequence[Tensor], values, slopes: Sequence) -> Tensor:
    """One node for a function whose values and local derivatives the caller
    computed.

    The inputs share one shape, and ``values`` has that shape (an
    elementwise function: entry k reads entry k of each input) or is a
    scalar.  ``slopes[i]`` has the inputs' shape and holds
    d values[k] / d inputs[i][k], or d values / d inputs[i][k] for a scalar,
    so either way the backward multiplies the incoming gradient by each
    slope.  Values and slopes are cast to the first input's dtype.
    """
    inputs = tuple(inputs)
    for t in inputs[1:]:
        _require_same_shape(op, inputs[0], t)
    shape, dtype = inputs[0].shape, inputs[0].dtype
    values = np.asarray(values, dtype=dtype)
    slopes = [np.asarray(s, dtype=dtype) for s in slopes]
    if values.shape not in ((), shape) or [s.shape for s in slopes] != [shape] * len(inputs):
        raise ValueError(f"{op}: values or slopes do not match the inputs' shape")

    def back(g):
        for t, s in zip(inputs, slopes):
            _accum(t, g * s)

    return _result(tape, op, inputs, values, back)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def stack_scalars(tape, items: Sequence[Tensor]) -> Tensor:
    if not items:
        raise ValueError("stack_scalars: empty input")
    for t in items:
        if t.values.shape != ():
            raise ValueError("stack_scalars expects scalar tensors")
    items = tuple(items)

    def back(g):
        for i, t in enumerate(items):
            _accum(t, g[i])

    values = np.stack([t.values for t in items])
    return _result(tape, "stack_scalars", items, values, back)


def concat(tape, parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ValueError("concat: empty input")
    for t in parts:
        if t.ndim != 1:
            raise ValueError("concat expects 1-d inputs")
    parts = tuple(parts)
    sizes = [t.shape[0] for t in parts]

    def back(g):
        off = 0
        for t, size in zip(parts, sizes):
            _accum(t, g[off:off + size])
            off += size

    return _result(tape, "concat", parts, np.concatenate([t.values for t in parts]), back)


def pad_rows(tape, x: Tensor, total_rows: int) -> Tensor:
    """Append zero rows so the result has exactly ``total_rows`` rows."""
    if x.ndim != 2:
        raise ValueError("pad_rows expects a 2-d input")
    t = x.shape[0]
    if total_rows < t:
        raise ValueError(f"pad_rows: total_rows {total_rows} < current rows {t}")

    def back(g):
        _accum(x, g[:t])

    values = np.zeros((total_rows, x.shape[1]), dtype=x.dtype)
    values[:t] = x.values
    return _result(tape, "pad_rows", (x,), values, back)


# ---------------------------------------------------------------------------
# table / sequence ops
# ---------------------------------------------------------------------------

def embedding_lookup(tape, table: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather along axis 0: rows of a matrix, or entries of a vector.

    Backward scatter-adds into the table grad, so a repeated index receives
    the sum of its gradients.
    """
    if table.ndim not in (1, 2):
        raise ValueError("embedding_lookup expects a 1-d or 2-d table")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("embedding_lookup expects a 1-d index list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError("embedding_lookup: index out of range")

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.values)
            np.add.at(table.grad, idx, g)

    return _result(tape, "embedding_lookup", (table,), table.values[idx].copy(), back)


def dense(tape, x: Tensor, w: Tensor, b: Tensor | None = None,
          activation: str = "none") -> Tensor:
    """Affine map ``x @ w (+ b)`` with optional ``tanh``/``sigmoid`` squashing.

    ``x`` may be a single vector or a matrix of row vectors; a vector input
    yields a vector output.
    """
    if activation not in ("none", "tanh", "sigmoid"):
        raise ValueError(f"dense: unknown activation {activation!r}")
    if w.ndim != 2:
        raise ValueError("dense expects a 2-d weight")
    squeeze = x.ndim == 1
    xv = x.values[None, :] if squeeze else x.values
    if xv.ndim != 2 or xv.shape[1] != w.shape[0]:
        raise ValueError(f"dense: shape mismatch {x.shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ValueError(f"dense: bias shape {b.shape} does not match {w.shape}")

    pre = xv @ w.values
    if b is not None:
        pre = pre + b.values
    if activation == "tanh":
        out = np.tanh(pre)
    elif activation == "sigmoid":
        out = 0.5 * (1.0 + np.tanh(0.5 * pre))
        out = out.astype(pre.dtype)
    else:
        out = pre

    def back(g):
        g2 = g[None, :] if squeeze else g
        if activation == "tanh":
            g2 = g2 * (1.0 - out * out)
        elif activation == "sigmoid":
            g2 = g2 * out * (1.0 - out)
        _accum(x, (g2 @ w.values.T)[0] if squeeze else g2 @ w.values.T)
        _accum(w, xv.T @ g2)
        if b is not None:
            _accum(b, g2.sum(axis=0))

    values = out[0] if squeeze else out
    inputs = (x, w) if b is None else (x, w, b)
    return _result(tape, "dense", inputs, values, back)


def seq_pool(tape, x: Tensor, mode: str, mask_length: int) -> Tensor:
    """Column-wise max or mean over the first ``mask_length`` rows.

    Max routes the gradient to the first row attaining the maximum in each
    column; mean spreads it uniformly over the unmasked rows.
    """
    if x.ndim != 2:
        raise ValueError("seq_pool expects a 2-d input")
    if mode not in ("max", "mean"):
        raise ValueError(f"seq_pool: unknown mode {mode!r}")
    if not 1 <= mask_length <= x.shape[0]:
        raise ValueError(f"seq_pool: mask_length {mask_length} out of range for {x.shape}")

    window = x.values[:mask_length]
    if mode == "max":
        arg = window.argmax(axis=0)  # first occurrence on ties
        values = window.max(axis=0)

        def back(g):
            if x.requires_grad:
                buf = np.zeros_like(x.values)
                np.add.at(buf, (arg, np.arange(x.shape[1])), g)
                _accum(x, buf)
    else:
        values = window.mean(axis=0)

        def back(g):
            if x.requires_grad:
                buf = np.zeros_like(x.values)
                buf[:mask_length] = g / x.dtype.type(mask_length)
                _accum(x, buf)

    return _result(tape, "seq_pool", (x,), values, back)


def conv1d(tape, x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid (no padding) 1-d convolution over the row axis.

    ``x`` is ``[t, d_in]``, ``filters`` is ``[k, d_in, d_out]``; the output has
    ``t - k + 1`` rows.
    """
    if x.ndim != 2 or filters.ndim != 3:
        raise ValueError("conv1d: expected 2-d input and 3-d filters")
    k, d_in, d_out = filters.shape
    t = x.shape[0]
    if x.shape[1] != d_in:
        raise ValueError(f"conv1d: input width {x.shape[1]} != filter width {d_in}")
    if bias.shape != (d_out,):
        raise ValueError(f"conv1d: bias shape {bias.shape} != ({d_out},)")
    if k > t:
        raise ValueError(f"conv1d: filter length {k} exceeds sequence length {t}")

    t_out = t - k + 1
    values = np.tile(bias.values, (t_out, 1))
    for a in range(k):
        values = values + x.values[a:a + t_out] @ filters.values[a]

    def back(g):
        if x.requires_grad:
            gx = np.zeros_like(x.values)
            for a in range(k):
                gx[a:a + t_out] += g @ filters.values[a].T
            _accum(x, gx)
        if filters.requires_grad:
            gf = np.zeros_like(filters.values)
            for a in range(k):
                gf[a] = x.values[a:a + t_out].T @ g
            _accum(filters, gf)
        _accum(bias, g.sum(axis=0))

    return _result(tape, "conv1d", (x, filters, bias), values.astype(x.dtype), back)


def l2_normalize(tape, x: Tensor, eps: float = 1e-12) -> Tensor:
    """Project a vector, or each row of a matrix, onto the unit sphere.

    A row with norm below ``eps`` is divided by ``eps``, so a zero row stays 0.
    """
    if x.ndim not in (1, 2):
        raise ValueError("l2_normalize expects a 1-d or 2-d input")
    norm = np.sqrt((x.values * x.values).sum(axis=-1, keepdims=True))
    denom = np.maximum(norm, x.dtype.type(eps))
    y = x.values / denom

    def back(g):
        # a clamped row is divided by a constant: no projection term
        proj = (y * g).sum(axis=-1, keepdims=True) * (norm >= eps)
        _accum(x, (g - y * proj) / denom)

    return _result(tape, "l2_normalize", (x,), y, back)


def cosine_distance(tape, a: Tensor, b: Tensor) -> Tensor:
    """``1 - a.b`` for unit vectors; plain algebra, no re-normalisation.

    Compares two vectors, two matrices row by row, or every row of ``a``
    with the vector ``b``.
    """
    rows_vs_vector = a.ndim == 2 and b.shape == a.shape[1:]
    if not (rows_vs_vector or (a.shape == b.shape and a.ndim in (1, 2))):
        raise ValueError(f"cosine_distance: cannot compare {a.shape} with {b.shape}")
    dots = a.values @ b.values if b.ndim == 1 else (a.values * b.values).sum(axis=1)

    def back(g):
        g_rows = g[:, None] if a.ndim == 2 else g
        _accum(a, -g_rows * b.values)
        _accum(b, -(g @ a.values) if rows_vs_vector else -g_rows * a.values)

    values = np.asarray(a.dtype.type(1.0) - dots)
    return _result(tape, "cosine_distance", (a, b), values, back)


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

@dataclass
class GRUParams:
    """Weights of a single GRU layer (update/reset gates and candidate)."""
    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    def named(self, prefix: str = "gru") -> dict[str, Tensor]:
        return {
            f"{prefix}.w_update": self.w_update, f"{prefix}.u_update": self.u_update,
            f"{prefix}.b_update": self.b_update, f"{prefix}.w_reset": self.w_reset,
            f"{prefix}.u_reset": self.u_reset, f"{prefix}.b_reset": self.b_reset,
            f"{prefix}.w_cand": self.w_cand, f"{prefix}.u_cand": self.u_cand,
            f"{prefix}.b_cand": self.b_cand,
        }


def gru_sequence(tape, x: Tensor, params: GRUParams, h0: Tensor) -> Tensor:
    """Run a GRU over the rows of ``x`` and return the final hidden state.

    The recurrence is the usual gated update

        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        c_t = tanh(x_t W_c + (r_t * h_{t-1}) U_c + b_c)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    The whole sequence is one tape node.  Forward projects every row of
    ``x`` at once and steps only the recurrent products, keeping each
    step's gates; backward is hand-written backpropagation through the full
    sequence (no truncation), with one matmul per weight gradient after the
    loop.  The update and reset weights are joined at call time.
    """
    if x.ndim != 2:
        raise ValueError("gru_sequence expects a 2-d input")
    if x.shape[0] == 0:
        raise ValueError("gru_sequence: empty sequence")
    hidden = params.u_update.shape[0]
    if h0.ndim != 1 or h0.shape[0] != hidden:
        raise ValueError("gru_sequence: h0 shape does not match hidden size")
    if x.shape[1] != params.w_update.shape[0]:
        raise ValueError(f"gru_sequence: input width {x.shape[1]} does not match "
                         f"w_update {params.w_update.shape}")

    p = params
    xv = x.values
    w_zr = np.concatenate([p.w_update.values, p.w_reset.values], axis=1)
    u_zr = np.concatenate([p.u_update.values, p.u_reset.values], axis=1)
    w_c, u_c = p.w_cand.values, p.u_cand.values
    in_zr = xv @ w_zr + np.concatenate([p.b_update.values, p.b_reset.values])
    in_c = xv @ w_c + p.b_cand.values

    steps = xv.shape[0]
    dtype = np.result_type(in_zr, in_c, h0.values, u_zr, u_c)
    hs = np.empty((steps + 1, hidden), dtype=dtype)  # hs[t] is h_{t-1}
    hs[0] = h0.values
    zr = np.empty((steps, 2 * hidden), dtype=dtype)
    rh = np.empty((steps, hidden), dtype=dtype)
    c = np.empty((steps, hidden), dtype=dtype)
    for t in range(steps):
        h = hs[t]
        zr[t] = 0.5 * (1.0 + np.tanh(0.5 * (in_zr[t] + h @ u_zr)))
        z = zr[t, :hidden]
        rh[t] = zr[t, hidden:] * h
        c[t] = np.tanh(in_c[t] + rh[t] @ u_c)
        hs[t + 1] = (1.0 - z) * h + z * c[t]

    def back(g):
        d_zr = np.empty_like(zr)
        d_c = np.empty_like(c)
        zr_slope = zr * (1.0 - zr)
        c_slope = 1.0 - c * c
        dh = g
        for t in range(steps - 1, -1, -1):
            h = hs[t]
            z = zr[t, :hidden]
            d_c[t] = dh * z * c_slope[t]
            d_rh = d_c[t] @ u_c.T
            d_zr[t, :hidden] = dh * (c[t] - h) * zr_slope[t, :hidden]
            d_zr[t, hidden:] = d_rh * h * zr_slope[t, hidden:]
            dh = dh * (1.0 - z) + d_rh * zr[t, hidden:] + d_zr[t] @ u_zr.T
        _accum(h0, dh)
        if x.requires_grad:
            _accum(x, d_zr @ w_zr.T + d_c @ w_c.T)
        g_w, g_u, g_b = xv.T @ d_zr, hs[:-1].T @ d_zr, d_zr.sum(axis=0)
        _accum(p.w_update, g_w[:, :hidden])
        _accum(p.w_reset, g_w[:, hidden:])
        _accum(p.u_update, g_u[:, :hidden])
        _accum(p.u_reset, g_u[:, hidden:])
        _accum(p.b_update, g_b[:hidden])
        _accum(p.b_reset, g_b[hidden:])
        _accum(p.w_cand, xv.T @ d_c)
        _accum(p.u_cand, rh.T @ d_c)
        _accum(p.b_cand, d_c.sum(axis=0))

    inputs = (x, h0, *p.named().values())
    return _result(tape, "gru_sequence", inputs, hs[steps].copy(), back)


# ---------------------------------------------------------------------------
# parameters and Adam
# ---------------------------------------------------------------------------

class ParamSet:
    """Named trainable tensors plus their Adam moment buffers."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step = 0

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} already registered")
        tensor.requires_grad = True
        tensor.name = name
        self._params[name] = tensor
        self._m[name] = np.zeros_like(tensor.values)
        self._v[name] = np.zeros_like(tensor.values)
        return tensor

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]


def adam_step(params: ParamSet, lr: float = 0.001, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One bias-corrected Adam update; gradients are consumed and cleared."""
    params.step += 1
    t = params.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.values)
        m = params._m[name]
        v = params._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.values -= (lr / c1) * m / (np.sqrt(v / c2) + eps)
        p.grad = None


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

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
