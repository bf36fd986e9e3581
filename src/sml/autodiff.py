"""Minimal reverse-mode automatic differentiation on numpy buffers.

A ``Tape`` records every differentiable operation in execution order; calling
:func:`backward` replays the records in exact reverse order, accumulating
gradients with ``+=`` so fan-out is handled naturally.  Only the operations
the encoders and ranking losses need are provided, and training records one
graph per mini-batch: the sequence ops take a padded ``[B, T, d]`` batch
with one length per sequence, while a 2-d input still means one sequence,
computed exactly as before (what serving uses).  :func:`gru_sequence` is
one node with a hand-written backpropagation through time, and
:func:`fused` records one node for a function whose values and local
derivatives the caller computed in numpy (each batch's ranking loss is
one).  Scalars are 0-d arrays; training runs in float32.
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
    if tensor.grad is None:  # a fresh buffer: ``grad`` may be a view
        tensor.grad = np.array(np.broadcast_to(grad, tensor.shape), dtype=tensor.dtype)
    else:
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


def fused(tape, op: str, inputs: Sequence[Tensor], values, slopes: Sequence) -> Tensor:
    """One node for a function whose values and local derivatives the caller
    computed, cast to the first input's dtype.

    Either ``values`` is a scalar and ``slopes[i]``, shaped like
    ``inputs[i]``, holds d values / d inputs[i][k]; or the inputs and
    ``values`` share one shape (entry k reads entry k of each input) and
    ``slopes[i]`` holds d values[k] / d inputs[i][k].
    """
    inputs = tuple(inputs)
    dtype = inputs[0].dtype
    values = np.asarray(values, dtype=dtype)
    slopes = [np.asarray(s, dtype=dtype) for s in slopes]
    if values.shape != ():
        for t in inputs[1:]:
            _require_same_shape(op, inputs[0], t)
    if (values.shape not in ((), inputs[0].shape)
            or [s.shape for s in slopes] != [t.shape for t in inputs]):
        raise ValueError(f"{op}: values or slopes do not match the inputs' shape")

    def back(g):
        for t, s in zip(inputs, slopes):
            _accum(t, g * s)

    return _result(tape, op, inputs, values, back)


def concat(tape, parts: Sequence[Tensor]) -> Tensor:
    """Join along the last axis; the parts agree on every other axis."""
    if not parts:
        raise ValueError("concat: empty input")
    parts = tuple(parts)
    if any(t.ndim < 1 or t.shape[:-1] != parts[0].shape[:-1] for t in parts):
        raise ValueError("concat: parts must agree on every axis but the last")
    sizes = [t.shape[-1] for t in parts]

    def back(g):
        off = 0
        for t, size in zip(parts, sizes):
            _accum(t, g[..., off:off + size])
            off += size

    values = np.concatenate([t.values for t in parts], axis=-1)
    return _result(tape, "concat", parts, values, back)


# ---------------------------------------------------------------------------
# table / sequence ops
# ---------------------------------------------------------------------------

def embedding_lookup(tape, table: Tensor, indices) -> Tensor:
    """Gather rows of a matrix, or entries of a vector, for an index array
    of any shape.  An index of -1 is padding: it gathers zeros and receives
    no gradient.  A repeated index receives the sum of its gradients."""
    if table.ndim not in (1, 2):
        raise ValueError("embedding_lookup expects a 1-d or 2-d table")
    idx = np.asarray(indices, dtype=np.int64)
    lowest = idx.min(initial=0)
    if lowest < -1 or idx.max(initial=-1) >= table.shape[0]:
        raise IndexError("embedding_lookup: index out of range")
    values = table.values[idx]  # fancy indexing copies; -1 reads the last row
    if lowest < 0:
        values[idx < 0] = 0

    def back(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros_like(table.values)
            keep = idx >= 0
            # numpy's unbuffered scatter-add is far faster on a flat index
            width = table.values[0].size
            flat = (idx[keep][:, None] * width + np.arange(width)).ravel()
            np.add.at(table.grad.reshape(-1), flat, g[keep].reshape(-1))

    return _result(tape, "embedding_lookup", (table,), values, back)


def dense(tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``tanh(x @ w + b)``, the encoders' feed-forward layer.

    ``x`` is a matrix of row vectors, or one vector (serving's session
    core), which yields a vector output.
    """
    if w.ndim != 2:
        raise ValueError("dense expects a 2-d weight")
    squeeze = x.ndim == 1
    xv = x.values[None, :] if squeeze else x.values
    if xv.ndim != 2 or xv.shape[1] != w.shape[0]:
        raise ValueError(f"dense: shape mismatch {x.shape} @ {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"dense: bias shape {b.shape} does not match {w.shape}")
    out = np.tanh(xv @ w.values + b.values)

    def back(g):
        g2 = (g[None, :] if squeeze else g) * (1.0 - out * out)
        _accum(x, (g2 @ w.values.T)[0] if squeeze else g2 @ w.values.T)
        _accum(w, xv.T @ g2)
        _accum(b, g2.sum(axis=0))

    return _result(tape, "dense", (x, w, b), out[0] if squeeze else out, back)


def seq_pool(tape, x: Tensor, mode: str, lengths) -> Tensor:
    """Column-wise max or mean over the leading rows of each sequence.

    ``x`` is one sequence ``[T, d]`` pooled over its first ``lengths`` rows
    (an int), or a batch ``[B, T, d]`` with one length per sequence.  Max
    routes the gradient to the first row attaining the maximum in each
    column; mean spreads it uniformly over the pooled rows.
    """
    if x.ndim not in (2, 3):
        raise ValueError("seq_pool expects a 2-d or 3-d input")
    if mode not in ("max", "mean"):
        raise ValueError(f"seq_pool: unknown mode {mode!r}")
    batched = x.ndim == 3
    if batched:
        lengths = np.asarray(lengths)
        bad = lengths.shape != x.shape[:1] or np.any((lengths < 1) | (lengths > x.shape[1]))
    else:
        bad = not 1 <= lengths <= x.shape[0]
    if bad:
        raise ValueError(f"seq_pool: lengths {lengths} out of range for {x.shape}")
    count = lengths[:, None].astype(x.dtype) if batched else x.dtype.type(lengths)

    def live():  # [T, 1] or [B, T, 1]: which rows are pooled
        return np.arange(x.shape[-2])[:, None] < np.asarray(count)[..., None]

    fill = -np.inf if mode == "max" else 0
    window = np.where(live(), x.values, fill) if batched else x.values[:lengths]
    if mode == "max":
        values = window.max(axis=-2)

        def back(g):
            arg = window.argmax(axis=-2)[..., None, :]  # first occurrence on ties
            _accum(x, (np.arange(x.shape[-2])[:, None] == arg) * g[..., None, :])
    else:
        values = window.sum(axis=-2) / count

        def back(g):
            _accum(x, live() * (g / count)[..., None, :])

    return _result(tape, "seq_pool", (x,), values, back)


def conv1d(tape, x: Tensor, filters: Tensor, bias: Tensor) -> Tensor:
    """Valid (no padding) 1-d convolution over the row axis.

    ``x`` is one sequence ``[t, d_in]`` or a batch ``[B, t, d_in]``, and
    ``filters`` is ``[k, d_in, d_out]``; each sequence yields ``t - k + 1``
    rows.
    """
    if x.ndim not in (2, 3) or filters.ndim != 3:
        raise ValueError("conv1d: expected a 2-d or 3-d input and 3-d filters")
    k, d_in, d_out = filters.shape
    t = x.shape[-2]
    if x.shape[-1] != d_in:
        raise ValueError(f"conv1d: input width {x.shape[-1]} != filter width {d_in}")
    if bias.shape != (d_out,):
        raise ValueError(f"conv1d: bias shape {bias.shape} != ({d_out},)")
    if k > t:
        raise ValueError(f"conv1d: filter length {k} exceeds sequence length {t}")

    t_out = t - k + 1
    values = bias.values
    for a in range(k):
        values = values + x.values[..., a:a + t_out, :] @ filters.values[a]

    def back(g):
        if x.requires_grad:
            gx = np.zeros_like(x.values)
            for a in range(k):
                gx[..., a:a + t_out, :] += g @ filters.values[a].T
            _accum(x, gx)
        rows = g.reshape(-1, d_out)
        if filters.requires_grad:
            gf = np.zeros_like(filters.values)
            for a in range(k):
                gf[a] = x.values[..., a:a + t_out, :].reshape(-1, d_in).T @ rows
            _accum(filters, gf)
        _accum(bias, rows.sum(axis=0))

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


def cosine_distance(tape, a: Tensor, b: Tensor, slots=None) -> Tensor:
    """``1 - a.b`` for unit vectors; plain algebra, no re-normalisation.

    Compares two matrices of one shape row by row.  With ``slots``, an
    integer ``[B, K]`` array of row indices into ``a``, entry ``[i, k]``
    compares row ``slots[i, k]`` of ``a`` with row ``i`` of the matrix
    ``b``: one distance per slot.
    """
    if slots is None:
        if not (a.ndim == 2 and a.shape == b.shape):
            raise ValueError(f"cosine_distance: cannot compare {a.shape} with {b.shape}")
        values = a.dtype.type(1.0) - (a.values * b.values).sum(axis=1)

        def back(g):
            _accum(a, -g[:, None] * b.values)
            _accum(b, -g[:, None] * a.values)
    else:
        slots = np.asarray(slots)
        if not (a.ndim == b.ndim == slots.ndim == 2 and slots.shape[0] == b.shape[0]):
            raise ValueError(f"cosine_distance: cannot gather {slots.shape} slots "
                             f"for {b.shape} queries")
        rows = np.arange(slots.shape[0])[:, None]
        values = 1.0 - (b.values @ a.values.T)[rows, slots]

        def back(g):
            # every (query, row) pair's gradient, summed over repeated slots
            flat = rows * a.shape[0] + slots
            pair = np.bincount(flat.ravel(), weights=g.ravel(),
                               minlength=b.shape[0] * a.shape[0])
            pair = pair.reshape(b.shape[0], a.shape[0]).astype(a.dtype)
            _accum(a, -(pair.T @ b.values))
            _accum(b, -(pair @ a.values))

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


def gru_sequence(tape, x: Tensor, params: GRUParams, h0: Tensor,
                 lengths=None) -> Tensor:
    """Run a GRU over the rows of ``x`` and return the final hidden state.

    The recurrence is the usual gated update

        z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)
        r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)
        c_t = tanh(x_t W_c + (r_t * h_{t-1}) U_c + b_c)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t

    ``x`` is one sequence ``[T, d]`` or a batch ``[B, T, d]`` of right-padded
    sequences whose row i freezes its state after ``lengths[i]`` steps, as
    in session-parallel mini-batches; every row starts from ``h0``.  It is
    one tape node: forward projects every input row at once and steps only
    the recurrent products, and backward is hand-written backpropagation
    through the full sequence, with one matmul per weight gradient.
    """
    if x.ndim not in (2, 3):
        raise ValueError("gru_sequence expects a 2-d or 3-d input")
    if x.shape[-2] == 0:
        raise ValueError("gru_sequence: empty sequence")
    hidden = params.u_update.shape[0]
    if h0.ndim != 1 or h0.shape[0] != hidden:
        raise ValueError("gru_sequence: h0 shape does not match hidden size")
    if x.shape[-1] != params.w_update.shape[0]:
        raise ValueError(f"gru_sequence: input width {x.shape[-1]} does not match "
                         f"w_update {params.w_update.shape}")

    p = params
    batched = x.ndim == 3
    xv = x.values.swapaxes(0, 1) if batched else x.values  # time-major
    live = None if lengths is None else (  # [T, B, 1]: is step t inside row b?
        np.arange(xv.shape[0])[:, None] < np.asarray(lengths))[..., None]
    w_zr = np.concatenate([p.w_update.values, p.w_reset.values], axis=1)
    u_zr = np.concatenate([p.u_update.values, p.u_reset.values], axis=1)
    w_c, u_c = p.w_cand.values, p.u_cand.values
    in_zr = xv @ w_zr + np.concatenate([p.b_update.values, p.b_reset.values])
    in_c = xv @ w_c + p.b_cand.values

    steps = xv.shape[0]
    state = xv.shape[1:-1] + (hidden,)
    dtype = np.result_type(in_zr, in_c, h0.values, u_zr, u_c)
    hs = np.empty((steps + 1,) + state, dtype=dtype)  # hs[t] is h_{t-1}
    hs[0] = h0.values
    zr = np.empty(in_zr.shape, dtype=dtype)
    z_all, r_all = zr[..., :hidden], zr[..., hidden:]
    rh = np.empty(in_c.shape, dtype=dtype)
    c = np.empty(in_c.shape, dtype=dtype)
    for t in range(steps):
        h = hs[t]
        zr[t] = 0.5 * (1.0 + np.tanh(0.5 * (in_zr[t] + h @ u_zr)))
        z = z_all[t]
        rh[t] = r_all[t] * h
        c[t] = np.tanh(in_c[t] + rh[t] @ u_c)
        hs[t + 1] = (1.0 - z) * h + z * c[t]
        if live is not None:
            hs[t + 1] = np.where(live[t], hs[t + 1], h)

    def back(g):
        d_zr = np.empty_like(zr)
        d_z, d_r = d_zr[..., :hidden], d_zr[..., hidden:]
        d_c = np.empty_like(c)
        zr_slope = zr * (1.0 - zr)
        z_slope, r_slope = zr_slope[..., :hidden], zr_slope[..., hidden:]
        c_slope = 1.0 - c * c
        dh = g
        for t in range(steps - 1, -1, -1):
            h = hs[t]
            z = z_all[t]
            # a frozen row passes its gradient straight through the step
            d_out = dh if live is None else dh * live[t]
            d_c[t] = d_out * z * c_slope[t]
            d_rh = d_c[t] @ u_c.T
            d_z[t] = d_out * (c[t] - h) * z_slope[t]
            d_r[t] = d_rh * h * r_slope[t]
            d_prev = d_out * (1.0 - z) + d_rh * r_all[t] + d_zr[t] @ u_zr.T
            dh = d_prev if live is None else np.where(live[t], d_prev, dh)
        _accum(h0, dh.reshape(-1, hidden).sum(axis=0) if batched else dh)
        if x.requires_grad:
            gx = d_zr @ w_zr.T + d_c @ w_c.T
            _accum(x, gx.swapaxes(0, 1) if batched else gx)
        xs = xv.reshape(-1, xv.shape[-1])
        d_zr2, d_c2 = d_zr.reshape(-1, 2 * hidden), d_c.reshape(-1, hidden)
        g_w, g_u = xs.T @ d_zr2, hs[:-1].reshape(-1, hidden).T @ d_zr2
        g_b = d_zr2.sum(axis=0)
        _accum(p.w_update, g_w[:, :hidden])
        _accum(p.w_reset, g_w[:, hidden:])
        _accum(p.u_update, g_u[:, :hidden])
        _accum(p.u_reset, g_u[:, hidden:])
        _accum(p.b_update, g_b[:hidden])
        _accum(p.b_reset, g_b[hidden:])
        _accum(p.w_cand, xs.T @ d_c2)
        _accum(p.u_cand, rh.reshape(-1, hidden).T @ d_c2)
        _accum(p.b_cand, d_c2.sum(axis=0))

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
