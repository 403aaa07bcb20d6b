"""Dense float32 tensors with reverse-mode autodiff on an explicit tape.

The engine is deliberately small: numpy does the array arithmetic, this
module owns the differentiation. Ops executed while a Tape is active are
recorded in execution order (which is already a topological order), and
``backward`` replays the tape once in reverse. Everything is float32; any
op that produces a NaN/Inf raises immediately instead of letting it
propagate (see FINITE_CHECKS).

Tensors are immutable after creation except for gradient accumulation.
A tape belongs to one training context; the active-tape stack is
thread-local so independent contexts can run on separate threads.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ContractError, DataError, NumericsError, ShapeError, TokenIndexError

DTYPE = np.float32

# Post-op guard: every kernel checks its output for NaN/Inf and raises
# NumericsError naming the op. Costs one pass over the output; keep it on.
FINITE_CHECKS = True

GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """A dense float32 array plus an optional same-shape grad accumulator."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad=False, name=None):
        arr = np.asarray(data, dtype=DTYPE)
        _check_finite(arr, "tensor")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"<Tensor shape={self.shape} requires_grad={self.requires_grad}{tag}>"

    # Small operator sugar; the op functions below are the real API.
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor) else Tensor(other))

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)


class _TapeEntry:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output, backward_fn):
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable ops for one backward pass.

    Use as a context manager around a forward computation::

        with Tape() as tape:
            loss = cross_entropy(forward(...), targets)
            backward(loss, tape)
    """

    def __init__(self):
        self.entries = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _tape_stack().pop()
        return False

    def __len__(self):
        return len(self.entries)


_local = threading.local()


def _tape_stack():
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = _local.tapes = []
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


def _check_finite(arr, op_name):
    if not FINITE_CHECKS:
        return
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))
        first = tuple(int(i) for i in bad[0]) if bad.size else ()
        raise NumericsError(f"{op_name} produced a non-finite value at index {first}")


def _op(fn):
    """Silence numpy FP warnings inside a kernel; the post-op finite guard is
    the loud failure path, so transient inf/nan intermediates never warn."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _result(out_data, op_name, inputs, backward_fn):
    """Wrap a kernel output; record on the active tape when grads are needed."""
    out_data = np.asarray(out_data, dtype=DTYPE)
    if out_data.ndim and not out_data.flags["C_CONTIGUOUS"]:
        out_data = np.ascontiguousarray(out_data)
    _check_finite(out_data, op_name)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    out.name = None
    tape = active_tape()
    if out.requires_grad and tape is not None:
        tape.entries.append(_TapeEntry(out, backward_fn))
    return out


def _unbroadcast(grad, shape):
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(loss, tape=None):
    """Accumulate dLoss/dT into .grad of every requires_grad tensor on the tape.

    The tape is walked exactly once in reverse execution order. Gradients are
    staged in a scratch map during the walk and added to each tensor's .grad
    at the end, so calling backward again (without zeroing) accumulates one
    more full, correct pass.
    """
    if tape is None:
        tape = active_tape()
    if tape is None:
        raise ContractError("backward requires a tape (none active, none given)")
    if loss.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {loss.shape}")

    staged = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}

    def sink(tensor, grad):
        if not tensor.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=DTYPE), tensor.data.shape)
        key = id(tensor)
        if key in staged:
            staged[key] = staged[key] + grad
        else:
            staged[key] = grad
            holders[key] = tensor

    with np.errstate(all="ignore"):
        for entry in reversed(tape.entries):
            out_grad = staged.get(id(entry.output))
            if out_grad is None:
                continue
            entry.backward_fn(out_grad, sink)

    for key, grad in staged.items():
        t = holders[key]
        t.grad = grad if t.grad is None else t.grad + grad


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


@_op
def add(a, b):
    """Elementwise sum with numpy broadcasting."""
    out_data = a.data + b.data

    def back(g, sink):
        sink(a, g)
        sink(b, g)

    return _result(out_data, "add", (a, b), back)


@_op
def mul(a, b):
    """Elementwise product with numpy broadcasting."""
    out_data = a.data * b.data

    def back(g, sink):
        sink(a, g * b.data)
        sink(b, g * a.data)

    return _result(out_data, "mul", (a, b), back)


@_op
def scale(a, s):
    """Multiply by a python scalar."""
    s = float(s)
    out_data = a.data * DTYPE(s)

    def back(g, sink):
        sink(a, g * DTYPE(s))

    return _result(out_data, "scale", (a,), back)


@_op
def matmul(a, b):
    """Matrix product; supports batched stacks on either side.

    dA = dC @ B^T and dB = A^T @ dC, reduced over broadcast batch dims.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def back(g, sink):
        if b.ndim == 2:
            # fold a's stack into the rows of one product per gradient instead
            # of per-item products (summed afterwards for b); pays at training
            # sizes, where the stack is large
            g_rows = g.reshape(-1, b.shape[1])
            sink(a, (g_rows @ b.data.T).reshape(a.shape))
            sink(b, a.data.reshape(-1, b.shape[0]).T @ g_rows)
        else:
            sink(a, np.matmul(g, b.data.swapaxes(-1, -2)))
            sink(b, np.matmul(a.data.swapaxes(-1, -2), g))

    return _result(out_data, "matmul", (a, b), back)


@_op
def reshape(x, shape):
    shape = tuple(shape)
    out_data = x.data.reshape(shape)
    in_shape = x.data.shape

    def back(g, sink):
        sink(x, g.reshape(in_shape))

    return _result(out_data, "reshape", (x,), back)


@_op
def transpose(x, axes):
    axes = tuple(axes)
    out_data = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def back(g, sink):
        sink(x, np.transpose(g, inverse))

    return _result(out_data, "transpose", (x,), back)


@_op
def sum_all(x):
    """Full reduction to a scalar."""
    out_data = x.data.sum(dtype=DTYPE)

    def back(g, sink):
        sink(x, np.broadcast_to(g, x.data.shape))

    return _result(out_data, "sum_all", (x,), back)


@_op
def embedding_lookup(table, ids):
    """Gather rows of a (V, d) table by an integer id grid."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise TokenIndexError(f"id {bad} outside table of {table.shape[0]} rows")
    out_data = table.data[ids]

    def back(g, sink):
        grad = np.zeros_like(table.data)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        sink(table, grad)

    return _result(out_data, "embedding_lookup", (table,), back)


@_op
def softmax_lastdim(x):
    """Softmax over the last dimension, computed with max-subtraction."""
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last dimension, got shape {x.shape}")
    s = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def back(g, sink):
        dx = g * s
        inner = dx.sum(axis=-1, keepdims=True)
        np.subtract(g, inner, out=dx)
        dx *= s
        sink(x, dx)

    return _result(s, "softmax_lastdim", (x,), back)


@_op
def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last dimension to zero mean / unit variance, then affine."""
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + DTYPE(eps))
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    d = x.shape[-1]

    def back(g, sink):
        tmp = g * xhat
        sink(gain, tmp.reshape(-1, d).sum(axis=0))
        sink(bias, g.reshape(-1, d).sum(axis=0))
        tmp *= gain.data
        m2 = tmp.mean(axis=-1, keepdims=True)
        dx = g * gain.data
        dx -= dx.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=tmp)
        dx -= tmp
        dx *= inv
        sink(x, dx)

    return _result(out_data, "layer_norm", (x, gain, bias), back)


@_op
def gelu(x):
    """GELU activation (tanh approximation, the GPT-2 variant)."""
    v = x.data
    t = v * v  # t = tanh(C (v + 0.044715 v^3)), built in one buffer
    t *= DTYPE(0.044715)
    t += 1
    t *= v
    t *= DTYPE(GELU_C)
    np.tanh(t, out=t)
    out_data = t + 1
    out_data *= v
    out_data *= 0.5

    def back(g, sink):
        # d/dv = 0.5 (1 + t) + 0.5 v (1 - t^2) C (1 + 3 * 0.044715 v^2)
        dinner = v * v
        dinner *= DTYPE(3.0 * 0.044715)
        dinner += 1
        dinner *= DTYPE(GELU_C)
        dinner *= v
        dx = t * t
        np.subtract(1, dx, out=dx)
        dx *= dinner
        dx += t
        dx += 1
        dx *= 0.5
        dx *= g
        sink(x, dx)

    return _result(out_data, "gelu", (x,), back)


@_op
def relu(x):
    out_data = np.maximum(x.data, 0.0)

    def back(g, sink):
        sink(x, g * (x.data > 0))

    return _result(out_data, "relu", (x,), back)


@_op
def dropout(x, p, train, rng):
    """Inverted dropout: zero with probability p and rescale by 1/(1-p).

    Identity when train is off or p == 0, regardless of rng.
    """
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout with train=True and p>0 needs an rng")
    mask = (rng.random(x.shape) >= p).astype(DTYPE)
    mask *= DTYPE(1.0 / (1.0 - p))
    out_data = x.data * mask

    def back(g, sink):
        sink(x, g * mask)

    return _result(out_data, "dropout", (x,), back)


@_op
def causal_mask_fill(scores, fill_value=-1e9):
    """Replace entries above the diagonal of the last two dims with fill_value.

    Position (i, j) survives only for j <= i, so softmax over the last dim
    can only attend to current and earlier positions.
    """
    if scores.ndim < 2 or scores.shape[-1] != scores.shape[-2]:
        raise ShapeError(f"causal mask needs trailing square dims, got {scores.shape}")
    t = scores.shape[-1]
    allowed = np.tril(np.ones((t, t), dtype=bool))
    out_data = np.where(allowed, scores.data, DTYPE(fill_value))

    def back(g, sink):
        sink(scores, np.where(allowed, g, DTYPE(0.0)))

    return _result(out_data, "causal_mask_fill", (scores,), back)


@_op
def cross_entropy(logits, targets, ignore_mask=None, weights=None):
    """Mean of -log softmax(logits)[target] over non-ignored positions.

    logits has shape (..., V); targets is an integer grid of the leading
    shape; ignore_mask (same grid, True = excluded) drops positions from the
    mean. Optional per-position weights reweight the mean (used by the
    occlusion loss-weight switch); by default every position counts once.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.shape}"
        )
    vocab = logits.shape[-1]
    if ignore_mask is None:
        valid = np.ones(targets.shape, dtype=bool)
    else:
        valid = ~np.asarray(ignore_mask, dtype=bool)
    if valid.any():
        checked = targets[valid]
        if checked.min() < 0 or checked.max() >= vocab:
            bad = int(checked.min()) if checked.min() < 0 else int(checked.max())
            raise TokenIndexError(f"target id {bad} outside vocab of size {vocab}")
    else:
        raise DataError("cross_entropy: every position is ignored (degenerate batch)")

    if weights is None:
        w = valid.astype(DTYPE)
    else:
        w = np.asarray(weights, dtype=DTYPE) * valid
        if not w.any():
            raise DataError("cross_entropy: all loss weights are zero")
    denom = DTYPE(w.sum())

    # one full-vocab exp; the normalised softmax is kept for backward
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    safe_targets = np.where(valid, targets, 0)
    picked = np.take_along_axis(z, safe_targets[..., None], axis=-1)[..., 0]
    soft = np.exp(z, out=z)
    total = soft.sum(axis=-1, keepdims=True)
    soft /= total
    picked -= np.log(total[..., 0])
    out_data = np.asarray(-(picked * w).sum() / denom, dtype=DTYPE)

    def back(g, sink):
        w_norm = w / denom
        grad = soft * w_norm[..., None]
        # each row has exactly one target, so fancy-index subtraction is safe
        grad[np.indices(targets.shape, sparse=True) + (safe_targets,)] -= w_norm
        grad *= g
        sink(logits, grad)

    return _result(out_data, "cross_entropy", (logits,), back)
