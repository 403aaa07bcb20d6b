"""Dense float32 tensors with reverse-mode autodiff on an explicit tape.

The engine is deliberately small: numpy does the array arithmetic, this
module owns the differentiation. Ops executed while a Tape is active are
recorded in execution order (which is already a topological order), and
``backward`` replays the tape once in reverse. Everything is float32; any
op that produces a NaN/Inf raises NumericsError immediately instead of
letting it propagate. numpy's FP warnings are silenced once per engine pass
(``model.forward``, each shard of ``train.loss_and_grads``, ``backward``),
so a kernel called outside one may warn before its NumericsError. Outputs
keep numpy's strides: ``transpose`` returns a view.

The decoder's attention sub-layer and FFN, each with the pre-layer-norm in
front of it, are one kernel each (``attention``, ``ffn``): one tape entry and
one hand-written backward per sub-layer instead of a chain of small ops,
which is what batch-1 decoding pays for per call. They reuse the primitives'
array arithmetic (the shared ``_layer_norm_*``, ``_softmax_*``, ``_gelu_*``,
``_dropout_keep`` and ``_dropped`` helpers) and make the same products in
the same order, so they are bit-identical to the composition of primitives
they replace. Each saves every activation its backward reads once and
rebuilds the cheap rest with the forward's own operations: both keep the
layer norm's ``xhat`` and ``inv`` and rebuild its output ``xhat * g + b``;
``attention`` keeps q, k^T, v, the softmax, the context and the dropout
masks and rebuilds the dropped softmax; ``ffn`` keeps the pre-activation and
its dropout mask and reruns the GELU for its output and ``t``.
``layer_norm`` serves only the decoder's final ``ln_f``. ``softmax_lastdim``,
``causal_mask_fill``, ``gelu`` and ``reshape`` have no caller left in the
decoder; they stay as public kernels because that composition, built from
them, is the reference the fused kernels are tested against, and the
benchmark's tracer times them by name.

Kernels never write into their inputs; only the optimizer updates a
parameter's data in place (``train.adamw_update``). A tape holds only what
backward reads. Each entry holds its output's gradient handle (a shape, not
the output array), its inputs' handles (a leaf tensor is its own handle) and
a backward closure over just the arrays that backward needs, so an op output
no backward reads (a residual sum, the embedding or dropout output, a
block's layer-norm output, the attention or FFN output, the head logits) is
freed as soon as the forward stops using it. Dropout keeps a bool keep mask.
A forward with no open tape builds no handles. A tape belongs to one
training context and serves one ``backward``, which consumes it: each entry,
its saved arrays and its output's gradient are freed as soon as the walk has
used them, so a step's peak holds the saved arrays plus only the live
gradients. ``backward`` returns the gradients of the leaves (tensors no op
recorded on that tape produced) as a ``{leaf: gradient}`` dict; a Tensor is
only its data and its handle, and nothing writes a gradient onto it. The
active-tape stack is thread-local, so independent contexts, such as two row
shards over the same parameter tensors, can run on separate threads.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from .errors import ContractError, DataError, NumericsError, ShapeError, TokenIndexError

DTYPE = np.float32

GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """A dense float32 array and, once an op on an open tape made it, that
    op's gradient handle."""

    __slots__ = ("data", "_handle")

    def __init__(self, data):
        arr = np.asarray(data, dtype=DTYPE)
        _check_finite(arr, "tensor")
        self.data = arr
        self._handle = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"<Tensor shape={self.shape}>"


class _GradHandle:
    """Stands in on the tape for an op output, so the tape does not pin the
    output's array. A leaf tensor is its own handle."""

    __slots__ = ("shape",)

    def __init__(self, shape):
        self.shape = shape


class _TapeEntry:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of differentiable ops for one backward pass.

    Use as a context manager around a forward computation::

        with Tape() as tape:
            loss = cross_entropy(forward(...), targets)
            grads = backward(loss, tape)

    Each entry holds gradient handles for its output and inputs, never an
    op output's array, and a ``backward_fn(g, sink)`` that reads only the
    arrays it saved and calls ``sink(i, grad)`` for its i-th input.
    ``backward`` takes the entries off as it runs them, so a tape serves
    one backward; a second one on it raises ContractError.
    """

    def __init__(self):
        self.entries = []
        self.used = False

    def __enter__(self):
        _local.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _local.tapes.pop()
        return False

    def __len__(self):
        return len(self.entries)


class _TapeStack(threading.local):
    """Each thread's stack of open tapes, created empty on first touch."""

    def __init__(self):
        self.tapes = []


_local = _TapeStack()


def active_tape():
    tapes = _local.tapes
    return tapes[-1] if tapes else None


def _check_finite(arr, op_name):
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(np.asarray(arr)))
        first = tuple(int(i) for i in bad[0]) if bad.size else ()
        raise NumericsError(f"{op_name} produced a non-finite value at index {first}")


def _result(out_data, op_name, inputs, backward_fn):
    """Wrap a kernel output, keeping its strides (a transpose stays a view);
    record it on the active tape, if any. backward_fn(g, sink) hands the
    gradient of inputs[i] to sink(i, grad)."""
    if type(out_data) is not np.ndarray or out_data.dtype != DTYPE:
        out_data = np.asarray(out_data, dtype=DTYPE)
    _check_finite(out_data, op_name)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out._handle = None
    tapes = _local.tapes
    if tapes:
        out._handle = _GradHandle(out_data.shape)
        tapes[-1].entries.append(_TapeEntry(
            out._handle, tuple(t._handle or t for t in inputs), backward_fn))
    return out


def _row_major(arr):
    """arr, or a C-contiguous copy if its last axis is strided: BLAS sums a
    transposed operand in another order at some sizes, moving the last bit."""
    return arr if arr.strides[-1] == arr.itemsize else np.ascontiguousarray(arr)


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
    """Return {leaf: dLoss/dleaf} for every leaf on the tape.

    A leaf is a tensor no op recorded on this tape produced: a parameter, a
    constant input, an op output recorded on no tape, or a root that is one.
    The tape is consumed in reverse execution order: each entry is taken off
    it, its output handle's staged gradient is handed to its backward and
    then dropped with the entry, so saved arrays and intermediate gradients
    are freed once used. Gradients are staged per handle; one that already
    has the handle's shape and float32 dtype is staged as it is, any other
    is summed over its broadcast axes first. Nothing is written onto a
    tensor, so two tapes over the same leaves (two row shards on two
    threads, say) return two separate dicts. An op output recorded on
    another tape gets no gradient. The tape is used up: a second backward on
    it raises ContractError.
    """
    if tape is None:
        tape = active_tape()
    if tape is None:
        raise ContractError("backward requires a tape (none active, none given)")
    if tape.used:
        raise ContractError("backward on a used tape: each tape serves one backward")
    if loss.size != 1:
        raise ShapeError(f"backward root must be scalar, got shape {loss.shape}")
    tape.used = True

    # handle -> gradient; the dict keeps each staged handle alive
    staged = {loss._handle or loss: np.ones_like(loss.data)}
    inputs = ()  # the running entry's input handles, read by sink

    def sink(i, grad):
        handle = inputs[i]
        if (type(grad) is not np.ndarray or grad.dtype != DTYPE
                or grad.shape != handle.shape):
            grad = _unbroadcast(np.asarray(grad, dtype=DTYPE), handle.shape)
        held = staged.get(handle)
        staged[handle] = grad if held is None else held + grad

    entries = tape.entries
    with np.errstate(all="ignore"):
        while entries:
            entry = entries.pop()
            out_grad = staged.pop(entry.output, None)
            if out_grad is not None:
                inputs = entry.inputs
                entry.backward_fn(out_grad, sink)

    return {t: grad for t, grad in staged.items() if isinstance(t, Tensor)}


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def add(a, b):
    """Elementwise sum with numpy broadcasting."""
    out_data = a.data + b.data

    def back(g, sink):
        sink(0, g)
        sink(1, g)

    return _result(out_data, "add", (a, b), back)


def mul(a, b):
    """Elementwise product with numpy broadcasting."""
    ad, bd = a.data, b.data
    out_data = ad * bd

    def back(g, sink):
        sink(0, g * bd)
        sink(1, g * ad)

    return _result(out_data, "mul", (a, b), back)


def scale(a, s):
    """Multiply by a python scalar."""
    s = float(s)
    out_data = a.data * DTYPE(s)

    def back(g, sink):
        sink(0, g * DTYPE(s))

    return _result(out_data, "scale", (a,), back)


def matmul(a, b):
    """Matrix product; supports batched stacks on either side.

    dA = dC @ B^T and dB = A^T @ dC, reduced over broadcast batch dims.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = _row_major(a.data), _row_major(b.data)
    out_data = np.matmul(ad, bd)

    def back(g, sink):
        if bd.ndim == 2:
            # fold a's stack into the rows of one product per gradient instead
            # of per-item products (summed afterwards for b); pays at training
            # sizes, where the stack is large
            g_rows = g.reshape(-1, bd.shape[1])
            sink(0, (g_rows @ bd.T).reshape(ad.shape))
            sink(1, ad.reshape(-1, bd.shape[0]).T @ g_rows)
        else:
            sink(0, np.matmul(g, bd.swapaxes(-1, -2)))
            sink(1, np.matmul(ad.swapaxes(-1, -2), g))

    return _result(out_data, "matmul", (a, b), back)


def reshape(x, shape):
    shape = tuple(shape)
    out_data = x.data.reshape(shape)
    in_shape = x.data.shape

    def back(g, sink):
        sink(0, g.reshape(in_shape))

    return _result(out_data, "reshape", (x,), back)


def transpose(x, axes):
    axes = tuple(axes)
    out_data = x.data.transpose(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))

    def back(g, sink):
        sink(0, g.transpose(inverse))

    return _result(out_data, "transpose", (x,), back)


def sum_all(x):
    """Full reduction to a scalar."""
    out_data = x.data.sum(dtype=DTYPE)
    shape = x.shape

    def back(g, sink):
        sink(0, np.broadcast_to(g, shape))

    return _result(out_data, "sum_all", (x,), back)


def embedding_lookup(table, ids):
    """Gather rows of a (V, d) table by an integer id grid."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise TokenIndexError(f"id {bad} outside table of {table.shape[0]} rows")
    out_data = table.data[ids]
    shape = table.shape

    def back(g, sink):
        grad = np.zeros(shape, dtype=DTYPE)
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, shape[-1]))
        sink(0, grad)

    return _result(out_data, "embedding_lookup", (table,), back)


def softmax_lastdim(x):
    """Softmax over the last dimension, computed with max-subtraction."""
    if x.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a non-empty last dimension, got shape {x.shape}")
    s = _softmax_fwd(x.data)

    def back(g, sink):
        sink(0, _softmax_bwd(s, g))

    return _result(s, "softmax_lastdim", (x,), back)


def _softmax_fwd(x):
    """Softmax of an array over its last axis, in one new buffer."""
    s = x - x.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_bwd(s, g):
    """dL/dx of softmax output s given dL/ds = g: s * (g - sum(g * s))."""
    dx = g * s
    inner = dx.sum(axis=-1, keepdims=True)
    np.subtract(g, inner, out=dx)
    dx *= s
    return dx


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last dimension to zero mean / unit variance, then affine."""
    gd = gain.data
    out_data, xhat, inv = _layer_norm_fwd(x.data, gd, bias.data, eps)

    def back(g, sink):
        _layer_norm_bwd(xhat, inv, gd, g, sink)

    return _result(out_data, "layer_norm", (x, gain, bias), back)


def _layer_norm_fwd(x, gd, bd, eps=1e-5):
    """(xhat * gd + bd, xhat, inv): xhat is x normalized over its last axis
    and inv its 1/std, the two arrays backward reads. Raises NumericsError
    for a non-finite variance; the caller checks the output."""
    # sum / d is what ndarray.mean computes, without its Python wrapper
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    var = np.square(xhat).sum(axis=-1, keepdims=True) / d
    # an overflowed variance would give inv 0 and a finite output: the bias
    _check_finite(var, "layer_norm")
    inv = 1.0 / np.sqrt(var + DTYPE(eps))
    xhat *= inv
    return _layer_norm_affine(xhat, gd, bd), xhat, inv


def _layer_norm_affine(xhat, gd, bd):
    """xhat * gd + bd in one new buffer: layer norm's output, and how the
    fused kernels rebuild it in backward."""
    out = xhat * gd
    out += bd
    return out


def _layer_norm_bwd(xhat, inv, gd, g, sink):
    """Layer norm's backward from its forward's xhat and inv, given dL/dout
    = g: hands dgain to sink(1), dbias to sink(2), then dx to sink(0)."""
    d = xhat.shape[-1]
    tmp = g * xhat
    sink(1, tmp.reshape(-1, d).sum(axis=0))
    sink(2, g.reshape(-1, d).sum(axis=0))
    tmp *= gd
    m2 = tmp.sum(axis=-1, keepdims=True) / d
    dx = g * gd
    dx -= dx.sum(axis=-1, keepdims=True) / d
    np.multiply(xhat, m2, out=tmp)
    dx -= tmp
    dx *= inv
    sink(0, dx)


def gelu(x):
    """GELU activation (tanh approximation, the GPT-2 variant)."""
    v = x.data
    out_data, t = _gelu_fwd(v)

    def back(g, sink):
        sink(0, _gelu_bwd(v, t, g))

    return _result(out_data, "gelu", (x,), back)


def _gelu_fwd(v):
    """(gelu(v), t) with t = tanh(C (v + 0.044715 v^3)), kept for backward."""
    t = v * v  # built in one buffer
    t *= DTYPE(0.044715)
    t += 1
    t *= v
    t *= DTYPE(GELU_C)
    np.tanh(t, out=t)
    out = t + 1
    out *= v
    out *= 0.5
    return out, t


def _gelu_bwd(v, t, g):
    """dL/dv of gelu at v, given its forward's t and dL/dgelu = g."""
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
    return dx


def dropout(x, p, train, rng):
    """Inverted dropout: zero with probability p and rescale by 1/(1-p).

    Identity when train is off or p == 0, regardless of rng.
    """
    keep = _dropout_keep(x.shape, p, train, rng)
    if keep is None:
        return x
    out_data = _dropped(x.data, keep, p)

    def back(g, sink):
        sink(0, _dropped(g, keep, p))

    return _result(out_data, "dropout", (x,), back)


def _dropout_keep(shape, p, train, rng):
    """The bool keep mask of one rng.random(shape) draw (True where the draw
    is >= p). None (and no draw) when train is off or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout probability must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise ContractError("dropout with train=True and p>0 needs an rng")
    return rng.random(shape) >= p


def _dropped(arr, keep, p, out=None):
    """arr * keep, then times 1/(1-p), into out (a new buffer by default).

    Bit-identical to arr times the float32 multiplier keep * 1/(1-p):
    x * 1 * c == x * c, and x * 0 * c keeps the sign of x * 0.
    """
    out = np.multiply(arr, keep, out=out)
    out *= DTYPE(1.0 / (1.0 - p))
    return out


@functools.lru_cache(maxsize=None)
def _causal_allowed(t):
    """The read-only (t, t) lower-triangular mask, built once per length
    (so at most block_size masks are ever held)."""
    allowed = np.tril(np.ones((t, t), dtype=bool))
    allowed.flags.writeable = False
    return allowed


def causal_mask_fill(scores, fill_value=-1e9):
    """Replace entries above the diagonal of the last two dims with fill_value.

    Position (i, j) survives only for j <= i, so softmax over the last dim
    can only attend to current and earlier positions.
    """
    if scores.ndim < 2 or scores.shape[-1] != scores.shape[-2]:
        raise ShapeError(f"causal mask needs trailing square dims, got {scores.shape}")
    allowed = _causal_allowed(scores.shape[-1])
    out_data = np.where(allowed, scores.data, DTYPE(fill_value))

    def back(g, sink):
        sink(0, np.where(allowed, g, DTYPE(0.0)))

    return _result(out_data, "causal_mask_fill", (scores,), back)


def cross_entropy(logits, targets, ignore_mask=None):
    """Mean of -log softmax(logits)[target] over non-ignored positions.

    logits has shape (..., V); targets is an integer grid of the leading
    shape; ignore_mask (same grid, True = excluded) drops positions from the
    mean, and every other position counts once.
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

    w = valid.astype(DTYPE)
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
        # built in the saved softmax: a consumed tape runs this once
        w_norm = w / denom
        grad = soft
        grad *= w_norm[..., None]
        # each row has exactly one target, so fancy-index subtraction is safe
        grad[np.indices(targets.shape, sparse=True) + (safe_targets,)] -= w_norm
        grad *= g
        sink(0, grad)

    return _result(out_data, "cross_entropy", (logits,), back)


# ---------------------------------------------------------------------------
# Fused decoder kernels
# ---------------------------------------------------------------------------


def attention(x, ln_g, ln_b, wq, wk, wv, wo, n_heads, p, train, rng):
    """Causal multi-head self-attention of layer_norm(x) (B, S, d) as one kernel.

    With h = layer_norm(x, ln_g, ln_b), computes
    dropout(dropout(softmax(mask(q k^T / sqrt(hd)))) v wo), with q, k, v =
    h wq, h wk, h wv split into n_heads heads of hd = d / n_heads. It makes
    the products, operand layouts and rng draws (probabilities first, then
    output) of the primitive chain layer_norm, matmul, reshape, transpose,
    scale, causal_mask_fill, softmax_lastdim, dropout, so its outputs and
    gradients equal that chain's bit for bit. One tape entry; its backward
    reuses the saved softmax and rebuilds the dropped weights from it and the
    saved keep mask, and rebuilds h from the saved xhat. The finite guard
    checks the layer-norm variance and h, v, the scores and the output: a
    non-finite q row or k row spreads over a whole scores row or column, but
    a non-finite v entry can hide behind a zero weight.
    """
    if x.ndim != 3 or x.shape[-1] % n_heads:
        raise ShapeError(f"attention needs (B, S, d) with d divisible by "
                         f"{n_heads} heads, got {x.shape}")
    B, S, d = x.shape
    H, hd = n_heads, d // n_heads
    if (ln_g.shape != (d,) or ln_b.shape != (d,)
            or any(w.shape != (d, d) for w in (wq, wk, wv, wo))):
        raise ShapeError(f"attention needs ({d},) layer-norm gain and bias and "
                         f"({d}, {d}) weights, got "
                         f"{[w.shape for w in (ln_g, ln_b, wq, wk, wv, wo)]}")
    gd, bd = ln_g.data, ln_b.data
    h, xhat, inv = _layer_norm_fwd(x.data, gd, bd)
    _check_finite(h, "layer_norm")
    wqd, wkd, wvd, wod = (_row_major(w.data) for w in (wq, wk, wv, wo))
    # heads as (B, H, S, hd) views; k^T as (B, H, hd, S) in row-major order
    q = np.matmul(h, wqd).reshape(B, S, H, hd).transpose(0, 2, 1, 3)
    kt = _row_major(np.matmul(h, wkd).reshape(B, S, H, hd).transpose(0, 2, 3, 1))
    v = np.matmul(h, wvd).reshape(B, S, H, hd).transpose(0, 2, 1, 3)
    del h
    _check_finite(v, "attention")
    scale = DTYPE(1.0 / math.sqrt(hd))
    scores = np.matmul(q, kt)
    scores *= scale
    _check_finite(scores, "attention")
    allowed = _causal_allowed(S)
    s = _softmax_fwd(np.where(allowed, scores, DTYPE(-1e9)))
    att_keep = _dropout_keep(s.shape, p, train, rng)
    att = s if att_keep is None else _dropped(s, att_keep, p)
    ctx = _row_major(np.matmul(att, v).transpose(0, 2, 1, 3).reshape(B, S, d))
    del att
    out_data = np.matmul(ctx, wod)
    out_keep = _dropout_keep(out_data.shape, p, train, rng)
    if out_keep is not None:
        _dropped(out_data, out_keep, p, out=out_data)

    def back(g, sink):
        # inputs: 0 x, 1 ln_g, 2 ln_b, 3 wq, 4 wk, 5 wv, 6 wo
        if out_keep is not None:
            g = _dropped(g, out_keep, p)
        g_rows = g.reshape(-1, d)
        sink(6, ctx.reshape(-1, d).T @ g_rows)
        g_ctx = (g_rows @ wod.T).reshape(B, S, H, hd).transpose(0, 2, 1, 3)
        g_att = np.matmul(g_ctx, v.swapaxes(-1, -2))
        att = s if att_keep is None else _dropped(s, att_keep, p)
        dv = np.matmul(att.swapaxes(-1, -2), g_ctx)
        del att
        if att_keep is not None:
            _dropped(g_att, att_keep, p, out=g_att)
        g_scores = np.where(allowed, _softmax_bwd(s, g_att), DTYPE(0.0))
        g_scores *= scale
        dq = np.matmul(g_scores, kt.swapaxes(-1, -2))
        dkt = np.matmul(q.swapaxes(-1, -2), g_scores)
        # each head gradient back to (B*S, d) rows; h sums v, then k, then q
        h_rows = _layer_norm_affine(xhat, gd, bd).reshape(-1, d)
        dh = None
        for i, wd, dw_heads in ((5, wvd, dv.transpose(0, 2, 1, 3)),
                                (4, wkd, dkt.transpose(0, 3, 1, 2)),
                                (3, wqd, dq.transpose(0, 2, 1, 3))):
            g_rows = dw_heads.reshape(-1, d)
            sink(i, h_rows.T @ g_rows)
            part = g_rows @ wd.T
            dh = part if dh is None else dh + part
        del h_rows
        _layer_norm_bwd(xhat, inv, gd, dh.reshape(B, S, d), sink)

    return _result(out_data, "attention", (x, ln_g, ln_b, wq, wk, wv, wo), back)


def ffn(x, ln_g, ln_b, w1, b1, w2, b2, p, train, rng):
    """Position-wise feed-forward dropout(gelu(h w1 + b1) w2 + b2) of
    h = layer_norm(x, ln_g, ln_b) as one kernel.

    Same products, operand layouts and rng draw as the primitive chain
    layer_norm, matmul, add, gelu, matmul, add, dropout, so its outputs and
    gradients equal that chain's bit for bit. One tape entry, which saves
    xhat, inv, the pre-activation and the keep mask; backward rebuilds h and
    the GELU with the forward's own operations. The finite guard checks the
    layer-norm variance and h, the pre-activation and the output.
    """
    d, f = w1.shape
    if (x.shape[-1] != d or ln_g.shape != (d,) or ln_b.shape != (d,)
            or b1.shape != (f,) or w2.shape != (f, d) or b2.shape != (d,)):
        raise ShapeError(f"ffn shapes disagree: x {x.shape}, ln_g {ln_g.shape}, "
                         f"ln_b {ln_b.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                         f"w2 {w2.shape}, b2 {b2.shape}")
    gd, bd = ln_g.data, ln_b.data
    h, xhat, inv = _layer_norm_fwd(x.data, gd, bd)
    _check_finite(h, "layer_norm")
    w1d, w2d = _row_major(w1.data), _row_major(w2.data)
    pre = np.matmul(h, w1d)
    del h
    pre += b1.data
    _check_finite(pre, "ffn")
    out_data = np.matmul(_gelu_fwd(pre)[0], w2d)
    out_data += b2.data
    keep = _dropout_keep(out_data.shape, p, train, rng)
    if keep is not None:
        _dropped(out_data, keep, p, out=out_data)

    def back(g, sink):
        # inputs: 0 x, 1 ln_g, 2 ln_b, 3 w1, 4 b1, 5 w2, 6 b2
        if keep is not None:
            g = _dropped(g, keep, p)
        sink(6, g)
        g_rows = g.reshape(-1, d)
        act, t = _gelu_fwd(pre)
        sink(5, act.reshape(-1, f).T @ g_rows)
        del act
        g_pre = _gelu_bwd(pre, t, (g_rows @ w2d.T).reshape(pre.shape))
        del t
        sink(4, g_pre)
        g_rows = g_pre.reshape(-1, f)
        sink(3, _layer_norm_affine(xhat, gd, bd).reshape(-1, d).T @ g_rows)
        _layer_norm_bwd(xhat, inv, gd, (g_rows @ w1d.T).reshape(xhat.shape), sink)

    return _result(out_data, "ffn", (x, ln_g, ln_b, w1, b1, w2, b2), back)
