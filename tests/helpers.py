"""Shared test oracles: finite-difference gradient checking, and a
checkpoint header editor.

The numeric side reads op outputs through a float64 projection so the
only noise left is the float32 quantization of the op itself. Relative
error uses a small absolute floor so near-zero gradients are compared
absolutely instead of blowing up the ratio.
"""

import json

import numpy as np

from occlm import model
from occlm import tensor as T


def fd_grad(loss_fn, tensors, h):
    """Central finite differences of a float-valued loss over each tensor.

    loss_fn must be deterministic and read the tensors' current .data.
    Uses the actually-realized perturbation (fl(x+h) - fl(x-h)) as the
    denominator to cancel float32 input rounding.
    """
    grads = []
    for t in tensors:
        flat = t.data.reshape(-1)
        g = np.zeros(flat.shape, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi_x = float(flat[i])
            hi = loss_fn()
            flat[i] = orig - h
            lo_x = float(flat[i])
            lo = loss_fn()
            flat[i] = orig
            g[i] = (hi - lo) / (hi_x - lo_x)
        grads.append(g.reshape(t.data.shape))
    return grads


def max_rel_err(analytic, numeric, floor):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom))


def check_op_grads(op_fn, inputs, h=1e-3, rtol=1e-3, floor=0.5, seed=0):
    """Gradient-check one op against central differences.

    op_fn(*inputs) -> Tensor. The op output is contracted with a fixed
    random +-1 projection to produce a scalar; analytic grads come from the
    tape, numeric grads from fd_grad on the same projected readout (float64).
    Returns the worst relative error across all inputs.
    """
    rng = np.random.default_rng(seed)
    probe = rng.choice([-1.0, 1.0], size=op_fn(*inputs).shape)

    def f64_loss():
        return float((op_fn(*inputs).data.astype(np.float64) * probe).sum())

    with T.Tape() as tape:
        out = op_fn(*inputs)
        loss = T.sum_all(T.mul(out, T.Tensor(probe)))
        T.backward(loss, tape)

    worst = 0.0
    numeric = fd_grad(f64_loss, inputs, h)
    for t, num in zip(inputs, numeric):
        assert t.grad is not None, "op recorded no gradient for an input"
        worst = max(worst, max_rel_err(t.grad, num, floor))
        t.zero_grad()
    assert worst <= rtol, f"gradient mismatch: max rel err {worst:.3e} > {rtol}"
    return worst


def edit_checkpoint_config(path, edit):
    """Rewrite the header config of the checkpoint at path with edit(config),
    serialized as save_checkpoint does and with the length prefix to match."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(model.CKPT_MAGIC) + 8
    size = int.from_bytes(raw[len(model.CKPT_MAGIC):start], "little")
    header = json.loads(raw[start:start + size])
    edit(header["config"])
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(model.CKPT_MAGIC + len(blob).to_bytes(8, "little") + blob
                 + raw[start + size:])
