"""Shared test oracles: finite-difference gradient checking, a checkpoint
header editor, and a fit driven by scripted validation losses.

The numeric side reads op outputs through a float64 projection so the
only noise left is the float32 quantization of the op itself. Relative
error uses a small absolute floor so near-zero gradients are compared
absolutely instead of blowing up the ratio.
"""

import json
import math

import numpy as np

from occlm import corpus, metrics, model, train
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


def check_op_grads(op_fn, inputs, h=1e-3, rtol=1e-3, floor=0.5, seed=0,
                   richardson=False):
    """Gradient-check one op against central differences.

    op_fn(*inputs) -> Tensor. The op output is contracted with a fixed
    random +-1 projection to produce a scalar; analytic grads come from the
    tape, numeric grads from fd_grad on the same projected readout (float64).
    With richardson, the numeric grad is (4 D(h) - D(2h)) / 3, which cancels
    the central difference's h^2 error term: for an op whose curvature
    over h is large (a layer norm over a few low-spread features) that term
    alone can exceed rtol. Returns the worst relative error across all inputs.
    """
    rng = np.random.default_rng(seed)
    probe = rng.choice([-1.0, 1.0], size=op_fn(*inputs).shape)

    def f64_loss():
        return float((op_fn(*inputs).data.astype(np.float64) * probe).sum())

    with T.Tape() as tape:
        out = op_fn(*inputs)
        loss = T.sum_all(T.mul(out, T.Tensor(probe)))
        grads = T.backward(loss, tape)

    worst = 0.0
    numeric = fd_grad(f64_loss, inputs, h)
    if richardson:
        numeric = [(4.0 * near - far) / 3.0
                   for near, far in zip(numeric, fd_grad(f64_loss, inputs, 2 * h))]
    for t, num in zip(inputs, numeric):
        assert t in grads, "op recorded no gradient for an input"
        worst = max(worst, max_rel_err(grads[t], num, floor))
    assert worst <= rtol, f"gradient mismatch: max rel err {worst:.3e} > {rtol}"
    return worst


def edit_checkpoint_header(path, edit, size=None):
    """Rewrite the header of the checkpoint at path as edit(header),
    serialized as save_checkpoint does, with the length prefix to match, or
    size when given."""
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(model.CKPT_MAGIC) + 8
    old_size = int.from_bytes(raw[len(model.CKPT_MAGIC):start], "little")
    header = edit(json.loads(raw[start:start + old_size]))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    size = len(blob) if size is None else size
    with open(path, "wb") as fh:
        fh.write(model.CKPT_MAGIC + size.to_bytes(8, "little") + blob
                 + raw[start + old_size:])


def edit_checkpoint_config(path, edit):
    """Rewrite the header config of the checkpoint at path with edit(config)."""

    def edit_config(header):
        edit(header["config"])
        return header

    edit_checkpoint_header(path, edit_config)


def fit_on_scripted_losses(monkeypatch, losses, patience, max_epochs=None):
    """train.fit on a tiny model whose validation loss after epoch e is
    losses[e] (metrics.perplexity is patched); an epoch past the script
    raises IndexError. Returns (final TrainState, each epoch's
    epochs_since_improvement as on_epoch saw it)."""
    seen, since = [], []

    def scripted_perplexity(params, config, ds):
        seen.append(losses[len(seen)])
        return seen[-1], math.exp(seen[-1])

    def on_epoch(record, state):
        since.append(state.epochs_since_improvement)

    monkeypatch.setattr(metrics, "perplexity", scripted_perplexity)
    cfg = model.ModelConfig(vocab_size=16, block_size=8, d_model=8, n_layers=1,
                            n_heads=2, dropout=0.0, ffn_mult=2)
    ds = corpus.pack_ids([3, 4, 5, 6, 7, 2] * 6, 8)
    tcfg = train.TrainConfig(batch_size=8, patience=patience,
                             max_epochs=max_epochs or len(losses) + 3)
    _, state = train.fit(model.init(cfg, seed=0), ds, ds, tcfg,
                         on_epoch=on_epoch)
    return state, since
