"""Training engine: standard and occlusion objectives, AdamW with linear
warmup/decay, early stopping, gradual unfreezing, and the JSONL metrics sink.

The occlusion objective corrupts only the inputs: eligible positions are
replaced by the occlusion id at probability p, while the loss targets stay
exactly the pack() targets, so the model must recover occluded tokens from
the surrounding left context.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import artifacts, bpe, metrics, model, shards
from . import tensor as T
from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    NumericsError,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# gradual unfreezing (ULMFiT's fixed policy): the top UNFREEZE_TOP_K blocks
# and the head train from the first epoch, one more block opens every
# UNFREEZE_INTERVAL_EPOCHS epochs, and the embeddings open last
UNFREEZE_TOP_K = 2
UNFREEZE_INTERVAL_EPOCHS = 2


@dataclass
class TrainConfig:
    batch_size: int = 16
    max_epochs: int = 100
    base_lr: float = 1e-4
    warmup_fraction: float = 0.1
    weight_decay: float = 1e-2
    patience: int = 5
    occlusion_prob: float = 0.0
    seed: int = 0

    def check(self):
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )
        if not (0.0 <= self.occlusion_prob <= 1.0):
            raise ConfigError(
                f"occlusion_prob {self.occlusion_prob} outside [0, 1]"
            )
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            raise ConfigError(
                f"warmup_fraction {self.warmup_fraction} outside [0, 1)"
            )
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


@dataclass
class TrainState:
    step: int
    epoch: int
    m: dict
    v: dict
    t: dict
    best_valid_loss: float
    epochs_since_improvement: int
    freeze_mask: model.FreezeMask
    rng: np.random.Generator
    history: list = field(default_factory=list)
    best_epoch: int | None = None
    stop_reason: str | None = None


def init_state(params, cfg, freeze_mask=None):
    mask = freeze_mask or model.FreezeMask.all_trainable(params.config)
    return TrainState(
        step=0,
        epoch=0,
        m={n: np.zeros(params[n].shape, dtype=T.DTYPE) for n in params.names()},
        v={n: np.zeros(params[n].shape, dtype=T.DTYPE) for n in params.names()},
        t={n: 0 for n in params.names()},
        best_valid_loss=math.inf,
        epochs_since_improvement=0,
        freeze_mask=mask.check(params.config),
        rng=np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x0CC])),
    )


def occlude_batch(inputs, p, rng):
    """Replace non-special positions with bpe.OCC_ID at probability p.

    Returns (occluded copy, flags). Targets are never touched here; callers
    keep using the original pack() targets.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"occlusion probability {p} outside [0, 1]")
    inputs = np.asarray(inputs)
    out = inputs.copy()
    if p == 0.0:
        return out, np.zeros(inputs.shape, dtype=bool)
    eligible = ~np.isin(inputs, bpe.SPECIAL_IDS)
    flags = eligible & (rng.random(inputs.shape) < p)
    out[flags] = bpe.OCC_ID
    return out, flags


def lr_at(step, total_steps, cfg):
    """Linear 0 -> base_lr ramp over the warmup span, then linear decay to 0."""
    if total_steps <= 0:
        raise ConfigError(f"total_steps must be positive, got {total_steps}")
    if not (0 <= step <= total_steps):
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    warm = cfg.warmup_fraction * total_steps
    if warm > 0 and step <= warm:
        return cfg.base_lr * step / warm
    return cfg.base_lr * (total_steps - step) / (total_steps - warm)


class _RowDraws:
    """Duck-typed `Generator.random` for the row shard lo:hi of a rows-row
    minibatch: each random(shape) call returns rows lo:hi of the full-batch
    (rows, *shape[1:]) draw that gen would make, skipping the other rows
    with `bit_generator.advance`.

    This assumes a PCG64 bit generator, which spends one 64-bit step per
    float64 (init_state and load_train_checkpoint both build PCG64
    generators). The shard's draws are then exactly its rows of the
    unsharded draws, and gen ends where an unsharded forward leaves it."""

    def __init__(self, gen, lo, hi, rows):
        self.gen = gen
        self.lo = lo
        self.hi = hi
        self.rows = rows

    def random(self, shape):
        row_size = math.prod(shape[1:])
        self.gen.bit_generator.advance(self.lo * row_size)
        out = self.gen.random((self.hi - self.lo,) + tuple(shape[1:]))
        self.gen.bit_generator.advance((self.rows - self.hi) * row_size)
        return out


def loss_and_grads(params, x, batch, rng, n_shards):
    """Training loss and parameter grads of one minibatch, run as n_shards
    (1 or 2) row shards; a shard whose targets are all ignored makes it one
    shard.

    Each shard runs forward, cross-entropy and backward on its own tape and
    its own leaf tensors (sharing the parameter data), and backpropagates its
    loss times d_j / D, where d_j is its count of scored targets and D the
    batch's. The loss is the d_j / D-weighted sum of shard losses and the
    grads are the shard grads summed in shard order, so both equal the
    unsharded ones up to float32 rounding. Shards share no mutable state:
    shard 0 draws its dropout rows from rng and shard 1 from a PCG64 copy of
    rng's starting state (see _RowDraws), so the masks and rng's final state
    equal an unsharded forward's. Shard 1 runs on the shard worker when there
    is one; both shards finish before an error from either propagates.
    Returns (loss, name -> grad or None).
    """
    rows = len(x)
    bounds = (0, rows) if n_shards == 1 else (0, (rows + 1) // 2, rows)
    scored = ~batch.ignore
    d = [int(scored[lo:hi].sum()) for lo, hi in zip(bounds, bounds[1:])]
    if 0 in d:
        bounds, d = (0, rows), [sum(d)]
    total = sum(d)
    gens = [rng]
    if len(d) == 2:
        bit_gen = np.random.PCG64()
        bit_gen.state = rng.bit_generator.state
        gens.append(np.random.Generator(bit_gen))
    draws = [_RowDraws(gen, lo, hi, rows)
             for gen, lo, hi in zip(gens, bounds, bounds[1:])]

    def run(j):
        part = slice(bounds[j], bounds[j + 1])
        leaves = {
            name: T.Tensor(t.data, requires_grad=True, name=name)
            for name, t in params.items()
        }
        shard = model.ParameterSet(params.config, leaves)
        with T.Tape() as tape, np.errstate(all="ignore"):
            logits = model.forward(shard, params.config, x[part], train=True,
                                   rng=draws[j])
            loss = T.cross_entropy(
                logits, batch.targets[part], ignore_mask=batch.ignore[part],
            )
            T.backward(T.scale(loss, d[j] / total), tape)
        return float(loss.data), {n: t.grad for n, t in leaves.items()}

    results = shards.run(run, len(d))
    loss = sum(d_j / total * loss_j for d_j, (loss_j, _) in zip(d, results))
    grads = {}
    for name in params.names():
        shard_grads = [g[name] for _, g in results if g[name] is not None]
        grads[name] = functools.reduce(np.add, shard_grads) if shard_grads else None
    return loss, grads


def train_step(params, state, batch, cfg, lr=None, batch_index=None):
    """One forward/backward/AdamW update on a Batch. Returns (loss, state).

    The loss is the plain mean over the scored target positions for both
    objectives: occlusion corrupts the inputs only. Only parameters allowed
    by state.freeze_mask move; frozen parameters and their moments stay
    bit-identical. Decoupled weight decay is scaled by lr and applied to
    matrix-shaped parameters only. Large minibatches run as two row shards
    (see loss_and_grads); occlusion is drawn for the full batch first, then
    each shard draws its own rows of the full-batch dropout masks."""
    lr = cfg.base_lr if lr is None else lr
    x = batch.inputs
    if cfg.occlusion_prob > 0:
        x, _ = occlude_batch(x, cfg.occlusion_prob, state.rng)

    try:
        loss_val, grads = loss_and_grads(
            params, x, batch, state.rng,
            shards.shard_count(x, params.config.d_model),
        )
        if not math.isfinite(loss_val):
            raise NumericsError("training loss is not finite")
        for name, grad in grads.items():
            params[name].grad = grad
        adamw_update(params, state, state.freeze_mask.trainable_names(params),
                     lr, cfg)
    except NumericsError as exc:
        raise DivergenceError(
            f"non-finite value during training step: {exc}",
            step=state.step, lr=lr, batch_index=batch_index,
        ) from exc
    state.step += 1
    return loss_val, state


def adamw_update(params, state, names, lr, cfg):
    """AdamW with bias correction and decoupled, lr-scaled weight decay.

    Decay applies to matrix-shaped parameters only (embeddings, projections);
    vectors (biases, layer-norm) are exempt. Per-parameter step counters keep
    bias correction right when parameters unfreeze at different epochs.

    A finite gradient can still overflow the bias-corrected second moment
    (float32, from about 1.8e19 on the first step); that raises NumericsError
    naming the parameter before its data moves."""
    for name in names:
        p = params[name]
        g = p.grad
        if g is None:
            continue
        state.t[name] += 1
        tt = state.t[name]
        m = state.m[name]
        v = state.v[name]
        with np.errstate(over="ignore"):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * g * g
            m_hat = m / T.DTYPE(1 - ADAM_BETA1**tt)
            v_hat = v / T.DTYPE(1 - ADAM_BETA2**tt)
        if not np.isfinite(v_hat).all():
            raise NumericsError(f"AdamW second moment of {name} overflowed")
        if cfg.weight_decay and p.data.ndim >= 2:
            p.data -= T.DTYPE(lr * cfg.weight_decay) * p.data
        p.data -= T.DTYPE(lr) * m_hat / (np.sqrt(v_hat) + T.DTYPE(ADAM_EPS))


class EarlyStopper:
    """Patience counter over validation losses; improvement is strict <."""

    def __init__(self, patience, best=math.inf, since=0, best_epoch=None):
        if patience < 1:
            raise ConfigError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best = best
        self.since = since
        self.best_epoch = best_epoch

    def update(self, loss, epoch=None):
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.since = 0
            return True
        self.since += 1
        return False

    @property
    def should_stop(self):
        return self.since >= self.patience


def unfreeze_schedule(config):
    """Gradual unfreezing: the top UNFREEZE_TOP_K blocks + head first, one
    more block every UNFREEZE_INTERVAL_EPOCHS (top to bottom); embeddings
    open once every block is open."""

    def mask_at(epoch):
        n_open = min(config.n_layers,
                     UNFREEZE_TOP_K + epoch // UNFREEZE_INTERVAL_EPOCHS)
        blocks = tuple(i >= config.n_layers - n_open for i in range(config.n_layers))
        return model.FreezeMask(embeddings=(n_open >= config.n_layers),
                                blocks=blocks)

    return mask_at


def _epoch_order(cfg, epoch, n):
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x5EED, epoch]))
    return rng.permutation(n)


def fit(
    params,
    train_ds,
    valid_ds,
    cfg,
    freeze_schedule=None,
    on_epoch=None,
    state=None,
    best_params=None,
):
    """Train until early-stop/max-epochs; returns (best params, TrainState).

    Per epoch: full train pass (shuffled deterministically per seed+epoch),
    then validation loss + perplexity without occlusion or dropout. The
    epoch's record {epoch, step, lr, occlusion_prob, train_loss, train_ppl,
    valid_loss, valid_ppl, wall_ms} is appended to state.history, and then,
    once the best snapshot and state.epoch are updated, passed to
    on_epoch(record, state); a truthy return ends the run with stop_reason
    "diverged". The returned parameters are the best-validation snapshot,
    not the last. A DivergenceError carries the history accumulated so far.
    Pass a previously saved state to resume mid-run.
    """
    cfg.check()
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise DataError("fit needs nonempty train and validation datasets")
    if state is None:
        state = init_state(params, cfg)
    n_batches = math.ceil(len(train_ds) / cfg.batch_size)
    total_steps = n_batches * cfg.max_epochs
    stopper = EarlyStopper(
        cfg.patience,
        best=state.best_valid_loss,
        since=state.epochs_since_improvement,
        best_epoch=state.best_epoch,
    )
    if best_params is None:
        best_params = params.copy()
    state.stop_reason = None

    while state.epoch < cfg.max_epochs:
        epoch = state.epoch
        if freeze_schedule is not None:
            state.freeze_mask = freeze_schedule(epoch).check(params.config)
        order = _epoch_order(cfg, epoch, len(train_ds))
        start_index = state.step - epoch * n_batches
        if not (0 <= start_index < n_batches):
            raise ContractError(
                f"resume state is inconsistent: step {state.step} vs epoch {epoch}"
            )
        t0 = time.perf_counter()
        nll_sum = 0.0
        tok_sum = 0
        lr = cfg.base_lr
        for b in range(start_index, n_batches):
            idx = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            batch = train_ds.minibatch(idx)
            lr = lr_at(state.step, total_steps, cfg)
            try:
                loss_val, _ = train_step(
                    params, state, batch, cfg, lr=lr, batch_index=b
                )
            except DivergenceError as exc:
                exc.history = state.history
                raise
            n_tok = int((~batch.ignore).sum())
            nll_sum += loss_val * n_tok
            tok_sum += n_tok
        train_loss = nll_sum / max(tok_sum, 1)
        try:
            valid_loss, valid_ppl = metrics.perplexity(
                params, params.config, valid_ds
            )
        except NumericsError as exc:
            err = DivergenceError(
                f"non-finite value during validation: {exc}",
                step=state.step, lr=lr, batch_index=None,
            )
            err.history = state.history
            raise err from exc
        wall_ms = (time.perf_counter() - t0) * 1000.0

        record = {
            "epoch": epoch,
            "step": state.step,
            "lr": lr,
            "occlusion_prob": cfg.occlusion_prob,
            "train_loss": train_loss,
            "train_ppl": metrics.safe_exp(train_loss),
            "valid_loss": valid_loss,
            "valid_ppl": valid_ppl,
            "wall_ms": wall_ms,
        }
        state.history.append(record)

        if stopper.update(valid_loss, epoch):
            best_params = params.copy()
        state.best_valid_loss = stopper.best
        state.epochs_since_improvement = stopper.since
        state.best_epoch = stopper.best_epoch
        state.epoch = epoch + 1

        if on_epoch is not None and on_epoch(record, state):
            state.stop_reason = "diverged"
            break
        if stopper.should_stop:
            state.stop_reason = "early_stop"
            break
    if state.stop_reason is None:
        state.stop_reason = "max_epochs"
    return best_params, state


def finetune(params, train_ds, valid_ds, cfg, on_epoch=None, state=None):
    """Fine-tune with gradual unfreezing (see unfreeze_schedule).
    Checkpoint/config agreement is enforced where the checkpoint is loaded."""
    schedule = unfreeze_schedule(params.config)
    return fit(
        params,
        train_ds,
        valid_ds,
        cfg,
        freeze_schedule=schedule,
        on_epoch=on_epoch,
        state=state,
    )


# ---------------------------------------------------------------------------
# Training checkpoints (parameters + optimizer state, resumable)
# ---------------------------------------------------------------------------


def save_train_checkpoint(path, params, state, vocab_hash, metadata=None, best_params=None):
    extras = {}
    for name in params.names():
        extras[f"adam.m.{name}"] = state.m[name]
        extras[f"adam.v.{name}"] = state.v[name]
    if best_params is not None:
        for name in best_params.names():
            extras[f"best.{name}"] = best_params[name].data
    meta = dict(metadata or {})
    meta["train_state"] = {
        "step": state.step,
        "epoch": state.epoch,
        "t": state.t,
        "best_valid_loss": state.best_valid_loss,
        "epochs_since_improvement": state.epochs_since_improvement,
        "best_epoch": state.best_epoch,
        "stop_reason": state.stop_reason,
        "freeze_mask": {
            "embeddings": state.freeze_mask.embeddings,
            "blocks": list(state.freeze_mask.blocks),
        },
        "rng_state": state.rng.bit_generator.state,
        "history": state.history,
    }
    model.save_checkpoint(path, params, vocab_hash, metadata=meta, extras=extras)


def load_train_checkpoint(path, expect_config=None, expect_vocab_hash=None):
    """Returns (params, state, best_params or None, header)."""
    params, header, extras = model.load_checkpoint(
        path, expect_config=expect_config, expect_vocab_hash=expect_vocab_hash
    )
    meta = header["metadata"]["train_state"]
    rng = np.random.default_rng()
    rng.bit_generator.state = meta["rng_state"]
    mask = model.FreezeMask(
        embeddings=meta["freeze_mask"]["embeddings"],
        blocks=tuple(meta["freeze_mask"]["blocks"]),
    )
    state = TrainState(
        step=meta["step"],
        epoch=meta["epoch"],
        m={n: extras[f"adam.m.{n}"] for n in params.names()},
        v={n: extras[f"adam.v.{n}"] for n in params.names()},
        t={n: int(meta["t"][n]) for n in params.names()},
        best_valid_loss=meta["best_valid_loss"],
        epochs_since_improvement=meta["epochs_since_improvement"],
        freeze_mask=mask,
        rng=rng,
        history=list(meta["history"]),
        best_epoch=meta["best_epoch"],
        stop_reason=meta["stop_reason"],
    )
    best_params = None
    if any(k.startswith("best.") for k in extras):
        tensors = {
            n: T.Tensor(extras[f"best.{n}"].copy(), requires_grad=True, name=n)
            for n in params.names()
        }
        best_params = model.ParameterSet(params.config, tensors)
    return params, state, best_params, header


# ---------------------------------------------------------------------------
# Metrics sink
# ---------------------------------------------------------------------------


class MetricsSink:
    """JSONL metrics file: emit(**fields) adds one JSON object line (training
    runs emit each fit record plus run_id) and atomically rewrites the file,
    so each record is on disk when emit() returns. The sink starts the file
    empty, so a rerun into the same path replaces the earlier run's lines."""

    def __init__(self, path):
        self.path = path
        self._lines = []
        artifacts.write_text(path, "")

    def emit(self, **fields):
        self._lines.append(json.dumps(fields, sort_keys=True) + "\n")
        artifacts.write_text(self.path, "".join(self._lines))
