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
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    DivergenceError,
    NumericsError,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# gradual unfreezing (ULMFiT's fixed policy; see frozen_names)
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
    """Optimizer state and epoch history; the epoch count and the best-loss
    facts below are read from the history, so they cannot contradict it."""

    step: int
    m: dict
    v: dict
    t: dict
    rng: np.random.Generator
    history: list = field(default_factory=list)
    stop_reason: str | None = None

    @property
    def epoch(self):
        return len(self.history)  # epochs completed: the next one's index

    @property
    def best_valid_loss(self):
        best = best_record(self.history)
        return math.inf if best is None else best["valid_loss"]

    @property
    def best_epoch(self):
        best = best_record(self.history)
        return None if best is None else best["epoch"]

    @property
    def epochs_since_improvement(self):
        best = best_record(self.history)
        return 0 if best is None else len(self.history) - 1 - self.history.index(best)


def best_record(history):
    """The first record with the least valid_loss (a later tie is no
    improvement), or None for an empty history."""
    return min(history, key=lambda h: h["valid_loss"], default=None)


def init_state(params, cfg):
    return TrainState(
        step=0,
        m={n: np.zeros(params[n].shape, dtype=T.DTYPE) for n in params.names()},
        v={n: np.zeros(params[n].shape, dtype=T.DTYPE) for n in params.names()},
        t={n: 0 for n in params.names()},
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

    Each shard runs forward, cross-entropy and backward on its own tape over
    the parameter tensors themselves (backward returns the shard's gradients
    and writes nothing onto them), and backpropagates its loss times
    d_j / D, where d_j is its count of scored targets and D the batch's.
    The loss is the d_j / D-weighted sum of shard losses and the grads are
    the shard grads summed in shard order, so both equal the unsharded ones
    up to float32 rounding. Shards share no mutable state:
    shard 0 draws its dropout rows from rng and shard 1 from a PCG64 copy of
    rng's starting state (see _RowDraws), so the masks and rng's final state
    equal an unsharded forward's. Shard 1 runs on the shard worker when there
    is one; both shards finish before an error from either propagates.
    Returns (loss, name -> grad).
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
        with T.Tape() as tape, np.errstate(all="ignore"):
            # no name holds the logits, so backward frees them once used
            loss = T.cross_entropy(
                model.forward(params, params.config, x[part], train=True,
                              rng=draws[j]),
                batch.targets[part], ignore_mask=batch.ignore[part],
            )
            grads = T.backward(T.scale(loss, d[j] / total), tape)
        return float(loss.data), grads

    results = shards.run(run, len(d))
    loss = sum(d_j / total * loss_j for d_j, (loss_j, _) in zip(d, results))
    grads = {name: functools.reduce(np.add, [g[t] for _, g in results])
             for name, t in params.items()}
    return loss, grads


def train_step(params, state, batch, cfg, lr=None, batch_index=None,
               frozen=()):
    """One forward/backward/AdamW update on a Batch. Returns (loss, state).

    The loss is the plain mean over the scored target positions for both
    objectives: occlusion corrupts the inputs only. Parameters named in
    frozen do not move; they and their moments stay bit-identical. Decoupled
    weight decay is scaled by lr and applied to matrix-shaped parameters
    only. Large minibatches run as two row shards (see loss_and_grads);
    occlusion is drawn for the full batch first, then each shard draws its
    own rows of the full-batch dropout masks."""
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
        adamw_update(params, state,
                     {n: g for n, g in grads.items() if n not in frozen},
                     lr, cfg)
    except NumericsError as exc:
        raise DivergenceError(
            f"non-finite value at step {state.step}, batch {batch_index}, "
            f"lr {lr:.3g}: {exc}",
            step=state.step, lr=lr, batch_index=batch_index,
        ) from exc
    state.step += 1
    return loss_val, state


def adamw_update(params, state, grads, lr, cfg):
    """AdamW with bias correction and decoupled, lr-scaled weight decay,
    applied to each parameter named in grads (name -> gradient).

    Decay applies to matrix-shaped parameters only (embeddings, projections);
    vectors (biases, layer-norm) are exempt. Per-parameter step counters keep
    bias correction right when parameters unfreeze at different epochs.

    A finite gradient can still overflow the bias-corrected second moment
    (float32, from about 1.8e19 on the first step); that raises NumericsError
    naming the parameter before its data moves."""
    for name, g in grads.items():
        p = params[name]
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


def frozen_names(params, epoch):
    """The parameter names gradual unfreezing keeps frozen at epoch.

    The top UNFREEZE_TOP_K blocks and the head (the final layer norm) train
    from epoch 0, one more block opens every UNFREEZE_INTERVAL_EPOCHS epochs,
    top to bottom, and the embeddings (with the tied output projection)
    open once every block is open. A model of at most UNFREEZE_TOP_K layers
    freezes nothing, even at epoch 0."""
    n_layers = params.config.n_layers
    n_open = UNFREEZE_TOP_K + epoch // UNFREEZE_INTERVAL_EPOCHS
    closed = {f"block{i}" for i in range(n_layers - n_open)}
    if n_open < n_layers:
        closed.add("embeddings")
    return frozenset(n for n in params.names()
                     if model.ParameterSet.group(n) in closed)


def _epoch_order(cfg, epoch, n):
    rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0x5EED, epoch]))
    return rng.permutation(n)


def fit(
    params,
    train_ds,
    valid_ds,
    cfg,
    unfreeze=False,
    on_epoch=None,
    state=None,
    best_params=None,
):
    """Train until early-stop/max-epochs; returns (best params, TrainState).

    Per epoch: full train pass (shuffled deterministically per seed+epoch),
    then validation loss + perplexity without occlusion or dropout. The
    epoch's record {epoch, step, lr, occlusion_prob, train_loss, train_ppl,
    valid_loss, valid_ppl, wall_ms} is appended to state.history and then,
    once the best snapshot is taken, passed to on_epoch(record, state); a
    truthy return ends the run with stop_reason "diverged". Only a validation
    loss strictly below the best so far is an improvement, and the run stops
    once cfg.patience epochs in a row bring none. The returned parameters
    are the best-validation snapshot, not the last. A DivergenceError carries
    the history accumulated so far. With unfreeze, each epoch trains all but
    frozen_names(params, epoch) (gradual unfreezing, for fine-tuning). Resume
    with a saved state and its best_params.
    """
    cfg.check()
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise DataError("fit needs nonempty train and validation datasets")
    if state is None:
        state = init_state(params, cfg)
    n_batches = math.ceil(len(train_ds) / cfg.batch_size)
    total_steps = n_batches * cfg.max_epochs
    if best_params is None:
        if state.history:
            raise ContractError(
                f"resuming after {state.epoch} epochs needs their best_params")
        best_params = params.copy()
    state.stop_reason = None

    while state.epoch < cfg.max_epochs:
        epoch = state.epoch
        frozen = frozen_names(params, epoch) if unfreeze else ()
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
                    params, state, batch, cfg, lr=lr, batch_index=b,
                    frozen=frozen,
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
            raise DivergenceError(
                f"non-finite value at step {state.step}, validation, "
                f"lr {lr:.3g}: {exc}",
                step=state.step, lr=lr, batch_index=None,
                history=state.history,
            ) from exc
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
        if state.best_epoch == epoch:
            best_params = params.copy()

        if on_epoch is not None and on_epoch(record, state):
            state.stop_reason = "diverged"
            break
        if state.epochs_since_improvement >= cfg.patience:
            state.stop_reason = "early_stop"
            break
    if state.stop_reason is None:
        state.stop_reason = "max_epochs"
    return best_params, state


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
        "t": state.t,
        "rng_state": state.rng.bit_generator.state,
        "history": state.history,
    }
    model.save_checkpoint(path, params, vocab_hash, metadata=meta, extras=extras)


def load_train_checkpoint(path, expect_config=None, expect_vocab_hash=None):
    """Returns (params, state, best_params or None, header). A state file
    holds no stop reason (fit sets it) and nothing of gradual unfreezing: a
    resumed fine-tune passes unfreeze=True to fit, which derives each
    epoch's frozen names from the epoch."""
    params, header, extras = model.load_checkpoint(
        path, expect_config=expect_config, expect_vocab_hash=expect_vocab_hash
    )
    try:
        meta = header["metadata"]["train_state"]
        rng = np.random.default_rng()
        rng.bit_generator.state = meta["rng_state"]
        state = TrainState(
            step=meta["step"],
            m={n: extras[f"adam.m.{n}"] for n in params.names()},
            v={n: extras[f"adam.v.{n}"] for n in params.names()},
            t={n: int(meta["t"][n]) for n in params.names()},
            rng=rng,
            history=list(meta["history"]),
        )
    except KeyError as exc:
        raise CheckpointError(
            f"{path} is not a training state file: it has no {exc.args[0]!r}"
        ) from exc
    best_params = None
    if any(k.startswith("best.") for k in extras):
        best_params = model.ParameterSet(params.config, {
            n: T.Tensor(extras[f"best.{n}"].copy()) for n in params.names()
        })
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
