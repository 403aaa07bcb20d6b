"""Seeded random hyperparameter search minimizing validation loss.

Each trial is a deterministic function of (spec.seed, trial_index), so sweeps
are reproducible, resumable from a partial results directory, and safe to run
in a worker pool: trials share nothing but the read-only datasets.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import artifacts, metrics, model, train
from .errors import ConfigError, DivergenceError, SweepError

# a run is declared divergent when the epoch train loss sits above this for
# this many consecutive epochs (non-finite losses abort at the step level)
DIVERGENCE_LOSS = 20.0
DIVERGENCE_EPOCHS = 3


@dataclass
class SweepSpec:
    base_model: model.ModelConfig
    base_train: train.TrainConfig
    lr_range: tuple = (1e-5, 1e-3)  # log-uniform
    n_layers_choices: tuple = (2, 4, 6, 8)
    n_heads_choices: tuple = (2, 4, 8)
    dropout_choices: tuple = (0.1, 0.3, 0.5)
    occlusion_prob_choices: tuple = (0.0,)  # {0.1, 0.3, 0.5} for occlusion
    trial_count: int = 20
    max_epochs: int = 100
    seed: int = 0

    def check(self):
        if len(self.lr_range) != 2 or not 0 < self.lr_range[0] <= self.lr_range[1]:
            raise ConfigError(f"bad lr_range {self.lr_range}")
        if self.trial_count < 1:
            raise ConfigError(f"trial_count must be >= 1, got {self.trial_count}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_layers_choices", "n_heads_choices", "dropout_choices",
                     "occlusion_prob_choices"):
            if not getattr(self, name):
                raise ConfigError(f"{name} is empty")
        for name in ("n_layers_choices", "n_heads_choices"):
            counts = getattr(self, name)
            if any(type(n) is not int or n < 1 for n in counts):
                raise ConfigError(f"{name} must be ints >= 1, got {list(counts)}")
        if not self.head_choices():
            raise ConfigError(
                f"no count in n_heads_choices {list(self.n_heads_choices)} "
                f"divides d_model={self.base_model.d_model}")
        if any(not (0 <= d < 1) for d in self.dropout_choices):
            raise ConfigError("dropout choices must lie in [0, 1)")
        if any(not (0 <= p <= 1) for p in self.occlusion_prob_choices):
            raise ConfigError("occlusion probabilities must lie in [0, 1]")
        return self

    def head_choices(self):
        """The n_heads_choices that divide the base d_model, in spec order."""
        return [n for n in self.n_heads_choices
                if self.base_model.d_model % n == 0]


@dataclass
class TrialRecord:
    trial_id: int
    sampled: dict
    history: list
    best_valid_loss: float
    best_valid_ppl: float
    stop_reason: str
    wall_s: float

    def check(self):
        if self.stop_reason not in ("early_stop", "max_epochs", "diverged"):
            raise ConfigError(f"unknown stop reason {self.stop_reason!r}")
        if self.history:
            want = min(h["valid_loss"] for h in self.history)
            if not math.isclose(self.best_valid_loss, want, rel_tol=1e-12):
                raise ConfigError(
                    f"best_valid_loss {self.best_valid_loss} != history min {want}"
                )
        return self


def sample_trial(spec, trial_index):
    """Deterministic draw for one trial: (TrainConfig, ModelConfig, sampled).

    The head count is drawn once from the choices that divide the base
    d_model (SweepSpec.check rejects a spec with none).
    """
    if not (0 <= trial_index < spec.trial_count):
        raise ConfigError(
            f"trial index {trial_index} outside 0..{spec.trial_count - 1}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([int(spec.seed), 0x7121A1, int(trial_index)])
    )
    lo, hi = spec.lr_range
    lr = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    n_layers = int(rng.choice(spec.n_layers_choices))
    n_heads = int(rng.choice(spec.head_choices()))
    dropout = float(rng.choice(spec.dropout_choices))
    occ = float(rng.choice(spec.occlusion_prob_choices))
    init_seed = int(rng.integers(0, 2**31 - 1))
    train_seed = int(rng.integers(0, 2**31 - 1))

    mcfg = dataclasses.replace(
        spec.base_model, n_layers=n_layers, n_heads=n_heads, dropout=dropout
    ).check()
    tcfg = dataclasses.replace(
        spec.base_train,
        base_lr=lr,
        occlusion_prob=occ,
        max_epochs=spec.max_epochs,
        seed=train_seed,
    ).check()
    sampled = {
        "base_lr": lr,
        "n_layers": n_layers,
        "n_heads": n_heads,
        "dropout": dropout,
        "occlusion_prob": occ,
        "init_seed": init_seed,
        "train_seed": train_seed,
    }
    return tcfg, mcfg, sampled


def divergence_rule(history):
    if len(history) < DIVERGENCE_EPOCHS:
        return False
    recent = history[-DIVERGENCE_EPOCHS:]
    return all(
        not math.isfinite(h["train_loss"]) or h["train_loss"] > DIVERGENCE_LOSS
        for h in recent
    )


def _trial_dir(out_dir, trial_id):
    return os.path.join(out_dir, f"trial_{trial_id}")


def _none_for_inf(x):
    return None if not math.isfinite(x) else x


def _inf_for_none(x):
    return math.inf if x is None else x


def record_to_dict(rec):
    return {
        "trial_id": rec.trial_id,
        "sampled": rec.sampled,
        "history": rec.history,
        "best_valid_loss": _none_for_inf(rec.best_valid_loss),
        "best_valid_ppl": _none_for_inf(rec.best_valid_ppl),
        "stop_reason": rec.stop_reason,
        "wall_s": rec.wall_s,
    }


def record_from_dict(d):
    return TrialRecord(
        trial_id=int(d["trial_id"]),
        sampled=dict(d["sampled"]),
        history=list(d["history"]),
        best_valid_loss=_inf_for_none(d["best_valid_loss"]),
        best_valid_ppl=_inf_for_none(d["best_valid_ppl"]),
        stop_reason=d["stop_reason"],
        wall_s=float(d["wall_s"]),
    ).check()


def trial_config(spec, trial_id):
    """What ``spec`` gives for one trial, as trial_<k>/config.json holds it."""
    tcfg, mcfg, sampled = sample_trial(spec, trial_id)
    return {
        "trial_id": trial_id,
        "sampled": sampled,
        "model": dataclasses.asdict(mcfg),
        "train": dataclasses.asdict(tcfg),
    }


def run_trial(spec, trial_id, train_ds, valid_ds, out_dir, vocab_hash, run_id):
    """Train one sampled configuration and persist its artifacts.

    A diverged run is recorded (stop_reason "diverged", no checkpoint), never
    raised; the sweep carries on.
    """
    config = trial_config(spec, trial_id)
    tdir = _trial_dir(out_dir, trial_id)
    artifacts.write_json(os.path.join(tdir, "config.json"), config)
    sampled = config["sampled"]
    mcfg = model.ModelConfig(**config["model"])
    tcfg = train.TrainConfig(**config["train"])

    params = model.init(mcfg, seed=sampled["init_seed"])
    trial_run_id = f"{run_id}/trial_{trial_id}"
    t0 = time.perf_counter()
    best_params = None
    try:
        sink = train.MetricsSink(os.path.join(tdir, "metrics.jsonl"))

        def on_epoch(record, state):
            sink.emit(run_id=trial_run_id, **record)
            return divergence_rule(state.history)

        best_params, state = train.fit(
            params, train_ds, valid_ds, tcfg, on_epoch=on_epoch
        )
        history = state.history
        stop_reason = state.stop_reason
    except DivergenceError as exc:
        history = list(exc.history or [])
        stop_reason = "diverged"
    wall_s = time.perf_counter() - t0

    if history:
        best_loss = min(h["valid_loss"] for h in history)
        best_ppl = metrics.safe_exp(best_loss)
    else:
        best_loss = math.inf
        best_ppl = math.inf
    rec = TrialRecord(
        trial_id=trial_id,
        sampled=sampled,
        history=history,
        best_valid_loss=best_loss,
        best_valid_ppl=best_ppl,
        stop_reason=stop_reason,
        wall_s=wall_s,
    ).check()

    if stop_reason != "diverged" and best_params is not None:
        model.save_checkpoint(
            os.path.join(tdir, "checkpoint.ckpt"),
            best_params,
            vocab_hash,
            metadata={"run_id": trial_run_id, "trial_id": trial_id,
                      "sampled": sampled},
        )
    artifacts.write_json(os.path.join(tdir, "record.json"), record_to_dict(rec))
    return rec


def leaderboard_order(records):
    """Ascending best validation loss; non-finite (no completed epoch) last."""
    return sorted(
        records,
        key=lambda r: (not math.isfinite(r.best_valid_loss),
                       r.best_valid_loss, r.trial_id),
    )


def run_sweep(
    spec,
    train_ds,
    valid_ds,
    out_dir,
    vocab_hash="0" * 64,
    run_id="sweep",
    parallel=0,
):
    """Execute (or resume) every trial; returns (best record, leaderboard).

    Readable trial_<k>/record.json files are loaded instead of re-run, so a
    crashed sweep picks up at its first missing trial. A truncated or invalid
    record counts as missing, and so does one whose trial_<k>/config.json is
    not what ``spec`` gives for trial k, so a sweep never mixes specs. The
    best record is the leaderboard head that finished with a checkpoint.
    """
    spec.check()
    if len(train_ds) == 0 or len(valid_ds) == 0:
        raise SweepError("sweep needs nonempty train and validation datasets")

    records = {}
    missing = []
    for k in range(spec.trial_count):
        tdir = _trial_dir(out_dir, k)
        want = trial_config(spec, k)
        try:
            if artifacts.read_json(os.path.join(tdir, "config.json")) == want:
                records[k] = record_from_dict(
                    artifacts.read_json(os.path.join(tdir, "record.json")))
        except (OSError, ValueError, KeyError, TypeError, ConfigError):
            pass  # absent, truncated or invalid: re-run
        if k not in records:
            missing.append(k)

    def _run(k):
        return run_trial(spec, k, train_ds, valid_ds, out_dir, vocab_hash, run_id)

    if parallel > 1 and len(missing) > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            for k, rec in zip(missing, pool.map(_run, missing)):
                records[k] = rec
    else:
        for k in missing:
            records[k] = _run(k)

    board = leaderboard_order(records.values())
    artifacts.write_json(os.path.join(out_dir, "leaderboard.json"),
                         [record_to_dict(r) for r in board])

    best = next(
        (
            r for r in board
            if r.stop_reason != "diverged"
            and os.path.exists(
                os.path.join(_trial_dir(out_dir, r.trial_id), "checkpoint.ckpt")
            )
        ),
        None,
    )
    if best is None:
        raise SweepError(
            f"no trial completed: all {spec.trial_count} diverged"
        )
    artifacts.write_json(
        os.path.join(out_dir, "best.json"),
        {
            "trial_id": best.trial_id,
            "checkpoint": os.path.join(
                f"trial_{best.trial_id}", "checkpoint.ckpt"
            ),
            "best_valid_loss": best.best_valid_loss,
            "best_valid_ppl": best.best_valid_ppl,
        },
    )
    return best, board


def sweep_report(records):
    """Plot-ready summary: one table row per trial plus per-epoch curves.

    The table carries every sampled parameter as its own column, so the rows
    line up for parallel-coordinates rendering; curves key per-trial history
    by trial id. Nothing is rendered here.
    """
    if not records:
        raise ConfigError("sweep_report needs at least one record")
    columns = sorted({key for r in records for key in r.sampled})
    rows = []
    for r in records:
        row = {c: r.sampled.get(c) for c in columns}
        row.update(
            trial_id=r.trial_id,
            best_valid_loss=_none_for_inf(r.best_valid_loss),
            best_valid_ppl=_none_for_inf(r.best_valid_ppl),
            stop_reason=r.stop_reason,
            wall_s=r.wall_s,
            n_epochs=len(r.history),
        )
        rows.append(row)
    curves = {
        str(r.trial_id): [
            {
                "epoch": h["epoch"],
                "train_loss": h["train_loss"],
                "valid_loss": h["valid_loss"],
                "valid_ppl": h["valid_ppl"],
            }
            for h in r.history
        ]
        for r in records
    }
    return {"columns": columns, "table": rows, "curves": curves}


def write_sweep_report(path, records):
    report = sweep_report(records)
    artifacts.write_json(path, report)
    return report


# --- SweepSpec (de)serialization for `occlm sweep --spec file.json` ---------


# base_model takes no vocab_size, which the vocabulary fixes, and base_train
# no field that sample_trial sets for every trial: the sampled lr, occlusion
# probability and seed, and the spec's max_epochs
SPEC_TYPES = dict(
    model.field_types(SweepSpec),
    base_model=model.field_types(model.ModelConfig, "vocab_size"),
    base_train=model.field_types(
        train.TrainConfig, "base_lr", "occlusion_prob", "seed", "max_epochs"
    ),
)


def spec_to_dict(spec):
    d = dataclasses.asdict(spec)
    for section in ("base_model", "base_train"):
        d[section] = {k: v for k, v in d[section].items()
                      if k in SPEC_TYPES[section]}
    return d


def spec_from_dict(d, vocab_size, where="sweep spec"):
    """A checked SweepSpec for a vocabulary of ``vocab_size`` tokens, from a
    dict read from outside the program; ``where`` names the input in errors."""
    d = dict(model.check_fields(where, d, SPEC_TYPES))
    model_d, train_d = d.pop("base_model", None), d.pop("base_train", None)
    if model_d is None or train_d is None:
        raise ConfigError(f"{where} needs base_model and base_train objects")
    d = {k: tuple(v) if SPEC_TYPES[k] == "tuple" else v for k, v in d.items()}
    return SweepSpec(
        base_model=model.ModelConfig(vocab_size=vocab_size, **model_d).check(),
        base_train=train.TrainConfig(**train_d), **d,
    ).check()
