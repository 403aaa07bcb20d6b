"""Training engine tests.

Occlusion gets a binomial oracle plus bit-identity checks on targets; AdamW
is checked step-for-step against a float64 hand recurrence; the schedule,
early stopping, freezing, and resume contracts are exercised directly.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fit_on_scripted_losses

from occlm import bpe, corpus, demo, metrics, model, shards, sweep, train
from occlm import tensor as T
from occlm.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DivergenceError,
    NumericsError,
)

SPECIALS = bpe.SPECIAL_IDS
OCC = bpe.OCC_ID


def tiny_config(**over):
    base = dict(
        vocab_size=16, block_size=8, d_model=8, n_layers=1, n_heads=2,
        dropout=0.0, ffn_mult=2,
    )
    base.update(over)
    return model.ModelConfig(**base).check()


def tiny_dataset(stream=None, block_size=8):
    if stream is None:
        stream = ([3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2] * 12)
    return corpus.pack_ids(stream, block_size)


def tiny_train_config(**over):
    base = dict(batch_size=4, max_epochs=3, base_lr=2e-3, patience=10, seed=0)
    base.update(over)
    return train.TrainConfig(**base).check()


# ---------------------------------------------------------------------------
# occlude_batch
# ---------------------------------------------------------------------------


def test_occlude_p0_is_identity():
    rng = np.random.default_rng(0)
    inputs = np.array([[3, 4, 0, 2], [5, 1, 6, 7]])
    out, flags = train.occlude_batch(inputs, 0.0, rng)
    assert np.array_equal(out, inputs)
    assert not flags.any()


def test_occlude_p1_hits_every_eligible_position():
    rng = np.random.default_rng(0)
    inputs = np.array([[3, 4, 0, 2], [5, 1, 6, 7]])
    out, flags = train.occlude_batch(inputs, 1.0, rng)
    eligible = ~np.isin(inputs, SPECIALS)
    assert np.array_equal(flags, eligible)
    assert (out[eligible] == OCC).all()
    # special positions pass through untouched
    assert np.array_equal(out[~eligible], inputs[~eligible])


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
def test_occlude_binomial_within_3_sigma(p):
    rng = np.random.default_rng(1234)
    inputs = np.full((100, 100), 5, dtype=np.int64)  # 10,000 eligible
    n = inputs.size
    out, flags = train.occlude_batch(inputs, p, rng)
    count = int(flags.sum())
    sigma = math.sqrt(p * (1 - p) * n)
    assert abs(count - p * n) <= 3 * sigma
    assert (out[flags] == OCC).all()
    assert (out[~flags] == 5).all()


def test_occlude_input_copy_original_untouched():
    rng = np.random.default_rng(7)
    inputs = np.array([[3, 4, 5, 6]] * 4)
    keep = inputs.copy()
    train.occlude_batch(inputs, 1.0, rng)
    assert np.array_equal(inputs, keep)


def test_occlude_bad_probability_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        train.occlude_batch(np.array([[3]]), 1.5, rng)


@given(
    seed=st.integers(0, 2**31 - 1),
    p=st.floats(0.0, 1.0, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_occlude_flags_partition_the_grid(seed, p):
    rng = np.random.default_rng(seed)
    inputs = np.random.default_rng(seed + 1).integers(0, 16, size=(5, 9))
    out, flags = train.occlude_batch(inputs, p, rng)
    assert (out[flags] == OCC).all()
    assert np.array_equal(out[~flags], inputs[~flags])
    assert not flags[np.isin(inputs, SPECIALS)].any()


def test_train_step_leaves_targets_bit_identical():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    tcfg = tiny_train_config(occlusion_prob=0.5)
    state = train.init_state(params, tcfg)
    batch = ds.minibatch(np.arange(4))
    targets_before = batch.targets.copy()
    ignore_before = batch.ignore.copy()
    train.train_step(params, state, batch, tcfg)
    assert np.array_equal(batch.targets, targets_before)
    assert np.array_equal(batch.ignore, ignore_before)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def _bare_params(w, b):
    cfg = tiny_config()
    tensors = {
        "w": T.Tensor(np.asarray(w, dtype=np.float32), requires_grad=True),
        "b": T.Tensor(np.asarray(b, dtype=np.float32), requires_grad=True),
    }
    return model.ParameterSet(cfg, tensors)


def _hand_adamw(p0, grads, lr, wd, decay):
    """Float64 reference recurrence: decoupled lr-scaled decay, then the
    bias-corrected Adam step."""
    p = np.asarray(p0, dtype=np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        g = np.asarray(g, dtype=np.float64)
        m = train.ADAM_BETA1 * m + (1 - train.ADAM_BETA1) * g
        v = train.ADAM_BETA2 * v + (1 - train.ADAM_BETA2) * g * g
        m_hat = m / (1 - train.ADAM_BETA1**t)
        v_hat = v / (1 - train.ADAM_BETA2**t)
        if decay:
            p = p - lr * wd * p
        p = p - lr * m_hat / (np.sqrt(v_hat) + train.ADAM_EPS)
    return p


def test_adamw_matches_hand_recurrence():
    rng = np.random.default_rng(42)
    w0 = rng.normal(0, 0.1, size=(3, 2))
    b0 = rng.normal(0, 0.1, size=(4,))
    params = _bare_params(w0, b0)
    tcfg = tiny_train_config(base_lr=1e-3, weight_decay=1e-2)
    state = train.init_state(params, tcfg)

    w_grads = [rng.normal(0, 1, size=(3, 2)) for _ in range(3)]
    b_grads = [rng.normal(0, 1, size=(4,)) for _ in range(3)]
    for gw, gb in zip(w_grads, b_grads):
        grads = {"w": gw.astype(np.float32), "b": gb.astype(np.float32)}
        train.adamw_update(params, state, grads, 1e-3, tcfg)

    want_w = _hand_adamw(w0.astype(np.float32), w_grads, 1e-3, 1e-2, decay=True)
    want_b = _hand_adamw(b0.astype(np.float32), b_grads, 1e-3, 1e-2, decay=False)
    np.testing.assert_allclose(params["w"].data, want_w, atol=1e-7, rtol=0)
    np.testing.assert_allclose(params["b"].data, want_b, atol=1e-7, rtol=0)


def test_adamw_single_param_single_step():
    params = _bare_params([[0.5]], [0.0])
    tcfg = tiny_train_config(base_lr=1e-2, weight_decay=1e-2)
    state = train.init_state(params, tcfg)
    train.adamw_update(params, state, {"w": np.array([[2.0]], dtype=np.float32)},
                       1e-2, tcfg)
    # t=1: m_hat = g, v_hat = g*g, so the adam term is lr * g/(|g|+eps)
    want = 0.5 * (1 - 1e-2 * 1e-2) - 1e-2 * 2.0 / (2.0 + train.ADAM_EPS)
    assert abs(float(params["w"].data[0, 0]) - want) < 1e-7


def test_adamw_lr_zero_is_null_update():
    params = _bare_params([[0.3, -0.2]], [0.1])
    before = {n: params[n].data.copy() for n in params.names()}
    tcfg = tiny_train_config(weight_decay=1e-2)
    state = train.init_state(params, tcfg)
    grads = {"w": np.ones((1, 2), dtype=np.float32),
             "b": np.ones((1,), dtype=np.float32)}
    train.adamw_update(params, state, grads, 0.0, tcfg)
    for n in params.names():
        assert np.array_equal(params[n].data, before[n])


def test_weight_decay_skips_vectors():
    params = _bare_params([[1.0, 1.0]], [1.0])
    tcfg = tiny_train_config(base_lr=1e-2, weight_decay=0.5)
    state = train.init_state(params, tcfg)
    grads = {"w": np.zeros((1, 2), dtype=np.float32),
             "b": np.zeros((1,), dtype=np.float32)}
    train.adamw_update(params, state, grads, 1e-2, tcfg)
    # zero grad isolates the decay term
    np.testing.assert_allclose(params["w"].data, [[1 - 1e-2 * 0.5] * 2], rtol=1e-7)
    assert np.array_equal(params["b"].data, np.array([1.0], dtype=np.float32))


# ---------------------------------------------------------------------------
# lr schedule
# ---------------------------------------------------------------------------


def test_lr_at_endpoints():
    cfg = tiny_train_config(base_lr=1e-3, warmup_fraction=0.1)
    assert train.lr_at(0, 100, cfg) == 0.0
    assert train.lr_at(10, 100, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert train.lr_at(100, 100, cfg) == 0.0


def test_lr_at_zero_total_steps_rejected():
    cfg = tiny_train_config()
    with pytest.raises(ConfigError):
        train.lr_at(0, 0, cfg)


def test_lr_at_step_outside_range_rejected():
    cfg = tiny_train_config()
    with pytest.raises(ContractError):
        train.lr_at(101, 100, cfg)


def test_lr_at_piecewise_linear():
    rng = np.random.default_rng(99)
    for _ in range(10):
        total = int(rng.integers(50, 5000))
        frac = float(rng.uniform(0.05, 0.5))
        cfg = tiny_train_config(base_lr=float(rng.uniform(1e-5, 1e-2)),
                                warmup_fraction=frac)
        warm = frac * total
        for lo, hi in [(0.0, warm), (warm, float(total))]:
            a = float(rng.uniform(lo, hi))
            b = float(rng.uniform(lo, hi))
            mid = train.lr_at((a + b) / 2, total, cfg)
            avg = (train.lr_at(a, total, cfg) + train.lr_at(b, total, cfg)) / 2
            assert mid == pytest.approx(avg, rel=1e-9, abs=1e-18)


def test_lr_no_warmup_starts_at_base():
    cfg = tiny_train_config(base_lr=5e-4, warmup_fraction=0.0)
    assert train.lr_at(0, 100, cfg) == pytest.approx(5e-4)
    assert train.lr_at(50, 100, cfg) == pytest.approx(2.5e-4)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------


def test_early_stopper_scripted_patience_5(monkeypatch):
    state, _ = fit_on_scripted_losses(
        monkeypatch, [3.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0], patience=5)
    # stops after the 7th epoch: 5 non-improving epochs after the best
    assert len(state.history) == state.epoch == 7
    assert state.stop_reason == "early_stop"
    assert state.best_epoch == 1  # the 2nd epoch
    assert state.best_valid_loss == 2.0


def test_early_stopper_no_premature_stop(monkeypatch):
    state, since = fit_on_scripted_losses(
        monkeypatch, [3.0, 2.0, 3.0, 3.0, 3.0, 3.0], patience=5, max_epochs=6)
    assert state.stop_reason == "max_epochs"
    assert since == [0, 0, 1, 2, 3, 4]


def test_early_stopper_equal_loss_is_not_improvement(monkeypatch):
    state, since = fit_on_scripted_losses(monkeypatch, [1.0, 1.0, 1.0], patience=2)
    assert since == [0, 1, 2]
    assert state.stop_reason == "early_stop"
    assert state.best_epoch == 0


def test_early_stopper_patience_validation():
    ds = tiny_dataset()
    with pytest.raises(ConfigError, match="patience"):
        train.fit(model.init(tiny_config(), seed=0), ds, ds,
                  train.TrainConfig(patience=0))


def test_fit_patience_ge_max_epochs_runs_all():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    tcfg = tiny_train_config(max_epochs=3, patience=10)
    _, state = train.fit(params, ds, ds, tcfg)
    assert state.epoch == 3
    assert state.stop_reason == "max_epochs"
    assert len(state.history) == 3


def test_fit_returns_best_not_last():
    cfg = tiny_config()
    params = model.init(cfg, seed=1)
    ds = tiny_dataset()
    tcfg = tiny_train_config(max_epochs=4, patience=10)
    best, state = train.fit(params, ds, ds, tcfg)
    best_recorded = min(h["valid_loss"] for h in state.history)
    loss, _ = metrics.perplexity(best, cfg, ds)
    assert loss == pytest.approx(best_recorded, rel=1e-9)
    assert state.best_valid_loss == pytest.approx(best_recorded, rel=1e-12)


def test_fit_history_ppl_matches_exp_loss():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    _, state = train.fit(params, ds, ds, tiny_train_config(max_epochs=2))
    for h in state.history:
        assert h["train_ppl"] == pytest.approx(math.exp(h["train_loss"]), rel=1e-6)
        assert h["valid_ppl"] == pytest.approx(math.exp(h["valid_loss"]), rel=1e-6)


def test_fit_scores_through_metrics_perplexity_once_per_epoch(monkeypatch):
    """The benchmark times validation by wrapping the module attribute."""
    calls = []
    perplexity = metrics.perplexity

    def counting(params, config, dataset):
        calls.append(dataset)
        return perplexity(params, config, dataset)

    monkeypatch.setattr(metrics, "perplexity", counting)
    cfg = tiny_config()
    ds, valid = tiny_dataset(), tiny_dataset()
    _, state = train.fit(model.init(cfg, seed=0), ds, valid,
                         tiny_train_config(max_epochs=3, patience=10))
    assert len(state.history) == 3
    assert len(calls) == 3 and all(d is valid for d in calls)


# ---------------------------------------------------------------------------
# freezing and the unfreeze schedule
# ---------------------------------------------------------------------------


def test_frozen_params_bit_identical_across_steps():
    cfg = tiny_config(n_layers=2)
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    tcfg = tiny_train_config()
    frozen = {n for n in params.names()
              if model.ParameterSet.group(n) in ("embeddings", "block0")}
    state = train.init_state(params, tcfg)
    before = {n: params[n].data.copy() for n in params.names()}
    for b in range(6):
        train.train_step(params, state, ds.minibatch(np.arange(4)), tcfg,
                         frozen=frozen)
    for n in frozen:
        assert np.array_equal(params[n].data, before[n]), n
        assert not state.m[n].any()
        assert state.t[n] == 0
    # and something did move
    assert any(
        not np.array_equal(params[n].data, before[n])
        for n in params.names()
        if n not in frozen
    )


_BOTTOM4 = {"embeddings", "block0", "block1", "block2", "block3"}


# n_layers -> {epoch: the groups frozen_names freezes}; a model of at most
# UNFREEZE_TOP_K = 2 layers freezes nothing from epoch 0 on
@pytest.mark.parametrize("n_layers, frozen_groups", [
    (1, {0: set(), 1: set(), 2: set()}),
    (2, {0: set(), 1: set(), 2: set()}),
    (6, {0: _BOTTOM4, 1: _BOTTOM4,
         2: {"embeddings", "block0", "block1", "block2"},
         4: {"embeddings", "block0", "block1"},
         6: {"embeddings", "block0"}, 7: {"embeddings", "block0"},
         8: set(), 20: set()}),
], ids=["L1", "L2", "L6"])
def test_frozen_names_k2_interval2(n_layers, frozen_groups):
    params = model.init(tiny_config(n_layers=n_layers), seed=0)
    for epoch, groups in frozen_groups.items():
        # every name of a frozen group, and no other
        assert set(train.frozen_names(params, epoch)) == {
            n for n in params.names()
            if model.ParameterSet.group(n) in groups}, epoch


def test_finetune_epoch0_freezes_bottom_blocks():
    # each group first moves in the epoch frozen_names opens it
    cfg = tiny_config(n_layers=4)
    params = model.init(cfg, seed=2)
    snapshots = [{n: params[n].data.copy() for n in params.names()}]
    ds = tiny_dataset()
    tcfg = tiny_train_config(max_epochs=6)
    _, state = train.fit(
        params, ds, ds, tcfg, unfreeze=True,
        on_epoch=lambda record, state: snapshots.append(
            {n: params[n].data.copy() for n in params.names()}),
    )
    assert state.epoch == 6
    first_moved = {}
    for epoch, (old, new) in enumerate(zip(snapshots, snapshots[1:])):
        for n in params.names():
            if not np.array_equal(old[n], new[n]):
                first_moved.setdefault(model.ParameterSet.group(n), epoch)
    assert first_moved == {"block2": 0, "block3": 0, "head": 0,
                           "block1": 2, "block0": 4, "embeddings": 4}


# ---------------------------------------------------------------------------
# fit end to end
# ---------------------------------------------------------------------------


def test_fit_loss_decreases_and_occlusion_never_helps_memorization():
    cfg = tiny_config()
    ds = tiny_dataset()
    for seed in range(5):
        final = {}
        for p in (0.0, 0.3):
            params = model.init(cfg, seed=seed)
            tcfg = tiny_train_config(
                max_epochs=10, base_lr=3e-3, seed=seed, occlusion_prob=p
            )
            _, state = train.fit(params, ds, ds, tcfg)
            hist = state.history
            assert hist[9]["train_loss"] < hist[0]["train_loss"], (seed, p)
            final[p] = hist[-1]["train_loss"]
        assert final[0.3] >= final[0.0], seed


def test_memorization_200_steps():
    # 32 distinct tokens in a fixed cycle: the successor is a function of the
    # current token, so the objective is fully memorizable from any context
    pattern = list(range(3, 35))
    assert len(pattern) == 32
    stream = pattern * 24
    ds = corpus.pack_ids(stream, 16)
    cfg = tiny_config(vocab_size=35, block_size=16, d_model=16)
    params = model.init(cfg, seed=0)
    tcfg = tiny_train_config(batch_size=8, base_lr=3e-3)
    state = train.init_state(params, tcfg)
    order_rng = np.random.default_rng(0)
    loss = math.inf
    for _ in range(200):
        idx = order_rng.integers(0, len(ds), size=8)
        loss, state = train.train_step(
            params, state, ds.minibatch(idx), tcfg, lr=3e-3
        )
    assert loss < 0.1


def test_divergence_error_carries_context():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    tcfg = tiny_train_config(base_lr=1e8, max_epochs=5, warmup_fraction=0.0)
    with pytest.raises(DivergenceError) as err:
        train.fit(params, ds, ds, tcfg)
    assert err.value.step is not None
    assert err.value.lr is not None
    assert err.value.batch_index is not None
    assert isinstance(err.value.history, list)


def test_fit_empty_dataset_rejected():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    empty = corpus.pack_ids([], 8)
    from occlm.errors import DataError
    with pytest.raises(DataError):
        train.fit(params, ds, empty, tiny_train_config())


def test_fit_abort_rule_stops_with_diverged_reason():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    _, state = train.fit(
        params, ds, ds, tiny_train_config(max_epochs=10),
        on_epoch=lambda record, state: len(state.history) >= 2,
    )
    assert state.epoch == 2
    assert state.stop_reason == "diverged"


# ---------------------------------------------------------------------------
# checkpoint resume
# ---------------------------------------------------------------------------


def test_resume_is_bit_identical_to_uninterrupted(tmp_path):
    cfg = tiny_config(n_layers=2)
    ds = tiny_dataset()
    tcfg = tiny_train_config(max_epochs=4, occlusion_prob=0.2, seed=3)

    p_full = model.init(cfg, seed=5)
    best_full, state_full = train.fit(p_full, ds, ds, tcfg)

    p_half = model.init(cfg, seed=5)
    best_half, state_half = train.fit(
        p_half, ds, ds, tcfg, on_epoch=lambda record, state: state.epoch >= 2
    )
    path = str(tmp_path / "resume.ckpt")
    train.save_train_checkpoint(
        path, p_half, state_half, vocab_hash="0" * 64, best_params=best_half
    )
    p_res, state_res, best_res, _ = train.load_train_checkpoint(
        path, expect_config=cfg, expect_vocab_hash="0" * 64
    )
    best_out, state_out = train.fit(
        p_res, ds, ds, tcfg, state=state_res, best_params=best_res
    )

    assert state_out.step == state_full.step
    assert state_out.epoch == state_full.epoch
    for n in p_full.names():
        assert np.array_equal(p_full[n].data, p_res[n].data), n
        assert np.array_equal(best_full[n].data, best_out[n].data), n
        assert np.array_equal(state_full.m[n], state_out.m[n]), n
        assert np.array_equal(state_full.v[n], state_out.v[n]), n
    full_hist = [h["valid_loss"] for h in state_full.history]
    res_hist = [h["valid_loss"] for h in state_out.history]
    assert full_hist == res_hist


def _history_without_wall_time(state):
    return [{k: v for k, v in h.items() if k != "wall_ms"} for h in state.history]


def test_resume_across_an_unfreeze_boundary_needs_no_stored_mask(tmp_path):
    """A 4-layer gradual-unfreezing run stopped after epoch 3 (3 blocks
    open, 4 from epoch 4) resumes from a state file that holds no mask
    exactly as if it had not stopped: fit derives the frozen names from each
    epoch."""
    cfg = tiny_config(n_layers=4)
    ds = tiny_dataset()
    tcfg = tiny_train_config(max_epochs=6, occlusion_prob=0.2, seed=4)

    p_full = model.init(cfg, seed=6)
    best_full, state_full = train.fit(p_full, ds, ds, tcfg, unfreeze=True)

    p_half = model.init(cfg, seed=6)
    best_half, state_half = train.fit(
        p_half, ds, ds, tcfg, unfreeze=True,
        on_epoch=lambda record, state: state.epoch >= 3,
    )
    path = str(tmp_path / "resume.ckpt")
    train.save_train_checkpoint(
        path, p_half, state_half, vocab_hash="0" * 64, best_params=best_half
    )
    saved = model.read_checkpoint_header(path)["metadata"]["train_state"]
    assert set(saved) == {"history", "rng_state", "step", "t"}
    p_res, state_res, best_res, _ = train.load_train_checkpoint(
        path, expect_config=cfg, expect_vocab_hash="0" * 64
    )
    assert state_res.stop_reason is None
    best_out, state_out = train.fit(
        p_res, ds, ds, tcfg, unfreeze=True,
        state=state_res, best_params=best_res,
    )

    assert state_out.step == state_full.step
    assert state_out.t == state_full.t
    assert state_out.stop_reason == state_full.stop_reason == "max_epochs"
    assert _history_without_wall_time(state_out) == \
        _history_without_wall_time(state_full)
    for n in p_full.names():
        assert np.array_equal(p_full[n].data, p_res[n].data), n
        assert np.array_equal(best_full[n].data, best_out[n].data), n
        assert np.array_equal(state_full.m[n], state_out.m[n]), n
        assert np.array_equal(state_full.v[n], state_out.v[n]), n


def test_fit_rejects_a_resumed_state_without_its_best_params():
    cfg = tiny_config()
    ds = tiny_dataset()
    params = model.init(cfg, seed=0)
    _, state = train.fit(params, ds, ds, tiny_train_config(max_epochs=1))
    with pytest.raises(ContractError, match="best_params"):
        train.fit(params, ds, ds, tiny_train_config(max_epochs=2), state=state)


@pytest.mark.parametrize("missing", ["train_state", "history"])
def test_load_train_checkpoint_names_a_missing_key(tmp_path, missing):
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    path = str(tmp_path / "state.ckpt")
    if missing == "train_state":
        model.save_checkpoint(path, params, "0" * 64)
    else:
        full = str(tmp_path / "full.ckpt")
        train.save_train_checkpoint(full, params,
                                    train.init_state(params, tiny_train_config()),
                                    "0" * 64)
        _, header, extras = model.load_checkpoint(full)
        del header["metadata"]["train_state"]["history"]
        model.save_checkpoint(path, params, "0" * 64,
                              metadata=header["metadata"], extras=extras)
    with pytest.raises(CheckpointError) as exc_info:
        train.load_train_checkpoint(path)
    assert path in str(exc_info.value)
    assert repr(missing) in str(exc_info.value)


def _strict_improvement_loop(history):
    best, best_epoch, since = math.inf, None, 0
    for h in history:
        if h["valid_loss"] < best:
            best, best_epoch, since = h["valid_loss"], h["epoch"], 0
        else:
            since += 1
    return best, best_epoch, since


@given(st.lists(st.sampled_from([0.25, 1.0, 1.5, 2.0])
                | st.floats(0.0, 10.0, allow_subnormal=False), max_size=12))
@settings(max_examples=200, deadline=None)
def test_derived_best_matches_a_strict_improvement_loop(losses):
    history = [{"epoch": i, "valid_loss": v} for i, v in enumerate(losses)]
    state = train.TrainState(step=0, m={}, v={}, t={}, rng=None,
                             history=history)
    record = sweep.TrialRecord(trial_id=0, sampled={}, history=history,
                               stop_reason="max_epochs", wall_s=0.0)
    best, best_epoch, since = _strict_improvement_loop(history)
    assert state.epoch == len(losses)
    assert state.best_valid_loss == best
    assert state.best_epoch == best_epoch
    assert state.epochs_since_improvement == since
    assert record.best_valid_loss == best


# ---------------------------------------------------------------------------
# metrics sink
# ---------------------------------------------------------------------------


def _record(i=0):
    return dict(run_id="r", epoch=i, train_loss=1.0, valid_loss=1.5)


def test_jsonl_sink_writes_every_record_in_order(tmp_path):
    path = str(tmp_path / "metrics.jsonl")
    sink = train.MetricsSink(path)
    for i in range(100):
        sink.emit(**_record(i))
    lines = open(path, encoding="utf-8").read().splitlines()
    assert len(lines) == 100
    records = [json.loads(line) for line in lines]
    assert [r["epoch"] for r in records] == list(range(100))
    assert records[7] == _record(7)


def test_jsonl_sink_record_on_disk_when_emit_returns(tmp_path):
    path = tmp_path / "metrics.jsonl"
    sink = train.MetricsSink(str(path))
    sink.emit(**_record(3))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [3]


def test_jsonl_sink_creates_parent_directory(tmp_path):
    path = tmp_path / "runs" / "a" / "metrics.jsonl"
    train.MetricsSink(str(path)).emit(**_record(1))
    assert json.loads(path.read_text(encoding="utf-8"))["epoch"] == 1


def test_fit_calls_on_epoch_once_per_epoch_with_its_history_record():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    ds = tiny_dataset()
    calls = []

    def on_epoch(record, state):
        calls.append((dict(record), state.epoch, state.best_epoch))

    tcfg = tiny_train_config(max_epochs=3, occlusion_prob=0.1)
    _, state = train.fit(params, ds, ds, tcfg, on_epoch=on_epoch)
    assert [rec for rec, _, _ in calls] == state.history
    assert len(calls) == 3
    for i, (rec, epoch_after, best_epoch) in enumerate(calls):
        assert set(rec) == {
            "epoch", "step", "lr", "occlusion_prob", "train_loss",
            "train_ppl", "valid_loss", "valid_ppl", "wall_ms",
        }
        assert rec["epoch"] == i
        assert epoch_after == i + 1  # the hook runs after state is updated
        assert best_epoch is not None
        assert rec["step"] == (i + 1) * math.ceil(len(ds) / tcfg.batch_size)
        assert rec["occlusion_prob"] == 0.1
        assert rec["valid_ppl"] == pytest.approx(math.exp(rec["valid_loss"]))
    assert state.stop_reason == "max_epochs"


def test_state_moments_match_parameter_shapes():
    cfg = tiny_config(n_layers=2)
    params = model.init(cfg, seed=0)
    state = train.init_state(params, tiny_train_config())
    for n in params.names():
        assert state.m[n].shape == params[n].shape
        assert state.v[n].shape == params[n].shape


# ---------------------------------------------------------------------------
# golden trajectory
# ---------------------------------------------------------------------------

# Per-step training losses of the first 20 AdamW steps at the ac4 config
# (vocab 512, d_model 64, 2 layers, 2 heads, block 64, batch 32, dropout 0.1,
# lr 3e-3 with 10% warmup over 20 steps, model and trainer seed 0). The
# tolerance is about 10x the largest drift measured on these trajectories
# when the engine runs in float64 or every initial weight moves by one
# float32 ulp (9.5e-7), so a kernel rewrite that only reorders float32
# rounding passes and any change to the math or the random draws fails.
GOLDEN_LOSSES = {
    0.0: [6.2585173, 6.2560563, 6.0157309, 5.7565889, 5.5579453, 5.3907428,
          5.2286582, 5.0724359, 4.9478517, 4.8227396, 4.7345829, 4.6354599,
          4.5574102, 4.4951611, 4.4319921, 4.3976808, 4.3617954, 4.3353806,
          4.3086100, 4.2910714],
    0.3: [6.2517719, 6.2513528, 6.0274229, 5.7750912, 5.5772200, 5.4135880,
          5.2534256, 5.0957532, 4.9722204, 4.8488927, 4.7553277, 4.6587114,
          4.5878229, 4.5177503, 4.4644113, 4.4271488, 4.3890629, 4.3628082,
          4.3371429, 4.3304820],
}
GOLDEN_ATOL = 1e-5
AC4_VOCAB = 512


@pytest.fixture(scope="module")
def ac4_train_ds():
    lines = demo.make_sentences(4800, seed=0, style="mono")
    vocab = bpe.train_bpe(lines, target_size=AC4_VOCAB)
    assert vocab.size == AC4_VOCAB
    tr, _, _ = corpus.split(lines, corpus.SplitSpec(seed=0))
    return corpus.pack(tr, vocab, 64)


@pytest.mark.parametrize("occlusion_prob", sorted(GOLDEN_LOSSES))
def test_golden_loss_trajectory(ac4_train_ds, occlusion_prob):
    ds = ac4_train_ds
    mcfg = model.ModelConfig(vocab_size=AC4_VOCAB, block_size=64,
                             d_model=64, n_layers=2, n_heads=2, dropout=0.1,
                             ffn_mult=4)
    tcfg = train.TrainConfig(batch_size=32, base_lr=3e-3, warmup_fraction=0.1,
                             seed=0, occlusion_prob=occlusion_prob)
    params = model.init(mcfg, seed=0)
    state = train.init_state(params, tcfg)
    order = np.random.default_rng(0).permutation(len(ds))
    losses = []
    for step in range(20):
        batch = ds.minibatch(order[step * 32:(step + 1) * 32])
        loss, _ = train.train_step(params, state, batch, tcfg,
                                   lr=train.lr_at(step, 20, tcfg))
        losses.append(loss)
    np.testing.assert_allclose(losses, GOLDEN_LOSSES[occlusion_prob],
                               rtol=0, atol=GOLDEN_ATOL)


# ---------------------------------------------------------------------------
# row shards
# ---------------------------------------------------------------------------


def _recording_grads(monkeypatch):
    """Patch train.loss_and_grads to append each call's grads to the
    returned list."""
    recorded = []
    loss_and_grads = train.loss_and_grads

    def recording(*args):
        loss, grads = loss_and_grads(*args)
        recorded.append(grads)
        return loss, grads

    monkeypatch.setattr(train, "loss_and_grads", recording)
    return recorded


def _ac4_setup(ds, **train_over):
    mcfg = model.ModelConfig(vocab_size=AC4_VOCAB, block_size=64,
                             d_model=64, n_layers=2, n_heads=2, dropout=0.1,
                             ffn_mult=4)
    tcfg = train.TrainConfig(batch_size=32, base_lr=3e-3, seed=0, **train_over)
    params = model.init(mcfg, seed=0)
    return params, train.init_state(params, tcfg), tcfg


@pytest.mark.parametrize("train_over", [
    {},
    {"occlusion_prob": 0.3},
], ids=["standard", "occlusion"])
def test_two_shard_step_matches_one_shard(ac4_train_ds, monkeypatch, train_over):
    # 32 rows split 16+16; 27 rows split 14+13, so the shards' dropout rows
    # differ in count and shard 1 starts at an odd row
    min_two = shards.SHARD_MIN_SIZE
    recorded = _recording_grads(monkeypatch)
    for rows in (32, 27):
        batch = ac4_train_ds.minibatch(np.arange(rows))
        runs = []
        for min_size, n_shards in ((min_two, 2), (10**12, 1)):
            monkeypatch.setattr(shards, "SHARD_MIN_SIZE", min_size)
            assert shards.shard_count(batch.inputs, 64) == n_shards
            params, state, tcfg = _ac4_setup(ac4_train_ds, **train_over)
            loss, _ = train.train_step(params, state, batch, tcfg, lr=1e-3)
            runs.append((loss, recorded[-1], state.rng.bit_generator.state))
        (loss2, grads2, rng2), (loss1, grads1, rng1) = runs
        assert abs(loss2 - loss1) <= 1e-6, rows
        for name in grads1:
            np.testing.assert_allclose(grads2[name], grads1[name], rtol=1e-5,
                                       atol=1e-6, err_msg=f"{rows} {name}")
        assert rng2 == rng1, rows


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 cores")
@pytest.mark.parametrize("blas_env, worker", [(None, False), ("1", True)])
def test_shard_gate_reads_the_loaded_blas_thread_count(blas_env, worker):
    """numpy imported before occlm loads OpenBLAS with its own thread count,
    though occlm then sets OPENBLAS_NUM_THREADS=1. The gate asks the loaded
    library, so with several BLAS threads a large batch still splits into
    two shards but both run on the caller."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    if blas_env is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_env
    src = os.path.dirname(os.path.dirname(os.path.abspath(shards.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import numpy, os, occlm\n"
        "from occlm import shards\n"
        "query = shards._blas_threads_query()\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], query and query(),\n"
        "      shards.shard_count(numpy.zeros((32, 64)), 64),\n"
        "      shards._shard_worker() is not None)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    if out[1] == "None":
        pytest.skip("numpy's BLAS has no thread-count query")
    assert out[0] == "1" and out[2] == "2"
    assert (int(out[1]) == 1) is worker
    assert out[3] == str(worker)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_train_step_leaves_no_grad_on_the_parameters(ac4_train_ds, monkeypatch,
                                                      n_shards):
    if n_shards == 1:
        monkeypatch.setattr(shards, "SHARD_MIN_SIZE", 10**12)
    params, state, tcfg = _ac4_setup(ac4_train_ds)
    batch = ac4_train_ds.minibatch(np.arange(32))
    assert shards.shard_count(batch.inputs, 64) == n_shards
    before = {n: params[n].data.copy() for n in params.names()}
    train.train_step(params, state, batch, tcfg, lr=1e-3)
    for name in params.names():
        assert params[name].grad is None, name
        assert not np.array_equal(params[name].data, before[name]), name


def test_shard_worker_and_inline_are_bit_identical(ac4_train_ds, monkeypatch):
    finals = []
    for worker in (ThreadPoolExecutor(max_workers=1), None):
        monkeypatch.setattr(shards, "_shard_worker", lambda: worker)
        params, state, tcfg = _ac4_setup(ac4_train_ds, occlusion_prob=0.3)
        for step in range(3):
            batch = ac4_train_ds.minibatch(np.arange(step * 32, step * 32 + 32))
            train.train_step(params, state, batch, tcfg, lr=1e-3)
        finals.append({n: params[n].data.copy() for n in params.names()})
        if worker is not None:
            worker.shutdown()
    for name in finals[0]:
        np.testing.assert_array_equal(finals[0][name], finals[1][name],
                                      err_msg=name)


def test_backward_frees_the_logits_before_the_blocks(monkeypatch):
    # at vocab 2000 the (rows, S, V) logits are the step's largest array;
    # live traced memory is read when block0's attention backward starts,
    # once with the caller holding the logits and once in loss_and_grads
    cfg = model.ModelConfig(vocab_size=2000, block_size=64, d_model=32,
                            n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4)
    params = model.init(cfg, seed=0)
    ids = np.random.default_rng(0).integers(3, cfg.vocab_size, size=(16, 65))
    batch = corpus.Batch(inputs=ids[:, :-1], targets=ids[:, 1:],
                         ignore=np.zeros((16, 64), dtype=bool))
    readings = []
    attention = T.attention

    def attention_reading_memory(*args):
        out = attention(*args)
        entry = T.active_tape().entries[-1]
        back = entry.backward_fn

        def read_then_back(g, sink):
            readings.append(tracemalloc.get_traced_memory()[0] - start)
            back(g, sink)

        entry.backward_fn = read_then_back
        return out

    monkeypatch.setattr(T, "attention", attention_reading_memory)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:
            logits = model.forward(params, cfg, batch.inputs, train=True,
                                   rng=np.random.default_rng(1))
            loss = T.cross_entropy(logits, batch.targets, ignore_mask=batch.ignore)
            T.backward(loss, tape)
        held = readings[-1]
        start = tracemalloc.get_traced_memory()[0]
        loss_sharded, grads = train.loss_and_grads(
            params, batch.inputs, batch, np.random.default_rng(1), n_shards=1)
        freed = readings[-1]
    finally:
        tracemalloc.stop()
    assert loss_sharded == float(loss.data)
    for name in params.names():
        np.testing.assert_array_equal(grads[name], params[name].grad, err_msg=name)
    assert 0.9 * logits.data.nbytes <= held - freed <= 1.1 * logits.data.nbytes, \
        (held, freed, logits.data.nbytes)


def test_run_keeps_heap_pages_once_without_a_worker(monkeypatch):
    calls = []
    monkeypatch.setattr(shards, "_keep_heap_pages", lambda: calls.append(1))
    monkeypatch.setattr(shards, "_heap_pages_kept", False)
    monkeypatch.setattr(shards, "_shard_worker", lambda: None)
    assert shards.run(lambda j: j, 2) == [0, 1]
    assert shards.run(lambda j: j, 1) == [0]
    assert calls == [1]


def test_shard_worker_pins_itself_and_leaves_the_caller(monkeypatch):
    """The worker runs on one CPU of the caller's set; the caller's own
    affinity, which threads it starts later inherit, is unchanged."""
    caller = os.sched_getaffinity(0)
    if len(caller) < 2:
        pytest.skip("a shard worker needs two usable CPUs")
    monkeypatch.setattr(shards, "_shard_pool", None)
    monkeypatch.setattr(shards, "_blas_threads_query", lambda: lambda: 1)
    worker = shards._shard_worker()
    try:
        seen = shards.run(lambda j: (threading.current_thread().name,
                                     os.sched_getaffinity(0)), 2)
    finally:
        worker.shutdown()
    (_, on_caller), (worker_name, on_worker) = seen
    assert worker_name.startswith("occlm-shard")
    assert on_worker == {max(caller)}
    assert on_caller == os.sched_getaffinity(0) == caller
    later = ThreadPoolExecutor(max_workers=1)
    try:
        assert later.submit(os.sched_getaffinity, 0).result() == caller
    finally:
        later.shutdown()


def test_padded_second_half_runs_one_shard(ac4_train_ds, monkeypatch):
    full = ac4_train_ds.minibatch(np.arange(32))
    ignore = full.ignore.copy()
    ignore[16:] = True
    batch = corpus.Batch(full.inputs, full.targets, ignore)
    rows_seen = []
    forward = model.forward

    def counting_forward(params, config, ids, **kw):
        rows_seen.append(len(ids))
        return forward(params, config, ids, **kw)

    monkeypatch.setattr(model, "forward", counting_forward)
    params, state, tcfg = _ac4_setup(ac4_train_ds)
    loss, _ = train.train_step(params, state, batch, tcfg, lr=1e-3)
    assert rows_seen == [32]
    monkeypatch.setattr(shards, "SHARD_MIN_SIZE", 10**12)
    params, state, tcfg = _ac4_setup(ac4_train_ds)
    assert train.train_step(params, state, batch, tcfg, lr=1e-3)[0] == loss


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad_half", ["caller", "worker"])
def test_two_shard_overflow_raises_divergence_without_warning(
        ac4_train_ds, monkeypatch, bad_half):
    """An overflow in either shard is a DivergenceError, not a numpy warning:
    each thread runs its engine pass with FP warnings silenced."""
    worker = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(shards, "_shard_worker", lambda: worker)
    ds = ac4_train_ds
    mcfg = model.ModelConfig(vocab_size=AC4_VOCAB, block_size=64,
                             d_model=64, n_layers=2, n_heads=2, dropout=0.1,
                             ffn_mult=4)
    tcfg = train.TrainConfig(batch_size=32, base_lr=3e-3, seed=0)
    params = model.init(mcfg, seed=0)
    state = train.init_state(params, tcfg)
    batch = ds.minibatch(np.arange(32))
    bad_rows, good_rows = ((slice(0, 16), slice(16, 32)) if bad_half == "caller"
                           else (slice(16, 32), slice(0, 16)))
    bad = next(i for i in range(3, AC4_VOCAB)
               if i not in batch.inputs[good_rows])
    inputs = batch.inputs.copy()
    inputs[bad_rows, 0] = bad
    # the layer-norm variance of the rows holding `bad` overflows; through
    # the tied head the other shard's loss is huge but finite
    params["tok_emb"].data[bad, 0] = 1e20
    batch = corpus.Batch(inputs, batch.targets, batch.ignore)
    assert shards.shard_count(inputs, 64) == 2
    try:
        with pytest.raises(DivergenceError, match="layer_norm"):
            train.train_step(params, state, batch, tcfg, lr=1e-3)
    finally:
        worker.shutdown()


@pytest.mark.filterwarnings("error")
def test_adamw_second_moment_overflow_is_a_divergence(ac4_train_ds, monkeypatch):
    """A finite gradient whose square overflows the float32 second moment is
    a DivergenceError naming the parameter, not a numpy warning and a
    parameter whose updates then vanish (m_hat / inf is 0)."""
    params, state, tcfg = _ac4_setup(ac4_train_ds)
    batch = ac4_train_ds.minibatch(np.arange(16))
    bad = next(i for i in range(3, AC4_VOCAB) if i not in batch.inputs)
    # every logit row sees tok_emb[bad] through the tied head: the loss is
    # finite (about 6e19) and so are the grads, but their squares are not
    params["tok_emb"].data[bad, 0] = 1e20
    recorded = _recording_grads(monkeypatch)
    with pytest.raises(DivergenceError, match="AdamW second moment of ") as err:
        train.train_step(params, state, batch, tcfg, lr=1e-3, batch_index=5)
    assert (err.value.step, err.value.lr, err.value.batch_index) == (0, 1e-3, 5)
    assert "non-finite value at step 0, batch 5, lr 0.001: " in str(err.value)
    name = str(err.value).rsplit("AdamW second moment of ", 1)[1].split()[0]
    assert name in params
    assert np.isfinite(recorded[-1][name]).all()
    assert np.isfinite(state.m[name]).all()


def test_sharded_step_error_waits_for_both_shards(ac4_train_ds, monkeypatch):
    worker = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(shards, "_shard_worker", lambda: worker)
    forward, backward = model.forward, T.backward
    worker_done = []

    def forward_failing_on_caller(params, config, ids, **kw):
        if threading.current_thread() is threading.main_thread():
            raise NumericsError("injected")
        return forward(params, config, ids, **kw)

    def slow_backward(loss, tape):
        time.sleep(0.2)
        backward(loss, tape)
        worker_done.append(True)

    monkeypatch.setattr(model, "forward", forward_failing_on_caller)
    monkeypatch.setattr(T, "backward", slow_backward)
    params, state, tcfg = _ac4_setup(ac4_train_ds)
    batch = ac4_train_ds.minibatch(np.arange(32))
    with pytest.raises(DivergenceError) as err:
        train.train_step(params, state, batch, tcfg, lr=1e-3, batch_index=7)
    assert worker_done == [True]
    assert err.value.step == 0
    assert err.value.batch_index == 7
    worker.shutdown()


# ---------------------------------------------------------------------------
# sharded validation scoring
# ---------------------------------------------------------------------------


def _ac4_valid(ds):
    """45 windows, the last one padded: halves of 23 and 22, each scored as
    one EVAL_BATCH // 2 chunk and a shorter tail."""
    assert (ds.windows[-1] == ds.pad_id).any()
    return dataclasses.replace(
        ds, windows=np.concatenate([ds.windows[:44], ds.windows[-1:]]))


def _record_eval_forwards(monkeypatch, before=None):
    """Patch model.forward to log (rows, on the main thread) per eval call;
    before(on_main) runs ahead of each eval call."""
    seen = []
    forward = model.forward

    def recording_forward(params, config, ids, train=False, rng=None):
        on_main = threading.current_thread() is threading.main_thread()
        if not train:
            if before is not None:
                before(on_main)
            seen.append((len(ids), on_main))
        return forward(params, config, ids, train=train, rng=rng)

    monkeypatch.setattr(model, "forward", recording_forward)
    return seen


def test_sharded_perplexity_is_bit_identical(ac4_train_ds, monkeypatch):
    """The caller scores the first half and the worker the second, in
    forwards of up to EVAL_BATCH // 2 windows; the loss is the same bits on
    the worker, inline, in one shard and in one-window forwards."""
    valid = _ac4_valid(ac4_train_ds)
    params, _, _ = _ac4_setup(ac4_train_ds)
    worker = ThreadPoolExecutor(max_workers=1)
    seen = _record_eval_forwards(monkeypatch)
    runs = {}
    for mode, pool, min_size, eval_batch in (
            ("worker", worker, shards.SHARD_MIN_SIZE, metrics.EVAL_BATCH),
            ("inline", None, shards.SHARD_MIN_SIZE, metrics.EVAL_BATCH),
            ("one shard", worker, 10**12, metrics.EVAL_BATCH),
            ("one-window forwards", worker, shards.SHARD_MIN_SIZE, 1)):
        monkeypatch.setattr(shards, "_shard_worker", lambda: pool)
        monkeypatch.setattr(shards, "SHARD_MIN_SIZE", min_size)
        monkeypatch.setattr(metrics, "EVAL_BATCH", eval_batch)
        seen.clear()
        runs[mode] = (metrics.perplexity(params, params.config, valid),
                      sorted(seen))
    worker.shutdown()
    assert runs["worker"][1] == [(6, False), (7, True), (16, False), (16, True)]
    assert runs["inline"][1] == [(6, True), (7, True), (16, True), (16, True)]
    assert runs["one shard"][1] == [(13, True), (32, True)]
    assert runs["one-window forwards"][1] == [(1, False)] * 22 + [(1, True)] * 23
    assert (runs["worker"][0] == runs["inline"][0] == runs["one shard"][0]
            == runs["one-window forwards"][0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad_half", ["caller", "worker"])
def test_sharded_perplexity_overflow_waits_for_both_shards(
        ac4_train_ds, monkeypatch, bad_half):
    """An overflow in either half's rows is a NumericsError raised only once
    the other half (slowed down here) has been scored, and fit reports it as
    a DivergenceError outside any training batch."""
    worker = ThreadPoolExecutor(max_workers=1)
    monkeypatch.setattr(shards, "_shard_worker", lambda: worker)
    valid = _ac4_valid(ac4_train_ds)
    bad_rows, good_rows = ((slice(0, 23), slice(23, 45)) if bad_half == "caller"
                           else (slice(23, 45), slice(0, 23)))
    bad = next(i for i in range(3, AC4_VOCAB)
               if i not in valid.windows[good_rows, :-1])
    windows = valid.windows.copy()
    windows[bad_rows, 0] = bad
    valid = dataclasses.replace(valid, windows=windows)
    mcfg = model.ModelConfig(vocab_size=AC4_VOCAB, block_size=64,
                             d_model=64, n_layers=2, n_heads=2, dropout=0.1,
                             ffn_mult=4)
    params = model.init(mcfg, seed=0)
    # the layer-norm variance of the rows holding `bad` overflows; through
    # the tied head the other half's scores are huge but finite
    params["tok_emb"].data[bad, 0] = 1e20
    good_done = []

    def slow_good_shard(on_main):
        if on_main != (bad_half == "caller"):
            time.sleep(0.2)
            good_done.append(True)

    seen = _record_eval_forwards(monkeypatch, slow_good_shard)
    try:
        with pytest.raises(NumericsError):
            metrics.perplexity(params, mcfg, valid)
        # the bad half stops at its first forward, the good half runs both
        good_tail = (6, False) if bad_half == "caller" else (7, True)
        assert good_done == [True, True]
        assert sorted(seen) == sorted([(16, False), (16, True), good_tail])
        # training on the good rows would move `bad`'s embedding through the
        # tied head, so fit gets fresh weights that overflow at a position
        # only validation reaches
        params = model.init(mcfg, seed=0)
        params["pos_emb"].data[40, 0] = 1e20
        train_ds = dataclasses.replace(
            valid, windows=valid.windows[good_rows, :33])
        tcfg = train.TrainConfig(batch_size=16, max_epochs=1, seed=0)
        with pytest.raises(DivergenceError) as err:
            train.fit(params, train_ds, valid, tcfg)
        assert err.value.batch_index is None
        assert f"at step {err.value.step}, validation, " in str(err.value)
    finally:
        worker.shutdown()
