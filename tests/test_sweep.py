"""Sweep runner tests: deterministic sampling, the log-uniform lr space,
leaderboard ordering, divergence handling, resume, and report round trips."""

import json
import math
import os
import pathlib

import numpy as np
import pytest

from occlm import artifacts, corpus, model, sweep, train
from occlm.errors import ConfigError, SweepError


def base_model(**over):
    base = dict(
        vocab_size=16, block_size=8, d_model=8, n_layers=1, n_heads=2,
        dropout=0.0, ffn_mult=2,
    )
    base.update(over)
    return model.ModelConfig(**base)


def base_train(**over):
    base = dict(batch_size=4, patience=10)
    base.update(over)
    return train.TrainConfig(**base)


def tiny_dataset():
    stream = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2] * 12
    return corpus.pack_ids(stream, 8)


def make_spec(**over):
    base = dict(
        base_model=base_model(), base_train=base_train(),
        lr_range=(1e-3, 5e-3), n_layers_choices=(1, 2),
        n_heads_choices=(2, 4), dropout_choices=(0.0,),
        occlusion_prob_choices=(0.0, 0.3), trial_count=4, max_epochs=2,
        seed=7,
    )
    base.update(over)
    return sweep.SweepSpec(**base).check()


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_trial_deterministic():
    spec = make_spec()
    a = sweep.sample_trial(spec, 2)
    b = sweep.sample_trial(spec, 2)
    assert a[2] == b[2]
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_sample_trial_singleton_spaces():
    spec = make_spec(
        lr_range=(2e-4, 2e-4), n_layers_choices=(2,), n_heads_choices=(4,),
        dropout_choices=(0.3,), occlusion_prob_choices=(0.1,),
    )
    tcfg, mcfg, sampled = sweep.sample_trial(spec, 0)
    assert sampled["base_lr"] == pytest.approx(2e-4)
    assert mcfg.n_layers == 2
    assert mcfg.n_heads == 4
    assert mcfg.dropout == 0.3
    assert tcfg.occlusion_prob == 0.1
    assert tcfg.max_epochs == spec.max_epochs


def test_sample_trial_indices_draw_distinct_configs():
    spec = make_spec(trial_count=10)
    lrs = {sweep.sample_trial(spec, k)[2]["base_lr"] for k in range(10)}
    assert len(lrs) == 10


def test_sample_trial_enforces_head_divisibility():
    spec = make_spec(n_heads_choices=(2, 3, 4), trial_count=50)
    for k in range(50):
        _, mcfg, _ = sweep.sample_trial(spec, k)
        assert spec.base_model.d_model % mcfg.n_heads == 0
        assert mcfg.n_heads in (2, 4)


def test_sample_trial_impossible_heads_rejected():
    # the spec is rejected when it is checked, before any trial draws
    with pytest.raises(ConfigError, match="n_heads_choices"):
        make_spec(n_heads_choices=(3, 5, 7))


def test_sample_trial_index_bounds():
    spec = make_spec(trial_count=3)
    with pytest.raises(ConfigError):
        sweep.sample_trial(spec, 3)


def test_lr_samples_are_log_uniform():
    spec = make_spec(lr_range=(1e-5, 1e-3), trial_count=1000)
    lrs = np.array(
        [sweep.sample_trial(spec, k)[2]["base_lr"] for k in range(1000)]
    )
    assert lrs.min() >= 1e-5 and lrs.max() <= 1e-3
    low_decade = int((lrs < 1e-4).sum())
    # two decades, so each holds Binomial(1000, 0.5)
    sigma = math.sqrt(1000 * 0.25)
    assert abs(low_decade - 500) <= 3 * sigma


def test_spec_validation():
    with pytest.raises(ConfigError):
        make_spec(lr_range=(1e-3, 1e-5))
    with pytest.raises(ConfigError):
        make_spec(n_layers_choices=())
    with pytest.raises(ConfigError):
        make_spec(trial_count=0)
    d = sweep.spec_to_dict(make_spec())
    d["objective"] = "valid_loss"
    with pytest.raises(ConfigError, match="objective"):
        sweep.spec_from_dict(d, 16)
    with pytest.raises(ConfigError):
        make_spec(dropout_choices=(1.0,))


def test_spec_round_trips_through_dict():
    spec = make_spec()
    again = sweep.spec_from_dict(sweep.spec_to_dict(spec), 16)
    assert again == spec
    with pytest.raises(ConfigError):
        bad = sweep.spec_to_dict(spec)
        bad["surprise"] = 1
        sweep.spec_from_dict(bad, 16)


@pytest.mark.parametrize("damage", [
    "unknown_train_field", "no_base_model", "no_base_train",
])
def test_spec_from_dict_rejects_malformed_sections(damage):
    d = sweep.spec_to_dict(make_spec())
    if damage == "unknown_train_field":
        d["base_train"]["n_epochs"] = 3
    else:
        del d[damage[3:]]
    with pytest.raises(ConfigError):
        sweep.spec_from_dict(d, 16)


@pytest.mark.parametrize("field, value", [
    ("n_layers_choices", 3),
    ("lr_range", 0.1),
    ("dropout_choices", None),
    ("n_heads_choices", "24"),
    ("occlusion_prob_choices", [0.1, "0.3"]),
    ("lr_range", [1e-3]),
    # counts must be ints: sample_trial would truncate 1.5 to 1 layer
    ("n_layers_choices", [1.5]),
    ("n_layers_choices", [2.0]),
    ("n_layers_choices", [True]),
    ("n_heads_choices", [2, 2.5]),
    ("n_heads_choices", [2.0]),
])
def test_spec_from_dict_rejects_malformed_fields(field, value):
    d = sweep.spec_to_dict(make_spec())
    d[field] = value
    with pytest.raises(ConfigError, match=field):
        sweep.spec_from_dict(d, 16)


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------


def test_single_trial_sweep(tmp_path):
    spec = make_spec(trial_count=1)
    out = str(tmp_path / "sweep")
    best, board = sweep.run_sweep(spec, tiny_dataset(), tiny_dataset(), out)
    assert len(board) == 1
    assert best.trial_id == board[0].trial_id == 0
    tdir = os.path.join(out, "trial_0")
    for name in ("config.json", "metrics.jsonl", "checkpoint.ckpt",
                 "record.json"):
        assert os.path.exists(os.path.join(tdir, name)), name
    assert os.path.exists(os.path.join(out, "leaderboard.json"))
    assert os.path.exists(os.path.join(out, "best.json"))


def test_trial_metrics_jsonl_is_its_history_plus_run_id(tmp_path):
    spec = make_spec(trial_count=1)
    out = str(tmp_path / "sweep")
    sweep.run_sweep(spec, tiny_dataset(), tiny_dataset(), out, run_id="sw")
    tdir = os.path.join(out, "trial_0")
    with open(os.path.join(tdir, "metrics.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    with open(os.path.join(tdir, "record.json"), encoding="utf-8") as fh:
        history = json.load(fh)["history"]
    assert len(history) == spec.max_epochs
    assert lines == [dict(h, run_id="sw/trial_0") for h in history]


@pytest.mark.parametrize("name", ["base_lr", "occlusion_prob", "seed",
                                  "max_epochs"])
def test_spec_base_train_rejects_sampled_fields(name):
    d = sweep.spec_to_dict(make_spec())
    assert name not in d["base_train"]
    d["base_train"][name] = 2
    with pytest.raises(ConfigError, match=name):
        sweep.spec_from_dict(d, 16)


def test_leaderboard_is_sorted_ascending(tmp_path):
    spec = make_spec(trial_count=6, seed=11)
    ds = tiny_dataset()
    _, board = sweep.run_sweep(spec, ds, ds, str(tmp_path / "s"))
    losses = [r.best_valid_loss for r in board]
    assert losses == sorted(losses)
    # and the file agrees with the in-memory ordering
    with open(tmp_path / "s" / "leaderboard.json", encoding="utf-8") as fh:
        rows = json.load(fh)
    assert [r["trial_id"] for r in rows] == [r.trial_id for r in board]


def test_diverging_trial_recorded_not_fatal(tmp_path):
    # lr_range reaching 1e9 makes trial 3 of this seed explode while the
    # other three stay healthy; the outcome is deterministic
    spec = make_spec(
        lr_range=(1e-3, 1e9), n_layers_choices=(1,), n_heads_choices=(2,),
        occlusion_prob_choices=(0.0,), trial_count=4, seed=3,
    )
    ds = tiny_dataset()
    out = str(tmp_path / "s")
    best, board = sweep.run_sweep(spec, ds, ds, out)
    reasons = {r.trial_id: r.stop_reason for r in board}
    assert reasons[3] == "diverged"
    assert sum(1 for r in board if r.stop_reason != "diverged") == 3
    assert best.stop_reason != "diverged"
    assert not os.path.exists(
        os.path.join(out, "trial_3", "checkpoint.ckpt")
    )
    assert os.path.exists(os.path.join(out, "trial_3", "record.json"))


def test_all_diverged_raises_sweep_error(tmp_path):
    spec = make_spec(
        lr_range=(1e8, 1e9), n_layers_choices=(1,), n_heads_choices=(2,),
        occlusion_prob_choices=(0.0,), trial_count=2,
    )
    ds = tiny_dataset()
    with pytest.raises(SweepError):
        sweep.run_sweep(spec, ds, ds, str(tmp_path / "s"))
    assert not (tmp_path / "s" / "best.json").exists()
    assert not (tmp_path / "s" / "report.json").exists()


def test_sweep_deterministic_across_directories(tmp_path):
    spec = make_spec()
    ds = tiny_dataset()
    _, a = sweep.run_sweep(spec, ds, ds, str(tmp_path / "a"))
    _, b = sweep.run_sweep(spec, ds, ds, str(tmp_path / "b"))
    assert [r.trial_id for r in a] == [r.trial_id for r in b]
    assert [r.best_valid_loss for r in a] == [r.best_valid_loss for r in b]


def _resume_counting_trials(spec, ds, out, monkeypatch):
    """Re-run the sweep in out; returns (sorted re-run trial ids, board)."""
    ran = []
    original = sweep.run_trial

    def counting(spec_, k, *a, **kw):
        ran.append(k)
        return original(spec_, k, *a, **kw)

    monkeypatch.setattr(sweep, "run_trial", counting)
    _, board = sweep.run_sweep(spec, ds, ds, out)
    return sorted(ran), board


def test_sweep_resumes_only_missing_trials(tmp_path, monkeypatch):
    spec = make_spec()
    ds = tiny_dataset()
    out = str(tmp_path / "s")
    _, before = sweep.run_sweep(spec, ds, ds, out)

    import shutil

    shutil.rmtree(os.path.join(out, "trial_1"))
    shutil.rmtree(os.path.join(out, "trial_3"))
    ran, after = _resume_counting_trials(spec, ds, out, monkeypatch)
    assert ran == [1, 3]
    assert [r.best_valid_loss for r in after] == [
        r.best_valid_loss for r in before
    ]


def test_sweep_reruns_trials_with_damaged_records(tmp_path, monkeypatch):
    spec = make_spec()
    ds = tiny_dataset()
    out = str(tmp_path / "s")
    _, before = sweep.run_sweep(spec, ds, ds, out)

    truncated = os.path.join(out, "trial_1", "record.json")
    raw = open(truncated, encoding="utf-8").read()
    with open(truncated, "w", encoding="utf-8") as fh:
        fh.write(raw[: len(raw) // 2])
    with open(os.path.join(out, "trial_3", "record.json"), "w",
              encoding="utf-8") as fh:
        fh.write('{"trial_id": 3}')
    ran, after = _resume_counting_trials(spec, ds, out, monkeypatch)
    assert ran == [1, 3]
    assert [r.best_valid_loss for r in after] == [
        r.best_valid_loss for r in before
    ]


def test_sweep_reruns_trials_whose_spec_changed(tmp_path, monkeypatch):
    ds = tiny_dataset()
    out = str(tmp_path / "s")
    _, before = sweep.run_sweep(make_spec(), ds, ds, out)
    # same draws, other values: only the trials that drew p=0.3 change
    spec = make_spec(occlusion_prob_choices=(0.0, 0.5))
    changed = [k for k in range(spec.trial_count)
               if sweep.sample_trial(spec, k)[2]["occlusion_prob"] == 0.5]
    assert 0 < len(changed) < spec.trial_count
    ran, after = _resume_counting_trials(spec, ds, out, monkeypatch)
    assert ran == changed
    old = {r.trial_id: r for r in before}
    for r in after:
        assert r.sampled == sweep.sample_trial(spec, r.trial_id)[2]
        if r.trial_id not in changed:
            assert r.history == old[r.trial_id].history
    # a same-spec resume now re-runs nothing
    assert _resume_counting_trials(spec, ds, out, monkeypatch)[0] == []


def test_parallel_sweep_matches_sequential(tmp_path):
    spec = make_spec(trial_count=4)
    ds = tiny_dataset()
    _, seq = sweep.run_sweep(spec, ds, ds, str(tmp_path / "seq"))
    _, par = sweep.run_sweep(
        spec, ds, ds, str(tmp_path / "par"), parallel=3
    )
    assert [r.trial_id for r in seq] == [r.trial_id for r in par]
    assert [r.best_valid_loss for r in seq] == [r.best_valid_loss for r in par]


def test_empty_dataset_rejected(tmp_path):
    spec = make_spec()
    empty = corpus.pack_ids([], 8)
    with pytest.raises(SweepError):
        sweep.run_sweep(spec, empty, empty, str(tmp_path / "s"))


# ---------------------------------------------------------------------------
# records, divergence rule, report
# ---------------------------------------------------------------------------


def _record(trial_id=0, best=1.0, reason="max_epochs", history=None):
    if history is None:
        history = [
            {"epoch": 0, "train_loss": 2.0, "train_ppl": math.exp(2.0),
             "valid_loss": best, "valid_ppl": math.exp(best),
             "lr": 1e-4, "wall_ms": 5.0},
        ]
    return sweep.TrialRecord(
        trial_id=trial_id, sampled={"base_lr": 1e-4}, history=history,
        stop_reason=reason, wall_s=0.1,
    )


def test_trial_record_check():
    _record().check()
    with pytest.raises(ConfigError):
        _record(reason="crashed").check()


def test_trial_record_best_is_its_history_min():
    rec = _record(best=1.5)
    rec.history.append(dict(rec.history[0], epoch=1, valid_loss=0.5))
    assert rec.best_valid_loss == 0.5
    assert rec.best_valid_ppl == math.exp(0.5)
    rec.history = []
    assert rec.best_valid_loss == rec.best_valid_ppl == math.inf


def test_record_from_dict_rejects_a_best_that_is_not_the_history_min():
    d = sweep.record_to_dict(_record())
    sweep.record_from_dict(d)
    for stored in (0.5, None):  # the history says 1.0
        with pytest.raises(ConfigError, match="best_valid_loss"):
            sweep.record_from_dict(dict(d, best_valid_loss=stored))
    empty = dict(d, history=[], best_valid_loss=None)
    sweep.record_from_dict(empty)
    with pytest.raises(ConfigError, match="best_valid_loss"):
        sweep.record_from_dict(dict(empty, best_valid_loss=1.0))


def test_record_dict_round_trip_handles_inf():
    rec = sweep.TrialRecord(trial_id=1, sampled={}, history=[],
                            stop_reason="diverged", wall_s=0.01)
    back = sweep.record_from_dict(json.loads(json.dumps(sweep.record_to_dict(rec))))
    assert math.isinf(back.best_valid_loss)
    assert back.stop_reason == "diverged"


# record.json, leaderboard.json and best.json of make_spec()'s sweep, and a
# record.json of a trial that diverged before its first epoch, as written
# when TrialRecord still stored its best loss and perplexity as fields
SAVED = pathlib.Path(__file__).resolve().parent / "data" / "sweep_records"


def test_saved_records_load_to_the_same_bytes(tmp_path, monkeypatch):
    spec = make_spec()
    out = tmp_path / "s"
    for k in range(spec.trial_count):
        tdir = out / f"trial_{k}"
        tdir.mkdir(parents=True)
        artifacts.write_json(str(tdir / "config.json"), sweep.trial_config(spec, k))
        (tdir / "record.json").write_bytes(
            (SAVED / f"trial_{k}" / "record.json").read_bytes())
        (tdir / "checkpoint.ckpt").write_bytes(b"")  # best.json needs one

    def no_rerun(*args):
        raise AssertionError("a saved record was re-run")

    monkeypatch.setattr(sweep, "run_trial", no_rerun)
    sweep.run_sweep(spec, tiny_dataset(), tiny_dataset(), str(out))
    for name in ("leaderboard.json", "best.json"):
        assert (out / name).read_bytes() == (SAVED / name).read_bytes()
    diverged = SAVED / "diverged_record.json"
    rec = sweep.record_from_dict(artifacts.read_json(str(diverged)))
    artifacts.write_json(str(tmp_path / "r.json"), sweep.record_to_dict(rec))
    assert (tmp_path / "r.json").read_bytes() == diverged.read_bytes()


def test_divergence_rule_windows():
    def h(*losses):
        return [{"train_loss": l} for l in losses]

    assert not sweep.divergence_rule(h(25.0, 25.0))
    assert sweep.divergence_rule(h(25.0, 25.0, 25.0))
    assert not sweep.divergence_rule(h(25.0, 5.0, 25.0))
    assert sweep.divergence_rule(h(1.0, 2.0, 30.0, 40.0, 50.0))
    assert not sweep.divergence_rule(h(30.0, 40.0, 50.0, 1.0, 21.0))


def test_sweep_report_single_row():
    report = sweep.sweep_report([_record()])
    assert len(report["table"]) == 1
    assert report["table"][0]["trial_id"] == 0
    assert "base_lr" in report["columns"]


def test_sweep_report_columns_are_union_of_sampled_names():
    a = _record(trial_id=0)
    b = _record(trial_id=1)
    b.sampled = {"base_lr": 1e-3, "dropout": 0.3}
    report = sweep.sweep_report([a, b])
    assert report["columns"] == ["base_lr", "dropout"]
    assert report["table"][0]["dropout"] is None


def test_run_sweep_writes_its_report(tmp_path):
    out = tmp_path / "s"
    _, board = sweep.run_sweep(make_spec(trial_count=3), tiny_dataset(),
                               tiny_dataset(), str(out))
    loaded = artifacts.read_json(str(out / "report.json"))
    assert loaded == json.loads(json.dumps(sweep.sweep_report(board)))
    assert [row["trial_id"] for row in loaded["table"]] == [
        r.trial_id for r in board]
    assert set(loaded["curves"]) == {"0", "1", "2"}


def test_sweep_report_empty_rejected():
    with pytest.raises(ConfigError):
        sweep.sweep_report([])
