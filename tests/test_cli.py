"""CLI contract: dispatch, exit codes, config precedence, manifests."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import stat
import subprocess
import sys

import numpy as np
import pytest

import occlm
from helpers import edit_checkpoint_config, edit_checkpoint_header
from occlm import bpe, cli, corpus, demo, metrics, model, sweep, train
from occlm.errors import ConfigError

# finetune takes only the train flags: its architecture is the checkpoint's
DESK_TRAIN_FLAGS = ["--batch-size", "8", "--max-epochs", "2", "--base-lr", "2e-3"]
DESK_FLAGS = [
    "--block-size", "32", "--d-model", "32", "--n-layers", "1",
    "--n-heads", "2", "--dropout", "0.0",
] + DESK_TRAIN_FLAGS


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full tokenizer -> corpus -> pretrain -> eval run, shared."""
    root = tmp_path_factory.mktemp("smoke")
    raw = str(root / "raw.txt")
    demo.write_corpus(raw, 300, seed=0, style="mono")
    vocab = str(root / "vocab.tsv")
    assert cli.dispatch(
        ["tokenizer", "--data", raw, "--out", vocab,
         "--target-size", "280", "--deterministic"]
    ) == 0
    work = str(root / "work")
    assert cli.dispatch(["corpus", "--data", raw, "--out-dir", work]) == 0
    ckpt = str(root / "model.ckpt")
    assert cli.dispatch(
        ["pretrain", "--data", work, "--vocab", vocab, "--out", ckpt,
         "--objective", "standard", "--deterministic"] + DESK_FLAGS
    ) == 0
    report = str(root / "report.json")
    assert cli.dispatch(
        ["eval", "--checkpoint", ckpt, "--vocab", vocab,
         "--split", os.path.join(work, "valid.txt"),
         "--bleu", "--out", report]
    ) == 0
    return {"root": root, "raw": raw, "vocab": vocab, "work": work,
            "ckpt": ckpt, "report": report}


# -- dispatch and exit codes ------------------------------------------------


def test_version_flag_exits_zero(capsys):
    assert cli.dispatch(["--version"]) == 0


def test_runs_as_a_module_from_a_source_tree():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "occlm", "--version"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.strip() == f"occlm {occlm.__version__}"


def test_no_command_prints_usage_exit_2(capsys):
    assert cli.dispatch([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_2(capsys):
    assert cli.dispatch(["frobnicate"]) == 2


def test_unknown_flag_exit_2_with_usage(capsys):
    assert cli.dispatch(["pretrain", "--bogus-flag", "1"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_help_exits_zero(capsys):
    assert cli.dispatch(["--help"]) == 0
    assert cli.dispatch(["pretrain", "--help"]) == 0


def test_missing_data_exit_1_names_input(capsys, tmp_path):
    rc = cli.dispatch(
        ["pretrain", "--vocab", "v.tsv", "--out", str(tmp_path / "x.ckpt")]
    )
    assert rc == 1
    assert "--data" in capsys.readouterr().err


def test_seed_only_on_commands_that_read_it(capsys, smoke):
    assert cli.dispatch(
        ["eval", "--checkpoint", smoke["ckpt"], "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "valid.txt"), "--seed", "1"]
    ) == 2
    assert "usage" in capsys.readouterr().err.lower()
    for command in ("tokenizer", "generate", "quickstart", "sweep"):
        assert cli.dispatch([command, "--seed", "1"]) == 2
    for command in ("corpus", "pretrain", "finetune"):
        assert cli.dispatch([command, "--seed", "1"]) == 1  # parsed; input missing


@pytest.mark.parametrize("flag", [["--config", "x.json"], ["--preset", "table3-std"]],
                         ids=["config", "preset"])
@pytest.mark.parametrize("command",
                         ["corpus", "eval", "sweep", "generate", "quickstart"])
def test_config_sources_only_on_commands_that_read_them(capsys, command, flag):
    assert cli.dispatch([command] + flag) == 2
    assert "usage" in capsys.readouterr().err.lower()


FLAG_SURFACE = {
    "tokenizer": "--config --data --deterministic --help --out --preset "
                 "--target-size -h",
    "corpus": "--data --help --no-clean --out-dir --seed --train-frac "
              "--valid-frac --vocab -h",
    "pretrain": "--base-lr --batch-size --block-size --config --d-model --data "
                "--deterministic --dropout --ffn-mult --help "
                "--max-epochs --metrics --n-heads --n-layers --objective "
                "--occlusion-prob --out --patience --preset --seed --vocab "
                "--warmup-fraction --weight-decay -h",
    "finetune": "--base-lr --batch-size --checkpoint --config --data "
                "--deterministic --help --max-epochs --metrics "
                "--objective --occlusion-prob --out --patience --preset --seed "
                "--vocab --warmup-fraction --weight-decay -h",
    "eval": "--bleu --checkpoint --gen-seed --help --out --prompt-frac "
            "--split --split-name --strategy --temperature --top-k --vocab -h",
    "sweep": "--data --deterministic --help --out --parallel --spec --vocab -h",
    "generate": "--checkpoint --gen-seed --help --max-new-tokens --prompt "
                "--strategy --temperature --top-k --vocab -h",
    "quickstart": "--force --help --out -h",
}


def test_flag_surface_is_pinned():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == {name: flags.split() for name, flags in FLAG_SURFACE.items()}
    assert {name: len(flags) for name, flags in got.items()} == {
        "tokenizer": 8, "corpus": 9, "pretrain": 24, "finetune": 19,
        "eval": 13, "sweep": 8, "generate": 10, "quickstart": 4}


# every config field a run can set, and the data shapes modules pass each
# other; a new knob or a per-object copy of a constant needs an edit here
CONFIG_SURFACE = {
    model.ModelConfig: "vocab_size block_size d_model n_layers n_heads "
                       "dropout ffn_mult",
    train.TrainConfig: "batch_size max_epochs base_lr warmup_fraction "
                       "weight_decay patience occlusion_prob seed",
    train.TrainState: "step m v t rng history stop_reason",
    sweep.TrialRecord: "trial_id sampled history stop_reason wall_s",
    corpus.SplitSpec: "train_frac valid_frac seed",
    metrics.GenerationConfig: "max_new_tokens strategy temperature top_k seed",
    sweep.SweepSpec: "base_model base_train lr_range n_layers_choices "
                     "n_heads_choices dropout_choices occlusion_prob_choices "
                     "trial_count max_epochs seed",
    bpe.Vocabulary: "tokens merges target_size token_to_id _ranks "
                    "_word_cache",
    corpus.TokenDataset: "windows n_stream_tokens",
    corpus.Batch: "inputs targets ignore",
    metrics.ProtocolResult: "bleu n_scored n_skipped",
}


def test_config_surface_is_pinned():
    assert {cls: [f.name for f in dataclasses.fields(cls)]
            for cls in CONFIG_SURFACE} == {
        cls: names.split() for cls, names in CONFIG_SURFACE.items()}


# flags that no run reads: --deterministic where no run id is made, eval's
# --max-new-tokens (the BLEU protocol sets each continuation's length), the
# fixed unfreeze schedule's two knobs and --test-frac (test takes the rest)
@pytest.mark.parametrize("argv", [
    ["corpus", "--deterministic"], ["eval", "--deterministic"],
    ["generate", "--deterministic"], ["quickstart", "--deterministic"],
    ["eval", "--max-new-tokens", "5"],
    ["finetune", "--unfreeze-top-k", "1"],
    ["finetune", "--unfreeze-interval-epochs", "1"],
    ["corpus", "--test-frac", "0.1"],
], ids=" ".join)
def test_ignored_flags_are_usage_errors(capsys, argv):
    assert cli.dispatch(argv) == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_pretrain_malformed_config_exit_1(capsys, smoke, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"model": ')
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg)] + DESK_FLAGS
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert str(cfg) in err
    assert "Traceback" not in err


def test_pretrain_divergence_names_step_and_batch_exit_1(capsys, smoke,
                                                       tmp_path):
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", str(tmp_path / "x.ckpt")] + DESK_FLAGS + ["--base-lr", "1e9"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert re.match(r"error: non-finite value at step \d+, batch \d+, lr ", err)
    assert "Traceback" not in err


def test_missing_checkpoint_file_exit_1(capsys, smoke):
    rc = cli.dispatch(
        ["eval", "--checkpoint", str(smoke["root"] / "nope.ckpt"),
         "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "valid.txt")]
    )
    assert rc == 1


# -- config precedence ------------------------------------------------------


def _ns(**kw):
    import argparse

    kw.setdefault("preset", None)
    kw.setdefault("config", None)
    return argparse.Namespace(**kw)


def test_preset_table3_std_values():
    mcfg, tcfg = cli.resolve_configs(_ns(preset="table3-std"))
    assert tcfg["base_lr"] == 2e-4
    assert tcfg["batch_size"] == 512
    assert tcfg["weight_decay"] == 1e-2
    assert tcfg["max_epochs"] == 100
    assert tcfg["occlusion_prob"] == 0.0
    assert mcfg["n_layers"] == 8
    assert mcfg["n_heads"] == 8
    assert mcfg["dropout"] == 0.3


def test_preset_table3_occ_values():
    mcfg, tcfg = cli.resolve_configs(_ns(preset="table3-occ"))
    assert tcfg["occlusion_prob"] == 0.3
    assert mcfg["n_layers"] == 6
    assert mcfg["n_heads"] == 4
    assert tcfg["base_lr"] == 2e-4


def test_flag_beats_config_file_beats_preset(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"base_lr": 5e-4, "batch_size": 64}}))
    # config file overrides the preset, flag overrides both
    _, tcfg = cli.resolve_configs(
        _ns(preset="table3-std", config=str(cfg), base_lr=9e-4)
    )
    assert tcfg["base_lr"] == 9e-4
    assert tcfg["batch_size"] == 64
    assert tcfg["max_epochs"] == 100  # untouched preset value survives


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_presets_pass_config_check(name):
    # presets are not re-checked at run time, unlike --config files
    assert model.check_fields(name, cli.PRESETS[name], cli.CONFIG_TYPES)


def test_unknown_preset_rejected(capsys):
    assert cli.dispatch(["pretrain", "--preset", "table9"]) == 2
    assert "table9" in capsys.readouterr().err


def test_config_preset_name_is_a_file_path(capsys, smoke, tmp_path):
    # presets are set with --preset only; --config reads a file
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", str(tmp_path / "x.ckpt"), "--config", "preset:table3-std"]
    )
    assert rc == 1
    assert "preset:table3-std" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_unknown_config_field_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 1e-3}}))
    with pytest.raises(ConfigError):
        cli.resolve_configs(_ns(config=str(cfg)))


def test_tokenizer_config_file_beats_preset(smoke, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tokenizer": {"target_size": 300}}))
    out = str(tmp_path / "vocab.tsv")
    assert cli.dispatch(
        ["tokenizer", "--data", smoke["raw"], "--out", out,
         "--config", str(cfg), "--preset", "table3-std"]
    ) == 0
    assert bpe.load_vocab(out).target_size == 300


# -- manifests and artifacts ------------------------------------------------


def test_manifest_written_and_finalized(smoke):
    manifest = json.loads(
        open(smoke["ckpt"] + ".manifest.json", encoding="utf-8").read()
    )
    assert manifest["status"] == "ok"
    assert manifest["finished_at"]
    assert manifest["vocab_hash"] == metrics.file_sha256(smoke["vocab"])
    assert set(manifest["data_hashes"]) == {
        os.path.join(smoke["work"], "train.txt"),
        os.path.join(smoke["work"], "valid.txt"),
    }
    assert manifest["resolved_config"]["train"]["occlusion_prob"] == 0.0
    assert manifest["version"] == cli.__version__


def test_checkpoint_embeds_manifest_run_id(smoke):
    manifest = json.loads(
        open(smoke["ckpt"] + ".manifest.json", encoding="utf-8").read()
    )
    _, header, _ = model.load_checkpoint(smoke["ckpt"])
    assert header["metadata"]["run_id"] == manifest["run_id"]
    report = json.loads(open(smoke["report"], encoding="utf-8").read())
    assert report["run_id"] == manifest["run_id"]


def test_metrics_jsonl_written(smoke):
    rows = [
        json.loads(line)
        for line in open(smoke["ckpt"] + ".metrics.jsonl", encoding="utf-8")
    ]
    manifest = json.loads(
        open(smoke["ckpt"] + ".manifest.json", encoding="utf-8").read()
    )
    assert [r["epoch"] for r in rows] == [0, 1]  # one line per epoch
    for r in rows:
        assert r["run_id"] == manifest["run_id"]
        assert {"train_loss", "valid_loss", "step", "lr"} <= set(r)
    header = model.read_checkpoint_header(smoke["ckpt"])
    best = min(r["valid_loss"] for r in rows)
    assert best == header["metadata"]["best_valid_loss"]


def test_deterministic_rerun_replaces_metrics_jsonl(smoke, tmp_path):
    out = str(tmp_path / "m.ckpt")
    argv = ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
            "--out", out, "--deterministic"] + DESK_FLAGS
    assert cli.dispatch(argv) == 0
    assert cli.dispatch(argv) == 0
    with open(out + ".metrics.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert [r["epoch"] for r in rows] == [0, 1]  # one line per epoch


def test_manifest_finalized_on_error_exit(capsys, smoke, tmp_path):
    out = str(tmp_path / "diverged.ckpt")
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", out, "--max-epochs", "1", "--base-lr", "1e9",
         "--block-size", "32", "--d-model", "32", "--n-layers", "1",
         "--n-heads", "2", "--dropout", "0.0", "--batch-size", "8"]
    )
    assert rc == 1
    manifest = json.loads(open(out + ".manifest.json", encoding="utf-8").read())
    assert manifest["status"] == "error"
    assert manifest["finished_at"]


def test_objective_standard_rejects_occlusion_prob(capsys, smoke, tmp_path):
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", str(tmp_path / "x.ckpt"), "--objective", "standard",
         "--occlusion-prob", "0.3"] + DESK_FLAGS[:-4]
    )
    assert rc == 1
    assert "contradicts" in capsys.readouterr().err


def test_eval_rejects_mixed_provenance(capsys, smoke, tmp_path):
    # vocabulary from a different tokenizer run must not pair with the
    # checkpoint it did not produce
    other_raw = str(tmp_path / "other.txt")
    demo.write_corpus(other_raw, 200, seed=9, style="news")
    other_vocab = str(tmp_path / "other_vocab.tsv")
    assert cli.dispatch(
        ["tokenizer", "--data", other_raw, "--out", other_vocab,
         "--target-size", "280"]
    ) == 0
    rc = cli.dispatch(
        ["eval", "--checkpoint", smoke["ckpt"], "--vocab", other_vocab,
         "--split", os.path.join(smoke["work"], "valid.txt")]
    )
    assert rc == 1
    assert "vocab" in capsys.readouterr().err.lower()


def test_eval_loads_checkpoint_once(smoke, tmp_path, monkeypatch):
    calls = []
    original = model.load_checkpoint

    def counting(*a, **kw):
        calls.append(a[0])
        return original(*a, **kw)

    monkeypatch.setattr(model, "load_checkpoint", counting)
    rc = cli.dispatch(
        ["eval", "--checkpoint", smoke["ckpt"], "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "valid.txt"),
         "--out", str(tmp_path / "report.json")]
    )
    assert rc == 0
    assert calls == [smoke["ckpt"]]


def test_eval_report_contents(smoke):
    report = json.loads(open(smoke["report"], encoding="utf-8").read())
    assert report["split"] == "valid"
    assert report["perplexity"] > 1.0
    assert 0.0 <= report["bleu"] <= 1.0
    assert report["checkpoint_hash"]
    # unset decoding flags leave GenerationConfig's and the protocol's defaults
    assert {k: report["generation"][k] for k in (
        "strategy", "temperature", "top_k", "seed", "prompt_frac")} == {
        "strategy": "greedy", "temperature": 1.0, "top_k": 0, "seed": 0,
        "prompt_frac": 0.25}


def test_eval_bleu_reports_the_decoding_flags(smoke, tmp_path):
    out = tmp_path / "r.json"
    assert cli.dispatch(
        ["eval", "--checkpoint", smoke["ckpt"], "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "valid.txt"), "--bleu",
         "--strategy", "topk", "--top-k", "3", "--temperature", "0.5",
         "--gen-seed", "7", "--prompt-frac", "0.5", "--out", str(out)]
    ) == 0
    gen = json.loads(out.read_text())["generation"]
    assert {k: gen[k] for k in (
        "strategy", "temperature", "top_k", "seed", "prompt_frac")} == {
        "strategy": "topk", "temperature": 0.5, "top_k": 3, "seed": 7,
        "prompt_frac": 0.5}


def test_generate_prints_text(capsys, smoke):
    rc = cli.dispatch(
        ["generate", "--checkpoint", smoke["ckpt"], "--vocab", smoke["vocab"],
         "--prompt", "the farmer", "--max-new-tokens", "6"]
    )
    assert rc == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("the farmer")


def test_finetune_runs_from_checkpoint(smoke, tmp_path):
    out = str(tmp_path / "ft.ckpt")
    rc = cli.dispatch(
        ["finetune", "--checkpoint", smoke["ckpt"], "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", out, "--deterministic"]
        + DESK_TRAIN_FLAGS
    )
    assert rc == 0
    _, header, _ = model.load_checkpoint(out)
    assert header["metadata"]["command"] == "finetune"


def test_finetune_unfreezes_top_blocks_and_head_first(smoke, tmp_path):
    # epoch 0 of the fixed schedule: the top 2 blocks and the head train,
    # the lower blocks and the embeddings stay as pretrained
    pre = str(tmp_path / "pre.ckpt")
    assert cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", pre] + DESK_FLAGS + ["--n-layers", "3", "--max-epochs", "1"]
    ) == 0
    ft = str(tmp_path / "ft.ckpt")
    assert cli.dispatch(
        ["finetune", "--checkpoint", pre, "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", ft] + DESK_TRAIN_FLAGS
        + ["--max-epochs", "1"]
    ) == 0
    before, _, _ = model.load_checkpoint(pre)
    after, _, _ = model.load_checkpoint(ft)
    moved = {model.ParameterSet.group(n) for n in before.names()
             if not np.array_equal(before[n].data, after[n].data)}
    assert moved == {"block1", "block2", "head"}


def test_finetune_default_budget_is_50_epochs():
    parser = cli.build_parser()
    args = parser.parse_args(["finetune"])
    _, tcfg = cli.resolve_configs(args, train_defaults={"max_epochs": 50})
    assert tcfg["max_epochs"] == 50


def test_finetune_inherits_checkpoint_architecture(smoke, tmp_path):
    # no model flags: the checkpoint's stored config must win over defaults
    out = str(tmp_path / "ft.ckpt")
    rc = cli.dispatch(
        ["finetune", "--checkpoint", smoke["ckpt"], "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", out,
         "--max-epochs", "1", "--batch-size", "8", "--deterministic"]
    )
    assert rc == 0
    header = model.read_checkpoint_header(out)
    src = model.read_checkpoint_header(smoke["ckpt"])
    assert header["config"] == src["config"]


def test_finetune_rejects_conflicting_architecture(smoke, tmp_path, capsys):
    # one config.json serves pretrain and finetune, so finetune reads its
    # model section, which must restate the checkpoint's architecture
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"n_layers": 2}}))
    rc = cli.dispatch(
        ["finetune", "--checkpoint", smoke["ckpt"], "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", str(tmp_path / "ft.ckpt"),
         "--config", str(cfg), "--max-epochs", "1", "--batch-size", "8"]
    )
    assert rc == 1
    assert "n_layers" in capsys.readouterr().err


def test_finetune_has_no_model_flags(smoke, tmp_path, capsys):
    out = str(tmp_path / "ft.ckpt")
    rc = cli.dispatch(
        ["finetune", "--checkpoint", smoke["ckpt"], "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", out, "--dropout", "0.2"]
    )
    assert rc == 2
    assert "--dropout" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []  # no manifest


def test_out_paths_create_parent_directories(smoke, tmp_path):
    # fresh run directories are the normal idiom; --out must not require
    # a pre-existing parent
    ckpt = str(tmp_path / "fresh" / "run" / "model.ckpt")
    rc = cli.dispatch(
        ["pretrain", "--data", smoke["work"], "--vocab", smoke["vocab"],
         "--out", ckpt, "--deterministic"] + DESK_FLAGS
    )
    assert rc == 0
    report = str(tmp_path / "fresh" / "reports" / "eval.json")
    rc = cli.dispatch(
        ["eval", "--checkpoint", ckpt, "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "test.txt"),
         "--out", report]
    )
    assert rc == 0
    assert os.path.exists(report)


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_out_directory_rejected_before_training(command, smoke, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    if command == "finetune":
        source, flags = ["--checkpoint", smoke["ckpt"]], DESK_TRAIN_FLAGS
    else:
        source, flags = [], DESK_FLAGS
    rc = cli.dispatch(
        [command] + source + ["--data", smoke["work"], "--vocab", smoke["vocab"],
                              "--out", str(out), "--deterministic"] + flags
    )
    assert rc == 1
    assert "is a directory" in capsys.readouterr().err
    # no training started: no metrics records, no manifest
    assert sorted(os.listdir(tmp_path)) == ["run"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("command", ["tokenizer", "corpus", "eval", "pretrain"])
def test_output_path_under_a_regular_file_exits_1(command, smoke, tmp_path,
                                                    capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    argv = {
        "tokenizer": ["tokenizer", "--data", smoke["raw"],
                      "--out", str(blocker / "v.tsv")],
        "corpus": ["corpus", "--data", smoke["raw"],
                   "--out-dir", str(blocker)],
        "eval": ["eval", "--checkpoint", smoke["ckpt"], "--vocab",
                 smoke["vocab"], "--split",
                 os.path.join(smoke["work"], "valid.txt"),
                 "--out", str(blocker / "r.json")],
        "pretrain": ["pretrain", "--data", smoke["work"], "--vocab",
                     smoke["vocab"], "--out", str(blocker / "x.ckpt")]
                    + DESK_FLAGS,
    }[command]
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err
    assert "Traceback" not in err


def test_corpus_splits_and_stats(smoke):
    names = sorted(os.listdir(smoke["work"]))
    assert names == ["stats.json", "test.txt", "train.txt", "valid.txt"]
    stats = json.loads(
        open(os.path.join(smoke["work"], "stats.json"), encoding="utf-8").read()
    )
    assert stats["total"]["sentences"] == 300


SWEEP_SPEC = {
    "base_model": {"block_size": 32, "d_model": 32, "n_layers": 1,
                   "n_heads": 2, "dropout": 0.0, "ffn_mult": 2},
    "base_train": {"batch_size": 8, "patience": 3},
    "lr_range": [1e-3, 3e-3],
    "n_layers_choices": [1], "n_heads_choices": [2],
    "dropout_choices": [0.0], "occlusion_prob_choices": [0.0],
    "trial_count": 2, "max_epochs": 2, "seed": 0,
}


def _sweep_argv(smoke, tmp_path, out, *flags):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SWEEP_SPEC))
    return ["sweep", "--spec", str(spec_path), "--data", smoke["work"],
            "--vocab", smoke["vocab"], "--out", str(tmp_path / out)] + list(flags)


def test_sweep_subcommand(smoke, tmp_path):
    rc = cli.dispatch(_sweep_argv(smoke, tmp_path, "sw", "--deterministic"))
    assert rc == 0
    files = set(os.listdir(tmp_path / "sw"))
    assert {"leaderboard.json", "best.json", "report.json",
            "manifest.json", "trial_0", "trial_1"} <= files


def test_sweep_negative_parallel_rejected(capsys, smoke, tmp_path):
    assert cli.dispatch(_sweep_argv(smoke, tmp_path, "sw", "--parallel", "-1")) == 1
    assert "--parallel" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "sw")


def test_deterministic_sweep_honours_parallel(smoke, tmp_path, monkeypatch):
    pools = []
    pool_cls = sweep.ThreadPoolExecutor

    def recording_pool(max_workers):
        pools.append(max_workers)
        return pool_cls(max_workers=max_workers)

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", recording_pool)
    for out, workers in (("seq", "0"), ("par", "2")):
        assert cli.dispatch(_sweep_argv(smoke, tmp_path, out, "--deterministic",
                                        "--parallel", workers)) == 0
    assert pools == [2]
    seq, par = tmp_path / "seq", tmp_path / "par"
    for name in ("best.json", "trial_0/checkpoint.ckpt",
                 "trial_1/checkpoint.ckpt"):
        assert (seq / name).read_bytes() == (par / name).read_bytes(), name

    def board(path):  # the leaderboard less its wall times
        rows = json.loads((path / "leaderboard.json").read_text())
        for r in rows:
            del r["wall_s"]
            for h in r["history"]:
                del h["wall_ms"]
        return rows

    assert board(seq) == board(par)


def test_sweep_vocab_size_mismatch_rejected(capsys, smoke, tmp_path):
    spec = {
        "base_model": {"vocab_size": 9999, "block_size": 32, "d_model": 32,
                       "n_layers": 1, "n_heads": 2, "dropout": 0.0,
                       "ffn_mult": 2},
        "base_train": {}, "trial_count": 1, "max_epochs": 1,
        "n_layers_choices": [1], "n_heads_choices": [2],
        "dropout_choices": [0.0],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    rc = cli.dispatch(
        ["sweep", "--spec", str(spec_path), "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", str(tmp_path / "sw2")]
    )
    assert rc == 1
    assert "vocab_size" in capsys.readouterr().err


def test_sweep_malformed_spec_exit_1(capsys, smoke, tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"model": ')
    rc = cli.dispatch(
        ["sweep", "--spec", str(spec_path), "--data", smoke["work"],
         "--vocab", smoke["vocab"], "--out", str(tmp_path / "sw3")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert str(spec_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, content, expect", [
    ("tokenizer", "[1, 2]", "JSON object"),
    ("pretrain", "[1, 2]", "JSON object"),
    ("sweep", "[1, 2]", "JSON object"),
    ("sweep", '{"base_train": {}}', "base_model"),
    ("sweep", '{"base_model": {"block_size": 32, "d_model": 32, '
              '"n_heads": 2}, "base_train": {"epochs": 2}}', "epochs"),
    ("pretrain", '{"model": [1]}', "section 'model'"),
    ("pretrain", '{"train": "fast"}', "section 'train'"),
    ("tokenizer", '{"tokenizer": 512}', "section 'tokenizer'"),
    ("sweep", '{"lr_range": 0.1, "base_model": {"block_size": 32, '
              '"d_model": 32, "n_heads": 2}, "base_train": {}}', "lr_range"),
    # values of the wrong type
    ("pretrain", '{"train": {"patience": "3"}}', "patience"),
    ("pretrain", '{"model": {"d_model": "64"}}', "d_model"),
    ("pretrain", '{"train": {"base_lr": "1e-3"}}', "base_lr"),
    ("pretrain", '{"train": {"batch_size": 2.5}}', "batch_size"),
    ("pretrain", '{"model": {"n_layers": true}}', "n_layers"),
    ("tokenizer", '{"tokenizer": {"target_size": "512"}}', "target_size"),
    ("sweep", '{"base_model": {"block_size": 32, "d_model": 32, '
              '"n_heads": 2}, "base_train": {"patience": "2"}}', "patience"),
    # a field that every trial overwrites
    ("sweep", '{"base_model": {"block_size": 32, "d_model": 32, '
              '"n_heads": 2}, "base_train": {"max_epochs": 2}}', "max_epochs"),
    # fields whose only legal value the program already knows: the fixed
    # unfreeze schedule, and the vocabulary's own size (280 here)
    ("pretrain", '{"train": {"unfreeze_top_k": 2}}', "unfreeze_top_k"),
    ("sweep", '{"trial_count": 1, "max_epochs": 1, "base_model": {'
              '"block_size": 32, "d_model": 32, "n_heads": 2}, '
              '"base_train": {"unfreeze_top_k": 2}}', "unfreeze_top_k"),
    ("sweep", '{"trial_count": 1, "max_epochs": 1, "base_model": {'
              '"vocab_size": 280, "block_size": 32, "d_model": 32, '
              '"n_heads": 2}, "base_train": {}}', "vocab_size"),
    # fields of the untied output head and gradient clipping, both deleted
    ("pretrain", '{"model": {"tie_embeddings": true}}', "tie_embeddings"),
    ("pretrain", '{"train": {"grad_clip": 1.0}}', "grad_clip"),
    ("sweep", '{"trial_count": 1, "max_epochs": 1, "base_model": {'
              '"block_size": 32, "d_model": 32, "n_heads": 2, '
              '"tie_embeddings": true}, "base_train": {}}', "tie_embeddings"),
    # out-of-range values; flags after the command name follow DESK_FLAGS
    ("pretrain --n-heads 0", "{}", "n_heads"),
    ("pretrain --d-model 0", "{}", "d_model"),
    ("pretrain --ffn-mult 0", "{}", "ffn_mult"),
    ("pretrain --seed -1", "{}", "seed"),
    ("corpus --seed -1", "{}", "seed"),
    ("sweep", '{"seed": -1, "base_model": {"block_size": 32, "d_model": 32, '
              '"n_heads": 2}, "base_train": {}}', "seed"),
    ("generate --gen-seed -1", "{}", "seed"),
    ("generate --strategy sample --temperature nan", "{}", "temperature"),
    ("corpus --train-frac nan", "{}", "train_frac"),
    ("corpus --train-frac 0.8 --valid-frac 0.3", "{}",
     "train_frac + valid_frac"),
    ("pretrain --weight-decay -5", "{}", "weight_decay"),
    ("pretrain --base-lr nan", "{}", "base_lr"),
    # an objective that contradicts an explicit occlusion probability
    ("pretrain --objective occlusion --occlusion-prob 0", "{}",
     "--objective occlusion contradicts --occlusion-prob"),
    # fractional or bool counts
    ("sweep", '{"n_layers_choices": [1.5], "base_model": {"block_size": 32, '
              '"d_model": 32, "n_heads": 2}, "base_train": {}}',
     "n_layers_choices"),
    ("sweep", '{"n_heads_choices": [2.0], "base_model": {"block_size": 32, '
              '"d_model": 32, "n_heads": 2}, "base_train": {}}',
     "n_heads_choices"),
    ("sweep", '{"n_heads_choices": [true], "base_model": {"block_size": 32, '
              '"d_model": 32, "n_heads": 2}, "base_train": {}}',
     "n_heads_choices"),
    # no head count that divides d_model
    ("sweep", '{"n_heads_choices": [3, 5], "base_model": {"block_size": 32, '
              '"d_model": 32, "n_heads": 2}, "base_train": {}}',
     "n_heads_choices"),
    # decoding flags without --bleu, where eval generates nothing; each is
    # set to its default, so the run would not change if it were accepted
    ("eval --strategy greedy", "{}", "--strategy needs --bleu"),
    ("eval --temperature 1.0", "{}", "--temperature needs --bleu"),
    ("eval --top-k 0", "{}", "--top-k needs --bleu"),
    ("eval --gen-seed 0", "{}", "--gen-seed needs --bleu"),
    ("eval --prompt-frac 0.25", "{}", "--prompt-frac needs --bleu"),
    # decoding flags the resolved strategy does not read
    ("generate --top-k 3 --strategy greedy", "{}",
     "--top-k needs --strategy topk"),
    ("generate --temperature 5", "{}",
     "--temperature needs --strategy sample or topk"),
    ("generate --gen-seed 3", "{}", "--gen-seed needs --strategy sample or topk"),
    ("generate --strategy sample --top-k 1 --gen-seed 3", "{}",
     "--top-k needs --strategy topk"),
    ("eval --bleu --top-k 3", "{}", "--top-k needs --strategy topk"),
    ("eval --bleu --strategy greedy --temperature 0.5", "{}",
     "--temperature needs --strategy sample or topk"),
    ("eval --bleu --gen-seed 1", "{}",
     "--gen-seed needs --strategy sample or topk"),
])
def test_malformed_config_or_spec_exit_1(capsys, smoke, tmp_path, command,
                                         content, expect):
    path = tmp_path / "input.json"
    path.write_text(content)
    command, *flags = command.split()
    argv = {
        "tokenizer": ["tokenizer", "--data", smoke["raw"],
                      "--out", str(tmp_path / "v.tsv"), "--config", str(path)],
        "pretrain": ["pretrain", "--data", smoke["work"], "--vocab",
                     smoke["vocab"], "--out", str(tmp_path / "x.ckpt"),
                     "--config", str(path)] + DESK_FLAGS,
        "sweep": ["sweep", "--spec", str(path), "--data", smoke["work"],
                  "--vocab", smoke["vocab"], "--out", str(tmp_path / "sw")],
        "corpus": ["corpus", "--data", smoke["raw"],
                   "--out-dir", str(tmp_path / "c")],
        "generate": ["generate", "--checkpoint", smoke["ckpt"], "--vocab",
                     smoke["vocab"], "--prompt", "the"],
        "eval": ["eval", "--checkpoint", smoke["ckpt"], "--vocab",
                 smoke["vocab"], "--split",
                 os.path.join(smoke["work"], "valid.txt")],
    }[command] + flags
    assert cli.dispatch(argv) == 1
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err


def test_eval_malformed_vocab_exit_1(capsys, smoke, tmp_path):
    bad = tmp_path / "vocab.tsv"
    text = open(smoke["vocab"], encoding="utf-8").read()
    bad.write_text(text.replace("[tokens]\n", "[tokens]\nabc\tnot-an-id\n", 1),
                   encoding="utf-8")
    rc = cli.dispatch(
        ["eval", "--checkpoint", smoke["ckpt"], "--vocab", str(bad),
         "--split", os.path.join(smoke["work"], "valid.txt")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "Traceback" not in err


def test_checkpoint_header_tied_head_key(capsys, smoke, tmp_path):
    # headers written while the head could be untied all say it is tied:
    # such a checkpoint evaluates as before, and an untied one exits 1
    old = tmp_path / "old.ckpt"
    shutil.copy(smoke["ckpt"], old)
    edit_checkpoint_config(old, lambda c: c.update(tie_embeddings=True))
    losses = []
    for ckpt in (smoke["ckpt"], str(old)):
        out = tmp_path / (os.path.basename(ckpt) + ".json")
        assert cli.dispatch(
            ["eval", "--checkpoint", ckpt, "--vocab", smoke["vocab"],
             "--split", os.path.join(smoke["work"], "valid.txt"),
             "--out", str(out)]
        ) == 0
        losses.append(json.loads(out.read_text())["loss"])
    assert losses[1] == losses[0]
    capsys.readouterr()
    edit_checkpoint_config(old, lambda c: c.update(tie_embeddings=False))
    assert cli.dispatch(
        ["eval", "--checkpoint", str(old), "--vocab", smoke["vocab"],
         "--split", os.path.join(smoke["work"], "valid.txt")]
    ) == 1
    err = capsys.readouterr().err
    assert f"{old} has an untied output head" in err
    assert "Traceback" not in err


def _without(key):
    def edit(header):
        del header[key]
        return header

    return edit


def _huge_blob(edit):
    """A header edit whose blob sizes exceed the file: the reader must say
    so before it reads, instead of running out of memory."""
    def apply(header):
        edit(header)
        return header

    return apply


# case -> (header edit, length prefix or None for the header's own)
MALFORMED_HEADERS = {
    "list": (lambda h: [h], None),
    "string": (lambda h: "header", None),
    "number": (lambda h: 3, None),
    "null": (lambda h: None, None),
    "no-metadata": (_without("metadata"), None),
    "list-metadata": (lambda h: {**h, "metadata": []}, None),
    "no-vocab-hash": (_without("vocab_hash"), None),
    "int-vocab-hash": (lambda h: {**h, "vocab_hash": 7}, None),
    "huge-length-prefix": (lambda h: h, 10**12),
    "huge-tensor": (_huge_blob(
        lambda h: h["tensors"][0].update(shape=[1000000, 1000000])), None),
    "huge-extra": (_huge_blob(lambda h: h["extras"].append(
        {"name": "adam.m.tok_emb", "shape": [100000, 100000, 100],
         "dtype": "<f8"})), None),
}


@pytest.mark.parametrize("case", list(MALFORMED_HEADERS))
@pytest.mark.parametrize("command", ["eval", "generate", "finetune"])
def test_malformed_checkpoint_header_exit_1(capsys, smoke, tmp_path, command,
                                            case):
    ckpt = tmp_path / "bad.ckpt"
    shutil.copy(smoke["ckpt"], ckpt)
    edit_checkpoint_header(ckpt, *MALFORMED_HEADERS[case])
    rest = {
        "eval": ["--split", os.path.join(smoke["work"], "valid.txt")],
        "generate": ["--prompt", "a"],
        "finetune": ["--data", smoke["work"], "--out",
                     str(tmp_path / "ft.ckpt")] + DESK_TRAIN_FLAGS,
    }[command]
    capsys.readouterr()
    assert cli.dispatch([command, "--checkpoint", str(ckpt),
                         "--vocab", smoke["vocab"]] + rest) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err, err
    assert "Traceback" not in err


@pytest.mark.parametrize("old, new, expect", [
    ("\n\u0100\t3\n", "\n", "'\u0100'"),  # byte 0's symbol
    ("\nhe\t259\n", "\n", "'he'"),  # the first merge's result
    ("\nh\te\n", "\nh\te\nqx\tzq\n", "'qx'"),
    ("pad\t0\t", "pad\t999\t", "999"),
    # a [specials] token that is not the token at its id
    ("pad\t0\t<|pad|>", "pad\t0\t<|nonsense|>", "'<|nonsense|>'"),
    # pad and occ swapped: each line names the token at its id
    ("pad\t0\t<|pad|>\nocc\t1\t<|occ|>", "pad\t1\t<|occ|>\nocc\t0\t<|pad|>",
     "[specials]"),
], ids=["byte", "merge-result", "merge-parts", "special", "special-token",
        "special-swapped"])
def test_vocab_naming_a_missing_token_exit_1(capsys, smoke, tmp_path, old,
                                             new, expect):
    _corpus_with_edited_vocab(capsys, smoke, tmp_path, [(old, new)], expect)


# [tokens] ids run 0..n-1 in file order; each of these files used to load,
# holding an id at or past the vocabulary's size (or leaving one out)
@pytest.mark.parametrize("old, new, expect", [
    ("\ning\t279\n", "\ning\t279\n\u0100\t280\n",
     "token '\u0100' is listed twice, at ids 3 and 280"),
    ("\ning\t279\n", "\ning\t283\n", "line 289: [tokens] id 283"),
    ("\n\u0100\t3\n\u0101\t4\n", "\n\u0101\t4\n\u0100\t3\n",
     "line 13: [tokens] id 4"),
], ids=["repeated-token", "skipped-id", "out-of-order-id"])
def test_vocab_with_misnumbered_tokens_exit_1(capsys, smoke, tmp_path, old,
                                              new, expect):
    # a spare id under the target size, so only the [tokens] ids are at fault
    spare = ("[target_size]\n280\n", "[target_size]\n281\n")
    _corpus_with_edited_vocab(capsys, smoke, tmp_path, [spare, (old, new)],
                              expect)


def _corpus_with_edited_vocab(capsys, smoke, tmp_path, edits, expect):
    """`occlm corpus` with the smoke vocab after each (old, new) edit exits 1,
    its stderr holding ``expect``, with no traceback."""
    text = open(smoke["vocab"], encoding="utf-8").read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    bad = tmp_path / "vocab.tsv"
    bad.write_text(text, encoding="utf-8")
    rc = cli.dispatch(["corpus", "--data", smoke["raw"], "--vocab", str(bad),
                       "--out-dir", str(tmp_path / "c")])
    assert rc == 1
    err = capsys.readouterr().err
    assert expect in err
    assert "Traceback" not in err


# -- quickstart -------------------------------------------------------------


def test_quickstart_materializes_demo(tmp_path):
    out = str(tmp_path / "qs")
    assert cli.dispatch(["quickstart", "--out", out]) == 0
    cfg = json.loads(open(os.path.join(out, "config.json")).read())
    assert cfg["tokenizer"]["target_size"] == 512
    assert cfg["model"] == {"block_size": 64, "d_model": 64, "n_layers": 2,
                            "n_heads": 2, "dropout": 0.1, "ffn_mult": 4}
    assert os.path.getsize(os.path.join(out, "corpus", "mono.txt")) > 0
    assert os.path.getsize(os.path.join(out, "corpus", "news.txt")) > 0
    script = os.path.join(out, "compare.sh")
    assert os.stat(script).st_mode & stat.S_IXUSR
    body = open(script).read()
    assert "--objective standard" in body
    assert "--objective occlusion" in body


def test_quickstart_refuses_rerun_without_force(capsys, tmp_path):
    out = str(tmp_path / "qs")
    assert cli.dispatch(["quickstart", "--out", out]) == 0
    assert cli.dispatch(["quickstart", "--out", out]) == 1
    assert "--force" in capsys.readouterr().err
    assert cli.dispatch(["quickstart", "--out", out, "--force"]) == 0


# -- deterministic mode -----------------------------------------------------


def test_deterministic_run_id_content_addressed():
    a = cli.make_run_id("pretrain", {"x": 1}, {"p1": "h1"}, "vh", True)
    b = cli.make_run_id("pretrain", {"x": 1}, {"p2": "h1"}, "vh", True)
    c = cli.make_run_id("pretrain", {"x": 1}, {"p1": "h2"}, "vh", True)
    assert a == b  # same content under a different path
    assert a != c


def test_nondeterministic_run_ids_differ():
    ids = {cli.make_run_id("pretrain", {}, {}, "", False) for _ in range(8)}
    assert len(ids) == 8
