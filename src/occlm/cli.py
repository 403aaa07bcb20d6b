"""Command-line entry point wiring the pipeline end to end.

Subcommands: tokenizer, corpus, pretrain, finetune, eval, sweep, generate,
plus quickstart for a self-contained desk-scale demo. Only tokenizer,
pretrain and finetune read --config/--preset; in every section precedence is
flags (one per ModelConfig/TrainConfig field on pretrain, one per TrainConfig
field on finetune, whose architecture is its checkpoint's) > config file >
preset. Every config file is checked by model.check_fields. Every training
run writes a RunManifest before the first step and finalizes it on exit, error
exits included.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

from . import (__version__, artifacts, bpe, corpus, demo, metrics, model,
               sweep, train)
from .errors import ConfigError, DataError, OcclmError

PRESETS = {
    # Optimal published configurations for the two objectives; vocab target
    # listed for the tokenizer stage, occlusion_prob 0 means standard causal.
    "table3-std": {
        "model": {"n_layers": 8, "n_heads": 8, "dropout": 0.3},
        "train": {
            "batch_size": 512, "base_lr": 2e-4, "weight_decay": 1e-2,
            "max_epochs": 100, "patience": 5, "occlusion_prob": 0.0,
        },
        "tokenizer": {"target_size": 50225},
    },
    "table3-occ": {
        "model": {"n_layers": 6, "n_heads": 4, "dropout": 0.3},
        "train": {
            "batch_size": 512, "base_lr": 2e-4, "weight_decay": 1e-2,
            "max_epochs": 100, "patience": 5, "occlusion_prob": 0.3,
        },
        "tokenizer": {"target_size": 50225},
    },
}

# the sections a preset or --config file may hold, with their field types
CONFIG_TYPES = {
    "model": model.field_types(model.ModelConfig, "vocab_size"),
    "train": model.field_types(train.TrainConfig),
    "tokenizer": {"target_size": "int"},
}


# ---------------------------------------------------------------------------
# Run manifests
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    run_id: str
    command_line: list
    resolved_config: dict
    vocab_hash: str
    data_hashes: dict
    seed: int
    version: str
    started_at: str
    finished_at: str = ""
    status: str = "running"


def _now():
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def make_run_id(command, resolved, data_hashes, vocab_hash, deterministic):
    if deterministic:
        # content hashes only, no paths: byte-identical reruns from any cwd
        payload = json.dumps(
            {"cmd": command, "config": resolved,
             "data": sorted(data_hashes.values()), "vocab": vocab_hash},
            sort_keys=True,
        ).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]
    return f"{time.strftime('%Y%m%d-%H%M%S')}-{os.urandom(3).hex()}"


def write_manifest(path, manifest):
    artifacts.write_json(path, dataclasses.asdict(manifest))


@contextlib.contextmanager
def manifest_run(path, **fields):
    """Write a RunManifest before the body runs and finalize it after: status
    "ok" when the body returns, "error" when it raises."""
    manifest = RunManifest(version=__version__, started_at=_now(), **fields)
    write_manifest(path, manifest)
    status = "error"
    try:
        yield
        status = "ok"
    finally:
        manifest.status = status
        manifest.finished_at = _now()
        write_manifest(path, manifest)


# ---------------------------------------------------------------------------
# Config resolution: flags > config file > preset > built-in defaults
# ---------------------------------------------------------------------------


def config_layers(args):
    """The --preset, then the --config file (checked against CONFIG_TYPES),
    in the order they apply: each {section: {field: value}}."""
    layers = [PRESETS[args.preset]] if args.preset else []
    if args.config:
        layers.append(model.check_fields(
            args.config, artifacts.read_json(args.config), CONFIG_TYPES))
    return layers


def resolve_configs(args, train_defaults=None, model_defaults=None):
    """Layer defaults, preset, config file and flags into one (model dict,
    train dict) pair. Flag values win; None means unset."""
    model_cfg = {f.name: f.default for f in dataclasses.fields(model.ModelConfig)
                 if f.name != "vocab_size"}
    model_cfg.update((k, v) for k, v in (model_defaults or {}).items()
                     if k in model_cfg)
    train_cfg = {f.name: f.default for f in dataclasses.fields(train.TrainConfig)}
    train_cfg.update(train_defaults or {})
    for layer in config_layers(args):
        model_cfg.update(layer.get("model", {}))
        train_cfg.update(layer.get("train", {}))

    # every config field with a flag: the flag's dest is the field name
    for cfg in (model_cfg, train_cfg):
        for name in cfg:
            if getattr(args, name, None) is not None:
                cfg[name] = getattr(args, name)
    return model_cfg, train_cfg


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ConfigError(f"missing required input: --{name.replace('_', '-')}")


def _pack_splits(data_dir, vocab, block_size):
    """Pack <data_dir>/train.txt and valid.txt; returns (train, valid, hashes)."""
    packed, hashes = [], {}
    for name in ("train", "valid"):
        path = os.path.join(data_dir, f"{name}.txt")
        if not os.path.exists(path):
            raise DataError(f"missing split file: {path}")
        packed.append(corpus.pack(list(corpus.read_lines(path)), vocab, block_size))
        hashes[path] = metrics.file_sha256(path)
    return packed[0], packed[1], hashes


def _build_datasets(args, model_cfg, train_cfg):
    """Shared pretrain/finetune setup: vocab, packed splits, and hashes."""
    _require(args, "data", "vocab", "out")
    # the checkpoint is written last: a bad --out must fail before training
    if os.path.isdir(args.out):
        raise ConfigError(f"--out {args.out} is a directory, not a checkpoint path")
    vocab = bpe.load_vocab(args.vocab)
    vocab_hash = metrics.file_sha256(args.vocab)

    # an --objective that disagrees with the resolved occlusion_prob sets it,
    # unless --occlusion-prob set it explicitly
    occludes = args.objective == "occlusion"
    if args.objective and occludes != (train_cfg["occlusion_prob"] != 0):
        if args.occlusion_prob is not None:
            raise ConfigError(f"--objective {args.objective} contradicts "
                              f"--occlusion-prob {args.occlusion_prob}")
        train_cfg["occlusion_prob"] = 0.3 if occludes else 0.0

    mcfg = model.ModelConfig(vocab_size=vocab.size, **model_cfg).check()
    tcfg = train.TrainConfig(**train_cfg).check()
    train_ds, valid_ds, data_hashes = _pack_splits(
        args.data, vocab, mcfg.block_size
    )
    return vocab, vocab_hash, mcfg, tcfg, train_ds, valid_ds, data_hashes


def _run_training(args, command, train_defaults=None, model_defaults=None,
                  finetune_from=None):
    model_cfg, train_cfg = resolve_configs(args, train_defaults, model_defaults)
    vocab, vocab_hash, mcfg, tcfg, train_ds, valid_ds, data_hashes = (
        _build_datasets(args, model_cfg, train_cfg)
    )

    resolved = {
        "command": command,
        "model": dataclasses.asdict(mcfg),
        "train": dataclasses.asdict(tcfg),
    }
    run_id = make_run_id(command, resolved, data_hashes, vocab_hash,
                         args.deterministic)
    manifest_path = args.out + ".manifest.json"
    with manifest_run(
        manifest_path, run_id=run_id,
        command_line=[command] + list(args.raw_argv),
        resolved_config=resolved, vocab_hash=vocab_hash,
        data_hashes=data_hashes, seed=tcfg.seed,
    ):
        if finetune_from is not None:
            params, header, _ = model.load_checkpoint(
                finetune_from, expect_config=mcfg, expect_vocab_hash=vocab_hash
            )
        else:
            params = model.init(mcfg, seed=tcfg.seed)
        metrics_path = args.metrics or args.out + ".metrics.jsonl"
        sink = train.MetricsSink(metrics_path)
        best, state = train.fit(
            params, train_ds, valid_ds, tcfg,
            unfreeze=finetune_from is not None,
            on_epoch=lambda record, _: sink.emit(run_id=run_id, **record),
        )
        model.save_checkpoint(
            args.out, best, vocab_hash,
            metadata={
                "run_id": run_id,
                "manifest": os.path.basename(manifest_path),
                "command": command,
                "best_valid_loss": state.best_valid_loss,
                "best_epoch": state.best_epoch,
                "epochs": state.epoch,
                "stop_reason": state.stop_reason,
            },
        )
    print(
        f"{command}: {state.epoch} epochs ({state.stop_reason}), "
        f"best valid loss {state.best_valid_loss:.4f} "
        f"(epoch {state.best_epoch}) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_tokenizer(args):
    _require(args, "data", "out")
    target = 512
    for layer in config_layers(args):
        target = layer.get("tokenizer", {}).get("target_size", target)
    if args.target_size is not None:
        target = args.target_size
    lines = list(corpus.read_lines(args.data))
    data_hash = metrics.file_sha256(args.data)
    run_id = make_run_id(
        "tokenizer", {"target_size": target}, {args.data: data_hash}, "",
        args.deterministic,
    )
    vocab = bpe.train_bpe(lines, target_size=target)
    bpe.save_vocab(vocab, args.out, run_id=run_id)
    print(
        f"tokenizer: {vocab.size} tokens ({len(vocab.merges)} merges) "
        f"-> {args.out}"
    )
    return 0


def cmd_corpus(args):
    _require(args, "data", "out_dir")
    spec = corpus.SplitSpec(args.train_frac, args.valid_frac,
                            seed=args.seed).check()
    lines = list(corpus.read_lines(args.data))
    if not args.no_clean:
        lines = list(corpus.clean(lines))
    train_l, valid_l, test_l = corpus.split(lines, spec)
    named = {"train": train_l, "valid": valid_l, "test": test_l}
    vocab = bpe.load_vocab(args.vocab) if args.vocab else None
    for name, split_lines in named.items():
        artifacts.write_text(os.path.join(args.out_dir, f"{name}.txt"),
                             "".join(line + "\n" for line in split_lines))
    stats = corpus.stats(named, vocab=vocab)
    artifacts.write_json(os.path.join(args.out_dir, "stats.json"), stats)
    print(corpus.render_stats_table(stats))
    return 0


def cmd_pretrain(args):
    return _run_training(args, "pretrain")


def cmd_finetune(args):
    _require(args, "checkpoint")
    # the architecture is the checkpoint's: a --config or preset model section
    # that disagrees with the stored config is an error
    header = model.read_checkpoint_header(args.checkpoint)
    # published fine-tuning budget: 50 epochs
    return _run_training(
        args, "finetune", train_defaults={"max_epochs": 50},
        model_defaults=header["config"], finetune_from=args.checkpoint,
    )


# decoding flag dest -> GenerationConfig field
GEN_FLAGS = {"strategy": "strategy", "temperature": "temperature",
             "top_k": "top_k", "gen_seed": "seed",
             "max_new_tokens": "max_new_tokens"}

# decoding flag dest -> the strategies that read it
STRATEGY_FLAGS = {"temperature": ("sample", "topk"), "top_k": ("topk",),
                  "gen_seed": ("sample", "topk")}


def _gen_config(args):
    """A checked GenerationConfig from the decoding flags that were set; the
    others keep GenerationConfig's defaults. A set flag that the resolved
    strategy does not read is an error."""
    gen = metrics.GenerationConfig(**{
        field: getattr(args, dest) for dest, field in GEN_FLAGS.items()
        if getattr(args, dest, None) is not None
    }).check()
    for dest, readers in STRATEGY_FLAGS.items():
        if getattr(args, dest) is not None and gen.strategy not in readers:
            raise ConfigError(
                f"--{dest.replace('_', '-')} needs --strategy "
                f"{' or '.join(readers)}: {gen.strategy} does not read it")
    return gen


def cmd_eval(args):
    _require(args, "checkpoint", "vocab", "split")
    if not args.bleu:
        for name in [*GEN_FLAGS, "prompt_frac"]:
            if getattr(args, name, None) is not None:
                raise ConfigError(f"--{name.replace('_', '-')} needs --bleu: "
                                  "eval generates nothing without it")
    gen = _gen_config(args)
    vocab = bpe.load_vocab(args.vocab)
    vocab_hash = metrics.file_sha256(args.vocab)
    lines = list(corpus.read_lines(args.split))
    # metrics.evaluate loads the full checkpoint; packing needs only the header
    header = model.read_checkpoint_header(args.checkpoint)
    ds = corpus.pack(lines, vocab, header["config"]["block_size"])
    split_name = args.split_name or os.path.splitext(
        os.path.basename(args.split)
    )[0]
    # an unset --prompt-frac leaves metrics.PROMPT_FRAC
    protocol = ({} if args.prompt_frac is None
                else {"prompt_frac": args.prompt_frac})
    report = metrics.evaluate(
        args.checkpoint, ds, split=split_name, vocab=vocab,
        vocab_hash=vocab_hash,
        bleu_sentences=lines if args.bleu else None,
        gen=gen, **protocol,
    )
    text = report.to_json()
    if args.out:
        artifacts.write_text(args.out, text + "\n")
    print(text)
    return 0


def cmd_sweep(args):
    _require(args, "spec", "data", "out")
    if args.parallel < 0:
        raise ConfigError(f"--parallel must be >= 0, got {args.parallel}")
    vocab_path = args.vocab or os.path.join(args.data, "vocab.tsv")
    if not os.path.exists(vocab_path):
        raise DataError(f"missing vocabulary: {vocab_path}")
    vocab = bpe.load_vocab(vocab_path)
    vocab_hash = metrics.file_sha256(vocab_path)
    spec = sweep.spec_from_dict(artifacts.read_json(args.spec), vocab.size,
                                args.spec)
    train_ds, valid_ds, data_hashes = _pack_splits(
        args.data, vocab, spec.base_model.block_size
    )

    # --parallel changes no result, so it stays out of the run id
    resolved = {"command": "sweep", "spec": sweep.spec_to_dict(spec)}
    run_id = make_run_id("sweep", resolved, data_hashes, vocab_hash,
                         args.deterministic)
    with manifest_run(
        os.path.join(args.out, "manifest.json"),
        run_id=run_id, command_line=["sweep"] + list(args.raw_argv),
        resolved_config=resolved, vocab_hash=vocab_hash,
        data_hashes=data_hashes, seed=spec.seed,
    ):
        best, board = sweep.run_sweep(
            spec, train_ds, valid_ds, args.out, vocab_hash=vocab_hash,
            run_id=run_id, parallel=args.parallel,
        )
    print(
        f"sweep: best trial {best.trial_id} "
        f"(valid loss {best.best_valid_loss:.4f}, {best.stop_reason}); "
        f"{len(board)} trials -> {args.out}"
    )
    return 0


def cmd_generate(args):
    _require(args, "checkpoint", "vocab", "prompt")
    vocab = bpe.load_vocab(args.vocab)
    vocab_hash = metrics.file_sha256(args.vocab)
    params, _, _ = model.load_checkpoint(
        args.checkpoint, expect_vocab_hash=vocab_hash
    )
    gen = _gen_config(args)
    prompt_ids = bpe.encode(vocab, args.prompt).ids
    out = metrics.generate(params, params.config, vocab, prompt_ids, gen)
    print(bpe.decode(vocab, out))
    return 0


QUICKSTART_CONFIG = {
    "model": {"block_size": 64, "d_model": 64, "n_layers": 2, "n_heads": 2,
              "dropout": 0.1, "ffn_mult": 4},
    "train": {"batch_size": 32, "max_epochs": 12, "base_lr": 3e-3,
              "warmup_fraction": 0.1, "weight_decay": 1e-2, "patience": 5,
              "seed": 0},
    "tokenizer": {"target_size": 512},
}

COMPARE_SH = """\
#!/bin/sh
# Standard vs occlusion pretraining on the bundled corpus: trains one model
# per (seed, objective) pair and evaluates each on the validation split.
# Override SEEDS / PROBS for a quicker pass, e.g. SEEDS=0 PROBS=0.3 ./compare.sh
set -e
cd "$(dirname "$0")"
SEEDS="${SEEDS:-0 1 2 3 4}"
PROBS="${PROBS:-0.1 0.3 0.5}"

mkdir -p work
occlm tokenizer --data corpus/mono.txt --out work/vocab.tsv \\
    --config config.json --deterministic
occlm corpus --data corpus/mono.txt --out-dir work --seed 0

for seed in $SEEDS; do
  occlm pretrain --data work --vocab work/vocab.tsv --config config.json \\
      --objective standard --seed "$seed" --deterministic \\
      --out "work/std_$seed.ckpt"
  for p in $PROBS; do
    occlm pretrain --data work --vocab work/vocab.tsv --config config.json \\
        --objective occlusion --occlusion-prob "$p" --seed "$seed" \\
        --deterministic --out "work/occ${p}_$seed.ckpt"
  done
done

for ckpt in work/*.ckpt; do
  occlm eval --checkpoint "$ckpt" --vocab work/vocab.tsv \\
      --split work/valid.txt --out "${ckpt%.ckpt}.report.json"
done
echo "reports written to work/*.report.json"
"""


def cmd_quickstart(args):
    _require(args, "out")
    out = args.out
    targets = [
        os.path.join(out, "corpus", "mono.txt"),
        os.path.join(out, "corpus", "news.txt"),
        os.path.join(out, "config.json"),
        os.path.join(out, "compare.sh"),
    ]
    existing = [t for t in targets if os.path.exists(t)]
    if existing and not args.force:
        raise ConfigError(
            f"refusing to overwrite {existing[0]} (use --force)"
        )
    demo.write_corpus(targets[0], 4800, seed=0, style="mono")
    demo.write_corpus(targets[1], 800, seed=0, style="news")
    artifacts.write_json(targets[2], QUICKSTART_CONFIG)
    artifacts.write_text(targets[3], COMPARE_SH)
    os.chmod(targets[3], os.stat(targets[3]).st_mode | 0o111)  # a+x
    print(f"quickstart: corpus, config.json, compare.sh -> {out}")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _add_deterministic(p):
    p.add_argument("--deterministic", action="store_true",
                   help="content-addressed run ids and byte-identical "
                        "artifacts for identical inputs")


def _add_config_sources(p):
    p.add_argument("--config", help="config file path")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="built-in preset name")


def _add_config_flags(p, classes):
    """One flag per field of the config ``classes``, named after it (dest is
    the field name), less vocab_size; plus --metrics."""
    for cls in classes:
        for f in dataclasses.fields(cls):
            if f.name != "vocab_size":
                p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                               type=int if f.type == "int" else float)
    p.add_argument("--metrics", help="metrics JSONL path")


def _add_gen_flags(p):
    """Decoding flags, unset by default so that GenerationConfig's defaults
    apply; eval's --bleu protocol makes each continuation as long as its
    reference, so only generate adds --max-new-tokens."""
    p.add_argument("--strategy", choices=("greedy", "sample", "topk"))
    p.add_argument("--temperature", type=float)
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--gen-seed", type=int, dest="gen_seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="occlm",
        description="Occlusion vs standard causal pretraining toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"occlm {__version__}")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("tokenizer", help="train a byte-level BPE vocabulary")
    p.add_argument("--data", help="raw text file, one sentence per line")
    p.add_argument("--out", help="vocabulary output path")
    p.add_argument("--target-size", type=int, dest="target_size")
    _add_deterministic(p)
    _add_config_sources(p)
    p.set_defaults(func=cmd_tokenizer)

    p = sub.add_parser("corpus", help="clean and split a raw corpus")
    p.add_argument("--data", help="raw text file")
    p.add_argument("--out-dir", dest="out_dir", help="split output directory")
    p.add_argument("--vocab", help="optional vocabulary for token stats")
    split_defaults = corpus.SplitSpec()
    p.add_argument("--train-frac", type=float, dest="train_frac",
                   default=split_defaults.train_frac)
    p.add_argument("--valid-frac", type=float, dest="valid_frac",
                   default=split_defaults.valid_frac)
    p.add_argument("--no-clean", action="store_true", dest="no_clean")
    p.add_argument("--seed", type=int, default=split_defaults.seed,
                   help="split shuffle seed")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("pretrain", help="pretrain from scratch")
    p.add_argument("--data", help="directory holding train.txt and valid.txt")
    p.add_argument("--vocab", help="vocabulary path")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--objective", choices=("standard", "occlusion"),
                   default=None)
    _add_deterministic(p)
    _add_config_sources(p)
    _add_config_flags(p, (model.ModelConfig, train.TrainConfig))
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune with gradual unfreezing")
    p.add_argument("--checkpoint", help="pretrained checkpoint path")
    p.add_argument("--data", help="directory holding train.txt and valid.txt")
    p.add_argument("--vocab", help="vocabulary path")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--objective", choices=("standard", "occlusion"),
                   default=None)
    _add_deterministic(p)
    _add_config_sources(p)
    _add_config_flags(p, (train.TrainConfig,))
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--vocab", help="vocabulary path")
    p.add_argument("--split", help="text file with evaluation sentences")
    p.add_argument("--split-name", dest="split_name")
    p.add_argument("--bleu", action="store_true",
                   help="run the generation BLEU protocol; the decoding "
                        "flags and --prompt-frac need it")
    p.add_argument("--prompt-frac", type=float, dest="prompt_frac")
    p.add_argument("--out", help="report output path (JSON)")
    _add_gen_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="random hyperparameter search")
    p.add_argument("--spec", help="SweepSpec JSON path")
    p.add_argument("--data", help="directory holding train.txt and valid.txt")
    p.add_argument("--vocab", help="vocabulary path (default <data>/vocab.tsv)")
    p.add_argument("--out", help="sweep output directory")
    p.add_argument("--parallel", type=int, default=0,
                   help="worker count for parallel trials")
    _add_deterministic(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("generate", help="generate text from a checkpoint")
    p.add_argument("--checkpoint", help="checkpoint path")
    p.add_argument("--vocab", help="vocabulary path")
    p.add_argument("--prompt", help="prompt text")
    p.add_argument("--max-new-tokens", type=int, dest="max_new_tokens")
    _add_gen_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("quickstart", help="materialize the bundled demo")
    p.add_argument("--out", help="output directory")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_quickstart)

    return parser


def dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    args.raw_argv = list(argv)
    try:
        return args.func(args)
    except OcclmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
