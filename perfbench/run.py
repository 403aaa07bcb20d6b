"""occlm benchmark: drives the `occlm` CLI in-process on generated inputs.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 56 --trace 0

Workloads (see perfbench/README.md for why each exists):
  pretrain  standard then occlusion (p=0.3) pretraining at the ac4 config,
            each checkpoint evaluated afterwards (perplexity, greedy BLEU);
  sweep     a fixed 8-trial `occlm sweep`, two of its checkpoints
            evaluated.

One process, one caller, closed loop: each CLI command starts when the
previous one returned. After set-up (repeated SETUP_REPEATS times), whole
rounds run until the next one would overrun --seconds; each round half
repeats the data set-up, and setup_s is the typical time of every repeat.
Timings are per-unit samples (a set-up, a training step, a scoring pass, a
decoding step, a generate call) reduced to a typical time or a percentile;
README.md says which and why.
With --trace 1, set-up repeats and rounds alternate between untraced and
traced; the traced ones give the per-layer metrics and the difference gives
the tracing overhead. The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS (README: on two shared
# vCPUs a second thread made the sweep's small products slower and jumpier).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from tracing import OPS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3

# Per-unit times are reduced to the geometric mean of these two percentiles
# (README: co-tenants move the machine between speed levels; each tail
# tracks one level and jumps when a run misses it, their mean half as far).
FAST_TAIL, SLOW_TAIL = 2, 95

# ac4: the acceptance-test config of the paired objective experiment
AC4_CONFIG = {
    "model": {"block_size": 64, "d_model": 64, "n_layers": 2, "n_heads": 2,
              "dropout": 0.1, "ffn_mult": 4},
    "train": {"batch_size": 32, "base_lr": 3e-3, "warmup_fraction": 0.1,
              "weight_decay": 1e-2, "seed": 0},
}

# shaped like scripts/run_sweep_demo.py; spec seed 5 samples each of the
# four (layers, heads) pairs twice among its 8 trials, and both occlusion
# settings
SWEEP_SPEC = {
    "base_model": {"block_size": 32, "d_model": 32, "n_layers": 1,
                   "n_heads": 2, "dropout": 0.0, "ffn_mult": 2},
    "base_train": {"batch_size": 16},
    "lr_range": [3e-4, 6e-3],
    "n_layers_choices": [1, 2],
    "n_heads_choices": [2, 4],
    "dropout_choices": [0.0, 0.1],
    "occlusion_prob_choices": [0.0, 0.3],
    "trial_count": 8,
    "seed": 5,
}
SWEEP_EVAL_TRIALS = (0, 1)  # 2 layers, 4 heads, p=0.3 and 1 layer, 2 heads, p=0


@dataclass(frozen=True)
class Size:
    sentences: int   # demo mono corpus lines
    vocab: int       # BPE target size
    epochs: int      # epochs per training run (patience stays above it)
    heldout: int     # test sentences in each BLEU protocol run


SIZES = {
    "pretrain": Size(sentences=4800, vocab=512, epochs=1, heldout=50),
    "sweep": Size(sentences=1200, vocab=384, epochs=1, heldout=50),
}
TINY = {
    "pretrain": Size(sentences=400, vocab=300, epochs=1, heldout=6),
    "sweep": Size(sentences=300, vocab=300, epochs=1, heldout=6),
}

END_TO_END = {
    "setup_s": "s",
    "tokenizer_s": "s",
    "train_tokens_per_s": "tokens/s",
    "eval_tokens_per_s": "tokens/s",
    "gen_tokens_per_s": "tokens/s",
    "gen_token_ms_p95": "ms",
    "valid_loss_std": "nats",
    "valid_loss_occ": "nats",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


def per_layer_units():
    units = {}
    for op in OPS:
        units[f"tensor.{op}.fwd_ms"] = "ms"
        units[f"tensor.{op}.bwd_ms"] = "ms"
    units.update({
        "tensor.backward_ms": "ms",
        "tensor.tape_entries_per_step": "count",
        "model.forward.train_ms": "ms",
        "model.forward.eval_ms": "ms",
        "model.forward.calls": "count",
        "metrics.perplexity_ms": "ms",
        "metrics.generate_ms": "ms",
        "metrics.generate.positions_per_token": "count",
        "train.train_step_ms_p50": "ms",
        "train.train_step_ms_p90": "ms",
        "train.adamw_update_ms": "ms",
        "train.occlude_batch_ms": "ms",
        "train.data_wait_ms": "ms",
        "model.save_checkpoint_ms": "ms",
        "model.load_checkpoint.calls": "count",
        "cli.write_manifest_ms": "ms",
        "train.sink_emit_ms": "ms",
        "bpe.train_bpe_s": "s",
        "bpe.encode_tokens_per_s": "tokens/s",
        "bpe.decode_ms": "ms",
        "corpus.pack_s": "s",
        "demo.make_sentences_s": "s",
        "sweep.run_trial_s_p50": "s",
        "sweep.trials_diverged": "count",
        "trace.overhead_train_pct": "%",
        "trace.overhead_gen_pct": "%",
    })
    return units


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def seed_arg(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", required=True, type=seed_arg)
    ap.add_argument("--seconds", required=True, type=positive)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs and one set-up; for the smoke test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Per-unit samples one kind of segment (untraced or traced) measured."""

    # (model and input shape, tokens, seconds) per training step, per
    # valid-split scoring pass and per generated token (its forward pass);
    # (tokens generated, seconds) per generate call
    steps: list = field(default_factory=list)
    scorings: list = field(default_factory=list)
    gen_tokens: list = field(default_factory=list)
    gen_calls: list = field(default_factory=list)

    def gen_ms_per_token(self):
        return [seconds * 1000.0 / tokens for tokens, seconds in self.gen_calls]


class Probes:
    """Clock reads around `train_step`, `perplexity`, `generate` and the
    `model.forward` calls inside `generate`.

    Per-unit times are end-to-end figures (a user waits for each step, each
    scoring pass, each generated token and sentence), so these stay
    installed in untraced runs too; each costs two clock reads per call. The
    bench points a probe at a Tally only while a command whose units it
    counts runs.
    """

    def __init__(self, metrics, model, train):
        self.train_tally = None
        self.ppl_tally = None
        self.gen_tally = None
        self._decoding = False  # inside a counted generate call
        self._metrics, self._model, self._train = metrics, model, train
        self._originals = (metrics.perplexity, metrics.generate,
                           model.forward, train.train_step)
        perplexity, generate, forward, train_step = self._originals

        def timed_train_step(params, state, batch, cfg, *args, **kwargs):
            t0 = time.perf_counter()
            out = train_step(params, state, batch, cfg, *args, **kwargs)
            if self.train_tally is not None:
                # dropout and occlusion change a step's work as well
                kind = shape_of(params.config, batch.inputs) + (
                    params.config.dropout, cfg.occlusion_prob)
                self.train_tally.steps.append(
                    (kind, int((~batch.ignore).sum()),
                     time.perf_counter() - t0))
            return out

        def timed_perplexity(params, config, dataset):
            t0 = time.perf_counter()
            out = perplexity(params, config, dataset)
            if self.ppl_tally is not None:
                self.ppl_tally.scorings.append(
                    (shape_of(config, dataset.windows),
                     int((dataset.windows[:, 1:] != dataset.pad_id).sum()),
                     time.perf_counter() - t0))
            return out

        def timed_generate(params, config, vocab, prompt_ids, gen=None):
            self._decoding = self.gen_tally is not None
            t0 = time.perf_counter()
            try:
                out = generate(params, config, vocab, prompt_ids, gen)
            finally:
                self._decoding = False
            n_new = len(out) - len(prompt_ids)
            if self.gen_tally is not None and n_new > 0:
                self.gen_tally.gen_calls.append(
                    (n_new, time.perf_counter() - t0))
            return out

        def timed_forward(params, config, ids, *args, **kwargs):
            if not self._decoding:
                return forward(params, config, ids, *args, **kwargs)
            t0 = time.perf_counter()
            out = forward(params, config, ids, *args, **kwargs)
            self.gen_tally.gen_tokens.append(
                (shape_of(config, ids), 1, time.perf_counter() - t0))
            return out

        metrics.perplexity = timed_perplexity
        metrics.generate = timed_generate
        model.forward = timed_forward
        train.train_step = timed_train_step

    def close(self):
        (self._metrics.perplexity, self._metrics.generate,
         self._model.forward, self._train.train_step) = self._originals


def shape_of(config, ids):
    return (config.n_layers, config.n_heads, config.d_model, ids.shape)


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def typical(values):
    """The run's typical time of one unit: the geometric mean of its fast
    and slow tail."""
    return math.sqrt(percentile(values, FAST_TAIL) * percentile(values, SLOW_TAIL))


def median(values):
    return percentile(values, 50)


def shaped_rate(samples, reduce=typical):
    """Tokens per second with each unit taking the reduced time of its kind:
    model and input shape, and for training steps dropout and occlusion.
    The sweep mixes kinds, and decoding mixes context lengths; one reduction
    over all units would just pick out one kind."""
    by_kind = {}
    for kind, _, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    seconds = sum(len(ts) * reduce(ts) for ts in by_kind.values())
    return sum(tokens for _, tokens, _ in samples) / seconds if seconds else 0.0


def environment(seed):
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ.get(k, "default")
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def git_commit():
    """HEAD of the checkout read straight from .git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# The benchmark
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, args):
        from occlm import bpe, corpus, demo, metrics, model, train

        self.args = args
        self.size = (TINY if args.tiny else SIZES)[args.workload]
        self.run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.work = WORK / self.run_id
        self.bpe, self.corpus, self.demo = bpe, corpus, demo
        self.metrics, self.model = metrics, model
        self.tracer = Tracer(self.run_id)
        self.probes = Probes(metrics, model, train)
        self.plain, self.traced = Tally(), Tally()
        self.tally = self.plain
        self.attempted = 0
        self.failed = 0
        self.n_commands = 0
        self.segment = "s0"
        self.dir = None
        self.vocab_bytes = None
        self.losses = {"std": [], "occ": []}
        self.setup_s = []
        self.tokenizer_s = []
        self.rounds = {False: 0, True: 0}

    # -- operations and checks ----------------------------------------------

    def cli(self, *argv):
        """Run `occlm <argv>` through occlm.cli.main.

        Returns (ok, stdout). A nonzero exit or an exception is a failed
        operation; the run goes on.
        """
        from occlm import cli

        self.attempted += 1
        self.n_commands += 1
        argv = [str(a) for a in argv]
        name = argv[0]
        self.tracer.begin_command(f"{self.segment}:{self.n_commands}", name)
        training = name in ("pretrain", "sweep")
        self.probes.train_tally = self.tally if training else None
        self.probes.gen_tally = self.tally if name == "eval" else None
        # scoring counts on the valid split only: `eval` without --bleu
        # (which scores the small held-out set) and each epoch's validation
        # inside training; one input size per model shape
        self.probes.ppl_tally = (self.tally if training or name == "eval"
                                 and "--bleu" not in argv else None)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.argv
        sys.argv = ["occlm"] + argv
        code = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                cli.main()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sys.argv = saved
            self.probes.train_tally = self.probes.ppl_tally = None
            self.probes.gen_tally = None
        if code != 0:
            self.failed += 1
            log(f"FAILED occlm {' '.join(argv)} -> {code}: {err.getvalue()[-400:]}")
        return code == 0, out.getvalue()

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"CHECK FAILED: {what}")
        return ok

    def finite(self, value, what):
        return self.check(value is not None and math.isfinite(value),
                          f"{what} is not finite: {value}")

    # -- set-up -------------------------------------------------------------

    def prepare_data(self, d):
        """Corpus synthesis, tokenizer, split and pack into directory d: one
        set-up, timed. Every repeat must reproduce the first one's
        vocabulary byte for byte, since the same seed gives the same inputs.
        """
        size = self.size
        d.mkdir(parents=True)
        start = time.perf_counter()
        raw = d / "raw.txt"
        self.demo.write_corpus(str(raw), size.sentences, seed=self.args.seed,
                               style="mono")
        t0 = time.perf_counter()
        ok_tok, _ = self.cli("tokenizer", "--data", raw, "--out",
                             d / "vocab.tsv", "--target-size", size.vocab,
                             "--deterministic")
        ok_split, _ = self.cli("corpus", "--data", raw, "--out-dir",
                               d / "data", "--seed", self.args.seed)
        self.tokenizer_s.append(time.perf_counter() - t0)
        if not (ok_tok and ok_split):
            raise RuntimeError("set-up failed: tokenizer or corpus command")
        vocab = self.bpe.load_vocab(str(d / "vocab.tsv"))
        block = (SWEEP_SPEC["base_model"]["block_size"]
                 if self.args.workload == "sweep"
                 else AC4_CONFIG["model"]["block_size"])
        train_lines = list(self.corpus.read_lines(str(d / "data" / "train.txt")))
        self.corpus.pack(train_lines, vocab, block)
        self.setup_s.append(time.perf_counter() - start)
        vocab_bytes = (d / "vocab.tsv").read_bytes()
        if self.vocab_bytes is None:
            self.vocab_bytes = vocab_bytes
        self.check(vocab_bytes == self.vocab_bytes,
                   "the same seed gave a different vocabulary")

    def setup(self, d):
        """Data, held-out sentences and configs in d. The first set-up's
        directory holds the inputs every round uses."""
        size = self.size
        self.prepare_data(d)
        test_lines = list(self.corpus.read_lines(str(d / "data" / "test.txt")))
        heldout = test_lines[: size.heldout]
        (d / "heldout.txt").write_text("\n".join(heldout) + "\n")
        self.prompt = " ".join(heldout[0].split()[:3])
        config = json.loads(json.dumps(AC4_CONFIG))
        config["train"].update(max_epochs=size.epochs, patience=size.epochs + 1)
        (d / "config.json").write_text(json.dumps(config, indent=2))
        spec = dict(SWEEP_SPEC, max_epochs=size.epochs)
        spec["base_train"] = dict(spec["base_train"], patience=size.epochs + 1)
        (d / "sweep.json").write_text(json.dumps(spec, indent=2))
        if self.dir is None:
            self.dir = d

    def repeat_data(self, label):
        """Repeat the data set-up: it times the tokenizer all through the
        run, and checks that the seed still gives the same vocabulary."""
        d = self.work / label
        self.prepare_data(d)
        shutil.rmtree(d)

    # -- building blocks of a round -------------------------------------------

    def pretrain(self, objective):
        d = self.dir
        ckpt = d / f"{objective}.ckpt"
        ok, _ = self.cli(
            "pretrain", "--data", d / "data", "--vocab", d / "vocab.tsv",
            "--config", d / "config.json", "--objective", objective,
            "--out", ckpt, "--deterministic")
        if not ok:
            return None
        meta = self.model.read_checkpoint_header(str(ckpt))["metadata"]
        self.finite(meta["best_valid_loss"], f"{objective} best valid loss")
        self.check(meta["epochs"] == self.size.epochs,
                   f"{objective} ran {meta['epochs']} epochs, "
                   f"not {self.size.epochs}")
        return ckpt, meta["best_valid_loss"]

    def eval_report(self, ckpt, split, *extra):
        """`occlm eval` with --out; returns the checked report dict or None."""
        from occlm.errors import ContractError

        report_path = self.dir / f"{ckpt.stem}.{split.stem}.report.json"
        ok, _ = self.cli("eval", "--checkpoint", ckpt, "--vocab",
                         self.dir / "vocab.tsv", "--split", split,
                         "--out", report_path, *extra)
        if not ok:
            return None
        report = json.loads(report_path.read_text())
        try:
            self.metrics.EvalReport(**report).check()
            passed, why = True, ""
        except ContractError as exc:
            passed, why = False, str(exc)
        self.check(passed, f"EvalReport.check on {report_path.name}: {why}")
        self.finite(report["loss"], f"eval loss of {report_path.name}")
        return report

    def evaluate(self, ckpt, recorded_loss, key=None):
        """Valid perplexity (must reproduce the recorded valid loss), then
        the BLEU protocol on the held-out sentences, then the greedy
        determinism check."""
        report = self.eval_report(ckpt, self.dir / "data" / "valid.txt")
        if report is not None:
            self.check(math.isclose(report["loss"], recorded_loss,
                                    rel_tol=1e-6, abs_tol=1e-9),
                       f"reloaded {ckpt.name} scores {report['loss']} on valid,"
                       f" recorded {recorded_loss}")
            if key is not None:
                self.losses[key].append(report["loss"])
        self.eval_report(ckpt, self.dir / "heldout.txt", "--bleu")
        outputs = [self.cli("generate", "--checkpoint", ckpt, "--vocab",
                            self.dir / "vocab.tsv", "--prompt", self.prompt)[1]
                   for _ in range(2)]
        self.check(outputs[0] == outputs[1] and bool(outputs[0].strip()),
                   f"two greedy generations of {self.prompt!r} differ")

    def sweep(self):
        """One `occlm sweep` and its checks; returns the (checkpoint,
        recorded valid loss) pairs to evaluate."""
        out = self.dir / "sweep_out"
        if out.exists():
            shutil.rmtree(out)  # a kept directory would resume, not re-run
        ok, _ = self.cli(
            "sweep", "--spec", self.dir / "sweep.json", "--data",
            self.dir / "data", "--vocab", self.dir / "vocab.tsv", "--out", out,
            "--deterministic")
        if not ok:
            return []
        board = json.loads((out / "leaderboard.json").read_text())
        keys = [(r["best_valid_loss"] is None,
                 r["best_valid_loss"] or 0.0, r["trial_id"]) for r in board]
        self.check(keys == sorted(keys) and len(board) == SWEEP_SPEC["trial_count"],
                   "leaderboard.json is not sorted or misses trials")
        best = json.loads((out / "best.json").read_text())
        best_ckpt = out / best["checkpoint"]
        self.check(best_ckpt.is_file(), f"best.json names missing {best_ckpt}")
        for key, p in (("std", 0.0), ("occ", 0.3)):
            losses = [r["best_valid_loss"] for r in board
                      if r["sampled"]["occlusion_prob"] == p]
            if self.check(bool(losses), f"no sweep trial with occlusion {p}"):
                best_loss = min((x for x in losses if x is not None),
                                default=None)
                if self.finite(best_loss, f"sweep best valid loss at p={p}"):
                    self.losses[key].append(best_loss)
        # fixed trials, so evaluation cost does not depend on which shape
        # wins; one per occlusion setting
        return [(out / f"trial_{r['trial_id']}" / "checkpoint.ckpt",
                 r["best_valid_loss"])
                for r in board if r["trial_id"] in SWEEP_EVAL_TRIALS]

    def round(self, n):
        """The workload's unit of work in two halves, each after a data
        set-up repeat."""
        if self.args.workload == "pretrain":
            for key, objective in (("std", "standard"), ("occ", "occlusion")):
                self.repeat_data(f"round{n}-{key}")
                trained = self.pretrain(objective)
                if trained is not None:
                    self.evaluate(*trained, key=key)
        else:
            self.repeat_data(f"round{n}-sweep")
            trained = self.sweep()
            self.repeat_data(f"round{n}-eval")
            for ckpt, loss in trained:
                self.evaluate(ckpt, loss)

    # -- running ---------------------------------------------------------------

    def segment_on(self, label, traced):
        """Start a segment: switch tracing and the tally it feeds."""
        self.segment = label
        self.tracer.command = f"{label}:bench"  # until the next CLI command
        if traced:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.tally = self.traced if traced else self.plain

    def run(self):
        trace = bool(self.args.trace)
        repeats = 1 if self.args.tiny else SETUP_REPEATS
        for i in range(repeats):
            # traced runs alternate: untraced, traced, untraced, ...
            self.segment_on(f"s{i}", trace and (i % 2 == 1 or repeats == 1))
            self.setup(self.work / f"setup{i}")
            log(f"set-up {i}: {self.setup_s[-1]:.2f} s")

        deadline = time.perf_counter() + self.args.seconds
        min_rounds = 2 if trace else 1
        n = 0
        last = 0.0
        while n < min_rounds or time.perf_counter() + last <= deadline:
            traced = trace and n % 2 == 1
            self.segment_on(f"r{n}", traced)
            t0 = time.perf_counter()
            self.round(n)
            last = time.perf_counter() - t0
            self.rounds[traced] += 1
            log(f"round {n}{' (traced)' if traced else ''}: {last:.2f} s")
            n += 1
        self.segment_on("end", False)
        return self.result()

    def result(self):
        plain = self.plain
        gen = plain.gen_ms_per_token()
        info = {
            "run_id": self.run_id,
            "environment": environment(self.args.seed),
            "rounds_untraced": self.rounds[False],
            "rounds_traced": self.rounds[True],
            "samples": {"train_steps": len(plain.steps),
                        "valid_scorings": len(plain.scorings),
                        "generate_calls": len(gen),
                        "generated_tokens": len(plain.gen_tokens),
                        "setups": len(self.setup_s)},
            "setup_s": self.setup_s,
            "tokenizer_s": self.tokenizer_s,
        }
        if self.args.trace:
            traced = self.traced
            layer = self.tracer.layer_metrics(self.rounds[True])
            # within one run both sides see the same co-tenants: medians
            layer["trace.overhead_train_pct"] = overhead(
                shaped_rate(plain.steps, median),
                shaped_rate(traced.steps, median))
            plain_ms = percentile(gen, 50)
            traced_ms = percentile(traced.gen_ms_per_token(), 50)
            layer["trace.overhead_gen_pct"] = overhead(
                1 / plain_ms if plain_ms else 0.0,
                1 / traced_ms if traced_ms else 0.0)
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in per_layer_units().items()}
            info["op_table_ms_per_step"] = sorted(
                ((op, layer[f"tensor.{op}.fwd_ms"], layer[f"tensor.{op}.bwd_ms"])
                 for op in OPS), key=lambda row: -row[1] - row[2])
            info["spans"] = len(self.tracer.spans)
            spans_path = OUT / f"spans-{self.run_id}.jsonl.gz"
            self.tracer.write(spans_path)
            info["spans_file"] = str(spans_path.relative_to(ROOT))
            log("self time per training step (ms):   fwd      bwd")
            for op, fwd, bwd in info["op_table_ms_per_step"]:
                log(f"  {op:30s} {fwd:8.3f} {bwd:8.3f}")
        else:
            values = {
                "setup_s": typical(self.setup_s),
                "tokenizer_s": typical(self.tokenizer_s),
                "train_tokens_per_s": shaped_rate(plain.steps),
                "eval_tokens_per_s": shaped_rate(plain.scorings),
                "gen_tokens_per_s": shaped_rate(plain.gen_tokens),
                "gen_token_ms_p95": percentile(gen, 95),
                "valid_loss_std": (statistics.median(self.losses["std"])
                                   if self.losses["std"] else 0.0),
                "valid_loss_occ": (statistics.median(self.losses["occ"])
                                   if self.losses["occ"] else 0.0),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": 1.0 - self.failed / max(self.attempted, 1),
            }
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in END_TO_END.items()}
            if not self.args.tiny and len(gen) < 200:
                log(f"only {len(gen)} generate calls: the p95 has fewer "
                    "than ten samples beyond it")
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
        per_unit = {"train_steps": plain.steps,
                    "valid_scorings": plain.scorings,
                    "gen_tokens": plain.gen_tokens,
                    "gen_calls": plain.gen_calls}
        (OUT / f"result-{self.run_id}.json").write_text(
            json.dumps(dict(result, info=info, per_unit=per_unit), indent=2))
        print(json.dumps({"info": info}))
        return result

    def close(self):
        self.tracer.uninstall()
        self.probes.close()
        shutil.rmtree(self.work, ignore_errors=True)


def overhead(untraced_rate, traced_rate):
    """Throughput lost to tracing, in percent of the untraced rate (0 if
    either side went unmeasured)."""
    if not untraced_rate or not traced_rate:
        return 0.0
    return 100.0 * (untraced_rate - traced_rate) / untraced_rate


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "occlm" / "__init__.py").is_file():
        log(f"no occlm sources under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    bench = Bench(args)
    try:
        result = bench.run()
    finally:
        bench.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
