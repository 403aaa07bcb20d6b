"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each occlm layer from outside the
package (module attributes and class methods are swapped for timing
wrappers, then restored). Every call becomes a span: name, start, end,
parent span and the id of the CLI command it ran under. Spans stay in memory
and are written out once, at the end of the run. Per-layer numbers are
derived from them; an op's self time is its duration minus the time its
child spans cover.

Tensor kernels get two spans each: ``tensor.<op>.fwd`` around the kernel,
and ``tensor.<op>.bwd`` around the ``backward_fn`` of the tape entry the
kernel appended, so the backward replay is timed per op as well.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict

import numpy as np

# The 12 kernels the decoder uses, in the order the docs list them.
OPS = ("matmul", "gelu", "layer_norm", "softmax_lastdim", "cross_entropy",
       "dropout", "add", "embedding_lookup", "causal_mask_fill", "transpose",
       "reshape", "scale")

class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def swap(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries. ``install`` swaps the wrappers in, ``uninstall`` takes them
    out again; spans recorded so far are kept."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.command = ""
        # span rows: [name, start_ns, end_ns, parent index or -1, command,
        # whether it ran inside a training step]
        self.spans = []
        self._stack = []
        self._train_depth = 0
        self._gen_depth = 0
        self.counts = defaultdict(int)
        self._patches = None

    # -- recording ---------------------------------------------------------

    def begin_command(self, label, name):
        """Name the CLI command that the next spans run under."""
        self.command = f"{label}:{name}"
        if self._patches is not None:
            self.counts["commands." + name] += 1

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.command, self._train_depth > 0])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    # -- wrappers ----------------------------------------------------------

    def install(self):
        from occlm import bpe, cli, corpus, demo, metrics, model, sweep, train
        from occlm import tensor as T

        p = self._patches = Patches()
        for op in OPS:
            p.swap(T, op, lambda fn, op=op: self._wrap_op(T, op, fn))
        p.swap(T, "backward", self._wrap_backward)
        p.swap(model, "forward", self._wrap_forward)
        p.swap(train, "train_step", self._wrap_train_step)
        p.swap(metrics, "generate", self._wrap_generate)
        p.swap(bpe, "encode", self._wrap_encode)
        p.swap(sweep, "run_trial", self._wrap_run_trial)
        p.swap(model, "load_checkpoint", self._counted("model.load_checkpoint"))
        for owner, name in (
            (train, "adamw_update"), (train, "occlude_batch"),
            (metrics, "perplexity"), (model, "save_checkpoint"),
            (cli, "write_manifest"), (bpe, "train_bpe"), (bpe, "decode"),
            (corpus, "pack"), (demo, "make_sentences"),
        ):
            p.swap(owner, name,
                   lambda fn, n=f"{owner.__name__[6:]}.{name}": self.timed(n, fn))
        p.swap(corpus.TokenDataset, "minibatch",
               lambda fn: self.timed("corpus.minibatch", fn))
        p.swap(train.MetricsSink, "emit",
               lambda fn: self.timed("train.sink_emit", fn))

    def uninstall(self):
        if self._patches is not None:
            self._patches.restore()
            self._patches = None

    def _wrap_op(self, T, op, fn):
        fwd_name, bwd_name = f"tensor.{op}.fwd", f"tensor.{op}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tape = T.active_tape()
            before = len(tape.entries) if tape is not None else 0
            idx = self.begin(fwd_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            # only an entry this very call appended gets its backward timed
            # (dropout with p=0 returns its input and appends nothing)
            if tape is not None and len(tape.entries) == before + 1:
                entry = tape.entries[-1]
                entry.backward_fn = self.timed(bwd_name, entry.backward_fn)
            return out

        return wrapper

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(loss, tape=None):
            if tape is not None:
                self.counts["tape_entries"] += len(tape.entries)
            idx = self.begin("tensor.backward")
            try:
                return fn(loss, tape)
            finally:
                self.end(idx)

        return wrapper

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(params, config, ids, train=False, rng=None):
            if self._gen_depth and not self._train_depth:
                self.counts["gen_positions"] += int(np.shape(ids)[-1])
            idx = self.begin("model.forward.train" if train
                             else "model.forward.eval")
            try:
                return fn(params, config, ids, train=train, rng=rng)
            finally:
                self.end(idx)

        return wrapper

    def _wrap_train_step(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._train_depth += 1
            idx = self.begin("train.train_step")
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
                self._train_depth -= 1

        return wrapper

    def _wrap_generate(self, fn):
        @functools.wraps(fn)
        def wrapper(params, config, vocab, prompt_ids, gen=None):
            idx = self.begin("metrics.generate")
            self._gen_depth += 1
            try:
                out = fn(params, config, vocab, prompt_ids, gen)
            finally:
                self._gen_depth -= 1
                self.end(idx)
            self.counts["gen_tokens"] += len(out) - len(prompt_ids)
            return out

        return wrapper

    def _wrap_encode(self, fn):
        @functools.wraps(fn)
        def wrapper(v, text):
            idx = self.begin("bpe.encode")
            try:
                out = fn(v, text)
            finally:
                self.end(idx)
            self.counts["encode_tokens"] += len(out.ids)
            return out

        return wrapper

    def _wrap_run_trial(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin("sweep.run_trial")
            try:
                rec = fn(*args, **kwargs)
            finally:
                self.end(idx)
            self.counts["trials_diverged"] += rec.stop_reason == "diverged"
            return rec

        return wrapper

    def _counted(self, name):
        """Time fn and count its calls per kind of CLI command."""
        def make(fn):
            timed = self.timed(name, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                command = self.command.rsplit(":", 1)[-1]
                self.counts[f"{name}.calls.{command}"] += 1
                return timed(*args, **kwargs)

            return wrapper

        return make

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the duration of its direct children (ns)."""
        durations = [s[2] - s[1] for s in self.spans]
        own = list(durations)
        for s, d in zip(self.spans, durations):
            if s[3] >= 0:
                own[s[3]] -= d
        return durations, own

    def layer_metrics(self, rounds):
        """Every per-layer metric of BENCHMARK.json, from the spans so far.

        Per-step figures divide by the traced training steps; counts divide
        by the traced rounds (commands labelled "r<n>:..."). A layer the
        workload never reached reads 0.
        """
        durations, own = self.self_times()
        by_name = defaultdict(list)
        self_by = defaultdict(float)
        for s, d, o in zip(self.spans, durations, own):
            by_name[s[0]].append(d)
            if s[5]:
                self_by[s[0]] += o
        steps = len(by_name["train.train_step"])

        def per_step(total_ns):
            return total_ns / 1e6 / steps if steps else 0.0

        def mean(name, scale):
            vals = by_name[name]
            return sum(vals) / len(vals) / scale if vals else 0.0

        def pct(name, q, scale):
            vals = by_name[name]
            return float(np.percentile(vals, q)) / scale if vals else 0.0

        out = {}
        for op in OPS:
            out[f"tensor.{op}.fwd_ms"] = per_step(self_by[f"tensor.{op}.fwd"])
            out[f"tensor.{op}.bwd_ms"] = per_step(self_by[f"tensor.{op}.bwd"])
        out["tensor.backward_ms"] = per_step(sum(by_name["tensor.backward"]))
        out["tensor.tape_entries_per_step"] = (
            self.counts["tape_entries"] / steps if steps else 0.0)
        out["model.forward.train_ms"] = per_step(
            sum(by_name["model.forward.train"]))
        out["model.forward.eval_ms"] = mean("model.forward.eval", 1e6)
        in_rounds = sum(1 for s in self.spans
                        if s[0].startswith("model.forward.") and s[4][0] == "r")
        out["model.forward.calls"] = in_rounds / rounds if rounds else 0.0
        out["metrics.perplexity_ms"] = mean("metrics.perplexity", 1e6)
        out["metrics.generate_ms"] = mean("metrics.generate", 1e6)
        gen_tokens = self.counts["gen_tokens"]
        out["metrics.generate.positions_per_token"] = (
            self.counts["gen_positions"] / gen_tokens if gen_tokens else 0.0)
        out["train.train_step_ms_p50"] = pct("train.train_step", 50, 1e6)
        out["train.train_step_ms_p90"] = pct("train.train_step", 90, 1e6)
        out["train.adamw_update_ms"] = per_step(sum(by_name["train.adamw_update"]))
        out["train.occlude_batch_ms"] = per_step(sum(by_name["train.occlude_batch"]))
        out["train.data_wait_ms"] = per_step(sum(by_name["corpus.minibatch"]))
        out["model.save_checkpoint_ms"] = mean("model.save_checkpoint", 1e6)
        evals = self.counts["commands.eval"]
        out["model.load_checkpoint.calls"] = (
            self.counts["model.load_checkpoint.calls.eval"] / evals
            if evals else 0.0)
        out["cli.write_manifest_ms"] = mean("cli.write_manifest", 1e6)
        out["train.sink_emit_ms"] = mean("train.sink_emit", 1e6)
        out["bpe.train_bpe_s"] = mean("bpe.train_bpe", 1e9)
        encode_s = sum(by_name["bpe.encode"]) / 1e9
        out["bpe.encode_tokens_per_s"] = (
            self.counts["encode_tokens"] / encode_s if encode_s else 0.0)
        out["bpe.decode_ms"] = mean("bpe.decode", 1e6)
        out["corpus.pack_s"] = mean("corpus.pack", 1e9)
        out["demo.make_sentences_s"] = mean("demo.make_sentences", 1e9)
        out["sweep.run_trial_s_p50"] = pct("sweep.run_trial", 50, 1e9)
        out["sweep.trials_diverged"] = (
            self.counts["trials_diverged"] / rounds if rounds else 0.0)
        return out

    def write(self, path):
        """Dump every span as one JSON object per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, command, _) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run_id": f"{self.run_id}/{command}",
                }) + "\n")
