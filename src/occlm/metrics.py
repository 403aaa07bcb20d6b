"""Evaluation: token-mean perplexity, corpus BLEU with brevity penalty,
prompted generation, and the prompt/continuation BLEU protocol."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import bpe, model, shards
from . import tensor as T
from .errors import ConfigError, ContractError, DataError, LengthError

EVAL_BATCH = 32
# the BLEU protocol prompts with this leading fraction of each sentence
PROMPT_FRAC = 0.25


def safe_exp(x):
    """exp() that saturates to inf instead of raising on huge losses."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass
class GenerationConfig:
    max_new_tokens: int = 32
    strategy: str = "greedy"  # greedy | sample | topk
    temperature: float = 1.0
    top_k: int = 0
    seed: int = 0

    def check(self):
        if self.strategy not in ("greedy", "sample", "topk"):
            raise ConfigError(f"unknown decoding strategy {self.strategy!r}")
        if self.strategy in ("sample", "topk") and not 0 < self.temperature < math.inf:
            raise ConfigError(
                f"temperature must be finite and > 0, got {self.temperature}"
            )
        if self.strategy == "topk" and self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        return self


def perplexity(params, config, dataset):
    """Token-mean NLL over all non-pad target positions and its exponential.

    Accumulated per window in float64, in window-index order, so the result
    is invariant to evaluation batch size. Never a mean of per-batch PPLs.
    When half the split reaches shards.SHARD_MIN_SIZE, the split is scored
    as two contiguous halves, one per core (shards.run), in one pass: each
    half in forwards of EVAL_BATCH // 2 windows, so no core idles on a short
    tail and a forward holds no more than before. A window's logits do not
    depend on the rows scored with it, so the result is bit-identical to one
    shard. A non-finite value in either half raises NumericsError once both
    have finished.
    """
    if len(dataset) == 0:
        raise DataError("perplexity over an empty dataset")
    windows = dataset.windows
    parts = np.array_split(
        windows, shards.shard_count(windows[:, :-1], config.d_model))
    chunk = max(1, EVAL_BATCH // len(parts))

    def part_nll(part):
        """Per-window NLL and target count of one part, in window order."""
        nll, n_tok = [], []
        for start in range(0, len(part), chunk):
            w = part[start : start + chunk]
            y = w[:, 1:]
            logits = model.forward(params, config, w[:, :-1], train=False).data
            picked = model.token_logprobs(logits, y)
            valid = y != bpe.PAD_ID
            nll.extend(-(picked * valid).sum(axis=1))
            n_tok.extend(valid.sum(axis=1))
        return nll, n_tok

    total_nll = 0.0
    total_tok = 0
    for nll, n_tok in shards.run(lambda j: part_nll(parts[j]), len(parts)):
        for row_nll, row_n in zip(nll, n_tok):
            total_nll += float(row_nll)
            total_tok += int(row_n)
    if total_tok == 0:
        raise DataError("perplexity dataset holds no non-pad targets")
    mean = total_nll / total_tok
    return mean, safe_exp(mean)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def brevity_penalty(c, r):
    """1 when the candidate corpus is longer than the reference; else exp(1-r/c)."""
    if c > r:
        return 1.0
    if c == 0:
        return 0.0
    return math.exp(1.0 - r / c)


def bleu_corpus(candidates, references, max_n=4):
    """Corpus-level BLEU in [0, 1]: clipped n-gram counts summed over the
    corpus, uniform 1/max_n weights, brevity penalty on total lengths.

    Any order with zero matches zeroes the score (no smoothing).
    """
    if len(candidates) != len(references):
        raise ContractError(
            f"{len(candidates)} candidates vs {len(references)} references"
        )
    if not candidates:
        raise ContractError("bleu_corpus needs at least one pair")
    matches = [0] * max_n
    totals = [0] * max_n
    c_len = 0
    r_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        c_len += len(cand)
        r_len += len(ref)
        for n in range(1, max_n + 1):
            cn = _ngrams(cand, n)
            if not cn:
                continue
            rn = _ngrams(ref, n)
            matches[n - 1] += sum(min(k, rn[g]) for g, k in cn.items())
            totals[n - 1] += sum(cn.values())
    log_p = 0.0
    for m, t in zip(matches, totals):
        if t == 0:
            # no candidate n-grams of this order exist (all candidates are
            # shorter than n): the order is absent, not zero, so identity
            # still holds for texts shorter than max_n
            continue
        if m == 0:
            return 0.0
        log_p += math.log(m / t) / max_n
    return brevity_penalty(c_len, r_len) * math.exp(log_p)


def _decoding_params(params):
    """params sharing every tensor but tok_emb, which is a column-major copy;
    params itself when its tok_emb already is one.

    The tied head multiplies by tok_emb's transpose, which tensor._row_major
    copies to row-major order before BLAS sees it: about 40 us of a batch-1
    ac4 forward, at every generated token. The transpose of a column-major
    copy is already row-major, with the bytes of that copy, so the head
    makes the same BLAS call on the same bytes. bleu_eval_protocol makes the
    copy once per pass and hands it to every generate call, which then uses
    it as it is.
    """
    if params["tok_emb"].data.flags.f_contiguous:
        return params
    tensors = dict(params.items())
    tensors["tok_emb"] = T.Tensor(np.asfortranarray(params["tok_emb"].data))
    return model.ParameterSet(params.config, tensors)


def generate(params, config, vocab, prompt_ids, gen=None):
    """Autoregressive decoding; returns prompt + continuation ids, stopping
    after max_new_tokens or at the first end-of-text token, which is kept.

    The context slides once it exceeds block_size. Greedy is fully
    deterministic; sample/topk draw from a generator seeded by gen.seed,
    with probabilities computed in float64. End-of-text is bpe.EOT_ID in
    every vocabulary, so ``vocab`` is unused; the benchmark's probe and
    tracer still call generate with it, and dropping the parameter is a
    change to the benchmark.

    The tied table's layout is chosen once per call (_decoding_params), or
    not at all when the caller's tok_emb is already column-major: the head
    then multiplies by the same bytes at every token without copying them,
    with the same bits; ``params`` is left as it was.
    """
    gen = (gen or GenerationConfig()).check()
    ids = [int(i) for i in prompt_ids]
    if not ids:
        raise LengthError("generation prompt is empty")
    if len(ids) >= config.block_size:
        raise LengthError(
            f"prompt length {len(ids)} must be shorter than block_size "
            f"{config.block_size}"
        )
    rng = None if gen.strategy == "greedy" else np.random.default_rng(gen.seed)
    decoding = _decoding_params(params)
    for _ in range(gen.max_new_tokens):
        ctx = ids[-config.block_size :]
        logits = model.forward(decoding, config, np.asarray(ctx)).data[0, -1]
        z = logits.astype(np.float64)
        if gen.strategy == "greedy":
            nxt = int(np.argmax(z))
        else:
            if gen.strategy == "topk":
                keep = np.argsort(-z, kind="stable")[: gen.top_k]
                masked = np.full_like(z, -np.inf)
                masked[keep] = z[keep]
                z = masked
            z = z / gen.temperature
            z = z - z[np.isfinite(z)].max()
            p = np.where(np.isfinite(z), np.exp(z), 0.0)
            p = p / p.sum()
            nxt = int(rng.choice(len(p), p=p))
        ids.append(nxt)
        if nxt == bpe.EOT_ID:
            break
    return ids


@dataclass
class ProtocolResult:
    bleu: float
    n_scored: int
    n_skipped: int


def bleu_eval_protocol(params, config, vocab, sentences,
                       prompt_frac=PROMPT_FRAC, gen=None):
    """Prompt each test sentence with its leading ceil(prompt_frac * len)
    tokens, generate the remaining length, and score continuations with
    corpus BLEU. Sentences too short to split are skipped and counted."""
    if not (0 < prompt_frac < 1):
        raise ConfigError(f"prompt_frac must lie in (0, 1), got {prompt_frac}")
    gen = gen or GenerationConfig()
    decoding = _decoding_params(params)  # once per pass, not per sentence
    candidates = []
    references = []
    n_skipped = 0
    for sent in sentences:
        ids = bpe.encode(vocab, sent).ids
        n = len(ids)
        n_prompt = math.ceil(prompt_frac * n)
        if n < 2 or n_prompt >= n or n_prompt >= config.block_size:
            n_skipped += 1
            continue
        ref_cont = ids[n_prompt:]
        g = replace(gen, max_new_tokens=len(ref_cont))
        out = generate(decoding, config, vocab, ids[:n_prompt], g)
        cont = out[n_prompt:]
        candidates.append(cont)
        references.append(ref_cont)
    if not candidates:
        raise DataError(
            f"no sentence was long enough to split (skipped {n_skipped})"
        )
    return ProtocolResult(
        bleu=bleu_corpus(candidates, references),
        n_scored=len(candidates),
        n_skipped=n_skipped,
    )


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    split: str
    loss: float
    perplexity: float
    bleu: float | None
    n_sequences: int
    n_tokens: int
    generation: dict | None
    run_id: str
    checkpoint_hash: str

    def check(self):
        want = safe_exp(self.loss)
        mismatch = (
            self.perplexity != want
            if math.isinf(want)
            else abs(self.perplexity - want) > 1e-9 * self.perplexity
        )
        if mismatch:
            raise ContractError("perplexity != exp(loss) in report")
        if self.bleu is not None and not (0.0 <= self.bleu <= 1.0):
            raise ContractError(f"bleu {self.bleu} outside [0, 1]")
        return self

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def evaluate(
    checkpoint_path,
    dataset,
    split="validation",
    vocab=None,
    vocab_hash=None,
    bleu_sentences=None,
    prompt_frac=PROMPT_FRAC,
    gen=None,
):
    """Load a checkpoint, measure perplexity, optionally run the BLEU
    protocol, and fold everything into one EvalReport with provenance."""
    params, header, _ = model.load_checkpoint(
        checkpoint_path, expect_vocab_hash=vocab_hash
    )
    loss, ppl = perplexity(params, params.config, dataset)
    bleu = None
    gen_info = None
    if bleu_sentences is not None:
        if vocab is None:
            raise ConfigError("BLEU evaluation needs the vocabulary")
        gen = gen or GenerationConfig()
        result = bleu_eval_protocol(
            params, params.config, vocab, bleu_sentences, prompt_frac, gen
        )
        bleu = result.bleu
        gen_info = {
            "strategy": gen.strategy,
            "temperature": gen.temperature,
            "top_k": gen.top_k,
            "seed": gen.seed,
            "prompt_frac": prompt_frac,
            "n_scored": result.n_scored,
            "n_skipped": result.n_skipped,
        }
    n_tokens = int((dataset.windows[:, 1:] != bpe.PAD_ID).sum())
    return EvalReport(
        split=split,
        loss=loss,
        perplexity=ppl,
        bleu=bleu,
        n_sequences=len(dataset),
        n_tokens=n_tokens,
        generation=gen_info,
        run_id=header["metadata"].get("run_id", ""),
        checkpoint_hash=file_sha256(checkpoint_path),
    ).check()
