"""Evaluation metric tests.

Perplexity gets a uniform-model oracle and a direct product-of-probabilities
oracle; BLEU is checked against hand counts and an independently written
reference implementation; generation and the BLEU protocol are pinned with
trained-tiny-model and random-baseline cases.
"""

import collections
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlm import bpe, corpus, demo, metrics, model, train
from occlm import tensor as T
from occlm.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DataError,
    LengthError,
)


def tiny_config(**over):
    base = dict(
        vocab_size=16, block_size=8, d_model=8, n_layers=1, n_heads=2,
        dropout=0.0, ffn_mult=2,
    )
    base.update(over)
    return model.ModelConfig(**base).check()


def tiny_dataset(stream=None, block_size=8):
    if stream is None:
        stream = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2] * 6
    return corpus.pack_ids(stream, block_size)


def uniform_params(cfg):
    """Zeroed embeddings force constant logits, hence a uniform model."""
    params = model.init(cfg, seed=0)
    params["tok_emb"].data[:] = 0.0
    params["pos_emb"].data[:] = 0.0
    return params


# ---------------------------------------------------------------------------
# perplexity
# ---------------------------------------------------------------------------


def test_uniform_model_perplexity_equals_vocab_size():
    cfg = tiny_config()
    loss, ppl = metrics.perplexity(uniform_params(cfg), cfg, tiny_dataset())
    assert ppl == pytest.approx(cfg.vocab_size, rel=1e-12)
    assert loss == pytest.approx(math.log(cfg.vocab_size), rel=1e-12)


def test_perplexity_is_exp_of_loss():
    cfg = tiny_config()
    params = model.init(cfg, seed=3)
    loss, ppl = metrics.perplexity(params, cfg, tiny_dataset())
    assert abs(ppl - math.exp(loss)) <= 1e-9 * ppl


def test_perplexity_matches_product_of_probabilities_oracle():
    # PPL = (prod p_i)^(-1/N) accumulated as a scaled mantissa/exponent
    # product, an independent reduction path from the mean-NLL route
    cfg = tiny_config()
    params = model.init(cfg, seed=7)
    ds = tiny_dataset(stream=[3, 4, 5, 6, 2, 7, 8, 9, 10, 2, 11, 12, 3, 5, 2])
    _, ppl = metrics.perplexity(params, cfg, ds)

    mantissa = 1.0
    exponent = 0
    n = 0
    for w in ds.windows:
        x, y = w[:-1], w[1:]
        logits = model.forward(params, cfg, x).data[0].astype(np.float64)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        for t, target in enumerate(y):
            if target == ds.pad_id:
                continue
            mantissa *= float(probs[t, target])
            mantissa, shift = math.frexp(mantissa)
            exponent += shift
            n += 1
    # prod = mantissa * 2**exponent; PPL = prod ** (-1/n)
    want = math.exp(-(math.log(mantissa) + exponent * math.log(2.0)) / n)
    assert ppl == pytest.approx(want, rel=1e-6)


def test_paper_loss_perplexity_convention():
    # published pair: validation loss 2.78 alongside perplexity 16.04; the
    # exp convention lands within the table's own rounding (1%)
    assert abs(math.exp(2.78) - 16.04) / 16.04 < 0.01


def test_perplexity_invariant_to_eval_batch_size(monkeypatch):
    cfg = tiny_config()
    params = model.init(cfg, seed=1)
    ds = tiny_dataset()
    monkeypatch.setattr(metrics, "EVAL_BATCH", 32)
    big = metrics.perplexity(params, cfg, ds)
    monkeypatch.setattr(metrics, "EVAL_BATCH", 1)
    one = metrics.perplexity(params, cfg, ds)
    monkeypatch.setattr(metrics, "EVAL_BATCH", 3)
    odd = metrics.perplexity(params, cfg, ds)
    assert big == one == odd


def test_perplexity_invariant_to_window_order():
    cfg = tiny_config()
    params = model.init(cfg, seed=1)
    ds = tiny_dataset()
    _, ppl = metrics.perplexity(params, cfg, ds)
    shuffled = corpus.TokenDataset(
        windows=ds.windows[::-1].copy(), n_stream_tokens=ds.n_stream_tokens,
    )
    _, ppl2 = metrics.perplexity(params, cfg, shuffled)
    assert ppl == pytest.approx(ppl2, rel=1e-12)


def test_perplexity_empty_dataset_rejected():
    cfg = tiny_config()
    with pytest.raises(DataError):
        metrics.perplexity(model.init(cfg, seed=0), cfg, tiny_dataset(stream=[]))


def test_perplexity_all_pad_rejected():
    cfg = tiny_config()
    ds = tiny_dataset()
    ds.windows[:] = ds.pad_id
    with pytest.raises(DataError):
        metrics.perplexity(model.init(cfg, seed=0), cfg, ds)


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def test_brevity_penalty_hand_cases():
    assert metrics.brevity_penalty(3, 4) == pytest.approx(0.71653, abs=1e-5)
    assert metrics.brevity_penalty(4, 3) == 1.0
    assert metrics.brevity_penalty(3, 3) == 1.0
    assert metrics.brevity_penalty(0, 5) == 0.0


def test_bleu_hand_count_unigram():
    score = metrics.bleu_corpus([["a", "b", "x"]], [["a", "b", "c"]], max_n=1)
    assert score == pytest.approx(2 / 3, rel=1e-12)


def test_bleu_perfect_match_is_one():
    cand = [3, 4, 5, 6, 7, 8]
    assert metrics.bleu_corpus([cand], [list(cand)]) == pytest.approx(1.0)


def test_bleu_disjoint_is_zero():
    assert metrics.bleu_corpus([[1, 2, 3, 4, 5]], [[6, 7, 8, 9, 10]]) == 0.0


def test_bleu_empty_candidate_scores_without_crash():
    score = metrics.bleu_corpus(
        [[], [1, 2, 3, 4]], [[1, 2], [1, 2, 3, 4]]
    )
    assert 0.0 <= score <= 1.0


def test_bleu_validation_errors():
    with pytest.raises(ContractError):
        metrics.bleu_corpus([[1]], [[1], [2]])
    with pytest.raises(ContractError):
        metrics.bleu_corpus([], [])


def test_bleu_truncation_strictly_penalized():
    ref = list(range(10))
    scores = [
        metrics.bleu_corpus([ref[:k]], [ref]) for k in range(4, 11)
    ]
    # each prefix has perfect precision, so the score is pure brevity
    # penalty, strictly increasing with candidate length until c == r
    for k, s in zip(range(4, 11), scores):
        assert s == pytest.approx(metrics.brevity_penalty(k, 10), rel=1e-12)
    assert all(a < b for a, b in zip(scores, scores[1:]))


def test_bleu_one_unmatched_order_zeroes_the_score():
    # the unigram matches, the bigram order has none: BLEU is unsmoothed
    assert metrics.bleu_corpus([[1, 2]], [[1, 3]]) == 0.0


def reference_bleu(cands, refs, max_n=4):
    """Independent corpus BLEU: order-major loops, dict-based clipping."""
    total_match = collections.defaultdict(int)
    total_count = collections.defaultdict(int)
    for n in range(1, max_n + 1):
        for cand, ref in zip(cands, refs):
            cgrams = collections.Counter(
                tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)
            )
            rgrams = collections.Counter(
                tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)
            )
            for gram, cnt in cgrams.items():
                total_match[n] += min(cnt, rgrams.get(gram, 0))
                total_count[n] += cnt
    acc = 0.0
    for n in range(1, max_n + 1):
        if total_count[n] == 0:
            continue  # order absent from the candidate corpus
        if total_match[n] == 0:
            return 0.0
        acc += math.log(total_match[n] / total_count[n])
    c = sum(len(x) for x in cands)
    r = sum(len(x) for x in refs)
    if c > r:
        bp = 1.0
    elif c == 0:
        bp = 0.0
    else:
        bp = math.exp(1.0 - r / c)
    return bp * math.exp(acc / max_n)


def test_bleu_matches_independent_reference_on_100_pairs():
    rng = np.random.default_rng(20240817)
    for trial in range(100):
        k = int(rng.integers(1, 6))  # corpus of 1..5 pairs
        cands, refs = [], []
        for _ in range(k):
            clen = int(rng.integers(1, 30))
            rlen = int(rng.integers(1, 30))
            cand = rng.integers(0, 8, size=clen).tolist()
            ref = rng.integers(0, 8, size=rlen).tolist()
            if rng.random() < 0.15:
                ref = list(cand)  # force some perfect pairs
            cands.append(cand)
            refs.append(ref)
        ours = metrics.bleu_corpus(cands, refs)
        theirs = reference_bleu(cands, refs)
        assert abs(ours - theirs) <= 1e-6, (trial, ours, theirs)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_bleu_self_match_property(tokens):
    assert metrics.bleu_corpus([tokens], [list(tokens)]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def eot_emitting_params(cfg):
    """Hand-built weights whose logits always argmax at eot."""
    params = model.init(cfg, seed=0)
    for name in params.names():
        params[name].data[:] = 0.0
        if name.endswith("ln1.g") or name.endswith("ln2.g") or name == "ln_f.g":
            params[name].data[:] = 1.0
    params["ln_f.b"].data[0] = 1.0
    params["tok_emb"].data[2, 0] = 10.0  # channel 0 votes for eot
    return params


def test_greedy_generation_deterministic():
    cfg = tiny_config()
    params = model.init(cfg, seed=5)
    vocab = _id_vocab(cfg.vocab_size)
    gen = metrics.GenerationConfig(max_new_tokens=6)
    a = metrics.generate(params, cfg, vocab, [3, 4, 5], gen)
    b = metrics.generate(params, cfg, vocab, [3, 4, 5], gen)
    assert a == b
    assert a[:3] == [3, 4, 5]
    assert len(a) <= 3 + 6


# Recorded before the tensor engine's dispatch rewrite. Tokens must match
# exactly; GOLDEN_LOGPROB_ATOL is ~10x the largest logprob drift measured
# after nudging every weight by one float32 ulp (5.1e-6 over five nudges).
GOLDEN_CONTINUATION = [38, 4, 11, 6, 36, 26, 16, 38, 18, 9, 29, 9]
GOLDEN_LOGPROB = -27.57398854344468
GOLDEN_LOGPROB_ATOL = 5e-5


def test_golden_greedy_decode():
    cfg = model.ModelConfig(vocab_size=48, block_size=16, d_model=32,
                            n_layers=2, n_heads=4, dropout=0.1).check()
    params = model.init(cfg, seed=1)
    for _, t in params.items():
        if t.data.ndim == 2:  # sharper logits than the 0.02 init: no near-ties
            t.data *= np.float32(20)
    out = metrics.generate(
        params, cfg, _id_vocab(cfg.vocab_size), [5, 17, 9],
        metrics.GenerationConfig(max_new_tokens=12),
    )
    assert out == [5, 17, 9] + GOLDEN_CONTINUATION
    logprob = model.sequence_logprob(params, cfg, np.asarray(out))
    assert abs(logprob - GOLDEN_LOGPROB) <= GOLDEN_LOGPROB_ATOL


def _ac4_config():
    return model.ModelConfig(vocab_size=512, block_size=64, d_model=64,
                             n_layers=2, n_heads=2, dropout=0.1,
                             ffn_mult=4).check()


@pytest.mark.parametrize("strategy", ["greedy", "sample", "topk"])
@pytest.mark.parametrize("shape", ["tiny", "ac4"])
def test_generate_decodes_the_callers_bits(monkeypatch, shape, strategy):
    """generate decodes from a column-major copy of the tied table: each of
    its logits, and so each id, is what model.forward gives on the caller's
    own params (a reference loop that reads them at every token), past
    block_size, and the caller's table is left as it was."""
    cfg = tiny_config() if shape == "tiny" else _ac4_config()
    params = model.init(cfg, seed=3)
    table = params["tok_emb"].data
    before = table.copy()
    gen = metrics.GenerationConfig(max_new_tokens=cfg.block_size + 4,
                                   strategy=strategy, top_k=5, seed=11)
    vocab = _id_vocab(cfg.vocab_size)
    forward = model.forward
    logits = {"decoded": [], "reference": []}

    def recording(p, c, ids, **kw):
        out = forward(p, c, ids, **kw)
        if p is params:
            logits["reference"].append(out.data)
        else:
            assert p["tok_emb"].data.flags.f_contiguous
            logits["decoded"].append(out.data)
        return out

    monkeypatch.setattr(model, "forward", recording)
    out = metrics.generate(params, cfg, vocab, [3, 4, 5], gen)
    monkeypatch.setattr(model, "forward", lambda p, c, ids, **kw:
                        recording(params, c, ids, **kw))
    assert metrics.generate(params, cfg, vocab, [3, 4, 5], gen) == out
    assert len(logits["decoded"]) == len(logits["reference"]) == len(out) - 3
    for a, b in zip(logits["decoded"], logits["reference"]):
        assert a.tobytes() == b.tobytes()
    assert params["tok_emb"].data is table and table.flags.c_contiguous
    np.testing.assert_array_equal(table, before)


def test_generate_does_not_copy_the_tied_table_per_token(monkeypatch):
    cfg = _ac4_config()
    params = model.init(cfg, seed=3)
    copied = []
    row_major = T._row_major

    def spy(arr):
        out = row_major(arr)
        if out is not arr:
            copied.append(arr.shape)
        return out

    monkeypatch.setattr(T, "_row_major", spy)
    metrics.generate(params, cfg, _id_vocab(cfg.vocab_size), [3, 4, 5],
                     metrics.GenerationConfig(max_new_tokens=4))
    assert (cfg.d_model, cfg.vocab_size) not in copied
    # a forward on the caller's row-major table copies its transpose
    model.forward(params, cfg, np.asarray([3, 4, 5]))
    assert (cfg.d_model, cfg.vocab_size) in copied


def test_generation_slides_past_block_size():
    cfg = tiny_config()
    params = model.init(cfg, seed=5)
    vocab = _id_vocab(cfg.vocab_size)
    gen = metrics.GenerationConfig(max_new_tokens=10)
    out = metrics.generate(params, cfg, vocab, [3] * (cfg.block_size - 1), gen)
    assert len(out) == cfg.block_size - 1 + 10


def test_generation_prompt_validation():
    cfg = tiny_config()
    params = model.init(cfg, seed=0)
    vocab = _id_vocab(cfg.vocab_size)
    with pytest.raises(LengthError):
        metrics.generate(params, cfg, vocab, [])
    with pytest.raises(LengthError):
        metrics.generate(params, cfg, vocab, [3] * cfg.block_size)


def test_generation_stops_on_eot():
    cfg = tiny_config()
    params = eot_emitting_params(cfg)
    vocab = _id_vocab(cfg.vocab_size)
    out = metrics.generate(
        params, cfg, vocab, [3, 4], metrics.GenerationConfig(max_new_tokens=10)
    )
    assert out == [3, 4, 2]


def test_top_k_1_equals_greedy_over_50_prompts():
    cfg = tiny_config()
    params = model.init(cfg, seed=11)
    vocab = _id_vocab(cfg.vocab_size)
    rng = np.random.default_rng(0)
    for _ in range(50):
        prompt = rng.integers(3, cfg.vocab_size, size=3).tolist()
        greedy = metrics.generate(
            params, cfg, vocab, prompt, metrics.GenerationConfig(max_new_tokens=5)
        )
        topk = metrics.generate(
            params, cfg, vocab, prompt,
            metrics.GenerationConfig(max_new_tokens=5, strategy="topk", top_k=1),
        )
        assert greedy == topk


def test_temperature_limit_recovers_greedy():
    cfg = tiny_config()
    params = model.init(cfg, seed=11)
    vocab = _id_vocab(cfg.vocab_size)
    rng = np.random.default_rng(1)
    for _ in range(50):
        prompt = rng.integers(3, cfg.vocab_size, size=3).tolist()
        greedy = metrics.generate(
            params, cfg, vocab, prompt, metrics.GenerationConfig(max_new_tokens=4)
        )
        cold = metrics.generate(
            params, cfg, vocab, prompt,
            metrics.GenerationConfig(
                max_new_tokens=4, strategy="sample", temperature=1e-9, seed=7
            ),
        )
        assert greedy == cold


def test_sampling_is_seed_deterministic():
    cfg = tiny_config()
    params = model.init(cfg, seed=2)
    vocab = _id_vocab(cfg.vocab_size)
    gen = metrics.GenerationConfig(max_new_tokens=8, strategy="sample", seed=123)
    assert metrics.generate(params, cfg, vocab, [3], gen) == metrics.generate(
        params, cfg, vocab, [3], gen
    )


def test_generation_config_validation():
    with pytest.raises(ConfigError):
        metrics.GenerationConfig(strategy="beam").check()
    with pytest.raises(ConfigError):
        metrics.GenerationConfig(strategy="sample", temperature=0.0).check()
    with pytest.raises(ConfigError):
        metrics.GenerationConfig(strategy="topk", top_k=0).check()
    with pytest.raises(ConfigError):
        metrics.GenerationConfig(max_new_tokens=0).check()


def _id_vocab(size):
    """Stand-in vocabulary: generate() reads none of its fields."""
    return types.SimpleNamespace(size=size)


# ---------------------------------------------------------------------------
# BLEU evaluation protocol
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def memorized_setup():
    """Tiny model trained to verbatim recall of one sentence."""
    sentence = "the quiet farmer watches the distant river."
    lines = [sentence] * 60
    vocab = bpe.train_bpe(lines, target_size=300)
    ds = corpus.pack(lines, vocab, block_size=32)
    cfg = model.ModelConfig(
        vocab_size=vocab.size, block_size=32, d_model=16, n_layers=1,
        n_heads=2, dropout=0.0, ffn_mult=2,
    ).check()
    params = model.init(cfg, seed=0)
    tcfg = train.TrainConfig(batch_size=8, max_epochs=1, base_lr=3e-3,
                             patience=10, seed=0).check()
    state = train.init_state(params, tcfg)
    rng = np.random.default_rng(0)
    for _ in range(300):
        idx = rng.integers(0, len(ds), size=8)
        loss, state = train.train_step(params, state, ds.minibatch(idx), tcfg,
                                       lr=3e-3)
    return sentence, vocab, cfg, params, loss


def test_protocol_memorized_model_scores_one(memorized_setup):
    sentence, vocab, cfg, params, loss = memorized_setup
    assert loss < 0.1
    result = metrics.bleu_eval_protocol(params, cfg, vocab, [sentence] * 5)
    assert result.bleu == pytest.approx(1.0)
    assert result.n_scored == 5
    assert result.n_skipped == 0


def test_protocol_lays_out_the_tied_table_once_per_pass(monkeypatch,
                                                        memorized_setup):
    """bleu_eval_protocol makes generate's column-major table once and every
    sentence's generate decodes from it as it is; the caller's table stays
    row-major."""
    sentence, vocab, cfg, params, _ = memorized_setup
    tables, forward = [], model.forward

    def recording(p, c, ids, **kw):
        tables.append(p["tok_emb"].data)
        return forward(p, c, ids, **kw)

    monkeypatch.setattr(model, "forward", recording)
    result = metrics.bleu_eval_protocol(params, cfg, vocab, [sentence] * 3)
    assert result.bleu == pytest.approx(1.0) and len(tables) > 3
    assert all(t is tables[0] for t in tables)
    assert tables[0].flags.f_contiguous
    assert params["tok_emb"].data.flags.c_contiguous


def test_protocol_random_model_scores_near_zero():
    lines = demo.make_sentences(400, seed=0, style="mono")
    vocab = bpe.train_bpe(lines, target_size=512)
    cfg = model.ModelConfig(
        vocab_size=vocab.size, block_size=64, d_model=16, n_layers=1,
        n_heads=2, dropout=0.0, ffn_mult=2,
    ).check()
    params = model.init(cfg, seed=99)
    result = metrics.bleu_eval_protocol(params, cfg, vocab, lines[:30])
    assert result.bleu < 0.02


def test_protocol_skips_short_sentences(memorized_setup):
    sentence, vocab, cfg, params, _ = memorized_setup
    result = metrics.bleu_eval_protocol(params, cfg, vocab, ["a", sentence])
    assert result.n_skipped == 1
    assert result.n_scored == 1


def test_protocol_all_short_rejected(memorized_setup):
    _, vocab, cfg, params, _ = memorized_setup
    with pytest.raises(DataError):
        metrics.bleu_eval_protocol(params, cfg, vocab, ["a", "b"])


def test_protocol_prompt_frac_validation(memorized_setup):
    sentence, vocab, cfg, params, _ = memorized_setup
    with pytest.raises(ConfigError):
        metrics.bleu_eval_protocol(params, cfg, vocab, [sentence], prompt_frac=1.0)


# ---------------------------------------------------------------------------
# EvalReport and evaluate()
# ---------------------------------------------------------------------------


def _report(**over):
    base = dict(
        split="validation", loss=1.0, perplexity=math.exp(1.0), bleu=0.5,
        n_sequences=10, n_tokens=100, generation=None, run_id="r",
        checkpoint_hash="h",
    )
    base.update(over)
    return metrics.EvalReport(**base)


def test_report_exp_identity_enforced():
    _report().check()
    with pytest.raises(ContractError):
        _report(perplexity=math.exp(1.0) * (1 + 1e-6)).check()


def test_report_bleu_range_enforced():
    with pytest.raises(ContractError):
        _report(bleu=1.5).check()
    _report(bleu=None).check()


def test_report_json_round_trip():
    import json

    payload = json.loads(_report().to_json())
    assert payload["split"] == "validation"
    assert payload["n_tokens"] == 100


def test_evaluate_end_to_end(tmp_path, memorized_setup):
    sentence, vocab, cfg, params, _ = memorized_setup
    ds = corpus.pack([sentence] * 8, vocab, block_size=32)
    path = str(tmp_path / "model.ckpt")
    vocab_path = str(tmp_path / "vocab.tsv")
    bpe.save_vocab(vocab, vocab_path)
    vh = metrics.file_sha256(vocab_path)
    model.save_checkpoint(path, params, vh, metadata={"run_id": "from-header"})

    report = metrics.evaluate(
        path, ds, split="validation", vocab=vocab, vocab_hash=vh,
        bleu_sentences=[sentence] * 3,
    )
    assert report.split == "validation"
    assert report.perplexity == pytest.approx(math.exp(report.loss), rel=1e-9)
    assert report.bleu == pytest.approx(1.0)
    assert report.n_sequences == len(ds)
    assert report.n_tokens == int((ds.windows[:, 1:] != ds.pad_id).sum())
    assert report.run_id == "from-header"
    assert report.checkpoint_hash == metrics.file_sha256(path)

    # byte-identical on re-evaluation
    again = metrics.evaluate(
        path, ds, split="validation", vocab=vocab, vocab_hash=vh,
        bleu_sentences=[sentence] * 3,
    )
    assert report.to_json() == again.to_json()


def test_evaluate_rejects_vocab_hash_mismatch(tmp_path, memorized_setup):
    sentence, vocab, cfg, params, _ = memorized_setup
    ds = corpus.pack([sentence] * 4, vocab, block_size=32)
    path = str(tmp_path / "model.ckpt")
    model.save_checkpoint(path, params, "a" * 64)
    with pytest.raises(CheckpointError):
        metrics.evaluate(path, ds, vocab_hash="b" * 64)
