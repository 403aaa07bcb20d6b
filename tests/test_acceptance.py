"""The eight acceptance criteria, one test (one pass/fail line) each.

Every test enforces its stated tolerance and wall-clock budget. The unit
files cover the same ground at higher resolution; this file is the
end-to-end contract.
"""

import filecmp
import math
import os
import time

import numpy as np

from helpers import check_op_grads, fd_grad, fit_on_scripted_losses, max_rel_err
from test_metrics import _id_vocab, reference_bleu, uniform_params
from test_metrics import tiny_config as m_tiny_config
from test_metrics import tiny_dataset as m_tiny_dataset
from test_model import TINY, hand_loss

from occlm import bpe, cli, corpus, demo, metrics, model
from occlm import tensor as T
from occlm import train

PAD, OCC, EOT = bpe.SPECIAL_IDS


def _randt(rng, *shape):
    return T.Tensor(rng.uniform(-1.0, 1.0, size=shape).astype(np.float32))


def test_ac1_gradient_integrity():
    # every engine op at rel 1e-3 and the whole tiny model at rel 1e-2,
    # both against float64 central differences, across 10 seeds
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, 7, size=(2, 3))
        targets = rng.integers(0, 9, size=(2, 4))
        ignore = rng.random((2, 4)) < 0.2
        ignore[0, 0] = False
        checks = [
            (lambda a, b: T.add(a, b), [_randt(rng, 3, 4), _randt(rng, 4)], 1e-3),
            (lambda a, b: T.mul(a, b), [_randt(rng, 2, 5), _randt(rng, 2, 5)], 1e-3),
            (lambda a: T.scale(a, 1.7), [_randt(rng, 3, 3)], 1e-3),
            (lambda a, b: T.matmul(a, b), [_randt(rng, 3, 4), _randt(rng, 4, 2)], 1e-3),
            (lambda a, b: T.matmul(a, b), [_randt(rng, 2, 3, 4), _randt(rng, 4, 3)], 1e-3),
            (lambda x: T.reshape(T.transpose(x, (0, 2, 1)), (4, 6)),
             [_randt(rng, 2, 3, 4)], 1e-3),
            (lambda x: T.sum_all(x), [_randt(rng, 4, 4)], 1e-3),
            (lambda t: T.embedding_lookup(t, ids), [_randt(rng, 7, 4)], 1e-3),
            (lambda x: T.softmax_lastdim(x), [_randt(rng, 3, 6)], 1e-2),
            (lambda x, g, b: T.layer_norm(x, g, b),
             [_randt(rng, 4, 6), _randt(rng, 6), _randt(rng, 6)], 1e-2),
            (lambda x: T.gelu(x), [_randt(rng, 5, 5)], 1e-2),
            (lambda x: T.dropout(x, 0.3, train=True,
                                 rng=np.random.default_rng(99)),
             [_randt(rng, 6, 6)], 1e-3),
            (lambda s: T.softmax_lastdim(T.causal_mask_fill(s)),
             [_randt(rng, 2, 4, 4)], 1e-2),
            (lambda l: T.cross_entropy(l, targets, ignore_mask=ignore),
             [_randt(rng, 2, 4, 9)], 1e-2),
        ]
        for op_fn, inputs, h in checks:
            check_op_grads(op_fn, inputs, h=h, rtol=1e-3, seed=seed)
        # the fused kernels, eval and train (dropout on, one fixed mask); their
        # layer-norm gain and bias come from their own generator, and their
        # oracle is Richardson's: through a layer norm over 4 features, the
        # plain central difference's h^2 term alone exceeds 1e-3
        ln_rng = np.random.default_rng(seed + 2000)
        for train_mode in (False, True):
            fused = [
                (lambda x, g, b, wq, wk, wv, wo, tm=train_mode: T.attention(
                    x, g, b, wq, wk, wv, wo, 2, 0.3, tm, np.random.default_rng(99)),
                 [_randt(rng, 2, 3, 4), _randt(ln_rng, 4), _randt(ln_rng, 4)]
                 + [_randt(rng, 4, 4) for _ in range(4)]),
                (lambda x, g, b, w1, b1, w2, b2, tm=train_mode: T.ffn(
                    x, g, b, w1, b1, w2, b2, 0.3, tm, np.random.default_rng(99)),
                 [_randt(rng, 2, 3, 4), _randt(ln_rng, 4), _randt(ln_rng, 4),
                  _randt(rng, 4, 8), _randt(rng, 8), _randt(rng, 8, 4),
                  _randt(rng, 4)]),
            ]
            for op_fn, inputs in fused:
                check_op_grads(op_fn, inputs, h=1e-2, rtol=1e-3, seed=seed,
                               richardson=True)

    for seed in range(10):
        p = model.init(TINY, seed=seed)
        rng = np.random.default_rng(seed + 1000)
        ids = rng.integers(0, TINY.vocab_size, size=(2, 4))
        targets = rng.integers(0, TINY.vocab_size, size=(2, 4))
        with T.Tape() as tape:
            loss = T.cross_entropy(model.forward(p, TINY, ids), targets)
            grads = T.backward(loss, tape)
        for name in p.names():
            t = p[name]
            num = fd_grad(lambda: hand_loss(p, TINY, ids, targets), [t], h=5e-4)[0]
            err = max_rel_err(grads[t], num, floor=1e-3)
            assert err <= 1e-2, f"seed {seed} {name}: rel err {err:.3e}"

    assert time.perf_counter() - t0 < 120


def test_ac2_metric_oracles():
    t0 = time.perf_counter()

    # exp identity at 1e-9, on a uniform model (PPL == vocab size) and a
    # random one
    cfg = m_tiny_config()
    loss, ppl = metrics.perplexity(uniform_params(cfg), cfg, m_tiny_dataset())
    assert abs(ppl - math.exp(loss)) <= 1e-9 * ppl
    assert abs(ppl - cfg.vocab_size) <= 1e-9 * cfg.vocab_size
    params = model.init(cfg, seed=7)
    ds = m_tiny_dataset()
    loss, ppl = metrics.perplexity(params, cfg, ds)
    assert abs(ppl - math.exp(loss)) <= 1e-9 * ppl

    # independent product-of-probabilities reduction at rel 1e-6
    mantissa, exponent, n = 1.0, 0, 0
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
    want = math.exp(-(math.log(mantissa) + exponent * math.log(2.0)) / n)
    assert abs(ppl - want) <= 1e-6 * want

    # brevity penalty hand case: exp(1 - r/c) with c=3, r=4
    assert abs(metrics.brevity_penalty(3, 4) - 0.71653) <= 1e-5
    assert metrics.brevity_penalty(4, 4) == 1.0
    assert metrics.brevity_penalty(5, 4) == 1.0
    assert metrics.brevity_penalty(0, 4) == 0.0

    # bleu_corpus vs an independent reference on 100 random corpora, abs 1e-6
    rng = np.random.default_rng(20)
    for _ in range(100):
        n_pairs = int(rng.integers(1, 6))
        cands, refs = [], []
        for _ in range(n_pairs):
            ref = rng.integers(0, 8, size=int(rng.integers(1, 31))).tolist()
            if rng.random() < 0.15:
                cand = list(ref)
            else:
                cand = rng.integers(0, 8, size=int(rng.integers(1, 31))).tolist()
            cands.append(cand)
            refs.append(ref)
        got = metrics.bleu_corpus(cands, refs)
        want = reference_bleu(cands, refs)
        assert abs(got - want) <= 1e-6, f"{got} vs {want}"

    assert time.perf_counter() - t0 < 60


def test_ac3_objective_semantics():
    t0 = time.perf_counter()

    # occlusion counts follow Binomial(n, p) within 3 sigma
    grid = np.full((100, 100), 5, dtype=np.int64)
    n = grid.size
    for i, p in enumerate((0.1, 0.3, 0.5)):
        rng = np.random.default_rng(1234 + i)
        occluded, flags = train.occlude_batch(grid, p, rng=rng)
        count = int(flags.sum())
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(count - n * p) <= 3.0 * sigma, f"p={p}: {count}/{n}"
        assert np.array_equal(occluded[flags], np.full(count, OCC))
        assert np.array_equal(occluded[~flags], grid[~flags])

    # targets and loss masks bit-identical with and without occlusion
    stream = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, EOT] * 12
    ds = corpus.pack_ids(stream, 8)
    batch = ds.minibatch(range(6))
    targets_before = batch.targets.tobytes()
    ignore_before = batch.ignore.tobytes()
    inputs_before = batch.inputs.tobytes()
    cfg = model.ModelConfig(vocab_size=16, block_size=8, d_model=8,
                            n_layers=1, n_heads=2, dropout=0.0, ffn_mult=2)
    params = model.init(cfg, seed=0)
    tcfg = train.TrainConfig(batch_size=6, max_epochs=1, base_lr=1e-3,
                             occlusion_prob=0.5, seed=0)
    state = train.init_state(params, tcfg)
    train.train_step(params, state, batch, tcfg, lr=1e-3)
    assert batch.targets.tobytes() == targets_before
    assert batch.ignore.tobytes() == ignore_before
    assert batch.inputs.tobytes() == inputs_before  # corruption acts on a copy

    # causal invariance: perturbing a suffix never moves prefix logits
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = int(rng.choice([4, 8]))
        ccfg = model.ModelConfig(
            vocab_size=int(rng.integers(8, 20)), block_size=8, d_model=d,
            n_layers=int(rng.integers(1, 3)), n_heads=int(rng.choice([1, 2])),
            dropout=0.0, ffn_mult=2,
        )
        p = model.init(ccfg, seed=int(rng.integers(1 << 30)))
        S = int(rng.integers(2, ccfg.block_size + 1))
        ids = rng.integers(0, ccfg.vocab_size, size=S)
        cut = int(rng.integers(0, S - 1))
        base = model.forward(p, ccfg, ids).data[0]
        other = ids.copy()
        other[cut + 1:] = rng.integers(0, ccfg.vocab_size, size=S - cut - 1)
        pert = model.forward(p, ccfg, other).data[0]
        np.testing.assert_array_equal(base[: cut + 1], pert[: cut + 1])

    assert time.perf_counter() - t0 < 60


def test_ac4_paired_objective_experiment():
    # scaled analog of the published comparison: ~50k-token corpus, d=64,
    # L=2, 5 seeds x occlusion_prob in {0, 0.1, 0.3, 0.5}
    t0 = time.perf_counter()
    lines = demo.make_sentences(4800, seed=0, style="mono")
    vocab = bpe.train_bpe(lines, target_size=512)
    tr, va, _ = corpus.split(lines, corpus.SplitSpec(seed=0))
    train_ds = corpus.pack(tr, vocab, 64)
    valid_ds = corpus.pack(va, vocab, 64)
    total = train_ds.n_stream_tokens + valid_ds.n_stream_tokens
    assert 40_000 <= total <= 60_000, f"corpus drifted to {total} tokens"

    mcfg = model.ModelConfig(vocab_size=vocab.size, block_size=64, d_model=64,
                             n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4)
    losses = {}
    for seed in range(5):
        for p in (0.0, 0.1, 0.3, 0.5):
            tcfg = train.TrainConfig(
                batch_size=32, max_epochs=6, base_lr=3e-3,
                warmup_fraction=0.1, patience=7, seed=seed, occlusion_prob=p,
            )
            _, state = train.fit(model.init(mcfg, seed=seed),
                                 train_ds, valid_ds, tcfg)
            losses[(seed, p)] = state.best_valid_loss

    std_wins = sum(losses[(s, 0.0)] < losses[(s, 0.3)] for s in range(5))
    low_wins = sum(
        min(losses[(s, 0.1)], losses[(s, 0.3)]) < losses[(s, 0.5)]
        for s in range(5)
    )
    assert std_wins >= 4, f"standard beat occlusion 0.3 in only {std_wins}/5"
    assert low_wins >= 4, f"p in {{0.1,0.3}} beat 0.5 in only {low_wins}/5"
    assert time.perf_counter() - t0 < 1800


def test_ac5_finetuning_behavior():
    t0 = time.perf_counter()

    # (a) top-2/interval-2 schedule keeps frozen blocks bit-identical until
    # their scheduled epoch; L=4 so the stages actually spread out
    stream = list(range(3, 13)) * 40
    ds = corpus.pack_ids(stream, 16)
    mcfg = model.ModelConfig(vocab_size=16, block_size=16, d_model=16,
                             n_layers=4, n_heads=2, dropout=0.0, ffn_mult=2)
    params = model.init(mcfg, seed=0)
    tcfg = train.TrainConfig(batch_size=8, max_epochs=6, base_lr=1e-3, seed=0)
    initial = {n: params[n].data.copy() for n in params.names()}
    opens_at = {0: 4, 1: 2, 2: 0, 3: 0}  # block index -> first open epoch
    state = train.init_state(params, tcfg)
    order = np.random.default_rng(0)
    for epoch in range(5):
        for _ in range(6):
            idx = order.integers(0, len(ds), size=8)
            train.train_step(params, state, ds.minibatch(idx), tcfg, lr=1e-3,
                             frozen=train.frozen_names(params, epoch))
        for name in params.names():
            group = model.ParameterSet.group(name)
            if group == "head":
                continue
            if group == "embeddings":
                frozen = epoch < 4
            else:
                frozen = epoch < opens_at[int(group[len("block"):])]
            same = np.array_equal(params[name].data, initial[name])
            assert same == frozen, (
                f"epoch {epoch} {name}: {'moved while frozen' if frozen else 'never moved after opening'}"
            )

    # (b) fine-tuning beats from-scratch at an equal epoch budget on a
    # held-out-style split in >= 4/5 seeded runs
    mono = demo.make_sentences(3000, seed=0, style="mono")
    news = demo.make_sentences(300, seed=0, style="news")
    vocab = bpe.train_bpe(mono + news, target_size=512)
    mono_tr, mono_va, _ = corpus.split(mono, corpus.SplitSpec(seed=0))
    news_tr, news_va, _ = corpus.split(news, corpus.SplitSpec(0.7, 0.2, seed=0))
    mono_pack = (corpus.pack(mono_tr, vocab, 64), corpus.pack(mono_va, vocab, 64))
    news_pack = (corpus.pack(news_tr, vocab, 64), corpus.pack(news_va, vocab, 64))
    fcfg = model.ModelConfig(vocab_size=vocab.size, block_size=64, d_model=64,
                             n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4)
    wins = 0
    for seed in range(5):
        pre_cfg = train.TrainConfig(batch_size=32, max_epochs=8, base_lr=3e-3,
                                    patience=9, seed=seed)
        pretrained, _ = train.fit(model.init(fcfg, seed=seed), *mono_pack, pre_cfg)
        budget = train.TrainConfig(batch_size=32, max_epochs=4, base_lr=1e-3,
                                   patience=5, seed=seed)
        _, ft = train.fit(pretrained, *news_pack, budget, unfreeze=True)
        _, scratch = train.fit(model.init(fcfg, seed=seed), *news_pack, budget)
        wins += ft.best_valid_loss < scratch.best_valid_loss
    assert wins >= 4, f"fine-tuning won only {wins}/5"
    assert time.perf_counter() - t0 < 900


def test_ac6_early_stopping(monkeypatch):
    # fit on scripted validation losses (metrics.perplexity patched)
    t0 = time.perf_counter()
    state, _ = fit_on_scripted_losses(
        monkeypatch, [3.0, 2.0, 3.0, 3.0, 3.0, 3.0, 3.0], patience=5)
    assert len(state.history) == 7  # 5 non-improving epochs after the best
    assert state.stop_reason == "early_stop"
    assert state.best_valid_loss == 2.0
    assert state.best_epoch == 1  # the 2nd epoch

    # never early, and an equal loss is not an improvement
    state, since = fit_on_scripted_losses(monkeypatch, [1.0, 1.0, 1.0],
                                          patience=2)
    assert since == [0, 1, 2]
    assert len(state.history) == 3 and state.stop_reason == "early_stop"
    assert state.best_epoch == 0
    assert time.perf_counter() - t0 < 1.0


def test_ac7_reproducibility(tmp_path):
    t0 = time.perf_counter()

    def pipeline(d):
        os.makedirs(d)
        raw = os.path.join(d, "raw.txt")
        demo.write_corpus(raw, 300, seed=1, style="mono")
        vocab = os.path.join(d, "vocab.tsv")
        assert cli.dispatch(
            ["tokenizer", "--data", raw, "--out", vocab,
             "--target-size", "280", "--deterministic"]) == 0
        work = os.path.join(d, "work")
        assert cli.dispatch(["corpus", "--data", raw, "--out-dir", work]) == 0
        ckpt = os.path.join(d, "m.ckpt")
        assert cli.dispatch(
            ["pretrain", "--data", work, "--vocab", vocab, "--out", ckpt,
             "--block-size", "32", "--d-model", "32", "--n-layers", "1",
             "--n-heads", "2", "--batch-size", "8", "--max-epochs", "2",
             "--base-lr", "2e-3", "--dropout", "0.1", "--deterministic"]) == 0
        report = os.path.join(d, "report.json")
        assert cli.dispatch(
            ["eval", "--checkpoint", ckpt, "--vocab", vocab,
             "--split", os.path.join(work, "valid.txt"), "--bleu",
             "--out", report]) == 0
        return vocab, ckpt, report

    first = pipeline(str(tmp_path / "a"))
    second = pipeline(str(tmp_path / "b"))
    for name, pa, pb in zip(("vocab", "checkpoint", "report"), first, second):
        assert filecmp.cmp(pa, pb, shallow=False), f"{name} bytes differ"
    assert time.perf_counter() - t0 < 300


def test_ac8_memorization_sanity(tmp_path):
    t0 = time.perf_counter()
    pattern = list(range(3, 35))  # 32 distinct tokens, successor is a function
    stream = pattern * 24
    ds = corpus.pack_ids(stream, 16)
    mcfg = model.ModelConfig(vocab_size=35, block_size=16, d_model=16,
                             n_layers=1, n_heads=2, dropout=0.0, ffn_mult=2)
    params = model.init(mcfg, seed=0)
    tcfg = train.TrainConfig(batch_size=8, max_epochs=1, base_lr=3e-3, seed=0)
    state = train.init_state(params, tcfg)
    order = np.random.default_rng(0)
    loss = math.inf
    for _ in range(200):
        idx = order.integers(0, len(ds), size=8)
        loss, state = train.train_step(params, state, ds.minibatch(idx),
                                       tcfg, lr=3e-3)
    assert loss < 0.1, f"train loss {loss:.4f} after 200 steps"

    gen = metrics.GenerationConfig(max_new_tokens=28, strategy="greedy")
    out = metrics.generate(params, mcfg, _id_vocab(35), pattern[:4], gen)
    assert list(out) == pattern  # the 4-token prompt regenerates the cycle
    bleu = metrics.bleu_corpus([list(out)[4:]], [pattern[4:]])
    assert bleu == 1.0
    assert time.perf_counter() - t0 < 60
