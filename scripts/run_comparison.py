"""Standard vs occlusion pretraining on the bundled synthetic corpus.

Trains one model per (seed, occlusion_prob) cell at desk scale and reports
best validation loss per cell plus the two headline orderings: standard vs
p=0.3, and the best of {0.1, 0.3} vs 0.5.

    python3 scripts/run_comparison.py --seeds 5 --epochs 6 --out comparison.json
"""

import argparse
import time

from occlm import artifacts, bpe, corpus, demo, model, train

PROBS = (0.0, 0.1, 0.3, 0.5)


def build_data(n_sentences, vocab_size, block_size, seed):
    lines = demo.make_sentences(n_sentences, seed=seed, style="mono")
    vocab = bpe.train_bpe(lines, target_size=vocab_size)
    tr, va, _ = corpus.split(lines, corpus.SplitSpec(seed=seed))
    return vocab, corpus.pack(tr, vocab, block_size), corpus.pack(va, vocab, block_size)


def run_cell(mcfg, train_ds, valid_ds, seed, prob, epochs, lr, batch_size):
    tcfg = train.TrainConfig(
        batch_size=batch_size, max_epochs=epochs, base_lr=lr,
        warmup_fraction=0.1, patience=epochs + 1, seed=seed,
        occlusion_prob=prob,
    )
    params = model.init(mcfg, seed=seed)
    _, state = train.fit(params, train_ds, valid_ds, tcfg)
    return state.best_valid_loss


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=4800)
    ap.add_argument("--vocab-size", type=int, default=512)
    ap.add_argument("--block-size", type=int, default=64)
    ap.add_argument("--d-model", type=int, default=64)
    ap.add_argument("--n-layers", type=int, default=2)
    ap.add_argument("--n-heads", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--out", help="JSON results path")
    args = ap.parse_args()

    vocab, train_ds, valid_ds = build_data(
        args.sentences, args.vocab_size, args.block_size, seed=0
    )
    mcfg = model.ModelConfig(
        vocab_size=vocab.size, block_size=args.block_size,
        d_model=args.d_model, n_layers=args.n_layers, n_heads=args.n_heads,
        dropout=0.1, ffn_mult=4,
    )
    print(f"corpus: {train_ds.n_stream_tokens + valid_ds.n_stream_tokens} tokens, "
          f"vocab {vocab.size}, model {model.param_count(mcfg)} params")

    t0 = time.time()
    losses = {}
    for seed in range(args.seeds):
        for p in PROBS:
            loss = run_cell(mcfg, train_ds, valid_ds, seed, p,
                            args.epochs, args.lr, args.batch_size)
            losses[(seed, p)] = loss
            print(f"  seed {seed} p={p}: best valid loss {loss:.4f}", flush=True)

    n = args.seeds
    std_wins = sum(losses[(s, 0.0)] < losses[(s, 0.3)] for s in range(n))
    low_wins = sum(
        min(losses[(s, 0.1)], losses[(s, 0.3)]) < losses[(s, 0.5)]
        for s in range(n)
    )
    print(f"standard < occlusion(0.3): {std_wins}/{n} seeds")
    print(f"min(occ 0.1, occ 0.3) < occ 0.5: {low_wins}/{n} seeds")
    print(f"wall time {time.time() - t0:.0f}s")

    if args.out:
        payload = {
            "cells": [
                {"seed": s, "occlusion_prob": p, "best_valid_loss": v}
                for (s, p), v in sorted(losses.items())
            ],
            "std_beats_occ03": std_wins,
            "low_p_beats_05": low_wins,
            "seeds": n,
        }
        artifacts.write_json(args.out, payload)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
