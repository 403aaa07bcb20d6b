"""Small random hyperparameter sweep over the bundled corpus.

    python3 scripts/run_sweep_demo.py --trials 6 --out /tmp/sweep_demo
"""

import argparse
import json

from occlm import bpe, corpus, demo, model, sweep, train


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sentences", type=int, default=1200)
    ap.add_argument("--trials", type=int, default=6)
    ap.add_argument("--max-epochs", type=int, default=3)
    ap.add_argument("--parallel", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    lines = demo.make_sentences(args.sentences, seed=0, style="mono")
    vocab = bpe.train_bpe(lines, target_size=384)
    tr, va, _ = corpus.split(lines, corpus.SplitSpec(seed=0))
    train_ds = corpus.pack(tr, vocab, 32)
    valid_ds = corpus.pack(va, vocab, 32)

    spec = sweep.SweepSpec(
        base_model=model.ModelConfig(
            vocab_size=vocab.size, block_size=32, d_model=32,
            n_layers=1, n_heads=2, dropout=0.0, ffn_mult=2,
        ),
        base_train=train.TrainConfig(batch_size=16, patience=3),
        lr_range=(3e-4, 6e-3),
        n_layers_choices=(1, 2),
        n_heads_choices=(2, 4),
        dropout_choices=(0.0, 0.1),
        occlusion_prob_choices=(0.0, 0.3),
        trial_count=args.trials,
        max_epochs=args.max_epochs,
        seed=0,
    )
    best, records = sweep.run_sweep(
        spec, train_ds, valid_ds, args.out, parallel=args.parallel
    )

    print(f"best trial {best.trial_id}: valid loss {best.best_valid_loss:.4f}")
    print(json.dumps(best.sampled, indent=2, sort_keys=True))
    board = [(r.trial_id, r.best_valid_loss, r.stop_reason) for r in records]
    for tid, loss, reason in board:
        print(f"  trial {tid}: {loss:.4f} ({reason})")


if __name__ == "__main__":
    main()
