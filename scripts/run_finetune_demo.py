"""Transfer demo: pretrain on the narrative style, fine-tune on news.

Compares gradual-unfreezing fine-tuning from the pretrained checkpoint
against training from scratch on the news corpus at an equal epoch budget.

    python3 scripts/run_finetune_demo.py --seeds 5
"""

import argparse
import time

from occlm import bpe, corpus, demo, model, train


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mono-sentences", type=int, default=3000)
    ap.add_argument("--news-sentences", type=int, default=300)
    ap.add_argument("--vocab-size", type=int, default=512)
    ap.add_argument("--block-size", type=int, default=64)
    ap.add_argument("--pretrain-epochs", type=int, default=8)
    ap.add_argument("--budget-epochs", type=int, default=4)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--ft-lr", type=float, default=1e-3,
                    help="budget-arm rate; gentler than pretraining so the\n                    transferred features survive adaptation")
    args = ap.parse_args()

    mono = demo.make_sentences(args.mono_sentences, seed=0, style="mono")
    news = demo.make_sentences(args.news_sentences, seed=0, style="news")
    # one vocabulary over both styles so the pretrained embeddings transfer
    vocab = bpe.train_bpe(mono + news, target_size=args.vocab_size)
    mono_tr, mono_va, _ = corpus.split(mono, corpus.SplitSpec(seed=0))
    news_tr, news_va, _ = corpus.split(news, corpus.SplitSpec(0.7, 0.2, 0.1, seed=0))
    packs = {
        "mono": (corpus.pack(mono_tr, vocab, args.block_size),
                 corpus.pack(mono_va, vocab, args.block_size)),
        "news": (corpus.pack(news_tr, vocab, args.block_size),
                 corpus.pack(news_va, vocab, args.block_size)),
    }
    mcfg = model.ModelConfig(
        vocab_size=vocab.size, block_size=args.block_size, d_model=64,
        n_layers=2, n_heads=2, dropout=0.1, ffn_mult=4,
    )

    t0 = time.time()
    wins = 0
    for seed in range(args.seeds):
        pre_cfg = train.TrainConfig(
            batch_size=32, max_epochs=args.pretrain_epochs, base_lr=args.lr,
            patience=args.pretrain_epochs + 1, seed=seed,
        )
        pretrained, _ = train.fit(
            model.init(mcfg, seed=seed), *packs["mono"], pre_cfg
        )

        ft_cfg = train.TrainConfig(
            batch_size=32, max_epochs=args.budget_epochs, base_lr=args.ft_lr,
            patience=args.budget_epochs + 1, seed=seed,
        )
        _, ft_state = train.finetune(pretrained, *packs["news"], ft_cfg)

        _, scratch_state = train.fit(
            model.init(mcfg, seed=seed), *packs["news"], ft_cfg
        )
        won = ft_state.best_valid_loss < scratch_state.best_valid_loss
        wins += won
        print(
            f"  seed {seed}: finetune {ft_state.best_valid_loss:.4f} vs "
            f"scratch {scratch_state.best_valid_loss:.4f} "
            f"{'<- transfer wins' if won else ''}", flush=True,
        )
    print(f"fine-tuning beats scratch: {wins}/{args.seeds} seeds "
          f"({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
