#!/usr/bin/env python3
"""Overfit smoke run: cycle-rule sessions, MaxPool encoder, triplet loss.

Trains on a synthetic corpus whose next item is always determined by the
current one, then reports next-item metrics on a chronological 10% holdout.
A healthy build reaches recall@20 >= 0.9 and MRR@20 >= 0.5 well within the
epoch budget.
"""

import argparse
import time

from sml import data, evaluation, losses, sampling, synth, trainer
from sml.encoders import ModelConfig, build_model
from sml.index import SmlRecommender


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--sessions", type=int, default=200)
    parser.add_argument("--vocab", type=int, default=50)
    parser.add_argument("--dim", type=int, default=400)
    parser.add_argument("--encoder", default="MaxPool")
    parser.add_argument("--loss", default="Triplet")
    parser.add_argument("--max-epochs", type=int, default=150)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=20)
    return parser.parse_args()


def main():
    args = parse_args()
    corpus = synth.cycle_sessions(n_sessions=args.sessions,
                                  vocab_size=args.vocab, seed=7)
    split = data.split_train_test(corpus, 0.1)
    print(f"train sessions {len(split.train.sessions)}, "
          f"test sessions {len(split.test.sessions)}, "
          f"vocab {len(split.train.vocab)}")

    model = build_model(ModelConfig(vocab_size=len(split.train.vocab),
                                    embedding_dim=args.dim,
                                    encoder_kind=args.encoder),
                        seed=args.seed)
    started = time.perf_counter()
    result = trainer.train(
        split.train, model,
        loss_cfg=losses.LossConfig(kind=args.loss),
        sampler_cfg=sampling.SamplerConfig(rng_seed=args.seed),
        train_cfg=trainer.TrainConfig(max_epochs=args.max_epochs))
    elapsed = time.perf_counter() - started

    report = evaluation.evaluate(SmlRecommender.from_model(result.model),
                                 split.test, n=args.n)
    print(f"epochs run      {len(result.history)}")
    print(f"stop reason     {result.stop_reason}")
    print(f"best epoch      {result.best_epoch} "
          f"(val recall {result.best_val:.4f})")
    print(f"train time      {elapsed:.1f}s")
    print(f"recall@{args.n}       {report.recall:.4f}")
    print(f"mrr@{args.n}          {report.mrr:.4f}")
    print(f"map@{args.n}          {report.map:.4f}")
    print(f"hit_rate@{args.n}     {report.hit_rate:.4f}")
    print(f"coverage        {report.coverage}")


if __name__ == "__main__":
    main()
