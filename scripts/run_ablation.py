#!/usr/bin/env python3
"""Shared vs separate item embedding tables, compared over several seeds.

Trains the same encoder twice per seed — once with the session encoder
reading the scored item table, once with its own table — and reports the
per-arm recall@n median.  The shared table consistently wins on the cycle
corpus because every gradient step that moves an item vector also moves
the session representation built from it.
"""

import argparse
import statistics
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
    parser.add_argument("--dim", type=int, default=64)
    parser.add_argument("--encoder", default="MaxPool")
    parser.add_argument("--loss", default="Triplet")
    parser.add_argument("--max-epochs", type=int, default=30)
    parser.add_argument("--seeds", default="0,1,2",
                        help="comma-separated training seeds")
    parser.add_argument("--n", type=int, default=20)
    return parser.parse_args()


def run_arm(split, args, common: bool, seed: int) -> float:
    model = build_model(ModelConfig(vocab_size=len(split.train.vocab),
                                    embedding_dim=args.dim,
                                    encoder_kind=args.encoder,
                                    common_embedding=common),
                        seed=seed)
    trainer.train(split.train, model,
                  loss_cfg=losses.LossConfig(kind=args.loss),
                  sampler_cfg=sampling.SamplerConfig(rng_seed=seed),
                  train_cfg=trainer.TrainConfig(max_epochs=args.max_epochs))
    report = evaluation.evaluate(SmlRecommender.from_model(model),
                                 split.test, n=args.n)
    return report.recall


def main():
    args = parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    corpus = synth.cycle_sessions(n_sessions=args.sessions,
                                  vocab_size=args.vocab, seed=7)
    split = data.split_train_test(corpus, 0.1)

    started = time.perf_counter()
    medians = {}
    for common in (True, False):
        label = "shared" if common else "separate"
        recalls = []
        for seed in seeds:
            recall = run_arm(split, args, common, seed)
            recalls.append(recall)
            print(f"{label}\tseed {seed}\trecall@{args.n} {recall:.4f}")
        medians[label] = statistics.median(recalls)

    print(f"median recall@{args.n}: shared {medians['shared']:.4f}, "
          f"separate {medians['separate']:.4f} "
          f"({time.perf_counter() - started:.1f}s)")
    if medians["shared"] >= medians["separate"]:
        print("shared item table wins (or ties), as expected")
    else:
        print("WARNING: separate table won on this configuration")


if __name__ == "__main__":
    main()
