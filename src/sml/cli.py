"""Command-line pipeline: preprocess, stats, train, evaluate, recommend.

Exit codes: 0 success, 1 usage problems, 2 unusable data or artifacts
(a model whose finite weights overflow when scoring included), 3 numeric
divergence during training.  Every flag default is visible in
``--help``.  The ``train`` defaults are those of the config dataclasses its
flags fill; its seed, the only one any subcommand reads, defaults to
``SML_SEED``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import baselines, data, evaluation, index, losses, sampling, trainer
from .encoders import ENCODER_KINDS, ModelConfig, build_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

BASELINE_METHODS = ("POP", "SPOP", "MARKOV1", "SKNN", "VSKNN")

TRAIN_CONFIGS = (ModelConfig, losses.LossConfig, sampling.SamplerConfig,
                 trainer.TrainConfig)
# config fields no flag sets: the data gives vocab_size, --seed rng_seed
UNFLAGGED = ("vocab_size", "rng_seed")


def _default_seed() -> int:
    raw = os.environ.get("SML_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SML_SEED must be an integer, got {raw!r}") from exc


def _filter_sizes(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sml",
        description="Session-based recommendations in a shared metric space.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter
    Bool = argparse.BooleanOptionalAction

    p = sub.add_parser("preprocess", formatter_class=fmt,
                       help="clean raw events and write train/test sessions")
    p.add_argument("--input", required=True, help="raw event log")
    p.add_argument("--format", default="csv", choices=("csv", "jsonl"),
                   help="input format")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--min-item-count", type=int, default=5,
                   help="drop items with fewer events")
    p.add_argument("--min-session-length", type=int, default=2,
                   help="drop shorter sessions")
    p.add_argument("--max-session-length", type=int, default=15,
                   help="keep only the last events of longer sessions")
    p.add_argument("--test-fraction", type=float, default=0.1,
                   help="chronological share of sessions held out for test")

    p = sub.add_parser("stats", formatter_class=fmt,
                       help="dataset statistics from a sessions file")
    p.add_argument("--sessions", required=True, help="sessions JSONL file")
    p.add_argument("--out-dir", required=True, help="output directory")

    p = sub.add_parser("train", formatter_class=fmt,
                       help="train a session/item embedding model")
    p.add_argument("--train", required=True, help="training sessions JSONL")
    p.add_argument("--model-out", required=True, help="model file to write")
    p.add_argument("--history-out", default=None,
                   help="training history CSV (default: <model-out>.history.csv)")
    # every flag below sets the config field named by its dest; the
    # defaults come from the config classes (set_defaults at the end)
    p.add_argument("--encoder", dest="encoder_kind", choices=ENCODER_KINDS,
                   help="session encoder")
    p.add_argument("--loss", dest="kind", choices=losses.LOSS_KINDS,
                   help="training loss")
    p.add_argument("--dim", dest="embedding_dim", metavar="DIM", type=int,
                   help="embedding width")
    p.add_argument("--common-embedding", action=Bool,
                   help="share the item table with the session encoder")
    p.add_argument("--normalize-outputs", action=Bool,
                   help="project embeddings onto the unit sphere")
    p.add_argument("--max-session-length", type=int,
                   help="longest prefix the encoder accepts")
    p.add_argument("--conv-filter-sizes", type=_filter_sizes,
                   help="TextCNN window sizes, comma-separated")
    p.add_argument("--session-ff-depth", type=int,
                   help="dense layers after the sequence encoder")
    p.add_argument("--margin", type=float,
                   help="margin for triplet/contrastive losses")
    p.add_argument("--use-swap", action=Bool,
                   help="use the positive-negative distance if it is harder")
    p.add_argument("--position-weighting", action=Bool,
                   help="down-weight continuation items far from the prefix")
    p.add_argument("--epsilon", type=float,
                   help="label smoothing for the NCAS target")
    p.add_argument("--kld-model-first", action=Bool,
                   help="swap the KL divergence direction in NCAS")
    p.add_argument("--strategy", choices=sampling.STRATEGIES,
                   help="epoch sampler")
    p.add_argument("--samples-per-session", type=int,
                   help="positive/negative pairs per example")
    p.add_argument("--window-size", type=int,
                   help="prefix cap for the sliding-window sampler")
    p.add_argument("--exclude-prefix-negatives", action=Bool,
                   help="never sample prefix items as negatives")
    p.add_argument("--knn-augment", action=Bool,
                   help="top up scarce positives with near neighbours")
    p.add_argument("--knn-k", type=int,
                   help="neighbourhood size for positive augmentation")
    p.add_argument("--batch-size", type=int, help="sessions per step")
    p.add_argument("--max-epochs", type=int, help="epoch budget")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float,
                   help="Adam learning rate")
    p.add_argument("--lr-decay-factor", type=float,
                   help="multiplier applied on stalled validation")
    p.add_argument("--improvement-threshold", type=float,
                   help="relative validation gain that counts as progress")
    p.add_argument("--validation-fraction", type=float,
                   help="chronological share of train held out for validation")
    p.add_argument("--max-lr-reductions", type=int,
                   help="stop after this many learning-rate decays")
    p.add_argument("--eval-n", type=int,
                   help="list length for the validation recall")
    p.add_argument("--seed", type=int, default=_default_seed(),
                   help="RNG seed (env SML_SEED)")
    p.set_defaults(**{f.name: f.default
                      for cls in TRAIN_CONFIGS for f in dataclasses.fields(cls)
                      if f.name not in UNFLAGGED})

    p = sub.add_parser("evaluate", formatter_class=fmt,
                       help="score a trained model or baseline on test sessions")
    p.add_argument("--method", required=True,
                   help="SML:<modelfile> or one of " + "|".join(BASELINE_METHODS))
    p.add_argument("--test", required=True, help="test sessions JSONL")
    p.add_argument("--train", default=None,
                   help="training sessions JSONL (required for baselines)")
    p.add_argument("--n", type=int, default=20, help="recommendation list length")
    p.add_argument("--next-item-only", action=Bool, default=False,
                   help="restrict list metrics to the immediate next item")
    p.add_argument("--sknn-k", type=int, default=100,
                   help="neighbourhood size for SKNN/VSKNN")
    p.add_argument("--report-out", default=None, help="also write JSON report here")

    p = sub.add_parser("recommend", formatter_class=fmt,
                       help="rank items for one session prefix")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--items", required=True,
                   help="comma-separated item ids, oldest first")
    p.add_argument("--n", type=int, default=10, help="list length")
    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _dataset_summary(dataset: data.Dataset) -> dict:
    return {
        "sessions": len(dataset.sessions),
        "events": dataset.n_events,
        "items": len(dataset.vocab),
    }


def cmd_preprocess(args) -> int:
    events = data.ingest(args.input, args.format)
    before = {
        "events": len(events),
        "sessions": len({e.session_id for e in events}),
        "items": len({e.item_id for e in events}),
    }
    dataset = data.preprocess(events,
                              min_item_count=args.min_item_count,
                              min_session_length=args.min_session_length,
                              max_session_length=args.max_session_length)
    split = data.split_train_test(dataset, args.test_fraction)

    os.makedirs(args.out_dir, exist_ok=True)
    train_path = os.path.join(args.out_dir, "train.jsonl")
    test_path = os.path.join(args.out_dir, "test.jsonl")
    data.write_sessions_jsonl(split.train, train_path)
    data.write_sessions_jsonl(split.test, test_path)

    summary = {
        "input": before,
        "preprocessed": _dataset_summary(dataset),
        "train": _dataset_summary(split.train),
        "test": _dataset_summary(split.test),
    }
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    with open(os.path.join(args.out_dir, "summary.json"), "w",
              encoding="utf-8") as handle:
        handle.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_stats(args) -> int:
    dataset = data.dataset_from_sessions(data.read_sessions_jsonl(args.sessions))
    st = data.stats(dataset)
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, "length_histogram.tsv"), "w",
              encoding="utf-8") as handle:
        handle.write(data.length_histogram_tsv(st))
    with open(os.path.join(args.out_dir, "repeat_fractions.tsv"), "w",
              encoding="utf-8") as handle:
        handle.write(data.repeat_fractions_tsv(st))
    print(f"sessions\t{len(dataset.sessions)}")
    print(f"events\t{dataset.n_events}")
    print(f"items\t{len(dataset.vocab)}")
    return EXIT_OK


def train_configs(args, vocab_size: int) -> tuple:
    """The model, loss, sampler and train configs, each built from the
    parsed flags named after its fields."""
    values = {**vars(args), "vocab_size": vocab_size, "rng_seed": args.seed}
    return tuple(cls(**{f.name: values[f.name] for f in dataclasses.fields(cls)})
                 for cls in TRAIN_CONFIGS)


def cmd_train(args) -> int:
    train_data = data.dataset_from_sessions(data.read_sessions_jsonl(args.train))
    model_cfg, loss_cfg, sampler_cfg, train_cfg = train_configs(
        args, len(train_data.vocab))

    model = build_model(model_cfg, seed=args.seed)
    result = trainer.train(train_data, model, loss_cfg, sampler_cfg, train_cfg)

    index.save_model(result.model, train_data.vocab, args.model_out)
    history_path = args.history_out or args.model_out + ".history.csv"
    with open(history_path, "w", encoding="utf-8") as handle:
        handle.write(trainer.history_csv(result.history, train_cfg.eval_n))

    name = f"SML-{model_cfg.encoder_kind}-{loss_cfg.kind}"
    print(f"model\t{name}")
    print(f"epochs\t{len(result.history)}")
    print(f"best_epoch\t{result.best_epoch}")
    print(f"best_val_rec{train_cfg.eval_n}\t{result.best_val!r}")
    print(f"stop_reason\t{result.stop_reason}")
    print(f"model_file\t{args.model_out}")
    print(f"history_file\t{history_path}")
    return EXIT_OK


def _build_method(args) -> tuple[evaluation.Recommender, data.Dataset]:
    method = args.method
    if method.startswith("SML:"):
        model, vocab = index.load_model(method[len("SML:"):])
        test = data.dataset_from_sessions(
            data.read_sessions_jsonl(args.test), vocab)
        return index.SmlRecommender.from_model(model), test

    if method not in BASELINE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected SML:<modelfile> or one of "
            + ", ".join(BASELINE_METHODS))
    if not args.train:
        raise ValueError(f"--train is required to fit the {method} baseline")
    train_ds = data.dataset_from_sessions(data.read_sessions_jsonl(args.train))
    test = data.dataset_from_sessions(
        data.read_sessions_jsonl(args.test), train_ds.vocab)
    if method == "POP":
        return baselines.fit_pop(train_ds), test
    if method == "SPOP":
        return baselines.fit_spop(train_ds), test
    if method == "MARKOV1":
        return baselines.fit_markov(train_ds), test
    if method == "SKNN":
        return baselines.fit_sknn(train_ds, k=args.sknn_k), test
    return baselines.fit_sknn(train_ds, k=args.sknn_k,
                              position_weight=baselines.linear_position_weight), test


def cmd_evaluate(args) -> int:
    recommender, test = _build_method(args)
    report = evaluation.evaluate(recommender, test, n=args.n,
                                 next_item_only=args.next_item_only)
    payload = {"method": args.method, **report.as_dict()}
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as handle:
            handle.write(text)

    print(f"method\t{args.method}")
    print(f"points\t{report.points}")
    for label, value in (("map", report.map), ("precision", report.precision),
                         ("recall", report.recall), ("hit_rate", report.hit_rate),
                         ("mrr", report.mrr)):
        print(f"{label}@{report.n}\t{value:.6f}")
    print(f"coverage\t{report.coverage}")
    return EXIT_OK


def cmd_recommend(args) -> int:
    model, vocab = index.load_model(args.model)
    ids = [part for part in args.items.split(",") if part]
    if not ids:
        raise ValueError("--items is empty")
    known = [vocab.index[item] for item in ids if item in vocab]
    unknown = [item for item in ids if item not in vocab]
    if unknown:
        print("skipping unknown items: " + ", ".join(unknown), file=sys.stderr)
    if not known:
        raise data.DataError("none of the prefix items are in the vocabulary")

    recommender = index.SmlRecommender.from_model(model)
    for rank, (item, score) in enumerate(
            recommender.recommend_scored(known, args.n), start=1):
        print(f"{rank}\t{vocab.ids[item]}\t{score!r}")
    return EXIT_OK


COMMANDS = {
    "preprocess": cmd_preprocess,
    "stats": cmd_stats,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "recommend": cmd_recommend,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        parser = build_parser()
    except ValueError as exc:  # malformed SML_SEED
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        # training turns its own overflow into a DivergenceError; anywhere
        # else it can only come from a loaded model too large to score with
        with np.errstate(over="raise", invalid="raise"):
            return COMMANDS[args.command](args)
    except FloatingPointError as exc:
        model = getattr(args, "model", None) or getattr(args, "method", args.command)
        print(f"error: {model}: numeric overflow while scoring ({exc}); the "
              "model's weights are too large", file=sys.stderr)
        return EXIT_DATA
    except trainer.DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except data.DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
