#!/usr/bin/env python3
"""End-to-end benchmark of sml on generated session logs.

    python3 smlbench/run.py --workload desk --seed 1 --seconds 60 --trace 0

One process runs one workload as a closed loop with a single client.  It
generates the workload's raw event log from ``--seed``, then repeats whole
rounds of the same operations for ``--seconds`` (at least three rounds):

    set-up (ingest, preprocess, split, build_model) -> train -> save ->
    load + from_model -> evaluate SML -> fit + evaluate SKNN ->
    single-prefix recommend queries

and finally checks the program's outputs against independent computations
(see ``checks.py``).  Every round repeats identical work, and each metric
takes one sample per round (per call for set-up and load); a run reports
the median of each.  The host this was built on runs 1.3-1.8x slower than
its best for seconds to minutes at a time, and the median round is the
run's typical speed, which a few slow or fast rounds do not move.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: the box has two cores, and a second BLAS thread only adds
# scheduling noise to matvecs this small.  A fixed hash seed keeps set and
# dict layouts, and so the work done, the same from run to run.  Both must
# be in place before the interpreter starts and numpy loads, hence the exec.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TOP_N = 20
SKNN_K = 100
CHECK_SAMPLE = 20
MIN_ROUNDS = 3


def _pin_environment() -> None:
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    _pin_environment()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "sml", "__init__.py")):
    sys.exit(f"error: no sml sources under {SRC}")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (BATCH_SIZE, DIM, LEARNING_RATE, WORKLOADS,  # noqa: E402
                       generate_sessions, stratified, training_slice,
                       write_event_log)

from sml import baselines, data, encoders, evaluation, index, losses, sampling, trainer  # noqa: E402

VALIDATION_FRACTION = 0.05


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One benchmark run: per-round samples of every metric, and op counts."""

    def __init__(self, workload, seed: int, out_dir: str):
        self.w = workload
        self.seed = seed
        self.events_path = os.path.join(out_dir, "events.csv")
        self.model_path = os.path.join(out_dir, "model.sml")
        self.resaved_path = os.path.join(out_dir, "model.resaved.sml")
        # one sample per round, or per call for set-up and load: seconds for
        # those two, work per second for the three rates, and the median and
        # 99th percentile of the round's recommend latencies in s
        self.samples: dict[str, list[float]] = {k: [] for k in (
            "setup", "load", "train", "eval", "sknn", "recommend_p50", "recommend_p99")}
        self.attempted = 0
        self.failed = 0
        self.reports: list[tuple[dict, dict]] = []
        self.recall_before: float | None = None
        self.setup_differs = False
        self.split = None
        self.slices = None

    def timed(self, fn, *args, **kwargs):
        """Call one operation; count it, and return (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            raise
        return result, time.perf_counter() - start

    # -- one round ----------------------------------------------------------

    def config(self, vocab_size: int) -> encoders.ModelConfig:
        return encoders.ModelConfig(vocab_size=vocab_size, embedding_dim=DIM,
                                    encoder_kind=self.w.encoder)

    def setup(self):
        """What `sml preprocess` and the start of `sml train` do."""
        events = data.ingest(self.events_path)
        dataset = data.preprocess(events, min_item_count=self.w.min_item_count)
        split = data.split_train_test(dataset)
        model = encoders.build_model(self.config(len(split.train.vocab)), seed=self.seed)
        return split, model

    def make_slices(self, split):
        """The fixed slices of the split that every round works on."""
        w, vocab, test = self.w, split.train.vocab, split.test.sessions
        train = data.Dataset(training_slice(split.train.sessions, w, w.train_sessions,
                                            VALIDATION_FRACTION), vocab)
        eval_set = data.Dataset(stratified(test, w, w.eval_sessions), vocab)
        sknn_set = data.Dataset(stratified(test, w, w.sknn_sessions), vocab)
        queries = [s.items[:cut] for s in stratified(test, w, w.query_sessions)
                   for cut in range(1, len(s.items))]
        return train, eval_set, sknn_set, queries

    def examples_per_epoch(self, train) -> int:
        """Examples `trainer.train` sees per epoch, counted apart from sml."""
        sessions = sorted(train.sessions, key=lambda s: s.start_time)
        n_val = max(1, math.ceil(len(sessions) * VALIDATION_FRACTION - 1e-9))
        grad = sessions[:-n_val]
        if self.w.strategy == "posneg":
            return len(grad)
        return sum(len(s.items) - 1 for s in grad)

    def load(self):
        """What `sml recommend` and `sml evaluate --method SML:` pay first."""
        model, vocab = index.load_model(self.model_path)
        return model, vocab, index.SmlRecommender.from_model(model)

    def round(self, number: int) -> dict:
        """One round; set-up runs on every ``setup_every``-th round only, and
        the other rounds train a freshly built model, so every round trains
        from the same start."""
        w, s = self.w, self.samples
        if number % w.setup_every == 0:
            (split, model), elapsed = self.timed(self.setup)
            s["setup"].append(elapsed)
            if self.split is None:
                self.split, self.slices = split, self.make_slices(split)
            elif split.train.vocab != self.split.train.vocab:
                self.setup_differs = True
        else:
            model = encoders.build_model(self.config(len(self.split.train.vocab)),
                                         seed=self.seed)
        split = self.split
        train, eval_set, sknn_set, queries = self.slices
        if self.recall_before is None:
            untrained = index.SmlRecommender.from_model(model)
            self.recall_before = evaluation.evaluate(untrained, eval_set, n=TOP_N).recall

        epochs = w.train_epochs
        result, elapsed = self.timed(
            trainer.train, train, model,
            losses.LossConfig(kind=w.loss),
            sampling.SamplerConfig(strategy=w.strategy,
                                   window_size=model.config.max_session_length,
                                   rng_seed=self.seed),
            # more reductions than epochs: the schedule never stops a run early
            trainer.TrainConfig(batch_size=BATCH_SIZE, max_epochs=epochs,
                                learning_rate=LEARNING_RATE,
                                max_lr_reductions=epochs + 1,
                                validation_fraction=VALIDATION_FRACTION))
        s["train"].append(epochs * self.examples_per_epoch(train) / elapsed)
        index.save_model(result.model, split.train.vocab, self.model_path)

        for _ in range(w.load_repeats):
            (loaded, vocab, rec), elapsed = self.timed(self.load)
            s["load"].append(elapsed)
        report, elapsed = self.timed(evaluation.evaluate, rec, eval_set, n=TOP_N)
        s["eval"].append(report.points / elapsed)

        sknn, _ = self.timed(baselines.fit_sknn, split.train, k=SKNN_K)
        sknn_report, elapsed = self.timed(evaluation.evaluate, sknn, sknn_set, n=TOP_N)
        s["sknn"].append(sknn_report.points / elapsed)

        latencies = []
        for prefix in queries:
            try:
                _, elapsed = self.timed(rec.recommend, prefix, TOP_N)
            except Exception:
                continue  # counted as failed by timed()
            latencies.append(elapsed)
        s["recommend_p50"].append(percentile(latencies, 50))
        s["recommend_p99"].append(percentile(latencies, 99))

        self.reports.append((report.as_dict(), sknn_report.as_dict()))
        return dict(split=split, result=result, loaded=loaded, vocab=vocab, rec=rec,
                    eval_set=eval_set, sknn=sknn, sknn_set=sknn_set, queries=queries,
                    report=report)

    # -- after the rounds ---------------------------------------------------

    def check(self, last) -> list[str]:
        """Run every correctness check on the last round's outputs."""
        rec, loaded = last["rec"], last["loaded"]
        failures = []

        def attempt(fn, *args):
            try:
                fn(*args)
            except checks.CheckFailed as exc:
                failures.append(f"{fn.__name__}: {exc}")

        vocab_size = len(rec.index)
        sample = sorted({int(i) for i in
                         [round(k * (vocab_size - 1) / 199) for k in range(200)]})
        attempt(checks.check_item_vectors, loaded, rec.index.vectors, sample)

        window_len = loaded.config.max_session_length
        for prefix in last["queries"][:CHECK_SAMPLE]:
            window = list(prefix)[-window_len:]
            vector = encoders.encode_session(loaded, window).values
            attempt(checks.check_session_vector, loaded, window, vector)
            attempt(checks.check_topn, rec.index.vectors, vector,
                    rec.recommend(prefix, TOP_N), TOP_N)

        captured = checks.CapturingRecommender(rec)
        report = evaluation.evaluate(captured, last["eval_set"], n=TOP_N)
        attempt(checks.check_report, report, last["eval_set"].sessions,
                captured.calls, TOP_N)

        captured_sknn = checks.CapturingRecommender(last["sknn"])
        sknn_report = evaluation.evaluate(captured_sknn, last["sknn_set"], n=TOP_N)
        attempt(checks.check_report, sknn_report, last["sknn_set"].sessions,
                captured_sknn.calls, TOP_N)
        train_items = [s.items for s in last["split"].train.sessions]
        pop_order = checks.popularity_order(train_items)
        for prefix, ranked in captured_sknn.calls[:CHECK_SAMPLE]:
            attempt(checks.check_sknn, train_items, pop_order, prefix, ranked,
                    SKNN_K, TOP_N)

        index.save_model(loaded, last["vocab"], self.resaved_path)
        with open(self.model_path, "rb") as a, open(self.resaved_path, "rb") as b:
            attempt(checks.check_roundtrip, a.read(), b.read())

        attempt(checks.check_training,
                [r.train_loss for r in last["result"].history],
                self.recall_before, last["report"].recall)

        if self.setup_differs:
            failures.append("set-up gave a different vocabulary in a later round")
        rounds = self.reports + [(report.as_dict(), sknn_report.as_dict())]
        if any(r != rounds[0] for r in rounds):
            failures.append("evaluation reports differ between identical rounds")
        return failures

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        median = {kind: statistics.median(values) for kind, values in self.samples.items()}
        return {
            "setup_s": (median["setup"], "s"),
            "train_examples_per_s": (median["train"], "examples/s"),
            "eval_points_per_s": (median["eval"], "points/s"),
            "sknn_points_per_s": (median["sknn"], "points/s"),
            "recommend_p50_ms": (median["recommend_p50"] * 1e3, "ms"),
            "recommend_p99_ms": (median["recommend_p99"] * 1e3, "ms"),
            "load_s": (median["load"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, w.name)
    os.makedirs(out_dir, exist_ok=True)
    run = Run(w, args.seed, out_dir)
    events = write_event_log(generate_sessions(w, args.seed), run.events_path)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    start = time.perf_counter()
    last = run.round(0)
    rounds = 1
    # stop before a round that would end past --seconds, at the mean round length
    while (rounds < MIN_ROUNDS
           or (time.perf_counter() - start) * (rounds + 1) / rounds <= args.seconds):
        last = run.round(rounds)
        rounds += 1
    window = time.perf_counter() - start

    if tracer is not None:
        tracer.uninstall()
    failures = run.check(last)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)

    split = last["split"]
    print(f"# workload {w.name} seed {args.seed}: {events} events, "
          f"{len(split.train.vocab)} items, {len(split.train.sessions)} train / "
          f"{len(split.test.sessions)} test sessions; {rounds} rounds in {window:.1f} s; "
          f"{len(last['queries'])} recommend queries per round")
    print(f"# recall@20 on the evaluation slice: {run.recall_before:.4f} before "
          f"training, {last['report'].recall:.4f} after")
    for kind, values in run.samples.items():
        print(f"# {kind}: {len(values)} samples, min {min(values):.6g}, "
              f"median {statistics.median(values):.6g}, max {max(values):.6g}")
    e2e = run.end_to_end()
    if tracer is not None:
        trace_path = os.path.join(out_dir, "trace.json")
        tracer.dump(trace_path)
        metrics = tracing.layer_metrics(tracer.spans, os.path.getsize(run.model_path))
        print(f"# traced train_examples_per_s {e2e['train_examples_per_s'][0]:.4f}; "
              f"spans in {trace_path}; missing shims: {tracer.missing or 'none'}")
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
