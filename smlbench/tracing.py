"""Timing shims for the traced run, and the per-layer metrics they yield.

The traced run wraps public functions of ``sml`` (module attributes, and a
few methods on their classes) in this process only; nothing under ``src/``
changes.  Each call becomes a span ``[name, start, end, parent, extra]``
kept in memory; ``extra`` holds a count read at the boundary, such as the
tape length at ``backward``.  Self times are computed from the spans after
the run.  A target that no longer exists is skipped: its layer reports
nothing and the run still completes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

NAME, START, END, PARENT, EXTRA = range(5)

# spans of per-item encoding are kept only while a training example is
# encoded: building an item matrix would otherwise add one span per item
TRAINING = "losses.session_loss"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, extra=None, **kwargs):
        """Run ``fn`` inside a span; ``extra(args, result)`` is recorded."""
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        self._open.append(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()
            self._open.pop()
        if extra is not None:
            record[EXTRA] = extra(args, result)
        return result

    def wrap(self, owner, attr: str, name: str, extra=None,
             only_under: str | None = None) -> None:
        target = getattr(owner, attr, None)
        if target is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(target)
        def shim(*args, **kwargs):
            if only_under is not None and only_under not in tracer._open:
                return target(*args, **kwargs)
            return tracer.span(name, target, *args, extra=extra, **kwargs)

        setattr(owner, attr, shim)
        self._undo.append((owner, attr, target))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._undo):
            setattr(owner, attr, target)
        self._undo.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "missing": self.missing, "spans": self.spans}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from sml import autodiff, baselines, data, encoders, evaluation, index
    from sml import losses, sampling, trainer

    tracer.wrap(data, "ingest", "data.ingest")
    tracer.wrap(data, "preprocess", "data.preprocess")
    tracer.wrap(data, "split_train_test", "data.split_train_test")
    tracer.wrap(sampling, "build_epoch", "sampling.build_epoch",
                extra=lambda args, result: len(result))
    tracer.wrap(trainer, "train", "trainer.train")
    tracer.wrap(trainer, "validate", "trainer.validate")
    tracer.wrap(losses, "session_loss", "losses.session_loss")
    tracer.wrap(encoders, "encode_session", "encoders.encode_session")
    tracer.wrap(encoders, "encode_item", "encoders.encode_item", only_under=TRAINING)
    tracer.wrap(encoders, "item_embedding_matrix", "encoders.item_embedding_matrix")
    tracer.wrap(autodiff, "backward", "autodiff.backward",
                extra=lambda args, result: len(args[0].nodes))
    tracer.wrap(autodiff, "adam_step", "autodiff.adam_step")
    tracer.wrap(index, "load_model", "index.load_model")
    tracer.wrap(index.ItemIndex, "topn", "index.ItemIndex.topn")
    tracer.wrap(index.SmlRecommender, "recommend", "index.SmlRecommender.recommend")
    tracer.wrap(evaluation, "evaluate", "evaluation.evaluate")
    tracer.wrap(baselines, "fit_sknn", "baselines.fit_sknn")
    tracer.wrap(baselines.SknnModel, "recommend", "baselines.SknnModel.recommend")


def _ancestors(spans, i):
    parent = spans[i][PARENT]
    while parent >= 0:
        yield spans[parent][NAME]
        parent = spans[parent][PARENT]


def layer_metrics(spans: list[list], model_file_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans; layers that never ran are left out."""
    by_name: dict[str, list[int]] = defaultdict(list)
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        by_name[span[NAME]].append(i)
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]

    def durations(name, keep=lambda i: True):
        return [spans[i][END] - spans[i][START] for i in by_name[name] if keep(i)]

    def self_time(name):
        return sum(spans[i][END] - spans[i][START] - child_time[i] for i in by_name[name])

    def under(name):
        return lambda i: name in _ancestors(spans, i)

    out: dict[str, tuple[float, str]] = {}

    def put(metric, value, unit):
        if value is not None:
            out[metric] = (value, unit)

    def median(values, scale=1.0):
        return statistics.median(values) * scale if values else None

    def p99(values, scale=1.0):
        return statistics.quantiles(values, n=100)[98] * scale if len(values) >= 2 else None

    def per(total, count, scale=1.0):
        return total * scale / count if count else None

    put("data.ingest_s", median(durations("data.ingest")), "s")
    put("data.preprocess_s", median(durations("data.preprocess")), "s")
    put("data.split_s", median(durations("data.split_train_test")), "s")
    put("sampling.build_epoch_s", median(durations("sampling.build_epoch")), "s")
    put("sampling.examples_per_epoch",
        median([spans[i][EXTRA] for i in by_name["sampling.build_epoch"]]), "count")

    examples = len(by_name[TRAINING])
    training = under(TRAINING)
    put("losses.forward_ms_per_example", per(sum(durations(TRAINING)), examples, 1e3), "ms")
    put("encoders.session_ms_per_example",
        per(sum(durations("encoders.encode_session", training)), examples, 1e3), "ms")
    put("encoders.item_ms_per_example",
        per(sum(durations("encoders.encode_item", training)), examples, 1e3), "ms")
    put("autodiff.tape_nodes_per_example",
        per(sum(spans[i][EXTRA] for i in by_name["autodiff.backward"]), examples), "count")
    put("autodiff.backward_ms_per_example",
        per(sum(durations("autodiff.backward")), examples, 1e3), "ms")
    put("autodiff.adam_step_ms", median(durations("autodiff.adam_step"), 1e3), "ms")
    put("trainer.validate_s", median(durations("trainer.validate")), "s")
    put("trainer.self_ms_per_example", per(self_time("trainer.train"), examples, 1e3), "ms")
    put("index.item_matrix_s", median(durations("encoders.item_embedding_matrix")), "s")
    topn = durations("index.ItemIndex.topn")
    put("index.topn_p50_ms", median(topn, 1e3), "ms")
    put("index.topn_p99_ms", p99(topn, 1e3), "ms")
    serving = durations("encoders.encode_session", lambda i: not training(i))
    put("encoders.encode_session_p50_ms", median(serving, 1e3), "ms")
    put("index.load_model_s", median(durations("index.load_model")), "s")
    if by_name["index.load_model"]:
        put("index.model_file_mb", model_file_bytes / 1e6, "MB")
    points = sum(1 for name in ("index.SmlRecommender.recommend",
                                "baselines.SknnModel.recommend")
                 for i in by_name[name]
                 if spans[i][PARENT] >= 0
                 and spans[spans[i][PARENT]][NAME] == "evaluation.evaluate")
    put("evaluation.self_ms_per_point", per(self_time("evaluation.evaluate"), points, 1e3), "ms")
    put("baselines.sknn_fit_s", median(durations("baselines.fit_sknn")), "s")
    put("baselines.sknn_recommend_p50_ms",
        median(durations("baselines.SknnModel.recommend"), 1e3), "ms")
    return out
