"""Tests of the benchmark itself: its generator, its checks and its tracer.

    python3 -m pytest smlbench -q

Every check must pass on the program's real output and fail once that
output is deliberately corrupted.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import (WORKLOADS, generate_sessions, length_quotas,  # noqa: E402
                       planted_structure, training_slice, write_event_log)

from sml import baselines, data, evaluation, index, losses, sampling, synth, trainer  # noqa: E402
from sml.encoders import ModelConfig, build_model, encode_session  # noqa: E402


# -- generator ----------------------------------------------------------------

def test_generator_is_deterministic_in_the_seed(tmp_path):
    w = dataclasses.replace(WORKLOADS["desk"], n_sessions=500)
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    write_event_log(generate_sessions(w, 7), paths[0])
    write_event_log(generate_sessions(w, 7), paths[1])
    write_event_log(generate_sessions(w, 8), paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_sessions_have_bounded_geometric_lengths():
    lengths = [len(s) for s in generate_sessions(WORKLOADS["sequence"], 1)]
    assert min(lengths) >= 2 and max(lengths) == 15
    assert lengths.count(2) > lengths.count(10)


@pytest.mark.parametrize("name, low, high", [
    ("desk", 1800, 2200), ("sequence", 1800, 2400), ("catalog", 37000, 43000)])
def test_vocabulary_after_preprocessing(tmp_path, name, low, high):
    w = WORKLOADS[name]
    path = str(tmp_path / "events.csv")
    write_event_log(generate_sessions(w, 3), path)
    dataset = data.preprocess(data.ingest(path), min_item_count=w.min_item_count)
    assert low <= len(dataset.vocab) <= high


def test_seeds_share_the_successor_structure_of_ranks():
    """Seeds relabel the items; which rank follows which stays put."""
    w = WORKLOADS["desk"]

    def by_rank(seed):
        item_of_rank, successor = planted_structure(w, seed)
        rank_of_item = np.argsort(item_of_rank)
        return item_of_rank, rank_of_item[successor[item_of_rank]]

    (ids_1, succ_1), (ids_2, succ_2) = by_rank(1), by_rank(2)
    assert np.array_equal(succ_1, succ_2)
    assert not np.array_equal(ids_1, ids_2)


@pytest.mark.parametrize("seed", [1, 2])
def test_training_slice_holds_out_a_fixed_length_mix(tmp_path, seed):
    w = WORKLOADS["desk"]
    path = str(tmp_path / "events.csv")
    write_event_log(generate_sessions(w, seed), path)
    split = data.split_train_test(data.preprocess(data.ingest(path)))
    sliced = training_slice(split.train.sessions, w, w.train_sessions, 0.05)
    grad, val = trainer.split_validation(data.Dataset(sliced, split.train.vocab), 0.05)
    assert len(sliced) == w.train_sessions
    want = {length: k for length, k in length_quotas(w, len(val.sessions)).items() if k}
    got = {}
    for s in val.sessions:
        got[len(s.items)] = got.get(len(s.items), 0) + 1
    assert got == want


# -- checks -------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    return data.split_train_test(synth.cycle_sessions(n_sessions=120, vocab_size=40,
                                                      max_length=10, seed=3))


@pytest.fixture(scope="module", params=["MaxPool", "GRU"])
def model(request, corpus):
    config = ModelConfig(vocab_size=len(corpus.train.vocab), embedding_dim=16,
                         encoder_kind=request.param, max_session_length=10)
    return build_model(config, seed=5)


def test_item_vectors_check(model):
    vectors = index.ItemIndex.from_model(model).vectors
    checks.check_item_vectors(model, vectors, range(len(vectors)))
    vectors = vectors.copy()
    vectors[3, 0] += 1e-3
    with pytest.raises(checks.CheckFailed):
        checks.check_item_vectors(model, vectors, [0, 3])


def test_session_vector_check(model):
    vector = encode_session(model, [1, 2, 3, 2]).values
    checks.check_session_vector(model, [1, 2, 3, 2], vector)
    with pytest.raises(checks.CheckFailed):
        checks.check_session_vector(model, [1, 2, 3, 2], vector[::-1])


def test_topn_check(model):
    rec = index.SmlRecommender.from_model(model)
    vector = encode_session(model, [4, 5]).values
    got = rec.recommend([4, 5], 10)
    checks.check_topn(rec.index.vectors, vector, got, 10)
    with pytest.raises(checks.CheckFailed):
        checks.check_topn(rec.index.vectors, vector, got[1::-1] + got[2:], 10)


def test_topn_check_breaks_ties_on_index():
    vectors = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], np.float32)
    query = np.array([1.0, 0.0], np.float32)
    checks.check_topn(vectors, query, [1, 3, 0], 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_topn(vectors, query, [3, 1, 0], 3)


def test_report_check(corpus, model):
    captured = checks.CapturingRecommender(index.SmlRecommender.from_model(model))
    report = evaluation.evaluate(captured, corpus.test, n=5)
    checks.check_report(report, corpus.test.sessions, captured.calls, 5)

    skewed = dataclasses.replace(report, recall=report.recall + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check_report(skewed, corpus.test.sessions, captured.calls, 5)

    peeking = list(captured.calls)
    peeking[0] = (corpus.test.sessions[0].items[:2], peeking[0][1])  # saw its answer
    with pytest.raises(checks.CheckFailed):
        checks.check_report(report, corpus.test.sessions, peeking, 5)


def test_sknn_check(corpus):
    model = baselines.fit_sknn(corpus.train, k=15)
    train_items = [s.items for s in corpus.train.sessions]
    pop_order = checks.popularity_order(train_items)
    for s in corpus.test.sessions[:5]:
        prefix = s.items[:2]
        checks.check_sknn(train_items, pop_order, prefix, model.recommend(prefix, 8), 15, 8)
    got = model.recommend([1, 2], 8)
    with pytest.raises(checks.CheckFailed):
        checks.check_sknn(train_items, pop_order, [1, 2], got[::-1], 15, 8)


def test_roundtrip_check(corpus, model):
    saved = index.model_to_bytes(model, corpus.train.vocab)
    again = index.model_to_bytes(*index.model_from_bytes(saved))
    checks.check_roundtrip(saved, again)
    flipped = bytearray(again)
    flipped[-1] ^= 1
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip(saved, bytes(flipped))


def test_training_check():
    checks.check_training([0.5, 0.4], 0.01, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_training([0.5, float("nan")], 0.01, 0.05)
    with pytest.raises(checks.CheckFailed):
        checks.check_training([0.5, 0.4], 0.05, 0.05)


# -- tracer -------------------------------------------------------------------

def test_tracer_self_time_and_missing_target():
    spans = [["trainer.train", 0.0, 10.0, -1, None],
             ["losses.session_loss", 1.0, 3.0, 0, None],
             ["autodiff.backward", 3.0, 4.0, 0, 40],
             ["losses.session_loss", 5.0, 6.0, 0, None]]
    metrics = tracing.layer_metrics(spans, model_file_bytes=0)
    assert metrics["trainer.self_ms_per_example"] == (3000.0, "ms")
    assert metrics["autodiff.tape_nodes_per_example"] == (20.0, "count")
    assert "index.topn_p50_ms" not in metrics

    tracer = tracing.Tracer()
    tracer.wrap(losses, "no_such_function", "losses.no_such_function")
    assert tracer.missing == ["losses.no_such_function"]


def test_traced_training_reports_layers_and_uninstalls(corpus):
    originals = (losses.session_loss, index.ItemIndex.topn)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        model = build_model(ModelConfig(vocab_size=len(corpus.train.vocab),
                                        embedding_dim=8), seed=1)
        trainer.train(corpus.train, model, sampler_cfg=sampling.SamplerConfig(),
                      train_cfg=trainer.TrainConfig(max_epochs=1))
    finally:
        tracer.uninstall()
    assert (losses.session_loss, index.ItemIndex.topn) == originals
    metrics = tracing.layer_metrics(tracer.spans, model_file_bytes=0)
    for name in ("sampling.examples_per_epoch", "losses.forward_ms_per_example",
                 "encoders.item_ms_per_example", "autodiff.tape_nodes_per_example",
                 "autodiff.adam_step_ms", "trainer.validate_s", "index.topn_p50_ms",
                 "evaluation.self_ms_per_point"):
        assert metrics[name][0] > 0, name
