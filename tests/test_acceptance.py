"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and then asserts it.  Tolerances are
pinned in the assertions, not configurable.
"""

import json
import time

import numpy as np
import pytest

from sml import autodiff as ad
from sml import (baselines, data, evaluation, index, losses, sampling,
                 synth, trainer)
from sml.encoders import ModelConfig, build_model
from sml.index import SmlRecommender
from tape_ops import grad_check, kernel, mul, reduce_sum
from test_baselines import CORPUS, make_dataset


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks, randomized
# ---------------------------------------------------------------------------

def _weighted_sum(tape, ts, out, rng):
    w = ad.constant(rng.normal(size=out.shape))
    return reduce_sum(tape, mul(tape, out, w))


def _separated(rng, shape, margin=0.02):
    """Random matrix whose per-column values stay apart, keeping the max
    picks of a pooling op stable under finite-difference perturbation."""
    while True:
        x = rng.normal(size=shape)
        gaps = np.diff(np.sort(x, axis=0), axis=0)
        if gaps.size == 0 or gaps.min() > margin:
            return x


def _check_embedding_lookup(trial):
    rng = np.random.default_rng([101, trial])
    params = {"table": rng.normal(size=(5, 3))}
    idx = [int(i) for i in rng.integers(0, 5, size=4)]  # duplicates welcome

    def build(tape, ts):
        rows = ad.embedding_lookup(tape, ts["table"], idx)
        return _weighted_sum(tape, ts, rows, np.random.default_rng([1, trial]))

    return grad_check(build, params)


def _check_dense(trial):
    rng = np.random.default_rng([102, trial])
    params = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)),
              "b": rng.normal(size=2)}

    def build(tape, ts):
        out = ad.dense(tape, ts["x"], ts["w"], ts["b"])
        return _weighted_sum(tape, ts, out, np.random.default_rng([2, trial]))

    return grad_check(build, params)


def _check_seq_pool_max(trial):
    rng = np.random.default_rng([103, trial])
    params = {"x": _separated(rng, (5, 3))}
    length = 1 + trial % 5

    def build(tape, ts):
        out = ad.seq_pool(tape, ts["x"], "max", length)
        return _weighted_sum(tape, ts, out, np.random.default_rng([3, trial]))

    return grad_check(build, params)


def _check_seq_pool_mean(trial):
    rng = np.random.default_rng([104, trial])
    params = {"x": rng.normal(size=(5, 3))}
    length = 1 + trial % 5

    def build(tape, ts):
        out = ad.seq_pool(tape, ts["x"], "mean", length)
        return _weighted_sum(tape, ts, out, np.random.default_rng([4, trial]))

    return grad_check(build, params)


def _check_conv1d(trial):
    rng = np.random.default_rng([105, trial])
    k = 1 + trial % 3
    params = {"x": rng.normal(size=(5, 2)),
              "filters": rng.normal(size=(k, 2, 3)),
              "bias": rng.normal(size=3)}

    def build(tape, ts):
        out = ad.conv1d(tape, ts["x"], ts["filters"], ts["bias"])
        return _weighted_sum(tape, ts, out, np.random.default_rng([5, trial]))

    return grad_check(build, params)


def _check_gru_sequence(trial):
    rng = np.random.default_rng([106, trial])
    d = 3
    params = {"x": rng.normal(size=(2 + trial % 3, d)),
              "h0": rng.normal(size=d)}
    for gate in ("update", "reset", "cand"):
        params[f"w_{gate}"] = rng.normal(size=(d, d)) * 0.5
        params[f"u_{gate}"] = rng.normal(size=(d, d)) * 0.5
        params[f"b_{gate}"] = rng.normal(size=d) * 0.1

    def build(tape, ts):
        gp = ad.GRUParams(
            w_update=ts["w_update"], u_update=ts["u_update"],
            b_update=ts["b_update"], w_reset=ts["w_reset"],
            u_reset=ts["u_reset"], b_reset=ts["b_reset"],
            w_cand=ts["w_cand"], u_cand=ts["u_cand"], b_cand=ts["b_cand"])
        out = ad.gru_sequence(tape, ts["x"], gp, ts["h0"])
        return _weighted_sum(tape, ts, out, np.random.default_rng([6, trial]))

    return grad_check(build, params)


def _check_l2_normalize(trial):
    rng = np.random.default_rng([107, trial])
    vec = rng.normal(size=4)
    while np.linalg.norm(vec) < 0.5:
        vec = rng.normal(size=4)
    params = {"x": vec}

    def build(tape, ts):
        out = ad.l2_normalize(tape, ts["x"])
        return _weighted_sum(tape, ts, out, np.random.default_rng([7, trial]))

    return grad_check(build, params)


def _check_cosine_distance(trial):
    rng = np.random.default_rng([108, trial])
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}

    def build(tape, ts):
        out = ad.cosine_distance(tape, ts["a"], ts["b"])
        return _weighted_sum(tape, ts, out, np.random.default_rng([8, trial]))

    return grad_check(build, params)


def _rand_distance(rng):
    return float(rng.uniform(0.05, 1.95))


def _check_bpr(trial):
    rng = np.random.default_rng([201, trial])
    params = {"dp": np.array(_rand_distance(rng)),
              "dn": np.array(_rand_distance(rng))}

    def build(tape, ts):
        return kernel(tape, losses._bpr, (ts["dp"], ts["dn"]))

    return grad_check(build, params)


def _check_top1(trial):
    rng = np.random.default_rng([202, trial])
    params = {"dp": np.array(_rand_distance(rng)),
              "dn": np.array(_rand_distance(rng))}

    def build(tape, ts):
        return kernel(tape, losses._top1, (ts["dp"], ts["dn"]))

    return grad_check(build, params)


def _check_contrastive(trial):
    rng = np.random.default_rng([203, trial])
    while True:
        dp, dn = _rand_distance(rng), _rand_distance(rng)
        if abs(dn - 0.3) > 0.02:  # stay off the hinge corner
            break
    params = {"dp": np.array(dp), "dn": np.array(dn)}

    def build(tape, ts):
        return kernel(tape, losses._contrastive, (ts["dp"], ts["dn"]), margin=0.3)

    return grad_check(build, params)


def _triplet_units(margin, use_swap):
    def check(trial):
        rng = np.random.default_rng([204, int(margin != 0.0), int(use_swap), trial])
        while True:
            dp, dn = _rand_distance(rng), _rand_distance(rng)
            dpn = _rand_distance(rng)
            effective = min(dn, dpn) if use_swap else dn
            if abs(dp - effective + margin) < 0.02:
                continue  # too close to the hinge to difference safely
            if use_swap and abs(dn - dpn) < 0.02:
                continue  # too close to the min() switch
            break
        params = {"dp": np.array(dp), "dn": np.array(dn)}
        if use_swap:
            params["dpn"] = np.array(dpn)

        def build(tape, ts):
            return kernel(tape, losses._triplet, [ts[name] for name in params],
                          margin=margin)

        return grad_check(build, params)

    return check


def _ncas_units(model_first):
    def check(trial):
        rng = np.random.default_rng([205, int(model_first), trial])
        count = int(rng.integers(2, 6))
        flags = [bool(f) for f in rng.integers(0, 2, size=count)]
        if not any(flags):
            flags[0] = True
        params = {"d": np.array([_rand_distance(rng) for _ in range(count)])}

        def build(tape, ts):
            return losses.ncas_from_distances(tape, ts["d"], flags,
                                              epsilon=0.3,
                                              model_first=model_first)

        return grad_check(build, params)

    return check


GRADIENT_UNITS = {
    "embedding_lookup": _check_embedding_lookup,
    "dense": _check_dense,
    "seq_pool_max": _check_seq_pool_max,
    "seq_pool_mean": _check_seq_pool_mean,
    "conv1d": _check_conv1d,
    "gru_sequence": _check_gru_sequence,
    "l2_normalize": _check_l2_normalize,
    "cosine_distance": _check_cosine_distance,
    "loss_bpr": _check_bpr,
    "loss_top1": _check_top1,
    "loss_contrastive": _check_contrastive,
    "loss_triplet": _triplet_units(margin=0.3, use_swap=False),
    "loss_triplet_no_margin": _triplet_units(margin=0.0, use_swap=False),
    "loss_triplet_swap": _triplet_units(margin=0.3, use_swap=True),
    "loss_ncas": _ncas_units(model_first=False),
    "loss_ncas_model_first": _ncas_units(model_first=True),
}


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    worst_err, worst_unit = 0.0, "none"
    for name, check in GRADIENT_UNITS.items():
        for trial in range(20):
            err = check(trial)
            if err > worst_err:
                worst_err, worst_unit = err, f"{name}[{trial}]"
    elapsed = time.perf_counter() - started
    ok = worst_err < 1e-3 and elapsed < 60.0
    _verdict(1, ok, f"{len(GRADIENT_UNITS)} units x 20 instances, worst rel "
                    f"err {worst_err:.2e} ({worst_unit}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: loss identities
# ---------------------------------------------------------------------------

def _scalar_loss(fn, *args, **kwargs):
    tensors = [ad.constant(np.array(a, dtype=np.float64)) for a in args]
    return float(kernel(None, fn, tensors, **kwargs).values)


def test_criterion_02_loss_identities():
    checks = []

    v = _scalar_loss(losses._triplet, 0.2, 0.6, margin=0.3)
    checks.append(("triplet(0.2,0.6,m=0.3)=0", abs(v - 0.0) <= 1e-6, v))

    v = _scalar_loss(losses._bpr, 0.4, 0.4)
    checks.append(("bpr(d,d)=ln2", abs(v - np.log(2.0)) <= 1e-6, v))

    v = _scalar_loss(losses._top1, 1.0, 1.0)
    checks.append(("top1(1,1)=1", abs(v - 1.0) <= 1e-6, v))

    # softmax of negated distances equals the smoothed target (0.85, 0.15)
    gap = float(np.log(0.85 / 0.15))
    dists = ad.constant(np.array([0.2, 0.2 + gap]))
    v = float(losses.ncas_from_distances(None, dists, [True, False],
                                         epsilon=0.3).values)
    checks.append(("ncas(match)=0", abs(v) <= 1e-6, v))

    bad = [f"{name} (got {value!r})" for name, ok, value in checks if not ok]
    _verdict(2, not bad, "all four identities within 1e-6" if not bad
             else "failed: " + "; ".join(bad))


# ---------------------------------------------------------------------------
# criterion 3: ranking metrics against an independent brute force
# ---------------------------------------------------------------------------

def _brute_force_metrics(ranked, relevant, next_item, n):
    top = list(ranked)[:n]
    hit = 1.0 if next_item in top else 0.0
    rr = 0.0
    for position, item in enumerate(top):
        if item == next_item:
            rr = 1.0 / (position + 1)
            break
    inter = sum(1 for item in top if item in relevant)
    precision = inter / n
    recall = inter / len(relevant)
    ap, seen = 0.0, 0
    for position, item in enumerate(top):
        if item in relevant:
            seen += 1
            ap += seen / (position + 1)
    ap /= min(len(relevant), n)
    return {"map": ap, "precision": precision, "recall": recall,
            "hit": hit, "rr": rr}


def test_criterion_03_metric_oracles():
    n = 20
    mismatches = []
    for trial in range(60):
        rng = np.random.default_rng([301, trial])
        vocab = int(rng.integers(40, 200))
        ranked = [int(i) for i in rng.permutation(vocab)[:n]]
        relevant = {int(i) for i in
                    rng.choice(vocab, size=int(rng.integers(1, 30)),
                               replace=False)}
        next_item = (ranked[int(rng.integers(n))] if rng.random() < 0.5
                     else int(rng.integers(vocab)))
        want = _brute_force_metrics(ranked, relevant, next_item, n)
        got = {
            "map": evaluation.average_precision_at_n(relevant, ranked, n),
            "precision": evaluation.precision_at_n(relevant, ranked, n),
            "recall": evaluation.recall_at_n(relevant, ranked),
            "hit": evaluation.hit_at_n(next_item, ranked),
            "rr": evaluation.reciprocal_rank_at_n(next_item, ranked),
        }
        for key in want:
            if got[key] != want[key]:
                mismatches.append(f"trial {trial} {key}: "
                                  f"{got[key]!r} != {want[key]!r}")
    _verdict(3, not mismatches,
             "60 randomized instances, 5 metrics each, exact float equality"
             if not mismatches else "; ".join(mismatches[:3]))


# ---------------------------------------------------------------------------
# criterion 4: baseline rankings on the hand-built corpus
# ---------------------------------------------------------------------------

def test_criterion_04_baseline_oracles():
    train = make_dataset(CORPUS, vocab_size=8)
    problems = []

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: {got} != {want}")

    pop = baselines.fit_pop(train)
    expect("pop order", pop.order, [2, 3, 0, 1, 4, 5, 6, 7])

    spop = baselines.fit_spop(train)
    expect("spop [3,0,3]", spop.recommend([3, 0, 3], 4), [3, 0, 2, 1])
    expect("spop recency tie", spop.recommend([1, 2], 4), [2, 1, 3, 0])

    markov = baselines.fit_markov(train)
    expect("markov after 0", markov.recommend([2, 0], 4), [1, 3, 2, 0])
    expect("markov unseen", markov.recommend([7], 4), [2, 3, 0, 1])

    sknn = baselines.fit_sknn(train, k=2)
    expect("sknn {0,1}", sknn.recommend([0, 1], 6), [1, 2, 0, 3, 4, 5])
    vsknn = baselines.fit_sknn(
        train, k=2, position_weight=baselines.linear_position_weight)
    expect("vsknn [1,0]", vsknn.recommend([1, 0], 4), [0, 2, 1, 3])
    expect("vsknn [0,1]", vsknn.recommend([0, 1], 4), [1, 2, 0, 3])

    # degeneracy: constant position weights must reduce VSKNN to SKNN
    model = baselines.fit_sknn(train, k=3)
    const_model = baselines.fit_sknn(
        train, k=3, position_weight=baselines.constant_position_weight)
    rng = np.random.default_rng(404)
    for _ in range(100):
        prefix = [int(i) for i in rng.integers(0, 8,
                                               size=int(rng.integers(1, 6)))]
        plain = model.recommend(prefix, 6)
        const = const_model.recommend(prefix, 6)
        if plain != const:
            problems.append(f"degeneracy broke on prefix {prefix}")
            break

    _verdict(4, not problems,
             "hand rankings exact; VSKNN(const)=SKNN on 100 prefixes"
             if not problems else "; ".join(problems[:3]))


# ---------------------------------------------------------------------------
# criterion 5: retrieval equals exhaustive scoring + stable sort
# ---------------------------------------------------------------------------

def test_criterion_05_retrieval_exactness():
    rng = np.random.default_rng(505)
    vectors = rng.normal(size=(1000, 16)).astype(np.float32)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    idx = index.ItemIndex(vectors)

    worst_drift = 0.0
    for trial in range(100):
        query = rng.normal(size=16).astype(np.float32)
        query /= np.linalg.norm(query)
        scores = idx.scores(query)
        want = sorted(range(1000), key=lambda i: (-scores[i], i))[:20]
        got = idx.topn(query, 20)
        if [item for item, _ in got] != want:
            _verdict(5, False, f"query {trial}: selection mismatch")
        if any(score != float(scores[item]) for item, score in got):
            _verdict(5, False, f"query {trial}: reported scores drifted")
        # independent numeric check of the matvec itself, in float64
        reference = vectors.astype(np.float64) @ query.astype(np.float64)
        worst_drift = max(worst_drift,
                          float(np.max(np.abs(scores - reference))))
    ok = worst_drift < 1e-6
    _verdict(5, ok, f"100 queries x 1000 items: exhaustive-sort equality, "
                    f"float64 drift {worst_drift:.1e} < 1e-6")


# ---------------------------------------------------------------------------
# criteria 6 + 7: synthetic end-to-end run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthetic_run():
    corpus = synth.cycle_sessions(n_sessions=200, vocab_size=50, seed=7)
    split = data.split_train_test(corpus, 0.1)
    model = build_model(ModelConfig(vocab_size=len(split.train.vocab),
                                    embedding_dim=400,
                                    encoder_kind="MaxPool"), seed=0)
    started = time.perf_counter()
    result = trainer.train(split.train, model,
                           loss_cfg=losses.LossConfig(kind="Triplet"),
                           sampler_cfg=sampling.SamplerConfig(rng_seed=0),
                           train_cfg=trainer.TrainConfig())
    elapsed = time.perf_counter() - started
    sml_report = evaluation.evaluate(SmlRecommender.from_model(result.model),
                                     split.test, n=20)
    pop_report = evaluation.evaluate(baselines.fit_pop(split.train),
                                     split.test, n=20)
    markov_report = evaluation.evaluate(baselines.fit_markov(split.train),
                                        split.test, n=20)
    return {"result": result, "elapsed": elapsed, "sml": sml_report,
            "pop": pop_report, "markov": markov_report}


def test_criterion_06_overfit_smoke(synthetic_run):
    report = synthetic_run["sml"]
    epochs = len(synthetic_run["result"].history)
    elapsed = synthetic_run["elapsed"]
    ok = (report.recall >= 0.9 and report.mrr >= 0.5
          and epochs <= 150 and elapsed < 300.0)
    _verdict(6, ok, f"rec@20 {report.recall:.4f} (>=0.9), "
                    f"mrr@20 {report.mrr:.4f} (>=0.5), "
                    f"{epochs} epochs, {elapsed:.1f}s (<300)")


def test_criterion_07_ordering_property(synthetic_run):
    sml_mrr = synthetic_run["sml"].mrr
    pop_mrr = synthetic_run["pop"].mrr
    markov_mrr = synthetic_run["markov"].mrr
    ok = sml_mrr >= 2.0 * pop_mrr and markov_mrr >= pop_mrr
    _verdict(7, ok, f"mrr@20: SML {sml_mrr:.4f} >= 2x POP {pop_mrr:.4f}; "
                    f"MARKOV-1 {markov_mrr:.4f} >= POP")


# ---------------------------------------------------------------------------
# criterion 8: shared item table helps (directional, 3-seed median)
# ---------------------------------------------------------------------------

def test_criterion_08_common_embedding_direction():
    corpus = synth.cycle_sessions(n_sessions=200, vocab_size=50, seed=7)
    split = data.split_train_test(corpus, 0.1)
    medians = {}
    for common in (True, False):
        recalls = []
        for seed in (0, 1, 2):
            model = build_model(
                ModelConfig(vocab_size=len(split.train.vocab),
                            embedding_dim=64, encoder_kind="MaxPool",
                            common_embedding=common), seed=seed)
            result = trainer.train(
                split.train, model,
                loss_cfg=losses.LossConfig(kind="Triplet"),
                sampler_cfg=sampling.SamplerConfig(rng_seed=seed),
                train_cfg=trainer.TrainConfig(max_epochs=30))
            report = evaluation.evaluate(
                SmlRecommender.from_model(result.model), split.test, n=20)
            recalls.append(report.recall)
        medians[common] = sorted(recalls)[1]
    ok = medians[True] >= medians[False]
    _verdict(8, ok, f"rec@20 median of 3 seeds: shared {medians[True]:.4f} "
                    f">= separate {medians[False]:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: full-scale reproduction (not desk scale)
# ---------------------------------------------------------------------------

@pytest.mark.skip(reason="criterion 9: full-scale public-dataset run takes "
                         "hours of training; excluded from the default "
                         "suite by design, see notes in the repo README")
def test_criterion_09_full_reproduction():
    pass  # pragma: no cover


# ---------------------------------------------------------------------------
# criterion 10: bit-level determinism of artifacts and reports
# ---------------------------------------------------------------------------

def _train_once(seed):
    corpus = synth.cycle_sessions(n_sessions=60, vocab_size=20, seed=11)
    split = data.split_train_test(corpus, 0.1)
    model = build_model(ModelConfig(vocab_size=len(split.train.vocab),
                                    embedding_dim=16, encoder_kind="MaxPool"),
                        seed=seed)
    trainer.train(split.train, model,
                  loss_cfg=losses.LossConfig(),
                  sampler_cfg=sampling.SamplerConfig(samples_per_session=4,
                                                     rng_seed=seed),
                  train_cfg=trainer.TrainConfig(max_epochs=3))
    blob = index.model_to_bytes(model, split.train.vocab)
    report = evaluation.evaluate(SmlRecommender.from_model(model),
                                 split.test, n=10)
    return blob, json.dumps(report.as_dict(), sort_keys=True)


def test_criterion_10_determinism():
    blob_a, report_a = _train_once(seed=5)
    blob_b, report_b = _train_once(seed=5)
    ok = blob_a == blob_b and report_a == report_b
    _verdict(10, ok, f"two seeded runs: model artifact "
                     f"({len(blob_a)} bytes) and evaluation report identical"
             if ok else "artifacts or reports differ between seeded runs")
