"""Correctness checks that do not trust the program's own arithmetic.

Each check recomputes a result apart from ``sml`` (numpy straight from the
model's parameters, brute-force scans, a re-derivation of the metrics) or
tests a property the method must have, and raises :class:`CheckFailed` with
a reason when the program disagrees.  None of them compares against a
stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-5


class CheckFailed(Exception):
    """The program's output disagrees with the independent computation."""


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def numpy_item_vectors(model, items) -> np.ndarray:
    """Embedding row -> tanh dense -> L2 norm, in float64 from the parameters."""
    table = model.item_embedding.values.astype(np.float64)
    w, b = (t.values.astype(np.float64) for t in model.item_ff)
    return _unit_rows(np.tanh(table[list(items)] @ w + b))


def numpy_session_vector(model, prefix) -> np.ndarray:
    """The session encoder re-implemented in float64 (MaxPool and GRU kinds)."""
    cfg = model.config
    x = model.session_table.values.astype(np.float64)[list(prefix)]
    if cfg.encoder_kind == "MaxPool":
        core = x.max(axis=0)
    elif cfg.encoder_kind == "GRU":
        g = {name: getattr(model.gru, name).values.astype(np.float64)
             for name in ("w_update", "u_update", "b_update", "w_reset",
                          "u_reset", "b_reset", "w_cand", "u_cand", "b_cand")}
        sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
        h = np.zeros(cfg.embedding_dim)
        for x_t in x:
            z = sigmoid(x_t @ g["w_update"] + h @ g["u_update"] + g["b_update"])
            r = sigmoid(x_t @ g["w_reset"] + h @ g["u_reset"] + g["b_reset"])
            c = np.tanh(x_t @ g["w_cand"] + (r * h) @ g["u_cand"] + g["b_cand"])
            h = (1.0 - z) * h + z * c
        core = h
    else:
        raise CheckFailed(f"no reference encoder for {cfg.encoder_kind}")
    for w, b in model.session_ff:
        core = np.tanh(core @ w.values.astype(np.float64) + b.values)
    return _unit_rows(core)


def check_item_vectors(model, vectors: np.ndarray, items) -> None:
    """Index rows equal the numpy re-encoding of the same items."""
    items = list(items)
    gap = float(np.max(np.abs(numpy_item_vectors(model, items) - vectors[items])))
    if not gap <= TOLERANCE:
        raise CheckFailed(f"item vectors differ from numpy re-encoding by {gap:.3g}")


def check_session_vector(model, window, vector: np.ndarray) -> None:
    gap = float(np.max(np.abs(numpy_session_vector(model, window) - vector)))
    if not gap <= TOLERANCE:
        raise CheckFailed(f"session vector of {window} differs from numpy "
                          f"re-encoding by {gap:.3g}")


def check_topn(vectors: np.ndarray, session_vector: np.ndarray, got, n: int) -> None:
    """Top-n equals a full sort of every item by (-score, index)."""
    scores = (vectors @ session_vector.astype(np.float32)).tolist()
    want = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:n]
    if list(got) != want:
        raise CheckFailed(f"top-{n} {list(got)[:5]}... is not the full sort "
                          f"{want[:5]}...")


class CapturingRecommender:
    """Passes calls through and keeps every (prefix, ranked list) it served."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[list[int], list[int]]] = []

    def recommend(self, prefix, n: int) -> list[int]:
        ranked = list(self.inner.recommend(prefix, n))
        self.calls.append((list(prefix), ranked))
        return ranked


def check_report(report, sessions, calls, n: int) -> None:
    """Re-derive every EvalReport metric from the captured lists.

    Also checks the strict prefix protocol: call k saw exactly the k-th
    prefix of the test sessions, and never an item at or after its cut.
    """
    expected = [(s.items, cut) for s in sessions for cut in range(1, len(s.items))]
    if len(calls) != len(expected):
        raise CheckFailed(f"{len(calls)} recommend calls for {len(expected)} points")
    sums = dict(map=0.0, precision=0.0, recall=0.0, hit_rate=0.0, mrr=0.0)
    covered: set[int] = set()
    for (items, cut), (prefix, ranked) in zip(expected, calls):
        if prefix != list(items[:cut]):
            raise CheckFailed(f"recommender saw {prefix}, expected {items[:cut]}")
        ranked = ranked[:n]
        nxt = items[cut]
        relevant = set(items[cut:])
        hits = [item in relevant for item in ranked]
        sums["hit_rate"] += float(nxt in ranked)
        sums["mrr"] += 1.0 / (ranked.index(nxt) + 1) if nxt in ranked else 0.0
        sums["precision"] += sum(hits) / n
        sums["recall"] += sum(hits) / len(relevant)
        sums["map"] += sum(sum(hits[:k + 1]) / (k + 1)
                           for k in range(len(hits)) if hits[k]) / min(len(relevant), n)
        covered.update(ranked)
    got = report.as_dict()
    if got["points"] != len(expected) or got["coverage"] != len(covered):
        raise CheckFailed(f"points/coverage {got['points']}/{got['coverage']} "
                          f"!= {len(expected)}/{len(covered)}")
    for key, total in sums.items():
        if not math.isclose(got[key], total / len(expected), rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"{key} {got[key]!r} != recomputed {total / len(expected)!r}")


def popularity_order(train_sessions) -> list[int]:
    """Items by descending event count, ties to the lower index."""
    counts: dict[int, int] = {}
    for items in train_sessions:
        for item in items:
            counts[item] = counts.get(item, 0) + 1
    return sorted(counts, key=lambda i: (-counts[i], i))


def sknn_brute_force(train_sessions, pop_order, prefix, k: int, n: int) -> list[int]:
    """Set-cosine session KNN by scanning every training session.

    Constant prefix weights; the k most similar sessions (ties to the earlier
    session) vote their summed similarity onto their items; ties between
    items break on ascending index and popularity fills the tail.
    """
    query = set(prefix)
    query_norm = math.sqrt(float(len(query)))
    scored = []
    for pos, items in enumerate(train_sessions):
        items = set(items)
        overlap = float(len(query & items))
        if overlap > 0.0:
            scored.append((overlap / (query_norm * math.sqrt(len(items))), pos))
    scored.sort(key=lambda t: (-t[0], t[1]))
    scores: dict[int, float] = {}
    for sim, pos in scored[:k]:
        for item in set(train_sessions[pos]):
            scores[item] = scores.get(item, 0.0) + sim
    ranked = sorted(scores, key=lambda i: (-scores[i], i))[:n]
    chosen = set(ranked)
    for item in pop_order:
        if len(ranked) >= n:
            break
        if item not in chosen:
            ranked.append(item)
    return ranked


def check_sknn(train_sessions, pop_order, prefix, got, k: int, n: int) -> None:
    want = sknn_brute_force(train_sessions, pop_order, prefix, k, n)
    if list(got) != want:
        raise CheckFailed(f"SKNN for {prefix}: {list(got)[:5]}... != brute force "
                          f"{want[:5]}...")


def check_roundtrip(first: bytes, second: bytes) -> None:
    if first != second:
        raise CheckFailed("save -> load -> save is not byte-identical")


def check_training(losses, recall_before: float, recall_after: float) -> None:
    if not losses or not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"epoch losses not all finite: {losses}")
    if not recall_after > recall_before:
        raise CheckFailed(f"recall@20 after training {recall_after:.4f} does not "
                          f"beat before training {recall_before:.4f}")
