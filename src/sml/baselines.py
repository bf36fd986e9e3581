"""Non-learned session baselines: POP, SPOP, MARKOV-1, SKNN, VSKNN.

Every recommender returns a duplicate-free ranking of exactly ``n`` items
(or the whole vocabulary when it is smaller), padding with global
popularity where its own signal runs out.  POP and the session KNNs rank
with :func:`index.top_k`, ties to the lower item index; SPOP breaks count
ties on recency and MARKOV-1 on the lower index, so results are
reproducible down to the last position.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import Dataset
from .index import top_k


def _fill_with_popularity(ranked: list[int], n: int, pop_order: list[int]) -> list[int]:
    out = list(ranked[:n])
    if len(out) < n:
        chosen = set(out)
        for item in pop_order:
            if item not in chosen:
                out.append(item)
                if len(out) == n:
                    break
    return out


# ---------------------------------------------------------------------------
# POP
# ---------------------------------------------------------------------------

@dataclass
class PopModel:
    counts: list[int]
    order: list[int] = field(default_factory=list)

    def recommend(self, prefix, n: int) -> list[int]:
        """Global popularity, independent of the prefix."""
        if n < 1:
            raise ValueError("n must be positive")
        return self.order[:n]


def fit_pop(train: Dataset) -> PopModel:
    counts = [0] * len(train.vocab)
    for s in train.sessions:
        for item in s.items:
            counts[item] += 1
    return PopModel(counts, top_k(counts, len(counts)).tolist())


# ---------------------------------------------------------------------------
# SPOP
# ---------------------------------------------------------------------------

@dataclass
class SPopModel:
    pop: PopModel

    def recommend(self, prefix, n: int) -> list[int]:
        """Items of the running session by frequency; recency breaks ties."""
        if n < 1:
            raise ValueError("n must be positive")
        count: Counter = Counter(prefix)
        last_seen = {item: pos for pos, item in enumerate(prefix)}
        in_session = sorted(count, key=lambda i: (-count[i], -last_seen[i], i))
        return _fill_with_popularity(in_session, n, self.pop.order)


def fit_spop(train: Dataset) -> SPopModel:
    return SPopModel(fit_pop(train))


# ---------------------------------------------------------------------------
# MARKOV-1
# ---------------------------------------------------------------------------

@dataclass
class MarkovModel:
    transitions: dict[int, Counter]
    pop: PopModel

    def recommend(self, prefix, n: int) -> list[int]:
        """Successors of the last item by transition count, then popularity."""
        if n < 1:
            raise ValueError("n must be positive")
        succ = self.transitions.get(prefix[-1], Counter())
        ranked = sorted(succ, key=lambda i: (-succ[i], i))
        return _fill_with_popularity(ranked, n, self.pop.order)


def fit_markov(train: Dataset) -> MarkovModel:
    transitions: dict[int, Counter] = defaultdict(Counter)
    for s in train.sessions:
        for a, b in zip(s.items, s.items[1:]):
            transitions[a][b] += 1
    return MarkovModel(dict(transitions), fit_pop(train))


# ---------------------------------------------------------------------------
# SKNN / VSKNN
# ---------------------------------------------------------------------------

def linear_position_weight(position: int, length: int) -> float:
    """Weight of the 1-based prefix position: position / length."""
    return position / length


def constant_position_weight(position: int, length: int) -> float:
    return 1.0


@dataclass
class SknnModel:
    """Session KNN over item sets, weighting query items by prefix position.

    With the default constant weights this is set-cosine SKNN; with
    :func:`linear_position_weight` it is VSKNN, in which recent prefix items
    count more.
    """
    session_items: list[np.ndarray]     # session position -> its distinct items
    item_sessions: list[np.ndarray]     # item -> positions of sessions holding it, ascending
    k: int
    pop: PopModel
    position_weight: Callable[[int, int], float] = constant_position_weight
    norms: np.ndarray = field(init=False, repr=False)   # sqrt of each session's item count

    def __post_init__(self):
        self.norms = np.sqrt([len(items) for items in self.session_items], dtype=float)

    def neighbours(self, weights: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
        """Session positions and similarities of the k nearest overlapping
        sessions, most similar first.

        Only sessions sharing at least one query item can have non-zero
        similarity, so scanning the inverted index is exact, not approximate.
        """
        query_norm = math.sqrt(sum(w * w for w in weights.values()))
        if query_norm == 0.0:
            return np.empty(0, dtype=np.intp), np.empty(0)
        overlap = np.zeros(len(self.session_items))
        for item, w in weights.items():
            overlap[self.item_sessions[item]] += w
        positions = np.flatnonzero(overlap)
        sims = overlap[positions] / (query_norm * self.norms[positions])
        best = top_k(sims, self.k)
        return positions[best], sims[best]

    def recommend(self, prefix, n: int) -> list[int]:
        """Score items by summed similarity of the neighbour sessions they occur in."""
        if n < 1:
            raise ValueError("n must be positive")
        length = len(prefix)
        weights: dict[int, float] = {}
        for pos, item in enumerate(prefix, start=1):
            weights[item] = max(weights.get(item, 0.0), self.position_weight(pos, length))

        positions, sims = self.neighbours(weights)
        voters = [self.session_items[pos] for pos in positions]
        # bincount adds in input order: each item sums its votes neighbour by neighbour
        scores = np.bincount(np.concatenate([np.empty(0, dtype=np.intp), *voters]),
                             np.repeat(sims, [len(items) for items in voters]),
                             minlength=len(self.item_sessions))
        voted = np.flatnonzero(scores)
        ranked = voted[top_k(scores[voted], n)].tolist()
        return _fill_with_popularity(ranked, n, self.pop.order)


def fit_sknn(train: Dataset, k: int = 100,
             position_weight: Callable[[int, int], float] = constant_position_weight
             ) -> SknnModel:
    if k < 1:
        raise ValueError("k must be positive")
    distinct = [sorted(set(s.items)) for s in train.sessions]
    item_sessions: list[list[int]] = [[] for _ in range(len(train.vocab))]
    for pos, items in enumerate(distinct):
        for item in items:
            item_sessions[item].append(pos)
    session_items = [np.array(items, dtype=np.intp) for items in distinct]
    return SknnModel(session_items, [np.array(p, dtype=np.intp) for p in item_sessions],
                     k, fit_pop(train), position_weight)
