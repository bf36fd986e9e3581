"""Non-learned session baselines: POP, SPOP, MARKOV-1, SKNN, VSKNN.

Every recommender returns a duplicate-free ranking of exactly ``n`` items
(or the whole vocabulary when it is smaller), padding with global
popularity where its own signal runs out.  All orderings break ties on
ascending item index so results are reproducible down to the last position.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .data import Dataset


def _popularity_order(counts: list[int]) -> list[int]:
    return sorted(range(len(counts)), key=lambda i: (-counts[i], i))


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
    return PopModel(counts, _popularity_order(counts))


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
    item_sets: list[frozenset]
    by_item: dict[int, list[int]]       # item -> session positions
    k: int
    pop: PopModel
    position_weight: Callable[[int, int], float] = constant_position_weight

    def recommend(self, prefix, n: int) -> list[int]:
        """Score items by summed similarity of the neighbour sessions they occur in."""
        if n < 1:
            raise ValueError("n must be positive")
        length = len(prefix)
        weights: dict[int, float] = {}
        for pos, item in enumerate(prefix, start=1):
            weights[item] = max(weights.get(item, 0.0), self.position_weight(pos, length))

        scores: dict[int, float] = defaultdict(float)
        for sim, pos in _neighbours(self, weights):
            for item in self.item_sets[pos]:
                scores[item] += sim
        ranked = sorted(scores, key=lambda i: (-scores[i], i))
        return _fill_with_popularity(ranked, n, self.pop.order)


def fit_sknn(train: Dataset, k: int = 100,
             position_weight: Callable[[int, int], float] = constant_position_weight
             ) -> SknnModel:
    if k < 1:
        raise ValueError("k must be positive")
    item_sets = [frozenset(s.items) for s in train.sessions]
    by_item: dict[int, list[int]] = defaultdict(list)
    for pos, items in enumerate(item_sets):
        for item in items:
            by_item[item].append(pos)
    return SknnModel(item_sets, dict(by_item), k, fit_pop(train), position_weight)


def _neighbours(model: SknnModel, weights: dict[int, float]) -> list[tuple[float, int]]:
    """(similarity, session position) for the k nearest overlapping sessions.

    Only sessions sharing at least one query item can have non-zero
    similarity, so scanning the inverted index is exact, not approximate.
    """
    query_norm = math.sqrt(sum(w * w for w in weights.values()))
    if query_norm == 0.0:
        return []
    candidates = set()
    for item in weights:
        candidates.update(model.by_item.get(item, ()))
    scored = []
    for pos in candidates:
        items = model.item_sets[pos]
        overlap = sum(weights[i] for i in weights.keys() & items)
        if overlap <= 0.0:
            continue
        sim = overlap / (query_norm * math.sqrt(len(items)))
        scored.append((sim, pos))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored[:model.k]
